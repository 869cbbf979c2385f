import itertools
import random
import time

import pytest

from orderlab.errors import (
    AlphabetMismatch,
    BadLetter,
    InvalidAutomaton,
    InvalidLasso,
    InvalidWitness,
    WellFounded,
)
from orderlab import lexcode, oracles, suites
from orderlab.order import validate_poset
from orderlab.trees import (
    LassoPath,
    TreeAutomaton,
    automaton,
    canonical_lasso,
    challenger_check,
    lasso_in_tree,
    leftmost_path,
    live_states,
    minimal_path,
    path_left_of,
)


def loop_and_branch():
    # state 0 branches: letter 0 leads to state 1 (self loop on 1),
    # letter 1 loops back to 0
    return automaton(2, 2, 0, [(0, 0, 1), (0, 1, 0), (1, 1, 1)])


def test_automaton_validation():
    with pytest.raises(InvalidAutomaton):
        automaton(1, 0, 0, [])
    with pytest.raises(InvalidAutomaton):
        automaton(1, 1, 1, [])
    with pytest.raises(BadLetter):
        automaton(1, 1, 0, [(0, 3, 0)])
    with pytest.raises(InvalidAutomaton):
        automaton(2, 1, 0, [(0, 0, 0), (0, 0, 5)])


@pytest.mark.parametrize(
    "args, error, message",
    [
        # a conflict, no state, a bad start, a transition out of range
        (
            (1, 0, 3, [(0, 5, 9), (0, 5, 8)]),
            InvalidAutomaton,
            "conflicting transitions from state 0 on letter 5",
        ),
        ((1, 0, 3, [(0, 5, 9)]), InvalidAutomaton, "an automaton needs at least one state"),
        ((1, 2, 2, [(0, 5, 9)]), InvalidAutomaton, "start state out of range"),
        ((1, 2, -1, [(3, 0, 0)]), InvalidAutomaton, "start state out of range"),
        # the first bad transition in the order given decides
        (
            (1, 2, 0, [(0, 0, 1), (1, 4, 0), (0, 0, 1), (0, 3, 7)]),
            BadLetter,
            "letter 4 is outside the alphabet",
        ),
        # a state outside the range before a letter outside it
        ((1, 2, 0, [(2, 4, 0)]), InvalidAutomaton, "transition (2,4)->0 leaves the state set"),
        ((1, 2, 0, [(0, -1, 5)]), InvalidAutomaton, "transition (0,-1)->5 leaves the state set"),
    ],
)
def test_automaton_reports_the_first_problem(args, error, message):
    with pytest.raises(error) as caught:
        automaton(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_node_membership():
    aut = loop_and_branch()
    assert aut.run(()) is not None
    assert aut.run((1, 1, 0, 1)) is not None
    assert aut.run((0, 0)) is None


def test_live_states_fixpoint():
    dead = automaton(1, 3, 0, [(0, 0, 1), (1, 0, 2)])
    assert live_states(dead) == frozenset()
    alive = automaton(1, 3, 0, [(0, 0, 1), (1, 0, 2), (2, 0, 2)])
    assert live_states(alive) == frozenset({0, 1, 2})
    mixed = automaton(2, 2, 0, [(0, 0, 0), (0, 1, 1)])
    assert live_states(mixed) == frozenset({0})


def gfp_live(aut):
    """Reference liveness: drop states with no successor in the set until
    nothing changes."""
    live = set(range(aut.states))
    while True:
        keep = {s for s in live if any(t in live for (r, _), t in aut.delta.items() if r == s)}
        if keep == live:
            return frozenset(live)
        live = keep


def test_live_states_matches_reference_on_every_small_automaton():
    # every transition table over 1 to 3 states and 1 or 2 letters; target
    # ``states`` stands for "no transition"
    tables = 0
    for states in range(1, 4):
        for letters in (1, 2):
            slots = list(itertools.product(range(states), range(letters)))
            for targets in itertools.product(range(states + 1), repeat=len(slots)):
                delta = {slot: t for slot, t in zip(slots, targets) if t < states}
                aut = TreeAutomaton(letters, states, 0, delta)
                assert live_states(aut) == gfp_live(aut), delta
                tables += 1
    assert tables == 2 + 4 + 9 + 81 + 64 + 4096


def test_live_states_on_a_long_dead_end_chain():
    # a live loop at the start state, then 10**4 states that all die, last
    # first: a fixpoint that drops one state per pass is quadratic here
    n = 10_000
    delta = {(0, 0): 0, **{(i, 1): i + 1 for i in range(n - 1)}}
    aut = TreeAutomaton(2, n, 0, delta)
    start = time.perf_counter()
    live = live_states(aut)
    elapsed = time.perf_counter() - start
    assert live == frozenset({0})
    assert elapsed < 0.1, elapsed


def test_lasso_validation_and_expansion():
    with pytest.raises(InvalidLasso):
        LassoPath((), ())
    l = LassoPath((2,), (0, 1))
    assert l.take(5) == (2, 0, 1, 0, 1)


def test_canonical_lasso():
    assert canonical_lasso(LassoPath((0, 1), (1,))) == LassoPath((0,), (1,))
    assert canonical_lasso(LassoPath((), (1, 0, 1, 0))) == LassoPath((), (1, 0))
    # rotating a trailing repeat back into the cycle
    assert canonical_lasso(LassoPath((1, 0), (1, 0))) == LassoPath((), (1, 0))


def test_lasso_in_tree():
    aut = loop_and_branch()
    assert lasso_in_tree(aut, LassoPath((0,), (1,)))
    assert lasso_in_tree(aut, LassoPath((), (1,)))
    assert not lasso_in_tree(aut, LassoPath((0,), (0,)))
    assert not lasso_in_tree(aut, LassoPath((0, 0), (1,)))


def test_leftmost_path():
    aut = loop_and_branch()
    assert leftmost_path(aut) == LassoPath((0,), (1,))
    dead = automaton(1, 2, 0, [(0, 0, 1)])
    with pytest.raises(WellFounded):
        leftmost_path(dead)


def test_leftmost_skips_dead_branches():
    # letter 0 from the start dies after one step; the leftmost live
    # choice is letter 1
    aut = automaton(2, 3, 0, [(0, 0, 1), (0, 1, 2), (2, 0, 2)])
    assert leftmost_path(aut) == LassoPath((1,), (0,))


def test_path_left_of():
    po = validate_poset([(1, 0)], [0, 1])
    ones = LassoPath((), (1,))
    zeros = LassoPath((), (0,))
    assert path_left_of(ones, zeros, po)
    assert not path_left_of(zeros, ones, po)
    assert not path_left_of(ones, ones, po)
    anti = validate_poset([], [0, 1])
    assert not path_left_of(ones, zeros, anti)
    # same infinite word under different descriptions
    a = LassoPath((), (0, 1))
    b = LassoPath((0,), (1, 0))
    assert not path_left_of(a, b, po) and not path_left_of(b, a, po)
    # divergence past both descriptions
    c = LassoPath((0, 1, 0), (0,))
    assert path_left_of(a, c, po)
    assert not path_left_of(c, a, po)


def test_minimal_path_unary():
    aut = automaton(1, 1, 0, [(0, 0, 0)])
    po = validate_poset([], [0])
    assert minimal_path(aut, po) == LassoPath((), (0,))


def test_minimal_path_prefers_order_not_ids():
    # 1 is below 0, so the least path repeats letter 1 forever
    aut = automaton(2, 1, 0, [(0, 0, 0), (0, 1, 0)])
    po = validate_poset([(1, 0)], [0, 1])
    assert minimal_path(aut, po) == LassoPath((), (1,))
    anti = validate_poset([], [0, 1])
    assert minimal_path(aut, anti) == LassoPath((), (0,))


# The reference route for `minimal_path` is the coding reduction taken
# literally: the leftmost path of `lexcode.lift_tree`, decoded by the lasso
# decoder below.


def _decode_lasso(code, coded: LassoPath) -> LassoPath:
    """Decode a lasso of coded symbols into a lasso of order elements.

    Block boundaries eventually revisit a phase of the coded lasso, at which
    point the decoded sequence repeats as well.  A block has at most
    ``longest`` digits and a phase repeats within ``clen + 1`` boundaries
    in the cycle, so `lexcode.read_block` never reads past the first
    ``plen + (clen + 1) * longest`` digits.  The digits are unrolled on
    demand, doubling the whole cycles held, so at most twice the digits
    actually read are ever built.
    """
    from orderlab.lexcode import read_block

    longest = max(map(len, code.table.values()), default=0) + 1
    plen, clen = len(coded.prefix), len(coded.cycle)
    digits = coded.prefix + coded.cycle
    elems: list[int] = []
    boundaries: dict[int, int] = {}
    i = 0
    while True:
        phase = i if i < plen else plen + (i - plen) % clen
        if phase in boundaries:
            cut = boundaries[phase]
            return canonical_lasso(LassoPath(tuple(elems[:cut]), tuple(elems[cut:])))
        boundaries[phase] = len(elems)
        while len(digits) < i + longest:
            digits += digits[plen:]
        elem, i = read_block(code, digits, i)
        elems.append(elem)


def lifted_minimal_path(aut, alphabet_order):
    code = lexcode.encode_order(alphabet_order)
    return _decode_lasso(code, leftmost_path(lexcode.lift_tree(code, aut)))


def outcome(route, aut, order):
    """The lasso ``route`` returns, or the type of the error it raises."""
    try:
        return route(aut, order)
    except (AlphabetMismatch, WellFounded) as err:
        return type(err)


def random_pair(rng):
    """A random automaton of 1-60 states over 1-8 letters, with a random
    order on its alphabet, or one time in twenty on one more letter."""
    states, letters = rng.randint(1, 60), rng.randint(1, 8)
    density = rng.random()
    delta = {
        (s, a): rng.randrange(states)
        for s in range(states)
        for a in range(letters)
        if rng.random() < density
    }
    aut = TreeAutomaton(letters, states, rng.randrange(states), delta)
    k = letters + (rng.random() < 0.05)
    rank = list(range(k))
    rng.shuffle(rank)
    p = rng.random()
    pairs = [(x, y) for x in range(k) for y in range(k) if rank[x] < rank[y] and rng.random() < p]
    return aut, validate_poset(pairs, range(k))


def test_minimal_path_matches_the_lift_and_decode_route():
    pairs = [
        (aut, poset)
        for aut in suites._automaton_corpus()
        for poset in oracles.posets_on(aut.alphabet_size)
    ]
    rng = random.Random(0)
    pairs += [random_pair(rng) for _ in range(3000)]
    kinds = set()
    for aut, poset in pairs:
        got = outcome(minimal_path, aut, poset)
        assert got == outcome(lifted_minimal_path, aut, poset), (aut, poset.rows)
        kinds.add(got if isinstance(got, type) else len(got.prefix) > 0)
    # both errors, and lassos with and without a prefix
    assert kinds == {AlphabetMismatch, WellFounded, False, True}


def test_minimal_path_requires_matching_alphabet():
    aut = automaton(2, 1, 0, [(0, 0, 0), (0, 1, 0)])
    with pytest.raises(AlphabetMismatch):
        minimal_path(aut, validate_poset([], [0, 1, 2]))
    with pytest.raises(WellFounded):
        minimal_path(automaton(1, 1, 0, []), validate_poset([], [0]))


def test_challenger_check():
    aut = automaton(2, 1, 0, [(0, 0, 0), (0, 1, 0)])
    po = validate_poset([(1, 0)], [0, 1])
    witness = LassoPath((), (1,))
    report = challenger_check(
        aut, witness, [LassoPath((), (0,)), LassoPath((0, 0), (1,))], po
    )
    assert report.minimal
    assert [e.in_tree for e in report.entries] == [True, True]
    assert [e.left_of_witness for e in report.entries] == [False, False]
    beaten = challenger_check(aut, LassoPath((), (0,)), [witness], po)
    assert not beaten.minimal
    with pytest.raises(InvalidWitness):
        challenger_check(automaton(2, 1, 0, [(0, 0, 0)]), witness, [], po)
