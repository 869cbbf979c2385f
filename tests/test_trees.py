import itertools
import time

import pytest

from orderlab.errors import BadLetter, InvalidWitness, WellFounded
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
    with pytest.raises(ValueError):
        automaton(1, 0, 0, [])
    with pytest.raises(ValueError):
        automaton(1, 1, 1, [])
    with pytest.raises(BadLetter):
        automaton(1, 1, 0, [(0, 3, 0)])
    with pytest.raises(ValueError):
        automaton(2, 1, 0, [(0, 0, 0), (0, 0, 5)])


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
    with pytest.raises(ValueError):
        LassoPath((), ())
    l = LassoPath((2,), (0, 1))
    assert l.take(5) == (2, 0, 1, 0, 1)
    assert l.description_size() == 3


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


def test_minimal_path_requires_matching_alphabet():
    aut = automaton(2, 1, 0, [(0, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
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
