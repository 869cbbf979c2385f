import itertools
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from orderlab import oracles
from orderlab.errors import (
    InvalidNode,
    InvalidTree,
    NegativeCount,
    PreconditionViolation,
    UnknownElement,
)
from orderlab.order import (
    COMPILE_LIMIT,
    divisibility,
    finite_quasi_order,
    natural_equality,
    natural_order,
    quasi_from_poset,
    validate_poset,
)
from orderlab.wqo import (
    KTree,
    higman_leq,
    higman_lift,
    is_bad,
    ktree_key,
    ktree_leq,
    min_bad_sequence,
    nash_williams_step,
    subtree,
)


def test_higman_basics():
    leq = natural_order()
    assert higman_leq((), (4, 2), leq)
    assert higman_leq((1, 2), (0, 1, 3), leq)
    assert not higman_leq((3, 1), (1, 3), leq)
    assert not higman_leq((0, 0), (0,), leq)
    div = divisibility()
    assert higman_leq((2, 3), (4, 2, 9), div)


def test_higman_lift_is_a_quasi_order():
    lifted = higman_lift(natural_equality())
    assert lifted.leq((1, 2), (0, 1, 0, 2))
    assert not lifted.leq((1, 2), (2, 1))
    assert lifted.contains((0, 5)) and not lifted.contains([0])


def test_is_bad_divisibility_chain():
    div = divisibility()
    assert is_bad((12, 6, 3), div) is None
    assert is_bad((12, 6, 3, 12), div) == (0, 3)
    assert is_bad((), div) is None


def test_min_bad_sequence_frozen():
    assert min_bad_sequence(natural_equality(), 5, 3) == (0, 1, 2)
    assert min_bad_sequence(natural_order(), 5, 3) == (2, 1, 0)
    assert min_bad_sequence(natural_order(), 5, 6) is None


def test_min_bad_sequence_is_the_least_bad_sequence():
    # itertools.product enumerates each length in lexicographic order.
    for q in oracles.quasi_orders_upto(3):
        for bound in range(5):
            universe = [x for x in range(bound) if q.contains(x)]
            for length in range(5):
                least = next(
                    (
                        seq
                        for seq in itertools.product(universe, repeat=length)
                        if not any(
                            q.leq(seq[i], seq[j])
                            for i in range(length)
                            for j in range(i + 1, length)
                        )
                    ),
                    None,
                )
                assert min_bad_sequence(q, bound, length) == least, (q.name, bound, length)


@pytest.mark.parametrize("universe_bound, length", [(-1, 3), (5, -1)])
def test_min_bad_sequence_rejects_negative_counts(universe_bound, length):
    with pytest.raises(NegativeCount):
        min_bad_sequence(natural_equality(), universe_bound, length)


def test_nash_williams_step_frozen():
    eq = natural_equality()
    seqs = ((0, 1, 1), (2, 1), (3, 1))
    assert nash_williams_step(seqs, {1, 2}, eq) == ((0, 1, 1), (2,), (3,))
    assert nash_williams_step(seqs, {0, 1, 2}, eq) == ((0, 1), (2,), (3,))


def test_nash_williams_step_clauses():
    eq = natural_equality()
    good = ((0, 1, 1), (2, 1), (3, 1))
    cases = [
        (good, (), "s-non-empty"),
        (good, {5}, "s-in-window"),
        (((0, 1), (), (3, 1)), {0}, "entries-non-empty"),
        (((1,), (1, 2)), {0}, "input-bad"),
        (((0, 2), (1, 3)), {0, 1}, "perfect-on-s"),
    ]
    for seqs, s, clause in cases:
        with pytest.raises(PreconditionViolation) as err:
            nash_williams_step(seqs, s, eq)
        assert err.value.clause == clause


def chain2():
    return finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")


def anti2():
    return finite_quasi_order((0, 1), [(0, 0), (1, 1)], "anti2")


def test_ktree_validation():
    with pytest.raises(InvalidTree):
        KTree((0, -1), (0, 0))
    with pytest.raises(InvalidNode):
        KTree((-1, 5), (0, 0))
    with pytest.raises(InvalidTree):
        KTree((-1,), (0, 0))
    with pytest.raises(InvalidTree):
        KTree((-1, -1), (0, 0))
    t = KTree((-1, 0, 0), (0, 1, 0))
    assert t.size == 3 and t.root == 0
    assert t.children(0) == (1, 2)


def test_ktree_leq_directions():
    single = KTree((-1,), (0,))
    pair = KTree((-1, 0), (0, 1))
    assert ktree_leq(single, pair, chain2())
    assert not ktree_leq(pair, single, chain2())
    # the antichain forbids mapping label 0 onto label 1
    low_child = KTree((-1, 0), (1, 0))
    assert ktree_leq(single, low_child, anti2())
    assert not ktree_leq(single, KTree((-1, 0), (1, 1)), anti2())


def test_ktree_leq_needs_meet_preservation():
    # a 2-chain embeds into a 3-chain but a 3-star does not: images of the
    # star's two leaves would meet at the image of the root or below it
    chain3 = KTree((-1, 0, 1), (0, 0, 0))
    star3 = KTree((-1, 0, 0), (0, 0, 0))
    q = anti2()
    assert ktree_leq(KTree((-1, 0), (0, 0)), chain3, q)
    assert not ktree_leq(star3, chain3, q)
    assert ktree_leq(chain3, chain3, q)


def test_ktree_leq_reassigns_a_greedy_child():
    # child label 1 takes the first free target child (label 2); child
    # label 2 then fits only there, so the search moves label 1 to label 1
    source = KTree((-1, 0, 0), (0, 1, 2))
    assert ktree_leq(source, KTree((-1, 0, 0), (0, 2, 1)), natural_order())
    assert not ktree_leq(source, KTree((-1, 0, 0), (0, 2, 0)), natural_order())


def test_ktree_leq_deep_path_into_itself():
    # two frames per level when every child finds a free target child
    path = KTree((-1,) + tuple(range(399)), (0,) * 400)
    assert ktree_leq(path, path, natural_order())


def test_subtree_renumbers_in_preorder():
    t = KTree((-1, 0, 0, 2), (3, 1, 4, 1))
    assert subtree(t, 2).labels == (4, 1)


def test_ktree_key_is_isomorphism_invariant():
    a = KTree((-1, 0, 0), (0, 1, 2))
    b = KTree((-1, 0, 0), (0, 2, 1))
    assert ktree_key(a) == ktree_key(b)
    assert ktree_key(a) != ktree_key(KTree((-1, 0, 1), (0, 1, 2)))


@settings(derandomize=True, max_examples=40)
@given(
    st.lists(st.integers(0, 2), max_size=4),
    st.lists(st.integers(0, 2), max_size=4),
)
def test_higman_matches_injection_search(sigma, tau):
    leq = natural_order()
    assert higman_leq(sigma, tau, leq) == oracles.brute_higman(sigma, tau, leq)


QUASI_ORDERS = oracles.quasi_orders_upto(3)


def _warm(q):
    """Queries in a row against one target after which its table is read."""
    return q.compiled.scans_before_table + 1


@seed(20260)
@settings(max_examples=150, database=None)
@given(st.data())
def test_compiled_higman_matches_injection_search(data):
    q = data.draw(st.sampled_from(QUASI_ORDERS))
    items = st.sampled_from(q.elements)
    tau = data.draw(st.lists(items, max_size=5))
    sigmas = data.draw(st.lists(st.lists(items, max_size=4), min_size=1, max_size=6))
    # Repeated queries against one target go through its next-occurrence table.
    for target in [tuple(tau)] * _warm(q) + [tau]:
        for sigma in sigmas:
            expected = oracles.brute_higman(sigma, tau, q)
            assert higman_leq(sigma, target, q) == expected
            assert higman_leq(tuple(sigma), target, q) == expected


def test_compiled_higman_sees_a_mutated_list_target():
    q = chain2()
    tau = [0, 0]
    for _ in range(_warm(q)):
        assert not higman_leq((1,), tau, q)
    tau[1] = 1
    assert higman_leq((1,), tau, q)
    assert not higman_leq((1, 1), tau, q)
    tau.append(1)
    assert higman_leq((1, 1), tau, q)
    assert higman_leq((0, 1, 1), tau, q)


def test_compiled_higman_same_target_under_two_orders():
    tau = (1, 1)
    for _ in range(3):
        assert higman_leq((0, 1), tau, chain2())
        assert not higman_leq((0, 1), tau, anti2())
    chain, anti = chain2(), anti2()
    for _ in range(_warm(chain)):
        assert higman_leq((0, 0), tau, chain)
        assert not higman_leq((0, 0), tau, anti)


def test_compiled_higman_checks_every_item():
    q = anti2()
    message = "7 is outside the universe of anti2"
    for _ in range(_warm(q)):
        # the prefix (1,) already fails to embed into (0,)
        with pytest.raises(UnknownElement, match=message):
            higman_leq((1, 7), (0,), q)
        with pytest.raises(UnknownElement, match=message):
            higman_leq((1,), (0, 7), q)
    for _ in range(_warm(q)):  # the table for (0, 0) is in use
        assert not higman_leq((1,), (0, 0), q)
    with pytest.raises(UnknownElement, match=message):
        higman_leq((1, 7), (0, 0), q)
    # an unknown item of sigma is reported before one of tau
    for _ in range(_warm(q)):
        with pytest.raises(UnknownElement, match="8 is outside"):
            higman_leq((1, 8), (0, 7), q)


def test_higman_table_after_the_scans():
    q = finite_quasi_order(range(9), [(x, y) for x in range(9) for y in range(x, 9)], "c9")
    compiled = q.compiled
    assert compiled.scans_before_table == 6
    tau = (2, 5, 5, 8)
    for _ in range(compiled.scans_before_table):
        assert compiled.next_table(tau) is None
    rows = compiled.next_table(tau)
    assert rows is compiled.next_table(list(tau))
    assert rows[0] == [1, 1, 1, 2, 2, 2, 4, 4, 4]
    assert rows[-1] == [5] * 9
    assert compiled.next_table((2, 5)) is None


def test_compiled_form_matches_leq():
    for q in QUASI_ORDERS:
        compiled = q.compiled
        assert compiled is q.compiled
        for x in q.elements:
            for y in q.elements:
                bit = compiled.up[compiled.ids[x]] >> compiled.ids[y] & 1
                assert bool(bit) == q.leq(x, y)
    for q in (natural_order(), natural_equality(), divisibility()):
        assert q.compiled is None
        assert higman_lift(q).compiled is None


def test_large_finite_order_keeps_the_scan():
    n = COMPILE_LIMIT + 1
    q = finite_quasi_order(range(n), [(x, x) for x in range(n)], "anti")
    assert q.compiled is None
    assert higman_leq((3, 5), (1, 3, 4, 5), q)
    assert not higman_leq((5, 3), (1, 3, 4, 5), q)
    with pytest.raises(UnknownElement):
        higman_leq((n,), (1,), q)


def test_compiled_form_comes_from_the_rows():
    small = oracles.all_posets(4)
    rng = random.Random("compiled-rows")
    ids = rng.sample(range(1000), 200)
    pairs = [(x, y) for x, y in itertools.combinations(ids, 2) if rng.random() < 0.02]
    large = validate_poset(pairs, ids)
    for poset in small + [large]:
        q = quasi_from_poset(poset)
        compiled = q.compiled
        assert compiled is not None and compiled.ids == {x: i for i, x in enumerate(q.elements)}
        for x, y in itertools.product(q.elements, repeat=2):
            bit = compiled.up[compiled.ids[x]] >> compiled.ids[y] & 1
            assert bool(bit) == q.leq(x, y) == (x == y or (x, y) in poset.lt)
    assert len(large.elements) == 200 > COMPILE_LIMIT


def test_higman_over_a_large_poset_agrees_with_the_oracle():
    rng = random.Random("higman-200")
    ids = rng.sample(range(1000), 200)
    pairs = [(x, y) for x, y in itertools.combinations(ids, 2) if rng.random() < 0.05]
    q = quasi_from_poset(validate_poset(pairs, ids))
    tau = tuple(rng.choice(ids) for _ in range(12))
    sigmas = [tuple(rng.choice(ids) for _ in range(rng.randint(0, 5))) for _ in range(50)]
    # two rounds against one target: the later calls read its table
    for sigma in sigmas + sigmas:
        assert higman_leq(sigma, tau, q) == oracles.brute_higman(sigma, tau, q), sigma
    assert q.compiled.next_table(tau) is not None


def test_ktree_leq_checks_labels():
    tree = KTree((-1, 0), (0, 1))
    bad = KTree((-1, 0), (0, 5))
    with pytest.raises(UnknownElement, match="5 is outside the universe of chain2"):
        ktree_leq(bad, tree, chain2())
    with pytest.raises(UnknownElement, match="5 is outside the universe of chain2"):
        ktree_leq(tree, bad, chain2())


def _scan_children(tree, v):
    return tuple(i for i, p in enumerate(tree.parent) if p == v)


def test_large_ktrees_construct():
    n = 5000
    path = KTree((-1,) + tuple(range(n - 1)), (0,) * n)
    star = KTree((-1,) + (0,) * (n - 1), tuple(range(n)))
    for tree in (path, star):
        assert tree.root == 0
        for v in (0, 1, n // 2, n - 1):
            assert tree.children(v) == _scan_children(tree, v)
    assert star.children(0) == tuple(range(1, n))
    with pytest.raises(InvalidNode):
        star.children(n)


def test_subtree_and_key_on_a_long_path():
    n = 5000
    path = KTree((-1,) + tuple(range(n - 1)), tuple(i % 3 for i in range(n)))
    sub = subtree(path, 1000)
    assert sub.parent == (-1,) + tuple(range(n - 1001))
    assert sub.labels == path.labels[1000:]
    key = ktree_key(path)
    for label in path.labels:
        assert key[0] == repr(label)
        assert len(key[1]) <= 1
        key = key[1][0] if key[1] else None
    assert key is None


@pytest.mark.parametrize(
    "parent, labels, exc, message",
    [
        ((-1, 0), (0,), InvalidTree, "labels and parent array must have equal length"),
        ((-1, -1), (0, 0), InvalidTree, "a tree has exactly one root"),
        ((0, 1), (0, 0), InvalidTree, "a tree has exactly one root"),
        ((-1, 5, 0), (0, 0, 0), InvalidNode, "parent of node 1 is out of range"),
        ((-1, 0, -2), (0, 0, 0), InvalidNode, "parent of node 2 is out of range"),
        ((-1, 2, 1), (0, 0, 0), InvalidTree, "parent array contains a cycle"),
        ((-1, 0, 3, 3), (0, 0, 0, 0), InvalidTree, "parent array contains a cycle"),
    ],
)
def test_ktree_rejects_malformed_parent_arrays(parent, labels, exc, message):
    with pytest.raises(exc) as err:
        KTree(parent, labels)
    assert type(err.value) is exc
    assert str(err.value) == message
