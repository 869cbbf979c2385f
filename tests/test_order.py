import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orderlab.errors import CycleError, UnknownElement
from orderlab.order import (
    divisibility,
    finite_quasi_order,
    natural_equality,
    natural_order,
    quasi_from_poset,
    seq_less,
    seq_less_by,
    transitive_closure,
    validate_poset,
)


def chain3():
    return validate_poset([(2, 1), (1, 0)], [0, 1, 2])


def test_transitive_closure_adds_composites():
    closed = transitive_closure([(2, 1), (1, 0)])
    assert (2, 0) in closed
    assert closed == frozenset({(2, 1), (1, 0), (2, 0)})


def test_validate_poset_closes_and_rejects():
    po = chain3()
    assert po.less(2, 0)
    assert not po.less(0, 2)
    with pytest.raises(CycleError):
        validate_poset([(0, 1), (1, 0)], [0, 1])
    with pytest.raises(UnknownElement):
        validate_poset([(0, 5)], [0, 1])


def naive_closure(pairs):
    """Reference closure: add the composites (x, z) of (x, y) and (y, z)
    until none is new."""
    rel = set(pairs)
    while True:
        new = {(x, z) for x, y in rel for w, z in rel if y == w} - rel
        if not new:
            return frozenset(rel)
        rel |= new


def test_closure_matches_reference_on_every_small_relation():
    # every relation over 1 to 4 elements: 2 + 2**4 + 2**9 + 2**16 of them
    relations = 0
    for n in range(1, 5):
        grid = list(itertools.product(range(n), repeat=2))
        for mask in range(1 << len(grid)):
            pairs = [p for i, p in enumerate(grid) if mask >> i & 1]
            want = naive_closure(pairs)
            assert transitive_closure(pairs) == want, pairs
            cyclic = [x for x in range(n) if (x, x) in want]
            if cyclic:
                with pytest.raises(CycleError, match=f"cycle through {min(cyclic)}$"):
                    validate_poset(pairs, range(n))
            else:
                assert validate_poset(pairs, range(n)).lt == want
            relations += 1
    assert relations == 2 + 2**4 + 2**9 + 2**16


def test_cycle_report_names_the_least_element_on_a_cycle():
    # two disjoint cycles, 33 -> 20 -> 33 and 9 -> 17 -> 12 -> 9, with 1
    # below one; a frozenset of these ids lists 33 before 9
    pairs = [(33, 20), (20, 33), (9, 17), (17, 12), (12, 9), (1, 9)]
    for order in (pairs, pairs[::-1], pairs[2:] + pairs[:2]):
        with pytest.raises(CycleError) as info:
            validate_poset(order, [1, 9, 12, 17, 20, 33])
        assert str(info.value) == "relation has a cycle through 9"


def test_closure_of_a_long_chain():
    n = 2000
    closed = transitive_closure((i + 1, i) for i in range(n - 1))
    assert len(closed) == n * (n - 1) // 2 == 1_999_000
    assert (n - 1, 0) in closed and (0, n - 1) not in closed


def test_seq_less_divergence_and_prefix():
    po = chain3()
    assert seq_less((2,), (1,), po)
    assert seq_less((1, 2), (1, 0), po)
    # a proper prefix is not below its extension
    assert not seq_less((1,), (1, 2), po)
    assert not seq_less((1, 2), (1,), po)
    assert not seq_less((), (0,), po)
    # incomparable first divergence
    anti = validate_poset([], [0, 1])
    assert not seq_less((0,), (1,), anti)
    assert not seq_less((1,), (0,), anti)


def test_seq_less_checks_membership():
    with pytest.raises(UnknownElement):
        seq_less((7,), (0,), chain3())


def test_builtin_quasi_orders():
    leq = natural_order()
    assert leq.leq(2, 5) and not leq.leq(5, 2)
    eq = natural_equality()
    assert eq.leq(3, 3) and not eq.leq(3, 4)
    div = divisibility()
    assert div.leq(3, 12)
    assert not div.leq(12, 3)
    assert div.leq(5, 0) and not div.leq(0, 5) and div.leq(0, 0)
    assert div.contains(0) and not div.contains(-1) and not div.contains(True)


def test_finite_quasi_order_enforces_axioms():
    q = finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")
    assert q.leq(0, 1) and not q.leq(1, 0)
    with pytest.raises(ValueError):
        finite_quasi_order((0, 1), [(0, 0)], "broken")
    with pytest.raises(ValueError):
        finite_quasi_order(
            (0, 1, 2), [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], "broken"
        )
    with pytest.raises(UnknownElement):
        finite_quasi_order((0,), [(0, 0), (0, 9)])


def test_quasi_from_poset_is_reflexive():
    q = quasi_from_poset(chain3())
    assert q.leq(1, 1)
    assert q.leq(2, 0)
    assert not q.leq(0, 2)
    assert q.elements == (0, 1, 2)


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(0, 3), max_size=5), st.lists(st.integers(0, 3), max_size=5))
def test_seq_less_by_is_a_strict_order(a, b):
    lt = int.__lt__
    assert not seq_less_by(a, a, lt)
    assert not (seq_less_by(a, b, lt) and seq_less_by(b, a, lt))
