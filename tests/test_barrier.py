import itertools

import pytest
from hypothesis import given, settings, strategies as st

from orderlab.barrier import (
    BarrierFragment,
    array_of,
    bad_array_violations,
    barrier_pair_homogeneous,
    base_of,
    block_tri,
    check_fragment,
    classify_array,
    fragment,
    nwt_improvement_step,
    restrict,
    star_fragment,
    uniform_fragment,
    union_block,
)
from orderlab.errors import (
    EmptyBlock,
    NegativeCount,
    NotIncreasing,
    NotTriRelated,
    OrderlabError,
    PreconditionViolation,
)
from orderlab.order import natural_equality, natural_order


def test_block_tri_examples():
    assert block_tri((0,), (1,))
    assert not block_tri((1,), (0,))
    assert block_tri((0, 2), (2, 5))
    assert not block_tri((0, 2), (3, 5))
    assert not block_tri((4,), (2, 7))  # merged slots must stay increasing
    assert block_tri((0, 1, 4), (1, 4))
    # with b empty, d's first entry must fit below c's
    assert block_tri((), ()) and block_tri((), (1, 3))
    assert not block_tri((), (0, 3))
    with pytest.raises(NotIncreasing):
        block_tri((2, 2), (3,))


def test_union_block():
    assert union_block((0,), (1,)) == (0, 1)
    assert union_block((0, 2), (2, 5)) == (0, 2, 5)
    with pytest.raises(NotTriRelated):
        union_block((0, 2), (3, 5))


def test_fragment_validation():
    frag = fragment([(0, 1), (1, 2)], 3)
    assert frag.window == 3 and len(frag.blocks) == 2
    with pytest.raises(ValueError):
        fragment([(0,), (0, 1)], 2)  # one range inside another
    with pytest.raises(ValueError):
        fragment([(0, 5)], 3)
    with pytest.raises(NotIncreasing):
        fragment([(2, 1)], 3)
    with pytest.raises(ValueError, match="leaves the window"):
        fragment([(-1,)], 3)


@settings(derandomize=True, max_examples=600, database=None)
@given(
    st.lists(st.lists(st.integers(-1, 3), max_size=3).map(tuple), max_size=5),
    st.integers(0, 3),
)
def test_fragment_raises_exactly_when_the_check_fails(blocks, window):
    report = check_fragment(blocks, window)
    try:
        fragment(blocks, window)
    except (OrderlabError, ValueError) as exc:
        assert report.verdict == "fail"
        assert str(exc) in report.problems
    else:
        assert report.verdict != "fail"


def test_base_and_restrict():
    frag = uniform_fragment(2, 4)
    assert base_of(frag) == frozenset({0, 1, 2, 3})
    assert restrict(frag, {0, 2}).blocks == frozenset({(0, 2)})
    assert restrict(frag, base_of(frag)) == frag
    assert restrict(frag, ()).blocks == frozenset()


def test_union_block_is_the_range_union_exactly_on_tri_pairs():
    blocks = [b for r in range(5) for b in itertools.combinations(range(6), r)]
    for b, c in itertools.product(blocks, repeat=2):
        if block_tri(b, c):
            assert union_block(b, c) == tuple(sorted(set(b) | set(c))), (b, c)
        else:
            with pytest.raises(NotTriRelated):
                union_block(b, c)


@pytest.mark.parametrize(
    "blocks, window, starred",
    [
        (
            [(0,), (1, 2), (1, 3), (1, 4), (2, 3, 4)],
            5,
            [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3, 4), (1, 2, 3, 4)],
        ),
        (
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            5,
            [(0, 1, 3), (0, 2, 3), (1, 3, 4), (2, 3, 4)],
        ),
        ([(1,), (2, 3), (0, 3)], 4, [(1, 2, 3)]),
    ],
)
def test_star_fragment_non_uniform(blocks, window, starred):
    assert star_fragment(fragment(blocks, window)) == fragment(starred, window)


def test_star_fragment_uniform_law():
    assert star_fragment(uniform_fragment(1, 3)) == uniform_fragment(2, 3)
    assert star_fragment(uniform_fragment(2, 4)) == uniform_fragment(3, 4)
    empty = BarrierFragment(3, frozenset())
    assert star_fragment(empty).blocks == frozenset()


def test_check_fragment_verdicts():
    assert check_fragment([(0,), (1,), (2,)], 3).verdict == "pass"
    inconclusive = check_fragment([(0, 1), (0, 2), (1, 2)], 3)
    assert inconclusive.verdict == "inconclusive"
    assert (2,) in inconclusive.uncovered
    failed = check_fragment([(0,), (0, 1)], 2)
    assert failed.verdict == "fail" and failed.problems


def test_classify_array_examples():
    singles = uniform_fragment(1, 3)
    leq = natural_order()
    rising = array_of([((n,), n) for n in range(3)])
    assert classify_array(rising, singles, leq) == frozenset({"good", "perfect"})
    falling = array_of([((n,), 2 - n) for n in range(3)])
    assert classify_array(falling, singles, leq) == frozenset({"bad"})
    lone = array_of([((0,), 5)])
    assert classify_array(lone, singles, leq) == frozenset({"bad", "perfect"})
    mixed = array_of([((0,), 0), ((1,), 2), ((2,), 1)])
    assert classify_array(mixed, singles, leq) == frozenset({"good", "mixed"})
    with pytest.raises(ValueError):
        classify_array(array_of([((0,), 0), ((0,), 1)]), singles, leq)
    with pytest.raises(ValueError):
        classify_array(array_of([((5,), 0)]), singles, leq)


def test_bad_array_clauses():
    singles = uniform_fragment(1, 3)
    leq = natural_order()
    assert not bad_array_violations(array_of([]), singles, leq)
    assert not bad_array_violations(array_of([((0,), 9)]), singles, leq)
    decreasing = array_of([((2,), 0), ((0,), 1)])
    assert any(
        v.startswith("maxima-decrease") for v in bad_array_violations(decreasing, singles, leq)
    )
    dominated = array_of([((0,), 1), ((1,), 2)])
    assert any(
        v.startswith("dominated-tri-pair")
        for v in bad_array_violations(dominated, singles, leq)
    )
    pairs = uniform_fragment(2, 4)
    skipping = array_of([((0, 1), 3), ((1, 2), 2), ((0, 3), 1)])
    assert any(
        v == "missing-block (0, 2)" for v in bad_array_violations(skipping, pairs, leq)
    )
    with pytest.raises(ValueError):
        bad_array_violations(array_of([((0, 2), 1)]), singles, leq)
    with pytest.raises(EmptyBlock):
        bad_array_violations(array_of([((), 1)]), singles, leq)


def test_barrier_pair_homogeneous():
    singles = uniform_fragment(1, 4)
    assert barrier_pair_homogeneous(singles, lambda b, c: 0, 3) == (0, 1, 2)
    assert barrier_pair_homogeneous(singles, lambda b, c: 0, 5) is None
    gap_parity = lambda b, c: (c[0] - b[0]) % 2
    assert barrier_pair_homogeneous(uniform_fragment(1, 5), gap_parity, 3) == (0, 2, 4)
    assert barrier_pair_homogeneous(singles, lambda b, c: 0, 0) == ()
    with pytest.raises(NegativeCount):
        barrier_pair_homogeneous(singles, lambda b, c: 0, -1)


def test_nwt_improvement_step_frozen():
    eq = natural_equality()
    singles = uniform_fragment(1, 3)
    arr = array_of([((0,), (5, 7, 1)), ((1,), (5, 1)), ((2,), (1,))])
    out = nwt_improvement_step(arr, {1, 2}, singles, eq)
    assert out.entries == (((0,), (5, 7, 1)), ((1,), (5,)), ((2,), ()))
    everything = nwt_improvement_step(arr, {0, 1, 2}, singles, eq)
    assert everything.entries == (((0,), (5, 7)), ((1,), (5,)), ((2,), ()))


def test_nwt_improvement_step_clauses():
    eq = natural_equality()
    singles = uniform_fragment(1, 3)
    good = [((0,), (5, 7, 1)), ((1,), (5, 1)), ((2,), (1,))]
    cases = [
        (good, {9}, "s-in-base"),
        ([((0,), (1,)), ((1,), (1, 2))], {0}, "bad-array"),
        ([((0,), (1,)), ((1,), ())], {0, 1}, "values-non-empty"),
        ([((1,), (3, 1)), ((2,), (1,))], {0}, "s-meets-blocks"),
        ([((0,), (0, 2)), ((1,), (0, 3))], {0, 1}, "perfect-on-s"),
    ]
    for entries, s, clause in cases:
        with pytest.raises(PreconditionViolation) as err:
            nwt_improvement_step(array_of(entries), s, singles, eq)
        assert err.value.clause == clause
