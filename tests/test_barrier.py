import collections
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from orderlab import barrier, oracles
from orderlab.barrier import (
    BarrierFragment,
    PartialArray,
    _fragment_problems,
    array_of,
    bad_array_violations,
    barrier_pair_homogeneous,
    base_of,
    block_tri,
    check_fragment,
    classify_array,
    fragment,
    nwt_improvement_step,
    star_fragment,
    uniform_fragment,
    union_block,
)
from orderlab.errors import (
    EmptyBlock,
    InvalidArray,
    InvalidFragment,
    NegativeCount,
    NotIncreasing,
    NotTriRelated,
    OrderlabError,
    PreconditionViolation,
)
from orderlab.order import QuasiOrder, divisibility, natural_equality, natural_order
from orderlab.wqo import higman_lift


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
    with pytest.raises(InvalidFragment):
        fragment([(0,), (0, 1)], 2)  # one range inside another
    with pytest.raises(InvalidFragment):
        fragment([(0, 5)], 3)
    with pytest.raises(NotIncreasing):
        fragment([(2, 1)], 3)
    with pytest.raises(InvalidFragment, match="leaves the window"):
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
    except OrderlabError as exc:
        assert report.verdict == "fail"
        assert str(exc) in report.problems
    else:
        assert report.verdict != "fail"


def reference_fragment_problems(blocks, window):
    """The fragment rules with containment tried on every ordered pair of
    valid blocks: the quadratic pass `_fragment_problems` replaced."""
    inside = set()
    for block in blocks:
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            yield NotIncreasing, f"block {block} is not strictly increasing"
        elif block and (block[0] < 0 or block[-1] >= window):
            yield InvalidFragment, f"block {block} leaves the window {window}"
        else:
            inside.add(block)
    for b, c in itertools.permutations(inside, 2):
        if len(b) < len(c) and set(b) <= set(c):
            yield InvalidFragment, f"range of {b} is contained in range of {c}"


def test_fragment_problems_come_in_the_reference_order():
    kinds = ("not strictly increasing", "leaves the window", "is contained in")
    rng = random.Random("fragment-problems")
    faults = collections.Counter()
    for _ in range(3000):
        window = rng.randint(0, 7)
        blocks = []
        for _ in range(rng.randint(0, 10)):
            block = tuple(sorted(rng.sample(range(-1, 9), rng.randint(0, 4))))
            if len(block) > 1 and rng.random() < 0.15:
                block = block[::-1]
            blocks.append(block)
        problems = list(_fragment_problems(blocks, window))
        assert problems == list(reference_fragment_problems(blocks, window)), (blocks, window)
        for _, message in problems:
            faults[next(kind for kind in kinds if kind in message)] += 1
        first = next(reference_fragment_problems({tuple(b) for b in blocks}, window), None)
        if first is None:
            assert fragment(blocks, window).blocks == frozenset(blocks)
        else:
            with pytest.raises(first[0]) as caught:
                fragment(blocks, window)
            assert (type(caught.value), str(caught.value)) == first
    assert faults.keys() == set(kinds) and min(faults.values()) > 300, faults


def test_base_and_restrict():
    frag = uniform_fragment(2, 4)
    assert base_of(frag) == frozenset({0, 1, 2, 3})


def test_union_block_is_the_range_union_exactly_on_tri_pairs():
    blocks = [b for r in range(5) for b in itertools.combinations(range(6), r)]
    for b, c in itertools.product(blocks, repeat=2):
        if block_tri(b, c):
            assert union_block(b, c) == tuple(sorted(set(b) | set(c))), (b, c)
        else:
            with pytest.raises(NotTriRelated):
                union_block(b, c)


def full_enumeration_tri(b, c, entry_bound):
    """The tri reference by every increasing sequence below the bound."""
    length = max(len(b), len(c) + 1)
    return any(
        cand[: len(b)] == b and cand[1 : len(c) + 1] == c
        for cand in itertools.combinations(range(entry_bound), length)
    )


def test_the_tri_oracle_searches_as_the_full_enumeration_does():
    """Searching only the extensions of b answers as trying every increasing
    sequence does, on the empty block and on blocks that end just below the
    bound or at it."""
    for window in range(7):
        bound = 2 * window
        blocks = [b for r in range(4) for b in itertools.combinations(range(window + 1), r)]
        if window:
            blocks += [(bound - 1,), (window - 1, bound - 1), (0, bound)]
        for b, c in itertools.product(blocks, repeat=2):
            want = full_enumeration_tri(b, c, bound)
            assert oracles.brute_block_tri(b, c, bound) == want, (b, c, bound)


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


def uncovered_by_full_walk(blocks, window):
    """Every increasing sequence over the base that leaves the window before
    it reaches a block, in depth-first order: the walk `check_fragment` made
    before it stopped at the eighth such sequence."""
    blockset = set(blocks)
    base = sorted({x for b in blockset for x in b})
    out = []

    def walk(seq):
        if seq in blockset:
            return
        extensions = [x for x in base if not seq or x > seq[-1]]
        if not extensions:
            out.append(seq)
        for x in extensions:
            walk(seq + (x,))

    walk(())
    return out


def test_check_fragment_reports_the_first_eight_uncovered_sequences():
    rng = random.Random(0)
    cases = [([tuple(range(w))], w) for w in range(11)]
    cases += [(uniform_fragment(k, w).blocks, w) for w in range(7) for k in range(1, w + 1)]
    for _ in range(2000):
        window = rng.randint(0, 7)
        pool = [b for r in range(1, 4) for b in itertools.combinations(range(window), r)]
        cases.append((rng.sample(pool, min(len(pool), rng.randint(1, 6))), window))
    for blocks, window in cases:
        try:
            fragment(blocks, window)
        except OrderlabError:
            continue
        expected = uncovered_by_full_walk(blocks, window)[:8]
        report = check_fragment(blocks, window)
        assert report.verdict == ("inconclusive" if expected else "pass"), (blocks, window)
        assert report.uncovered == tuple(expected), (blocks, window)


def test_check_fragment_stops_early_on_a_long_block():
    # The walk descends the block's own path first, so the first eight
    # uncovered sequences share the prefix 0 .. 27 and then run as they do
    # for the block range(12), shifted up by 28.
    start = time.perf_counter()
    report = check_fragment([tuple(range(40))], 40)
    assert time.perf_counter() - start < 1.0
    tails = uncovered_by_full_walk([tuple(range(12))], 12)[:8]
    assert report.verdict == "inconclusive"
    assert report.uncovered == tuple(
        tuple(range(28)) + tuple(x + 28 for x in tail) for tail in tails
    )


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
    with pytest.raises(InvalidArray):
        classify_array(array_of([((0,), 0), ((0,), 1)]), singles, leq)
    with pytest.raises(InvalidArray):
        classify_array(array_of([((5,), 0)]), singles, leq)


def test_classify_array_reads_backward_tri_pairs():
    # singleton blocks are tri-related upwards, (a,) ◁ (b,) when a < b, so
    # with the blocks listed downwards each tri pair runs from a later
    # entry to an earlier one
    singles = uniform_fragment(1, 3)
    leq = natural_order()
    falling = array_of([((1,), 5), ((0,), 3)])
    assert classify_array(falling, singles, leq) == frozenset({"good", "perfect"})
    # entries 1 ◁ 0 (3 <= 7) and 2 ◁ 0 (9 > 7) run backwards and decide
    # the verdict; the forward pair 1 ◁ 2 (3 <= 9) alone would be perfect
    mixed = array_of([((2,), 7), ((0,), 3), ((1,), 9)])
    assert classify_array(mixed, singles, leq) == frozenset({"good", "mixed"})


def reference_tri_union(b, c):
    """`_tri_union` before the relation moved into `_tri_partners`."""
    if not b:
        return c if not c or c[0] > 0 else None
    k = len(b) - 1
    if b[1 : 1 + len(c)] == c[:k] and (len(c) <= k or b[-1] < c[k]):
        return b + c[k:]
    return None


def reference_classify_array(arr, frag, q):
    """The all-pairs `classify_array` through ``q.leq`` that the compiled
    rows replaced."""
    for b, v in arr.entries:
        if b not in frag.blocks:
            raise InvalidArray(f"block {b} is not in the fragment")
        q.require_all((v,))
    total = hits = 0
    for i, (b, v) in enumerate(arr.entries):
        for j, (c, w) in enumerate(arr.entries):
            if i != j and reference_tri_union(b, c) is not None:
                total += 1
                hits += bool(q.leq(v, w))
    if total == 0:
        return frozenset({"bad", "perfect"})
    if hits == total:
        return frozenset({"good", "perfect"})
    if hits == 0:
        return frozenset({"bad"})
    return frozenset({"good", "mixed"})


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except OrderlabError as exc:
        return type(exc), str(exc)


def test_tri_union_matches_the_reference_on_every_pair_of_small_blocks():
    blocks = [b for r in range(5) for b in itertools.combinations(range(7), r)]
    rows = {b: barrier._tri_partners(b, blocks) for b in blocks}
    for b, c in itertools.product(blocks, repeat=2):
        want = reference_tri_union(b, c)
        assert barrier._tri_union(b, c) == want, (b, c)
        assert (blocks.index(c) in rows[b]) == (want is not None), (b, c)


def test_classify_array_matches_the_all_pairs_reference():
    """Seeded arrays of mixed block lengths, the empty block included, over
    every quasi-order of at most 3 elements (compiled rows) and the three
    natural families (``leq``): the same verdict, or the same exception
    type and message when a block is outside the fragment or a value
    outside the universe."""
    rng = random.Random("classify-reference")
    pool = [b for r in range(4) for b in itertools.combinations(range(6), r)]
    orders = oracles.quasi_orders_upto(3) + [natural_order(), natural_equality(), divisibility()]
    verdicts = collections.Counter()
    for _ in range(3000):
        q = rng.choice(orders)
        items = list(q.elements) if q.elements is not None else list(range(7))
        frag = BarrierFragment(6, frozenset(rng.sample(pool, rng.randint(1, 20))))
        entries = []
        for b in rng.sample(pool, rng.randint(0, 7)):
            if b in frag.blocks or rng.random() < 0.03:
                v = rng.choice(items) if rng.random() > 0.03 else rng.choice(["zz", -1, [0]])
                entries.append((b, v))
        arr = PartialArray(tuple(entries))
        got = outcome(classify_array, arr, frag, q)
        assert got == outcome(reference_classify_array, arr, frag, q), (q, frag, arr)
        verdicts[tuple(sorted(got)) if isinstance(got, frozenset) else got[0].__name__] += 1
    assert len(verdicts) == 6, verdicts


def test_bad_array_clauses():
    singles = uniform_fragment(1, 3)
    leq = natural_order()
    assert not list(bad_array_violations(array_of([]), singles, leq))
    assert not list(bad_array_violations(array_of([((0,), 9)]), singles, leq))
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
    with pytest.raises(InvalidArray):
        list(bad_array_violations(array_of([((0, 2), 1)]), singles, leq))
    with pytest.raises(EmptyBlock):
        list(bad_array_violations(array_of([((), 1)]), singles, leq))


def test_the_first_violation_costs_one_comparison():
    """300 singleton entries of one value: all 44,850 tri-related pairs are
    dominated, and the first violation needs only the first of them."""
    calls = 0
    eq = natural_equality()

    def leq(x, y):
        nonlocal calls
        calls += 1
        return eq.leq(x, y)

    counted = QuasiOrder("counted-eq", leq, eq.contains)
    arr = array_of([((i,), 1) for i in range(300)])
    violations = iter(bad_array_violations(arr, uniform_fragment(1, 300), counted))
    assert next(violations) == "dominated-tri-pair at entries 0,1"
    assert calls <= 3


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


def reference_nwt_step(arr, s, frag, q):
    """The array step with its perfect-on-s precondition read as a
    classification: the final items of the entries inside ``s``, over the
    fragment restricted to ``s``, must form a perfect array."""
    keep_s = frozenset(s)
    entries = arr.entries
    if not keep_s <= base_of(frag):
        raise PreconditionViolation("s-in-base", "s must be a subset of the base")
    violations = list(bad_array_violations(arr, frag, higman_lift(q)))
    if violations:
        raise PreconditionViolation("bad-array", "; ".join(violations[:4]))
    if any(not isinstance(v, tuple) or not v for _, v in entries):
        raise PreconditionViolation("values-non-empty", "a value is not a non-empty tuple")
    inside = [i for i, (b, _) in enumerate(entries) if set(b) <= keep_s]
    if not inside:
        raise PreconditionViolation("s-meets-blocks", "no entry block lies inside s")
    inner = frozenset(b for b in frag.blocks if set(b) <= keep_s)
    restricted = BarrierFragment(frag.window, inner)
    finals = array_of((entries[i][0], entries[i][1][-1]) for i in inside)
    if "perfect" not in classify_array(finals, restricted, q):
        raise PreconditionViolation("perfect-on-s", "final labels are not pairwise dominated")
    widened = keep_s.union(*(b for b, _ in entries[: inside[0]]))
    return tuple(
        (b, v[:-1]) if set(b) <= keep_s else (b, v) for b, v in entries if set(b) <= widened
    )


def test_the_oracle_words_each_clause_as_the_report_does():
    """One sequence-valued array per clause kind: a dominated tri pair, a
    maxima decrease and a missing block."""
    q = natural_equality()
    singletons, pairs = uniform_fragment(1, 3), uniform_fragment(2, 4)
    cases = [
        (singletons, [((0,), (1,)), ((1,), (1, 2))], "dominated-tri-pair at entries 0,1"),
        (singletons, [((2,), (5,)), ((0,), (3,))], "maxima-decrease at entries 0,1"),
        (pairs, [((0, 1), (3,)), ((1, 2), (2,)), ((0, 3), (1,))], "missing-block (0, 2)"),
    ]
    for frag, entries, clause in cases:
        got = list(bad_array_violations(array_of(entries), frag, higman_lift(q)))
        brute = oracles.brute_bad_array_violations(entries, frag.window, frag.blocks, q)
        assert brute == got == [clause]


def test_nwt_improvement_step_matches_the_classifying_reference():
    rng = random.Random(2009)
    pool = oracles.quasi_orders_upto(3)
    outcomes = collections.Counter()
    for round_ in range(300):
        k = 1 + round_ % 2
        window = rng.randint(k + 1, 5)
        q = rng.choice(pool)
        items = list(q.elements)
        frag = uniform_fragment(k, window)
        entries = oracles.planted_bad_array(rng, k, window, items)
        if round_ % 3 == 1:
            # fresh final items keep the array bad but can break perfect-on-s
            entries = [(b, v[:-1] + (rng.choice(items),)) for b, v in entries]
        elif round_ % 3 == 2:
            blocks = sorted(frag.blocks)
            blocks = rng.sample(blocks, rng.randint(1, min(4, len(blocks))))
            entries = [
                (b, tuple(rng.choice(items) for _ in range(rng.randint(0, 3)))) for b in blocks
            ]
        covered = sorted({x for b, _ in entries for x in b})
        if round_ % 2:
            s = covered[rng.randrange(len(covered)):]
        else:
            s = rng.sample(covered, min(2, len(covered)))
        arr = array_of(entries)
        try:
            expected = reference_nwt_step(arr, s, frag, q)
        except PreconditionViolation as exc:
            expected = exc.clause
        try:
            got = nwt_improvement_step(arr, s, frag, q).entries
        except PreconditionViolation as exc:
            got = exc.clause
        assert got == expected, (q.name, entries, s)
        kind = expected if isinstance(expected, str) else "returned"
        outcomes[kind] += 1
    assert outcomes["perfect-on-s"] >= 20 and outcomes["returned"] >= 20, outcomes
