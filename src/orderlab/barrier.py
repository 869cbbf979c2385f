"""Finite windows of barriers, partial arrays over them, and the
array-improvement step.

A block is a strictly increasing tuple of naturals.  A fragment holds the
blocks of a barrier whose entries fall below a window bound; whether the
full barrier continues beyond the window cannot be decided locally, so the
completeness check reports "inconclusive" rather than failing.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Optional, Sequence

from ._record import record
from .errors import (
    MAX_FAILURES,
    EmptyBlock,
    InvalidArray,
    InvalidFragment,
    NegativeCount,
    NotIncreasing,
    NotTriRelated,
    PreconditionViolation,
)

if TYPE_CHECKING:
    from .order import QuasiOrder

Block = tuple[int, ...]


def _require_block(b: Sequence[int]) -> Block:
    block = tuple(b)
    if any(map(operator.ge, block, block[1:])):
        raise NotIncreasing(f"{block} is not strictly increasing")
    if block and block[0] < 0:
        raise NotIncreasing(f"{block} has negative entries")
    return block


@record
class BarrierFragment:
    """Blocks of a barrier restricted to entries below ``window``."""

    window: int
    blocks: frozenset[Block]

    def sorted_blocks(self) -> tuple[Block, ...]:
        return tuple(sorted(self.blocks))


def _fragment_problems(blocks: Iterable[Block], window: int):
    """Yield ``(error type, message)`` for each broken fragment rule, lazily:
    each block that is not strictly increasing or leaves the window, in the
    order given, then each block range contained in another's.  Blocks of
    equal length never nest, so a block is tried only against longer ones."""
    inside: set[Block] = set()
    for block in blocks:
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            yield NotIncreasing, f"block {block} is not strictly increasing"
        elif block and (block[0] < 0 or block[-1] >= window):
            yield InvalidFragment, f"block {block} leaves the window {window}"
        else:
            inside.add(block)
    longer = {n: [c for c in inside if len(c) > n] for n in set(map(len, inside))}
    for b in inside:
        for c in longer[len(b)]:
            if set(b) <= set(c):
                yield InvalidFragment, f"range of {b} is contained in range of {c}"


def fragment(blocks: Iterable[Sequence[int]], window: int) -> BarrierFragment:
    """Validated fragment: increasing blocks inside the window, and no
    block's range contained in another's.  Raises on the first problem."""
    checked = {tuple(b) for b in blocks}
    for error, message in _fragment_problems(checked, window):
        raise error(message)
    return BarrierFragment(window, frozenset(checked))


def uniform_fragment(k: int, window: int) -> BarrierFragment:
    """All ``k``-element subsets of the window, as increasing blocks: none
    when ``k`` exceeds the window."""
    if k < 1:
        raise InvalidFragment("uniform fragments need k >= 1")
    if k > window:
        return BarrierFragment(window, frozenset())
    return BarrierFragment(
        window, frozenset(itertools.combinations(range(window), k))
    )


def base_of(frag: BarrierFragment) -> frozenset[int]:
    """Union of the block ranges."""
    return frozenset(x for b in frag.blocks for x in b)


def _tri_partners(b: Block, blocks: Sequence[Block]) -> list[int]:
    """The positions ``j``, ascending, with ``b`` ◁ ``blocks[j]``, for valid
    blocks.

    ``b`` ◁ ``c`` when some increasing ``d`` extends ``b`` while its tail
    extends ``c``.  Such a ``d`` is pinned on all positions except possibly
    the first: position ``i`` carries ``b[i]`` and position ``i+1`` carries
    ``c[i]``.  So the two must agree where they overlap, and whatever ``c``
    adds past ``b`` must lie above ``b``'s last entry; with ``b`` empty the
    first position only needs a natural below ``c[0]``.  One call tests
    ``b`` against every block, so the parts of ``b`` are taken once.
    """
    if not b:
        return [j for j, c in enumerate(blocks) if not c or c[0] > 0]
    k = len(b) - 1
    tail, last = b[1:], b[-1]
    found = []
    for j, c in enumerate(blocks):
        if len(c) > k:
            if c[k] > last and c[:k] == tail:
                found.append(j)
        elif c == tail[: len(c)]:
            found.append(j)
    return found


def _tri_union(b: Block, c: Block) -> Optional[Block]:
    """The union of the ranges of two valid blocks when ``b`` ◁ ``c``, else
    None: ``d`` itself, which is ``b`` followed by what ``c`` adds past it."""
    if not _tri_partners(b, (c,)):
        return None
    return b + c[len(b) - 1 :] if b else c


def block_tri(b: Sequence[int], c: Sequence[int]) -> bool:
    """Whether some increasing ``d`` extends ``b`` while its tail extends ``c``."""
    return _tri_union(_require_block(b), _require_block(c)) is not None


def union_block(b: Sequence[int], c: Sequence[int]) -> Block:
    """Sorted union of the ranges of two tri-related blocks."""
    union = _tri_union(_require_block(b), _require_block(c))
    if union is None:
        raise NotTriRelated(f"{tuple(b)} and {tuple(c)} are not tri-related")
    return union


def star_fragment(frag: BarrierFragment) -> BarrierFragment:
    """Unions of all tri-related block pairs, over the same window."""
    unions = (_tri_union(b, c) for b in frag.blocks for c in frag.blocks)
    return fragment({u for u in unions if u is not None}, frag.window)


@record
class FragmentCheck:
    verdict: str  # "pass" | "fail" | "inconclusive"
    problems: tuple[str, ...]
    uncovered: tuple[Block, ...]


def check_fragment(blocks: Iterable[Sequence[int]], window: int) -> FragmentCheck:
    """Validate fragment invariants and window completeness.

    Fails on structural violations.  Otherwise every increasing sequence
    from the base must reach a block prefix before running out of window;
    sequences forced out of the window leave the verdict inconclusive, and
    the search stops at the eighth of them.
    """
    checked = [tuple(b) for b in blocks]
    problems = sorted(message for _, message in _fragment_problems(checked, window))
    if problems:
        return FragmentCheck("fail", tuple(problems), ())

    blockset = set(checked)
    base = sorted({x for b in blockset for x in b})
    uncovered: list[Block] = []
    # a pre-order walk with one lazy iterator of extensions per level
    stack = [iter([()])]
    while stack and len(uncovered) < MAX_FAILURES:
        seq = next(stack[-1], None)
        if seq is None:
            stack.pop()
        elif seq not in blockset:
            rest = base[bisect.bisect_right(base, seq[-1]) :] if seq else base
            if not rest:
                uncovered.append(seq)
            stack.append(map(seq.__add__, zip(rest)))
    if uncovered:
        return FragmentCheck("inconclusive", (), tuple(uncovered))
    return FragmentCheck("pass", (), ())


@record
class PartialArray:
    """Finite enumeration of ``(block, value)`` pairs, in sequence order."""

    entries: tuple[tuple[Block, Hashable], ...]


def array_of(entries: Iterable[tuple[Sequence[int], Hashable]]) -> PartialArray:
    """Validated array: increasing blocks, each at most once."""
    out = tuple([(_require_block(b), v) for b, v in entries])
    if len(set([b for b, _ in out])) != len(out):
        raise InvalidArray("array blocks must be distinct to form a map")
    return PartialArray(out)


def _require_entry(b: Block, v: Hashable, frag: BarrierFragment, q: QuasiOrder) -> None:
    """Raise unless block ``b`` is in ``frag`` and value ``v`` is in ``q``."""
    if b not in frag.blocks:
        raise InvalidArray(f"block {b} is not in the fragment")
    q.require_all((v,))


def _tri_pairs(entries: Sequence[tuple[Block, Hashable]]):
    """``(i, j, v, w)`` for each ordered pair of entries ``(b, v)`` and
    ``(c, w)`` with ``b`` ◁ ``c``, in order."""
    blocks = [b for b, _ in entries]
    for i, (b, v) in enumerate(entries):
        for j in _tri_partners(b, blocks):
            if j != i:
                yield i, j, v, entries[j][1]


# classify_array's verdict by whether some tri pair is dominated and whether
# some is not, so each call returns one of four shared sets
_VERDICTS = {
    (False, False): frozenset({"bad", "perfect"}),
    (True, False): frozenset({"good", "perfect"}),
    (False, True): frozenset({"bad"}),
    (True, True): frozenset({"good", "mixed"}),
}


def classify_array(arr: PartialArray, frag: BarrierFragment, q: QuasiOrder) -> frozenset[str]:
    """Good/bad/perfect/mixed verdicts over the tri-related entry pairs.

    With no tri-related pair at all the array is vacuously bad and perfect
    at once, and both labels are reported.  A compiled order answers each
    pair from its up-set rows.
    """
    entries = arr.entries
    blocks = [b for b, _ in entries]
    values = [v for _, v in entries]
    if not frag.blocks.issuperset(blocks):
        for b, v in entries:
            _require_entry(b, v, frag, q)
    q.require_all(values)
    compiled = q.compiled
    total = hits = 0
    if compiled is None:
        for _, _, v, w in _tri_pairs(entries):
            total += 1
            hits += bool(q.leq(v, w))
    else:
        at = [compiled.ids[v] for v in values]
        for i, b in enumerate(blocks):
            row = compiled.up[at[i]]
            for j in _tri_partners(b, blocks):
                if j != i:
                    total += 1
                    hits += row >> at[j] & 1
    return _VERDICTS[hits > 0, hits < total]


def bad_array_violations(
    arr: PartialArray, frag: BarrierFragment, q: QuasiOrder
) -> Iterator[str]:
    """Yield the violated clauses of the bad-partial-array conditions,
    lazily, so a caller takes as many as it reports.

    The clauses: block maxima never decrease; no tri-related pair is
    dominated in order; and every fragment block inside the enumerated base
    with maximum below the final block's maximum already occurs earlier.
    """
    entries = arr.entries
    for b, v in entries:
        if not b:
            raise EmptyBlock("arrays over a barrier use non-empty blocks")
        _require_entry(b, v, frag, q)
    for i in range(len(entries) - 1):
        if max(entries[i][0]) > max(entries[i + 1][0]):
            yield f"maxima-decrease at entries {i},{i + 1}"
    for i, j, v, w in _tri_pairs(entries):
        if q.leq(v, w):
            yield f"dominated-tri-pair at entries {i},{j}"
    if entries:
        enumerated = {b for b, _ in entries[:-1]}
        covered = {x for b, _ in entries for x in b}
        frontier = max(entries[-1][0])
        for b in sorted(frag.blocks):
            if b and set(b) <= covered and max(b) < frontier and b not in enumerated:
                yield f"missing-block {b}"


def barrier_pair_homogeneous(
    frag: BarrierFragment, coloring: Callable[[Block, Block], int], target: int
) -> Optional[tuple[int, ...]]:
    """First ``target``-subset of the base (lexicographically) on which the
    colouring of tri-related block pairs inside the subset is constant: the
    finite pair case of the Nash-Williams partition theorem for barriers.
    A subset is dropped at the second colour it shows.  Raises
    `NegativeCount` when ``target`` is negative."""
    if target < 0:
        raise NegativeCount(f"target must be at least 0, got {target}")
    base = sorted(base_of(frag))
    if target > len(base):
        return None
    blocks = frag.sorted_blocks()
    for subset in itertools.combinations(base, target):
        keep = set(subset)
        inside = [b for b in blocks if keep.issuperset(b)]
        tri = ((b, inside[j]) for b in inside for j in _tri_partners(b, inside))
        colors = set()
        for b, c in tri:
            colors.add(coloring(b, c))
            if len(colors) > 1:
                break
        else:
            return subset
    return None


def nwt_improvement_step(
    arr: PartialArray, s: Iterable[int], frag: BarrierFragment, q: QuasiOrder
) -> PartialArray:
    """One improvement step on a bad array of sequence values.

    Entries whose blocks lie inside ``s`` (where the final labels are
    pairwise dominated) lose their final item; entries surviving on the
    widened base keep their value; everything else is dropped.  The result
    is again a bad array, strictly below the input in the length order at
    the first block inside ``s``.
    """
    from .wqo import higman_lift
    keep_s = frozenset(s)
    entries = arr.entries
    if not keep_s <= base_of(frag):
        raise PreconditionViolation("s-in-base", "s must be a subset of the base")
    violations = list(itertools.islice(bad_array_violations(arr, frag, higman_lift(q)), 4))
    if violations:
        raise PreconditionViolation("bad-array", "; ".join(violations))
    for b, v in entries:
        if not isinstance(v, tuple) or not v:
            raise PreconditionViolation(
                "values-non-empty", f"value at block {b} is not a non-empty tuple"
            )
    inside = [i for i, (b, _) in enumerate(entries) if set(b) <= keep_s]
    if not inside:
        raise PreconditionViolation("s-meets-blocks", "no entry block lies inside s")
    finals = [(entries[i][0], entries[i][1][-1]) for i in inside]
    if not all(q.leq(v, w) for _, _, v, w in _tri_pairs(finals)):
        raise PreconditionViolation(
            "perfect-on-s", "final labels on s are not pairwise dominated"
        )
    n = inside[0]
    widened = set(keep_s)
    for b, _ in entries[:n]:
        widened |= set(b)
    out = []
    for b, v in entries:
        if set(b) <= keep_s:
            out.append((b, v[:-1]))
        elif set(b) <= widened:
            out.append((b, v))
    return PartialArray(tuple(out))
