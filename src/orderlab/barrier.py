"""Finite windows of barriers, partial arrays over them, and the
array-improvement step.

A block is a strictly increasing tuple of naturals.  A fragment holds the
blocks of a barrier whose entries fall below a window bound; whether the
full barrier continues beyond the window cannot be decided locally, so the
completeness check reports "inconclusive" rather than failing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import (
    EmptyBlock,
    NegativeCount,
    NotIncreasing,
    NotTriRelated,
    PreconditionViolation,
)
from .order import QuasiOrder
from .wqo import higman_lift

Block = tuple[int, ...]


def _require_block(b: Sequence[int]) -> Block:
    block = tuple(b)
    if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
        raise NotIncreasing(f"{block} is not strictly increasing")
    if block and block[0] < 0:
        raise NotIncreasing(f"{block} has negative entries")
    return block


@dataclass(frozen=True)
class BarrierFragment:
    """Blocks of a barrier restricted to entries below ``window``."""

    window: int
    blocks: frozenset[Block]

    def sorted_blocks(self) -> tuple[Block, ...]:
        return tuple(sorted(self.blocks))


def _fragment_problems(blocks: Iterable[Block], window: int):
    """Yield ``(error type, message)`` for each broken fragment rule, lazily:
    each block that is not strictly increasing or leaves the window, in the
    order given, then each block range contained in another's."""
    inside: set[Block] = set()
    for block in blocks:
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            yield NotIncreasing, f"block {block} is not strictly increasing"
        elif block and (block[0] < 0 or block[-1] >= window):
            yield ValueError, f"block {block} leaves the window {window}"
        else:
            inside.add(block)
    for b, c in itertools.permutations(inside, 2):
        # distinct increasing blocks of equal length have distinct ranges
        if len(b) < len(c) and set(b) <= set(c):
            yield ValueError, f"range of {b} is contained in range of {c}"


def fragment(blocks: Iterable[Sequence[int]], window: int) -> BarrierFragment:
    """Validated fragment: increasing blocks inside the window, and no
    block's range contained in another's.  Raises on the first problem."""
    checked = {tuple(b) for b in blocks}
    for error, message in _fragment_problems(checked, window):
        raise error(message)
    return BarrierFragment(window, frozenset(checked))


def uniform_fragment(k: int, window: int) -> BarrierFragment:
    """All ``k``-element subsets of the window, as increasing blocks."""
    if k < 1:
        raise ValueError("uniform fragments need k >= 1")
    return BarrierFragment(
        window, frozenset(itertools.combinations(range(window), k))
    )


def base_of(frag: BarrierFragment) -> frozenset[int]:
    """Union of the block ranges."""
    return frozenset(x for b in frag.blocks for x in b)


def _tri_union(b: Block, c: Block) -> Optional[Block]:
    """The union of the ranges of two valid blocks when ``b`` ◁ ``c``, else
    None.

    ``b`` ◁ ``c`` when some increasing ``d`` extends ``b`` while its tail
    extends ``c``.  Such a ``d`` is pinned on all positions except possibly
    the first: position ``i`` carries ``b[i]`` and position ``i+1`` carries
    ``c[i]``.  So the two must agree where they overlap, and whatever ``c``
    adds past ``b`` must lie above ``b``'s last entry; with ``b`` empty the
    first position only needs a natural below ``c[0]``.
    """
    if not b:
        return c if not c or c[0] > 0 else None
    k = len(b) - 1
    if b[1 : 1 + len(c)] == c[:k] and (len(c) <= k or b[-1] < c[k]):
        return b + c[k:]
    return None


def block_tri(b: Sequence[int], c: Sequence[int]) -> bool:
    """Whether some increasing ``d`` extends ``b`` while its tail extends ``c``."""
    return _tri_union(_require_block(b), _require_block(c)) is not None


def union_block(b: Sequence[int], c: Sequence[int]) -> Block:
    """Sorted union of the ranges of two tri-related blocks."""
    union = _tri_union(_require_block(b), _require_block(c))
    if union is None:
        raise NotTriRelated(f"{tuple(b)} and {tuple(c)} are not tri-related")
    return union


def restrict(frag: BarrierFragment, subset: Iterable[int]) -> BarrierFragment:
    """Blocks whose range lies inside ``subset``; the window is unchanged."""
    keep = set(subset)
    return BarrierFragment(
        frag.window, frozenset(b for b in frag.blocks if set(b) <= keep)
    )


def star_fragment(frag: BarrierFragment) -> BarrierFragment:
    """Unions of all tri-related block pairs, over the same window."""
    unions = (_tri_union(b, c) for b in frag.blocks for c in frag.blocks)
    return fragment({u for u in unions if u is not None}, frag.window)


@dataclass(frozen=True)
class FragmentCheck:
    verdict: str  # "pass" | "fail" | "inconclusive"
    problems: tuple[str, ...]
    uncovered: tuple[Block, ...]


def check_fragment(blocks: Iterable[Sequence[int]], window: int) -> FragmentCheck:
    """Validate fragment invariants and window completeness.

    Fails on structural violations.  Otherwise every increasing sequence
    from the base must reach a block prefix before running out of window;
    sequences forced out of the window leave the verdict inconclusive.
    """
    checked = [tuple(b) for b in blocks]
    problems = sorted(message for _, message in _fragment_problems(checked, window))
    if problems:
        return FragmentCheck("fail", tuple(problems), ())

    blockset = set(checked)
    base = sorted({x for b in blockset for x in b})
    uncovered: list[Block] = []

    def walk(seq: Block) -> None:
        if seq in blockset:
            return
        extensions = [x for x in base if not seq or x > seq[-1]]
        if not extensions:
            uncovered.append(seq)
            return
        for x in extensions:
            walk(seq + (x,))

    walk(())
    if uncovered:
        return FragmentCheck("inconclusive", (), tuple(uncovered[:8]))
    return FragmentCheck("pass", (), ())


@dataclass(frozen=True)
class PartialArray:
    """Finite enumeration of ``(block, value)`` pairs, in sequence order."""

    entries: tuple[tuple[Block, Hashable], ...]


def array_of(entries: Iterable[tuple[Sequence[int], Hashable]]) -> PartialArray:
    out = []
    for b, v in entries:
        out.append((_require_block(b), v))
    return PartialArray(tuple(out))


def _tri_pairs(arr: PartialArray):
    entries = arr.entries
    for i, (b, v) in enumerate(entries):
        for j, (c, w) in enumerate(entries):
            if i != j and _tri_union(b, c) is not None:
                yield i, j, v, w


def classify_array(arr: PartialArray, frag: BarrierFragment, q: QuasiOrder) -> frozenset[str]:
    """Good/bad/perfect/mixed verdicts over the tri-related entry pairs.

    With no tri-related pair at all the array is vacuously bad and perfect
    at once, and both labels are reported.
    """
    blocks = [b for b, _ in arr.entries]
    if len(set(blocks)) != len(blocks):
        raise ValueError("array blocks must be distinct to form a map")
    for b, v in arr.entries:
        if b not in frag.blocks:
            raise ValueError(f"block {b} is not in the fragment")
        q.require(v)
    total = hits = 0
    for _, _, v, w in _tri_pairs(arr):
        total += 1
        hits += bool(q.leq(v, w))
    if total == 0:
        return frozenset({"bad", "perfect"})
    if hits == total:
        return frozenset({"good", "perfect"})
    if hits == 0:
        return frozenset({"bad"})
    return frozenset({"good", "mixed"})


def bad_array_violations(
    arr: PartialArray, frag: BarrierFragment, q: QuasiOrder
) -> tuple[str, ...]:
    """Violated clauses of the bad-partial-array conditions (empty if none).

    The clauses: block maxima never decrease; no tri-related pair is
    dominated in order; and every fragment block inside the enumerated base
    with maximum below the final block's maximum already occurs earlier.
    """
    entries = arr.entries
    for b, v in entries:
        if not b:
            raise EmptyBlock("arrays over a barrier use non-empty blocks")
        if b not in frag.blocks:
            raise ValueError(f"block {b} is not in the fragment")
        q.require(v)
    violations: list[str] = []
    for i in range(len(entries) - 1):
        if max(entries[i][0]) > max(entries[i + 1][0]):
            violations.append(f"maxima-decrease at entries {i},{i + 1}")
    for i, j, v, w in _tri_pairs(arr):
        if q.leq(v, w):
            violations.append(f"dominated-tri-pair at entries {i},{j}")
    if entries:
        enumerated = {b for b, _ in entries[:-1]}
        covered = {x for b, _ in entries for x in b}
        frontier = max(entries[-1][0])
        for b in sorted(frag.blocks):
            if b and set(b) <= covered and max(b) < frontier and b not in enumerated:
                violations.append(f"missing-block {b}")
    return tuple(violations)


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
        tri = ((b, c) for b in inside for c in inside if _tri_union(b, c) is not None)
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
    keep_s = frozenset(s)
    entries = arr.entries
    if not keep_s <= base_of(frag):
        raise PreconditionViolation("s-in-base", "s must be a subset of the base")
    lifted = higman_lift(q)
    violations = bad_array_violations(arr, frag, lifted)
    if violations:
        raise PreconditionViolation("bad-array", "; ".join(violations[:4]))
    for b, v in entries:
        if not isinstance(v, tuple) or not v:
            raise PreconditionViolation(
                "values-non-empty", f"value at block {b} is not a non-empty tuple"
            )
    inside = [i for i, (b, _) in enumerate(entries) if set(b) <= keep_s]
    if not inside:
        raise PreconditionViolation("s-meets-blocks", "no entry block lies inside s")
    finals = array_of((entries[i][0], entries[i][1][-1]) for i in inside)
    if "perfect" not in classify_array(finals, restrict(frag, keep_s), q):
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
