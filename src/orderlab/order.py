"""Finite strict orders, decidable quasi-orders, and sequence comparison.

Elements are hashable values; the bundled constructions use natural-number
ids so that searches can be bounded explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import CycleError, UnknownElement

Pair = tuple[int, int]

# Largest finite universe that QuasiOrder.compiled handles.  Compiling takes
# n**2 calls of leq, which a one-shot CLI call on a poset file pays in full:
# at most 7 ms at 128 elements against a 95-140 ms call, 9-28 ms at 256 and
# 44-136 ms at 512 (BENCH_3.json, "compile_limit").
COMPILE_LIMIT = 128


def transitive_closure(pairs: Iterable[Pair]) -> frozenset[Pair]:
    """Transitive closure of a binary relation given as a set of pairs.

    Warshall's algorithm (1962) on bit rows: each of the ``n`` elements that
    occur in a pair gets a dense index and an int whose bit ``j`` says
    "related to element ``j``", and for each ``k`` row ``k`` is ORed into
    every row with bit ``k`` set.  That is ``n**2`` tests and ORs of
    ``n``-bit ints, then one step per output pair.  A cycle needs no special
    case: it shows up as diagonal pairs.
    """
    index: dict = {}
    rows: list[int] = []
    for x, y in pairs:
        for v in (x, y):
            if v not in index:
                index[v] = len(rows)
                rows.append(0)
        rows[index[x]] |= 1 << index[y]
    for k, row_k in enumerate(rows):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | row_k
    elems = list(index)
    return frozenset(
        (x, y)
        for x, row in zip(elems, rows)
        if row
        # bin(row)[:1:-1] spells the bits of row from bit 0 up as "0"/"1"
        for y in compress(elems, map("1".__eq__, bin(row)[:1:-1]))
    )


@dataclass(frozen=True)
class Poset:
    """Strict partial order over a finite set of natural-number ids.

    ``lt`` is transitively closed and irreflexive.  Build instances with
    :func:`validate_poset`, which closes and checks an arbitrary pair set.
    """

    elements: frozenset[int]
    lt: frozenset[Pair]

    def less(self, x: int, y: int) -> bool:
        return (x, y) in self.lt

    def require(self, x: int) -> None:
        if x not in self.elements:
            raise UnknownElement(f"element {x!r} is not declared")

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))


def validate_poset(pairs: Iterable[Pair], elements: Iterable[int]) -> Poset:
    """Close ``pairs`` transitively and reject cycles and stray elements.

    A `CycleError` names the least element that lies on a cycle.
    """
    elems = frozenset(elements)
    raw = set()
    for x, y in pairs:
        for v in (x, y):
            if v not in elems:
                raise UnknownElement(f"element {v!r} is not declared")
        raw.add((x, y))
    closed = transitive_closure(raw)
    cyclic = [x for x in elems if (x, x) in closed]
    if cyclic:
        raise CycleError(f"relation has a cycle through {min(cyclic)!r}")
    return Poset(elems, closed)


class CompiledOrder:
    """Dense form of a finite quasi-order.

    ``ids`` numbers the universe ``0..n-1`` in the order of ``elements``;
    bit ``j`` of ``up[i]`` is set when element ``i`` is below element ``j``.
    """

    __slots__ = ("ids", "up", "scans_before_table", "_last")

    def __init__(self, ids: dict, up: tuple[int, ...]):
        self.ids = ids
        self.up = up
        # A table costs about 4 + n/4 scans to build (measured at 3 to 256
        # elements, BENCH_3.json "table_policy").  Scanning that many times
        # first keeps a run of queries against one target within twice the
        # cost of its cheaper plan; building on the second query did not.
        self.scans_before_table = 4 + len(up) // 4
        self._last: tuple = (None, 0, None)

    def next_table(self, target: Sequence) -> Optional[list[list[int]]]:
        """Subsequence automaton of ``target`` (Baeza-Yates 1991), or None
        while ``target`` has been asked for at most ``scans_before_table``
        times in a row.

        With ``m = len(target)``, ``rows[j][x]`` is ``1 + k`` for the least
        ``k >= j`` with ``x <= target[k]``, or the fail mark ``m + 1``, whose
        own row (the last) maps every id back to it.  Only the latest target
        is kept, keyed on a tuple copy so that a list changed between calls
        is looked at afresh.  An item outside the universe raises KeyError.
        """
        key = tuple(target)
        last_key, asked, rows = self._last
        if key != last_key:
            self._last = (key, 1, None)
            return None
        if rows is None:
            if asked < self.scans_before_table:
                self._last = (key, asked + 1, None)
                return None
            ids = self.ids
            fail = len(key) + 1
            row = [fail] * len(self.up)
            rows = [row, row]
            for k in range(len(key) - 1, -1, -1):
                bit = 1 << ids[key[k]]
                row = [k + 1 if mask & bit else nxt for mask, nxt in zip(self.up, row)]
                rows.append(row)
            rows.reverse()
            self._last = (key, asked, rows)
        return rows


@dataclass(frozen=True)
class QuasiOrder:
    """Decidable reflexive-transitive ``leq`` over a universe of values.

    ``contains`` decides universe membership; ``elements`` lists the
    universe when it is finite (used by exhaustive searches and checks).

    ``leq`` is the specification: the oracles read it and nothing else.
    ``compiled`` is a faster form of the same relation for the production
    routes only, built from ``leq`` on first use.
    """

    name: str
    leq: Callable[[Hashable, Hashable], bool]
    contains: Callable[[Hashable], bool]
    elements: Optional[tuple] = None

    @functools.cached_property
    def compiled(self) -> Optional[CompiledOrder]:
        """Dense ids and up-set bitmasks, or None for an infinite universe
        or one of more than ``COMPILE_LIMIT`` elements.

        Building the form takes ``n**2`` calls of ``leq``, so a large
        universe keeps the plain scan.
        """
        if self.elements is None:
            return None
        elems = tuple(dict.fromkeys(self.elements))
        if len(elems) > COMPILE_LIMIT:
            return None
        leq = self.leq
        up = tuple(
            sum(1 << j for j, y in enumerate(elems) if leq(x, y)) for x in elems
        )
        return CompiledOrder({x: i for i, x in enumerate(elems)}, up)

    def require(self, x: Hashable) -> None:
        if not self.contains(x):
            raise UnknownElement(f"{x!r} is outside the universe of {self.name}")


def _is_natural(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def natural_order() -> QuasiOrder:
    """The usual total order on the naturals."""
    return QuasiOrder("natural-leq", lambda x, y: x <= y, _is_natural)


def natural_equality() -> QuasiOrder:
    """Equality on the naturals; the canonical infinite antichain."""
    return QuasiOrder("natural-eq", lambda x, y: x == y, _is_natural)


def divisibility() -> QuasiOrder:
    """Divisibility on the naturals.  Everything divides 0; 0 divides only 0."""
    return QuasiOrder(
        "divides",
        lambda x, y: y == 0 if x == 0 else y % x == 0,
        _is_natural,
    )


def finite_quasi_order(
    elements: Iterable[Hashable], leq_pairs: Iterable[tuple], name: str = "finite"
) -> QuasiOrder:
    """Explicit finite quasi-order; reflexivity and transitivity are enforced."""
    elems = tuple(dict.fromkeys(elements))
    universe = frozenset(elems)
    rel = set()
    for x, y in leq_pairs:
        for v in (x, y):
            if v not in universe:
                raise UnknownElement(f"{v!r} is not declared in {name}")
        rel.add((x, y))
    for x in elems:
        if (x, x) not in rel:
            raise ValueError(f"{name} is not reflexive at {x!r}")
    for x, y in rel:
        for z in elems:
            if (y, z) in rel and (x, z) not in rel:
                raise ValueError(f"{name} is not transitive: {x!r},{y!r},{z!r}")
    rel_frozen = frozenset(rel)
    return QuasiOrder(name, lambda x, y: (x, y) in rel_frozen, universe.__contains__, elems)


def quasi_from_poset(poset: Poset, name: str = "poset") -> QuasiOrder:
    """Reflexive closure of a strict order, viewed as a quasi-order."""
    return QuasiOrder(
        name,
        lambda x, y: x == y or (x, y) in poset.lt,
        poset.elements.__contains__,
        poset.sorted_elements(),
    )


def seq_less_by(a: Sequence, b: Sequence, less: Callable[[Hashable, Hashable], bool]) -> bool:
    """Strict sequence comparison: shared prefix, then a strictly smaller item.

    A proper prefix is never below its extension; incomparable items at the
    first divergence make the sequences incomparable.
    """
    for x, y in zip(a, b):
        if x != y:
            return less(x, y)
    return False


def seq_less(a: Sequence[int], b: Sequence[int], order: Poset) -> bool:
    """`seq_less_by` specialised to a validated finite strict order."""
    for seq in (a, b):
        for x in seq:
            order.require(x)
    return seq_less_by(a, b, order.less)
