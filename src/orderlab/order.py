"""Finite strict orders, decidable quasi-orders, and sequence comparison.

Elements are hashable values; the bundled constructions use natural-number
ids so that searches can be bounded explicitly.
"""

from __future__ import annotations

import functools
import operator
from itertools import compress, repeat
from typing import Callable, Hashable, Iterable, Optional, Sequence

from ._record import record
from .errors import CycleError, NotAQuasiOrder, UnknownElement

Pair = tuple[int, int]

# bytes.translate table taking the digits "0"/"1" to the bytes 0/1
_BITS = bytes.maketrans(b"01", b"\0\1")


def bit_flags(row: int) -> bytes:
    """Bytes 0/1 for the bits of ``row`` from bit 0 up, for `itertools.compress`."""
    return bin(row)[:1:-1].encode().translate(_BITS)


def _rows(pairs: Iterable[tuple], index: dict) -> tuple[int, ...]:
    """Bit rows of a relation, bit ``index[y]`` of row ``index[x]`` set for
    each pair ``(x, y)``.  A KeyError names the first element of ``pairs``,
    in pair order, that ``index`` lacks.
    """
    # "0"/"1" digits from bit 0 up, one bytearray per row, each read by one int() call
    digits = [bytearray(b"0" * len(index)) for _ in index]
    for x, y in pairs:
        digits[index[x]][index[y]] = 49  # ord("1")
    return tuple(int(row[::-1], 2) for row in digits)


def _closed_rows(pairs: Iterable[Pair], index: dict) -> list[int]:
    """Transitively closed bit rows of a relation given as pairs.

    ``index`` numbers the elements densely; a KeyError names the first
    element of ``pairs``, in pair order, that it lacks.
    Bit ``j`` of row ``i`` says "related to element ``j``".  Rows are closed
    from the sinks up in Kahn's order (1962): an element whose successors
    are all closed ORs their rows into its own, one OR per input pair.
    Only the elements left over, those on or above a cycle, go through
    Warshall's loop (1962), which ORs row ``k`` into every leftover row with
    bit ``k`` set; on an acyclic relation none are left.  A cycle needs no
    special case: it shows up as diagonal bits.
    """
    rows = [0] * len(index)
    preds: list[list[int]] = [[] for _ in index]
    # pending[i] counts the input pairs (i, j) whose j is not closed yet
    pending = [0] * len(index)
    for x, y in pairs:
        i, j = index[x], index[y]
        rows[i] |= 1 << j
        preds[j].append(i)
        pending[i] += 1
    closed = [j for j, count in enumerate(pending) if not count]
    for j in closed:  # grows while it is read: Kahn's queue
        row_j = rows[j]
        for i in preds[j]:
            rows[i] |= row_j
            pending[i] -= 1
            if not pending[i]:
                closed.append(i)
    left = [k for k, count in enumerate(pending) if count]
    for k in left:
        bit, row_k = 1 << k, rows[k]
        for i in left:
            if rows[i] & bit:
                rows[i] |= row_k
    return rows


def _pairs(elems: Sequence, rows: Iterable[int]) -> frozenset[Pair]:
    """The pairs ``(elems[i], elems[j])`` for each set bit ``j`` of row ``i``."""
    out: list[Pair] = []
    for x, row in zip(elems, rows):
        if row:
            out += zip(repeat(x), compress(elems, bit_flags(row)))
    return frozenset(out)


class Poset:
    """Strict partial order over a finite set of natural-number ids.

    Kept as one closed bit row per id, in ascending id order: bit ``j`` of
    ``rows[i]`` says the ``i``-th id is below the ``j``-th.  `validate_poset`
    closes and checks an arbitrary pair set into rows.  ``Poset(elements,
    lt)``, with ``lt`` closed and irreflexive, derives the rows on first use
    and raises `UnknownElement` then for a pair outside ``elements``.  The
    pairs ``lt`` are derived from the rows when read.  Equality and hashing
    are those of the relation.
    """

    def __init__(self, elements: Iterable[int], lt: Iterable[Pair]):
        self.__dict__.update(elements=frozenset(elements), lt=frozenset(lt))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a Poset is immutable")

    @functools.cached_property
    def _index(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(sorted(self.elements))}

    @functools.cached_property
    def rows(self) -> tuple[int, ...]:
        try:
            return _rows(self.lt, self._index)
        except KeyError as err:
            raise UnknownElement(f"element {err.args[0]!r} is not declared") from None

    @functools.cached_property
    def lt(self) -> frozenset[Pair]:
        return _pairs(tuple(self._index), self.rows)

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Poset) and self.elements == other.elements
        return same and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.elements, self.rows))

    def __repr__(self) -> str:
        return f"Poset(elements={self.elements!r}, lt={self.lt!r})"

    def less(self, x: int, y: int) -> bool:
        index = self._index
        try:
            return self.rows[index[x]] >> index[y] & 1 == 1
        except KeyError:
            return False

    def require(self, x: int) -> None:
        if x not in self.elements:
            raise UnknownElement(f"element {x!r} is not declared")

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(self._index)


def validate_poset(pairs: Iterable[Pair], elements: Iterable[int]) -> Poset:
    """Close ``pairs`` transitively and reject cycles and stray elements.

    The rows are closed over the sorted ids; no pair is made.  An
    `UnknownElement` names the first stray element in ``pairs``, a
    `CycleError` the least element whose row has its own bit set.
    """
    ids = tuple(sorted(frozenset(elements)))
    index = {x: i for i, x in enumerate(ids)}
    try:
        rows = _closed_rows(pairs, index)
    except KeyError as err:
        raise UnknownElement(f"element {err.args[0]!r} is not declared") from None
    for i, row in enumerate(rows):
        if row >> i & 1:
            raise CycleError(f"relation has a cycle through {ids[i]!r}")
    poset = Poset.__new__(Poset)
    poset.__dict__.update(elements=frozenset(ids), _index=index, rows=tuple(rows))
    return poset


class CompiledOrder:
    """Dense form of a finite quasi-order, with a one-slot memo of Higman
    tables.

    ``ids`` numbers the universe ``0..n-1`` in the order of ``elements``;
    bit ``j`` of ``up[i]`` is set when element ``i`` is below element ``j``.
    ``target`` is the latest target `next_table` was asked about, as a
    tuple, ``asked`` how many times in a row it was asked for, and
    ``table`` its table once built, else None.  `wqo.higman_leq` reads
    ``table`` in place when its target is ``target`` itself, and hands
    every other call to `next_table`.  ``down`` is the transpose of ``up``,
    built on first use.
    """

    __slots__ = ("ids", "up", "scans_before_table", "target", "asked", "table", "_down")

    def __init__(self, ids: dict, up: tuple[int, ...]):
        self.ids = ids
        self.up = up
        # A table of a target of up to 16 items costs about 4 + n/4 scans to
        # build (measured at 3 to 256 elements, BENCH_3.json "table_policy",
        # and for the columns, BENCH_25.json "table_policy"; a longer target
        # costs more, alike for rows and columns).  Scanning that many times
        # first keeps a run of queries against one target within twice the
        # cost of its cheaper plan; building on the second query did not.
        self.scans_before_table = 4 + len(up) // 4
        self.target = self.table = self._down = None
        self.asked = 0

    @property
    def down(self) -> tuple[int, ...]:
        """Down-set rows: bit ``i`` of ``down[j]`` is set when element ``i``
        is below element ``j``."""
        if self._down is None:
            rows = [0] * len(self.up)
            for i, row in enumerate(self.up):
                bit = 1 << i
                for j in compress(range(len(rows)), bit_flags(row)):
                    rows[j] |= bit
            self._down = tuple(rows)
        return self._down

    def next_table(self, target: Sequence) -> Optional[dict[Hashable, list[int]]]:
        """Subsequence automaton of ``target`` (Baeza-Yates 1991), or None
        while ``target`` has been asked for at most ``scans_before_table``
        times in a row.

        The table holds one column per element.  With ``m = len(target)``,
        ``table[x][j]`` is ``1 + k`` for the least ``k >= j`` with
        ``x <= target[k]``, or the fail mark ``m + 1``, which every column
        maps back to itself.  A column depends only on which items of
        ``target`` its element lies below, so elements that agree there
        share one column.  Only the latest target is kept, as a tuple copy,
        so that a list changed between calls is looked at afresh; a tuple is
        its own copy, so asking for the same tuple again is settled by
        identity before any item is compared.  An item outside the universe
        raises KeyError, or TypeError when it is unhashable.
        """
        key = tuple(target)
        if key is not self.target and key != self.target:
            self.target, self.asked, self.table = key, 1, None
            return None
        if self.table is not None:
            return self.table
        if self.asked < self.scans_before_table:
            self.asked += 1
            return None
        ids = self.ids
        fail = len(key) + 1
        at = [ids[x] for x in key]
        present = 0
        for i in at:
            present |= 1 << i
        marks = list(range(1, fail))  # one int object per mark, however many columns hold it
        shared: dict[int, list[int]] = {}
        table = {}
        for x, i in ids.items():
            below = self.up[i] & present
            column = shared.get(below)
            if column is None:
                column = shared[below] = [fail] * (fail + 1)
                nxt = fail
                for k in range(len(at) - 1, -1, -1):
                    if below >> at[k] & 1:
                        nxt = marks[k]
                    column[k] = nxt
            table[x] = column
        self.table = table
        return table


@record
class QuasiOrder:
    """Decidable reflexive-transitive ``leq`` over a universe of values.

    ``contains`` decides universe membership; ``elements`` lists the
    universe when it is finite (used by exhaustive searches and checks).

    ``leq`` is the specification: the oracles read it and nothing else.
    ``compiled`` is a faster form of the same relation for the production
    routes only: dense ids and up-set bitmasks, which the constructors of
    finite orders (`finite_quasi_order`, `quasi_from_poset`) supply at any
    size.  It is None otherwise, and equality, hashing and ``repr`` ignore it.
    """

    name: str
    leq: Callable[[Hashable, Hashable], bool]
    contains: Callable[[Hashable], bool]
    elements: Optional[tuple] = None
    compiled: Optional[CompiledOrder] = None

    # ``compiled`` restates ``leq``, so it is left out of these three
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.leq, self.contains, self.elements) == (
                other.name, other.leq, other.contains, other.elements
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.leq, self.contains, self.elements))

    def __repr__(self):
        return (
            f"QuasiOrder(name={self.name!r}, leq={self.leq!r}, "
            f"contains={self.contains!r}, elements={self.elements!r})"
        )

    def require_all(self, items: Sequence) -> None:
        """Raise `UnknownElement` for the first item, in order, outside the
        universe.  On the natural families one C-level pass settles a
        sequence of plain non-negative ints; any other sequence takes the
        item-by-item loop.  An item for which ``contains`` raises TypeError,
        as a finite universe's dict lookup does for an unhashable item, is
        outside.
        """
        contains = self.contains
        if contains is _is_natural and set(map(type, items)) <= {int}:
            if min(items, default=0) >= 0:
                return
        for x in items:
            try:
                inside = contains(x)
            except TypeError:
                inside = False
            if not inside:
                raise UnknownElement(f"{x!r} is outside the universe of {self.name}")


def _is_natural(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def natural_order() -> QuasiOrder:
    """The usual total order on the naturals."""
    return QuasiOrder("natural-leq", operator.le, _is_natural)


def natural_equality() -> QuasiOrder:
    """Equality on the naturals; the canonical infinite antichain."""
    return QuasiOrder("natural-eq", operator.eq, _is_natural)


def _divides(x: int, y: int) -> bool:
    return y == 0 if x == 0 else y % x == 0


def divisibility() -> QuasiOrder:
    """Divisibility on the naturals.  Everything divides 0; 0 divides only 0.
    Two calls return equal orders, as `natural_order` does."""
    return QuasiOrder("divides", _divides, _is_natural)


def finite_quasi_order(
    elements: Iterable[Hashable], leq_pairs: Iterable[tuple], name: str = "finite"
) -> QuasiOrder:
    """Explicit finite quasi-order; reflexivity and transitivity are enforced.

    The pairs become up-set bit rows over ``elements`` in one pass, and the
    axioms are checked on the rows: reflexivity at every element first, then
    transitivity, reported for the least failing ``(x, y, z)`` in element
    order.  An `UnknownElement` names the first stray element in pair order.
    The rows are the order's compiled form, at any size.
    """
    elems = tuple(dict.fromkeys(elements))
    ids = {x: i for i, x in enumerate(elems)}
    pairs = [(x, y) for x, y in leq_pairs]
    try:
        up = _rows(pairs, ids)
    except KeyError as err:
        raise UnknownElement(f"{err.args[0]!r} is not declared in {name}") from None
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise NotAQuasiOrder(f"{name} is not reflexive at {elems[i]!r}")
    for i, row in enumerate(up):
        for j in compress(range(len(up)), bit_flags(row)):
            missing = up[j] & ~row
            if missing:
                z = elems[(missing & -missing).bit_length() - 1]
                raise NotAQuasiOrder(f"{name} is not transitive: {elems[i]!r},{elems[j]!r},{z!r}")
    rel, compiled = frozenset(pairs), CompiledOrder(ids, up)
    return QuasiOrder(name, lambda x, y: (x, y) in rel, ids.__contains__, elems, compiled)


def quasi_from_poset(poset: Poset, name: str = "poset") -> QuasiOrder:
    """Reflexive closure of a strict order, viewed as a quasi-order.

    Its compiled form comes from the poset's rows, at any size, with no
    ``leq`` call: the up-set of the ``i``-th id is row ``i`` plus bit ``i``.
    """
    less, elems = poset.less, poset.sorted_elements()
    up = tuple(row | 1 << i for i, row in enumerate(poset.rows))
    compiled = CompiledOrder(poset._index, up)
    return QuasiOrder(
        name, lambda x, y: x == y or less(x, y), poset.elements.__contains__, elems, compiled
    )


def seq_less_by(a: Iterable, b: Iterable, less: Callable[[Hashable, Hashable], bool]) -> bool:
    """Strict sequence comparison: shared prefix, then a strictly smaller item.

    A proper prefix is never below its extension; incomparable items at the
    first divergence make the sequences incomparable.  Items are read in
    step and only up to the first divergence, so ``a`` and ``b`` may be lazy.
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
