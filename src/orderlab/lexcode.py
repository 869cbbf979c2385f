"""Embedding a finite strict order into integer sequences.

Each element receives a code word (even digits, then a single odd digit)
whose lexicographic order refines the element order.  The words alone are
prefix free: only a word's last digit is odd, and no word is assigned
twice.  Appending the element id to each word is what lets a decoder name
the element of each block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import AlphabetMismatch, MalformedCode, UnknownTieBreak
from .order import Poset
from .trees import TreeAutomaton

TIE_BREAKS = ("smallest-id", "largest-id")


@dataclass(frozen=True)
class LexCode:
    """Code table for a finite strict order.

    ``table`` maps each element to its code word; ``processing_order`` is
    the ascending id order in which the words were assigned.
    """

    order: Poset
    table: Mapping[int, tuple[int, ...]]
    processing_order: tuple[int, ...]


def encode_order(order: Poset, tie_break: str = "smallest-id") -> LexCode:
    """Assign code words so that ``x < y`` in the order forces a
    lexicographically smaller word.

    Elements are processed in ascending id order.  One pass over the order
    pairs lists, for each element, the smaller-id elements above it; the
    element anchors on the least word among them.  Decrementing that word's
    final digit then stays below every other candidate's word, which is
    what the order-embedding argument needs.  Words are never reused, so the
    least word is unique and ``tie_break`` is validated but never decides.
    Each word stem hands out odd final digits 1, 3, 5, ... in turn, so a
    fresh word takes the smallest unused one.
    """
    if tie_break not in TIE_BREAKS:
        raise UnknownTieBreak(f"tie_break must be one of {TIE_BREAKS}")
    elems = order.sorted_elements()
    anchors: dict[int, list[int]] = {y: [] for y in elems}
    for y, x in order.lt:
        if x < y:
            anchors[y].append(x)
    table: dict[int, tuple[int, ...]] = {}
    issued: dict[tuple[int, ...], int] = {}
    for y in elems:
        if anchors[y]:
            word = min(map(table.__getitem__, anchors[y]))
            stem = word[:-1] + (word[-1] - 1,)
        else:
            stem = ()
        count = issued.get(stem, 0)
        issued[stem] = count + 1
        table[y] = stem + (2 * count + 1,)
    return LexCode(order, table, elems)


def encode_element(code: LexCode, x: int) -> tuple[int, ...]:
    """Code word of ``x`` with the element id appended (prefix-free form)."""
    code.order.require(x)
    return code.table[x] + (x,)


def encode_seq(code: LexCode, seq: Sequence[int]) -> tuple[int, ...]:
    """Concatenation of the prefix-free element codes along ``seq``."""
    return tuple(d for x in seq for d in encode_element(code, x))


def decode_path(code: LexCode, coded: Sequence[int]) -> tuple[int, ...]:
    """Invert `encode_seq`; raises `MalformedCode` on any non-image input.

    A block is a run of even digits, one odd digit, then the element id,
    and must equal that element's prefix-free code exactly.
    """
    coded = tuple(coded)
    table = code.table
    out: list[int] = []
    i, n = 0, len(coded)
    while i < n:
        j = i
        while j < n and coded[j] % 2 == 0:
            j += 1
        if j >= n:
            raise MalformedCode("ran out of digits before an odd block terminator")
        if j + 1 >= n:
            raise MalformedCode("block terminator is not followed by an element id")
        elem = coded[j + 1]
        if table.get(elem) != coded[i : j + 1]:
            raise MalformedCode(f"digits {coded[i:j + 2]} are not a coded element")
        out.append(elem)
        i = j + 2
    return tuple(out)


def lift_tree(code: LexCode, aut: TreeAutomaton) -> TreeAutomaton:
    """Automaton for the prefix closure of the coded image of the tree.

    Original states keep their ids; fresh intermediate states trace partial
    code blocks, sharing common prefixes per source state.  The alphabet
    covers every digit that occurs in a prefix-free code.
    """
    if frozenset(range(aut.alphabet_size)) != code.order.elements:
        raise AlphabetMismatch("tree alphabet must equal the coded order's elements")
    words = {a: code.table[a] + (a,) for a in range(aut.alphabet_size)}
    alphabet = max((d for w in words.values() for d in w), default=-1) + 1
    delta: dict[tuple[int, int], int] = {}
    fresh = aut.states
    # in (state, letter) order, which fixes the numbering of fresh states
    for (s, a), target in sorted(aut.delta.items()):
        cur = s
        word = words[a]
        for d in word[:-1]:
            cur = delta.setdefault((cur, d), fresh)
            if cur == fresh:
                fresh += 1
        # codes are prefix free, so the final digit slot is never shared
        delta[(cur, word[-1])] = target
    return TreeAutomaton(alphabet, fresh, aut.start, delta)
