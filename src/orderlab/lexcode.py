"""Embedding a finite strict order into integer sequences.

Each element receives a code word (even digits, then a single odd digit)
whose lexicographic order refines the element order.  The words alone are
prefix free: only a word's last digit is odd, and no word is assigned
twice.  Appending the element id to each word is what lets a decoder name
the element of each block.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Mapping, Sequence

from ._record import record
from .errors import AlphabetMismatch, MalformedCode, UnknownTieBreak

if TYPE_CHECKING:
    from .order import Poset
    from .trees import TreeAutomaton

TIE_BREAKS = ("smallest-id", "largest-id")


@record
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

    Elements are processed in ascending id order.  An element's anchor
    candidates, the smaller ids above it, are the bits of its row in the
    poset below its own index; the element anchors on the least word among
    them.  Decrementing that word's
    final digit then stays below every other candidate's word, which is
    what the order-embedding argument needs.  Words are never reused, so the
    least word is unique and ``tie_break`` is validated but never decides.
    Each word stem hands out odd final digits 1, 3, 5, ... in turn, so a
    fresh word takes the smallest unused one.

    The least anchor is found by an integer rank that agrees with word
    order, not by comparing words, which on a descending chain share ever
    longer runs of zeros; finding it costs one lookup per candidate.  A
    fresh word sits directly below its anchor's word, and a word ``(2c+1,)``
    above every word issued before it.  Ranks start ``2 << n`` apart for
    ``n`` elements, a power of two, and a fresh word below an anchor takes
    the midpoint of its gap, halving it, or sits one spacing below the
    least word.  At most ``n - 1`` words are placed below an anchor, so
    every gap stays a power of two no smaller than 4 and none ever closes.
    """
    from .order import bit_flags
    if tie_break not in TIE_BREAKS:
        raise UnknownTieBreak(f"tie_break must be one of {TIE_BREAKS}")
    elems = order.sorted_elements()
    # words, ranks and links are kept by index into elems
    words: list[tuple[int, ...]] = []
    issued: dict[tuple[int, ...], int] = {}
    rank = [0] * len(elems)
    # the index whose word is next below, None under the least word
    below: list[int | None] = [None] * len(elems)
    top, gap = None, 2 << len(elems)
    for y, row in enumerate(order.rows):
        above = row & ((1 << y) - 1)
        if above:
            x = min(compress(range(y), bit_flags(above)), key=rank.__getitem__)
            word = words[x]
            stem = word[:-1] + (word[-1] - 1,)
            # the fresh word goes directly below word
            z = below[x]
            below[x], below[y] = y, z
            rank[y] = rank[x] - gap if z is None else (rank[x] + rank[z]) // 2
        else:
            stem = ()
            # (2c+1,) goes above every word
            below[y] = top
            rank[y] = 0 if top is None else rank[top] + gap
            top = y
        count = issued.get(stem, 0)
        issued[stem] = count + 1
        words.append(stem + (2 * count + 1,))
    return LexCode(order, dict(zip(elems, words)), elems)


def encode_element(code: LexCode, x: int) -> tuple[int, ...]:
    """Code word of ``x`` with the element id appended (prefix-free form):
    the block of ``x``, and the one writer of blocks."""
    code.order.require(x)
    return code.table[x] + (x,)


def encode_seq(code: LexCode, seq: Sequence[int]) -> tuple[int, ...]:
    """Concatenation of the prefix-free element codes along ``seq``."""
    return tuple(d for x in seq for d in encode_element(code, x))


def read_block(code: LexCode, coded: tuple[int, ...], i: int) -> tuple[int, int]:
    """The element whose block starts at ``coded[i]``, and the position
    after that block; raises `MalformedCode` when no block starts there.

    A block is a run of even digits, one odd digit, then the element id,
    and must equal that element's prefix-free code exactly.  This is the
    one reader of blocks, which `decode_path` loops over.
    """
    n = len(coded)
    j = i
    while j < n and coded[j] % 2 == 0:
        j += 1
    if j >= n:
        raise MalformedCode("ran out of digits before an odd block terminator")
    if j + 1 >= n:
        raise MalformedCode("block terminator is not followed by an element id")
    elem = coded[j + 1]
    if code.table.get(elem) != coded[i : j + 1]:
        raise MalformedCode(f"digits {coded[i:j + 2]} are not a coded element")
    return elem, j + 2


def decode_path(code: LexCode, coded: Sequence[int]) -> tuple[int, ...]:
    """Invert `encode_seq` block by block; raises `MalformedCode` on any
    non-image input."""
    coded = tuple(coded)
    out: list[int] = []
    i = 0
    while i < len(coded):
        elem, i = read_block(code, coded, i)
        out.append(elem)
    return tuple(out)


def letter_words(code: LexCode, aut: TreeAutomaton) -> dict[int, tuple[int, ...]]:
    """Each letter of the tree's alphabet with its prefix-free code; raises
    `AlphabetMismatch` unless the alphabet is the coded order's elements."""
    if frozenset(range(aut.alphabet_size)) != code.order.elements:
        raise AlphabetMismatch("tree alphabet must equal the coded order's elements")
    return {a: encode_element(code, a) for a in range(aut.alphabet_size)}


def lift_tree(code: LexCode, aut: TreeAutomaton) -> TreeAutomaton:
    """Automaton for the prefix closure of the coded image of the tree.

    Original states keep their ids; fresh intermediate states trace partial
    code blocks, sharing common prefixes per source state.  The alphabet
    covers every digit that occurs in a prefix-free code.
    """
    from .trees import TreeAutomaton
    words = letter_words(code, aut)
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
