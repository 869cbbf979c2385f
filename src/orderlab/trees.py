"""Finitely presented infinite trees and path extraction.

A tree here is the prefix-closed language of a deterministic partial
automaton over a finite alphabet of naturals.  Infinite paths are presented
as lassos (finite prefix plus a repeating cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BadLetter, InvalidWitness, MalformedCode, WellFounded
from .order import Poset


@dataclass(frozen=True)
class TreeAutomaton:
    """Deterministic partial automaton; its language is the tree's node set.

    Every state is treated as accepting, so the language is prefix closed.
    ``delta`` maps ``(state, letter)`` to a state and may be partial.
    """

    alphabet_size: int
    states: int
    start: int
    delta: Mapping[tuple[int, int], int]

    def __post_init__(self):
        if self.states < 1:
            raise ValueError("an automaton needs at least one state")
        if not 0 <= self.start < self.states:
            raise ValueError("start state out of range")
        for (s, a), t in self.delta.items():
            if not 0 <= s < self.states or not 0 <= t < self.states:
                raise ValueError(f"transition ({s},{a})->{t} leaves the state set")
            if not 0 <= a < self.alphabet_size:
                raise BadLetter(f"letter {a} is outside the alphabet")

    def step(self, state: int, letter: int) -> Optional[int]:
        if not 0 <= letter < self.alphabet_size:
            raise BadLetter(f"letter {letter} is outside the alphabet")
        return self.delta.get((state, letter))

    def run(self, word: Sequence[int]) -> Optional[int]:
        state: Optional[int] = self.start
        for a in word:
            state = self.step(state, a)
            if state is None:
                return None
        return state


def automaton(
    alphabet_size: int, states: int, start: int, transitions: Iterable[tuple[int, int, int]]
) -> TreeAutomaton:
    """Build a `TreeAutomaton` from ``(state, letter, target)`` triples."""
    delta: dict[tuple[int, int], int] = {}
    for s, a, t in transitions:
        key = (s, a)
        if key in delta and delta[key] != t:
            raise ValueError(f"conflicting transitions from state {s} on letter {a}")
        delta[key] = t
    return TreeAutomaton(alphabet_size, states, start, delta)


def live_states(aut: TreeAutomaton) -> frozenset[int]:
    """States from which some infinite run exists.

    Greatest fixpoint of "has a successor inside the set"; a state survives
    iff the subtree rooted at it is ill-founded.  Computed as in linear-time
    Horn satisfiability (Dowling & Gallier 1984): each state counts its
    transitions, and a dying state takes one count off each predecessor, so
    a state dies when its count reaches 0.  O(states + transitions).
    """
    count = [0] * aut.states
    preds: list[list[int]] = [[] for _ in range(aut.states)]
    for (s, _), t in aut.delta.items():
        count[s] += 1
        preds[t].append(s)
    dead = [s for s, c in enumerate(count) if not c]
    for t in dead:  # grows while read; a state enters once, when it dies
        for s in preds[t]:
            count[s] -= 1
            if not count[s]:
                dead.append(s)
    return frozenset(range(aut.states)).difference(dead)


@dataclass(frozen=True)
class LassoPath:
    """Eventually periodic infinite sequence: ``prefix`` then ``cycle`` forever."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be non-empty")

    def item(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def take(self, n: int) -> tuple[int, ...]:
        return tuple(self.item(i) for i in range(n))

    def description_size(self) -> int:
        return len(self.prefix) + len(self.cycle)


def _primitive(cycle: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    return cycle


def canonical_lasso(lasso: LassoPath) -> LassoPath:
    """Unique normal form: primitive cycle, shortest prefix.

    Two lassos denote the same infinite sequence iff their canonical forms
    are equal.
    """
    cycle = _primitive(lasso.cycle)
    prefix = lasso.prefix
    while prefix and prefix[-1] == cycle[-1]:
        cycle = (cycle[-1],) + cycle[:-1]
        prefix = prefix[:-1]
    return LassoPath(prefix, cycle)


def lasso_in_tree(aut: TreeAutomaton, lasso: LassoPath) -> bool:
    """Whether the lasso's infinite sequence is a path of the tree."""
    state = aut.run(lasso.prefix)
    if state is None:
        return False
    seen = set()
    while state not in seen:
        seen.add(state)
        for a in lasso.cycle:
            nxt = aut.step(state, a)
            if nxt is None:
                return False
            state = nxt
    return True


def leftmost_path(aut: TreeAutomaton) -> LassoPath:
    """Greedy least-letter infinite path, staying inside the live states.

    Deterministic automata make the greedy walk revisit a state within
    ``states`` steps, which closes the lasso.  Raises `WellFounded` when the
    start state is dead.
    """
    live = live_states(aut)
    if aut.start not in live:
        raise WellFounded("the tree has no infinite path")
    state = aut.start
    seen = {state: 0}
    letters: list[int] = []
    while True:
        for a in range(aut.alphabet_size):
            t = aut.delta.get((state, a))
            if t is not None and t in live:
                letters.append(a)
                state = t
                break
        if state in seen:
            cut = seen[state]
            return canonical_lasso(LassoPath(tuple(letters[:cut]), tuple(letters[cut:])))
        seen[state] = len(letters)


def path_left_of(first: LassoPath, second: LassoPath, order: Poset) -> bool:
    """Strict comparison of the denoted infinite sequences.

    Examines items up to ``|p1| + |p2| + lcm(|c1|, |c2|)``, past which equal
    sequences stay equal; at the first divergence the alphabet order decides.
    """
    bound = len(first.prefix) + len(second.prefix) + lcm(len(first.cycle), len(second.cycle))
    for i in range(bound):
        x, y = first.item(i), second.item(i)
        if x != y:
            return order.less(x, y)
    return False


@dataclass(frozen=True)
class ChallengerEntry:
    challenger: LassoPath
    in_tree: bool
    left_of_witness: bool


@dataclass(frozen=True)
class ChallengerReport:
    witness: LassoPath
    entries: tuple[ChallengerEntry, ...]

    @property
    def minimal(self) -> bool:
        return not any(e.in_tree and e.left_of_witness for e in self.entries)


def challenger_check(
    aut: TreeAutomaton,
    path: LassoPath,
    challengers: Iterable[LassoPath],
    order: Poset,
) -> ChallengerReport:
    """Audit a claimed least path against a list of challengers.

    The claim survives iff no challenger both lies in the tree and is
    strictly left of the witness.  Raises `InvalidWitness` when the claimed
    path is not a path at all.
    """
    if not lasso_in_tree(aut, path):
        raise InvalidWitness("claimed path is not a path of the tree")
    entries = []
    for ch in challengers:
        inside = lasso_in_tree(aut, ch)
        entries.append(
            ChallengerEntry(ch, inside, inside and path_left_of(ch, path, order))
        )
    return ChallengerReport(path, tuple(entries))


def minimal_path(aut: TreeAutomaton, alphabet_order: Poset) -> LassoPath:
    """Least infinite path under the sequence extension of ``alphabet_order``.

    Implemented by the coding reduction: encode the alphabet order into
    integer sequences, lift the tree to coded words, take the leftmost path
    of the lift, and decode it block by block.
    """
    from . import lexcode  # deferred: lexcode builds lifted automata from this module

    if alphabet_order.elements != frozenset(range(aut.alphabet_size)):
        raise ValueError("alphabet order must cover exactly the automaton's alphabet")
    code = lexcode.encode_order(alphabet_order)
    lifted = lexcode.lift_tree(code, aut)
    coded = leftmost_path(lifted)
    return _decode_lasso(code, coded)


def _decode_lasso(code, coded: LassoPath) -> LassoPath:
    """Decode a lasso of coded symbols into a lasso of order elements.

    Block boundaries eventually revisit a phase of the coded lasso, at which
    point the decoded sequence repeats as well.
    """
    table = code.table
    longest = max((len(v) for v in table.values()), default=0) + 1
    plen, clen = len(coded.prefix), len(coded.cycle)
    elems: list[int] = []
    boundaries: dict[int, int] = {}
    buf: list[int] = []
    i = 0
    while True:
        if not buf:
            phase = i if i < plen else plen + (i - plen) % clen
            if phase in boundaries:
                cut = boundaries[phase]
                return canonical_lasso(LassoPath(tuple(elems[:cut]), tuple(elems[cut:])))
            boundaries[phase] = len(elems)
        x = coded.item(i)
        buf.append(x)
        if len(buf) >= 2 and buf[-2] % 2 == 1:
            elem = buf[-1]
            if table.get(elem) != tuple(buf[:-1]):
                raise MalformedCode(f"block {tuple(buf)} is not a coded element")
            elems.append(elem)
            buf = []
        elif len(buf) > longest:
            raise MalformedCode("coded path does not terminate a block")
        i += 1
