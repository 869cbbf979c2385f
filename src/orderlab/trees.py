"""Finitely presented infinite trees and path extraction.

A tree here is the prefix-closed language of a deterministic partial
automaton over a finite alphabet of naturals.  Infinite paths are presented
as lassos (finite prefix plus a repeating cycle).
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ._record import record
from .errors import (
    BadLetter,
    InvalidAutomaton,
    InvalidLasso,
    InvalidWitness,
    WellFounded,
)

if TYPE_CHECKING:
    from .order import Poset


@record
class TreeAutomaton:
    """Deterministic partial automaton; its language is the tree's node set.

    Every state is treated as accepting, so the language is prefix closed.
    ``delta`` maps ``(state, letter)`` to a state and may be partial.  A
    plain record, which `automaton` validates.
    """

    alphabet_size: int
    states: int
    start: int
    delta: Mapping[tuple[int, int], int]

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
    """Validated `TreeAutomaton` from ``(state, letter, target)`` triples;
    raises on the first conflict, then on the state count, the start and
    each transition in the order given."""
    delta: dict[tuple[int, int], int] = {}
    for s, a, t in transitions:
        key = (s, a)
        if key in delta and delta[key] != t:
            raise InvalidAutomaton(f"conflicting transitions from state {s} on letter {a}")
        delta[key] = t
    if states < 1:
        raise InvalidAutomaton("an automaton needs at least one state")
    if not 0 <= start < states:
        raise InvalidAutomaton("start state out of range")
    for (s, a), t in delta.items():
        if not 0 <= s < states or not 0 <= t < states:
            raise InvalidAutomaton(f"transition ({s},{a})->{t} leaves the state set")
        if not 0 <= a < alphabet_size:
            raise BadLetter(f"letter {a} is outside the alphabet")
    return TreeAutomaton(alphabet_size, states, start, delta)


def live_states(aut: TreeAutomaton) -> frozenset[int]:
    """States from which some infinite run exists.

    Greatest fixpoint of "has a successor inside the set"; a state survives
    iff the subtree rooted at it is ill-founded.  Computed as in linear-time
    Horn satisfiability (Dowling & Gallier 1984): each state counts its
    transitions, and a dying state takes one count off each predecessor, so
    a state dies when its count reaches 0.  Only the states that transitions
    name are counted and walked, in O(transitions) whatever ``states`` is;
    every other state has no transition, so it is dead.
    """
    count: dict[int, int] = {}
    preds: dict[int, list[int]] = {}
    for (s, _), t in aut.delta.items():
        if s in count:
            count[s] += 1
        else:
            count[s] = 1
        if t in preds:
            preds[t].append(s)
        else:
            preds[t] = [s]
    dead = [t for t in preds if t not in count]
    for t in dead:  # grows while read; a state enters once, when it dies
        for s in preds.get(t, ()):
            count[s] -= 1
            if not count[s]:
                dead.append(s)
    return frozenset([s for s, c in count.items() if c])


@record
class LassoPath:
    """Eventually periodic infinite sequence: ``prefix`` then ``cycle`` forever."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise InvalidLasso("lasso cycle must be non-empty")

    def item(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def take(self, n: int) -> tuple[int, ...]:
        return tuple(self.item(i) for i in range(n))


def _primitive(cycle: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cycle)
    for d in range(1, n):
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


def _greedy_path(aut: TreeAutomaton, letters: Iterable[int]) -> LassoPath:
    """Infinite path that takes, at each state, the first letter of
    ``letters`` that leads to a live state.

    Deterministic automata make the walk revisit a state within ``states``
    steps, which closes the lasso.  Raises `WellFounded` when the start
    state is dead.
    """
    live = live_states(aut)
    if aut.start not in live:
        raise WellFounded("the tree has no infinite path")
    state = aut.start
    seen = {state: 0}
    path: list[int] = []
    while True:
        for a in letters:
            t = aut.delta.get((state, a))
            if t is not None and t in live:
                path.append(a)
                state = t
                break
        if state in seen:
            cut = seen[state]
            return canonical_lasso(LassoPath(tuple(path[:cut]), tuple(path[cut:])))
        seen[state] = len(path)


def leftmost_path(aut: TreeAutomaton) -> LassoPath:
    """Greedy least-letter infinite path, staying inside the live states;
    raises `WellFounded` when the start state is dead."""
    return _greedy_path(aut, range(aut.alphabet_size))


def path_left_of(first: LassoPath, second: LassoPath, order: Poset) -> bool:
    """Strict comparison of the denoted infinite sequences.

    Examines items up to ``|p1| + |p2| + lcm(|c1|, |c2|)``, past which equal
    sequences stay equal; at the first divergence the alphabet order decides.
    """
    from .order import seq_less_by  # deferred: the other tree commands never load order

    bound = len(first.prefix) + len(second.prefix) + lcm(len(first.cycle), len(second.cycle))
    # items are read lazily, up to the first divergence: the lcm term can be large
    return seq_less_by(map(first.item, range(bound)), map(second.item, range(bound)), order.less)


@record
class ChallengerEntry:
    challenger: LassoPath
    in_tree: bool
    left_of_witness: bool


@record
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
    prefix-free integer words, under which the least path is the leftmost
    path of the coded tree.  That path takes, at each state, the live
    letter with the least word, because no word is a prefix of another; so
    the walk tries letters in word order and never builds the coded tree.
    """
    from . import lexcode  # deferred: the other tree commands never load lexcode

    words = lexcode.letter_words(lexcode.encode_order(alphabet_order), aut)
    return _greedy_path(aut, sorted(words, key=words.__getitem__))
