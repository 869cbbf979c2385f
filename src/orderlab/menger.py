"""Vertex-disjoint path systems, waves, and their sequence coding in
finite undirected graphs.

A warp is a family of vertex-disjoint paths starting at the sources and
covering them, with source vertices allowed only as first elements.  A wave
is a warp whose terminals separate the sources from the sinks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    InvalidGraph,
    InvalidSequence,
    InvalidWarp,
    MalformedLabel,
    NegativeCount,
    NotAWave,
)

Path = tuple[int, ...]
Label = tuple[int, object]


@dataclass(frozen=True)
class MengerGraph:
    """Finite undirected graph with source set ``A`` and sink set ``B``."""

    n: int
    edges: frozenset[tuple[int, int]]
    A: frozenset[int]
    B: frozenset[int]

    @functools.cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's neighbours in ascending order, built on first use."""
        adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def graph(
    n: int, edges: Iterable[Sequence[int]], a: Iterable[int], b: Iterable[int]
) -> MengerGraph:
    """Validated graph; edges are unordered pairs of distinct vertices."""
    norm = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraph(f"edge ({u},{v}) leaves the vertex set")
        if u == v:
            raise InvalidGraph(f"loop at {u} is not allowed")
        norm.add((min(u, v), max(u, v)))
    aset, bset = frozenset(a), frozenset(b)
    for side, name in ((aset, "A"), (bset, "B")):
        for v in side:
            if not 0 <= v < n:
                raise InvalidGraph(f"{name} contains {v}, outside the vertex set")
    return MengerGraph(n, frozenset(norm), aset, bset)


def _simple_paths(
    adj: dict[int, tuple[int, ...]], start: int, blocked: frozenset[int] = frozenset()
) -> list[Path]:
    """Every simple path from ``start`` in DFS pre-order, neighbours in
    ascending order; vertices in ``blocked`` are never entered after
    ``start``."""
    out: list[Path] = []

    def dfs(path: list[int], seen: set[int]) -> None:
        out.append(tuple(path))
        for w in adj[path[-1]]:
            if w not in seen and w not in blocked:
                path.append(w)
                seen.add(w)
                dfs(path, seen)
                seen.discard(w)
                path.pop()

    dfs([start], {start})
    return out


def enumerate_ab_paths(g: MengerGraph) -> tuple[Path, ...]:
    """All simple paths from a source to a sink, sorted by length then
    lexicographically."""
    found = [p for a in sorted(g.A) for p in _simple_paths(g.adjacency, a) if p[-1] in g.B]
    found.sort(key=lambda p: (len(p), p))
    return tuple(found)


def is_separator(g: MengerGraph, c: Iterable[int]) -> bool:
    """Whether every source-to-sink path meets ``c``.

    Equivalent to: no sink is reachable from a source once the vertices of
    ``c`` are removed.
    """
    blocked = set(c)
    adj = g.adjacency
    queue = [v for v in sorted(g.A) if v not in blocked]
    seen = set(queue)
    for v in queue:
        if v in g.B:
            return False
        for w in adj[v]:
            if w not in seen and w not in blocked:
                seen.add(w)
                queue.append(w)
    return True


@dataclass(frozen=True)
class Warp:
    """Vertex-disjoint paths from the sources, one per source vertex."""

    paths: tuple[Path, ...]


def warp_of(paths: Iterable[Sequence[int]]) -> Warp:
    """Canonical form: paths sorted by their starting vertex."""
    return Warp(tuple(sorted(tuple(p) for p in paths)))


def warp_vertices(w: Warp) -> frozenset[int]:
    return frozenset(v for p in w.paths for v in p)


def warp_edges(w: Warp) -> frozenset[tuple[int, int]]:
    return frozenset(
        (min(p[i], p[i + 1]), max(p[i], p[i + 1]))
        for p in w.paths
        for i in range(len(p) - 1)
    )


def _path_problem(g: MengerGraph, p: Path) -> Optional[str]:
    """The first rule ``p`` breaks as a path of a warp of ``g``, or None:
    warp paths are non-empty simple paths along edges of ``g`` that start
    at a source and never meet the source set again."""
    if not p:
        return "warp paths are non-empty"
    if p[0] not in g.A:
        return f"path {p} does not start at a source"
    if min(p) < 0 or max(p) >= g.n:
        return f"path {p} leaves the vertex set"
    if not g.A.isdisjoint(p[1:]):
        return f"path {p} revisits the source set"
    for u, v in zip(p, p[1:]):
        e = (u, v) if u < v else (v, u)
        if e not in g.edges:
            return f"path {p} uses the missing edge {e}"
    if len(set(p)) != len(p):
        return f"path {p} repeats a vertex"
    return None


def validate_warp(g: MengerGraph, w: Warp) -> None:
    """Raise `InvalidWarp` unless ``w`` is a warp of ``g``."""
    starts = []
    seen_all: set[int] = set()
    for p in w.paths:
        problem = _path_problem(g, p)
        if problem is not None:
            raise InvalidWarp(problem)
        if seen_all & set(p):
            raise InvalidWarp("warp paths must be vertex-disjoint")
        seen_all |= set(p)
        starts.append(p[0])
    if set(starts) != set(g.A) or len(starts) != len(g.A):
        raise InvalidWarp("warp paths must cover each source exactly once")


def terminals(w: Warp) -> frozenset[int]:
    """Final vertices of the warp's paths."""
    return frozenset(p[-1] for p in w.paths)


def is_wave(g: MengerGraph, w: Warp) -> bool:
    validate_warp(g, w)
    return is_separator(g, terminals(w))


def wave_leq(w: Warp, y: Warp) -> bool:
    """Subgraph order: every vertex and edge of ``w`` appears in ``y``."""
    return warp_vertices(w) <= warp_vertices(y) and warp_edges(w) <= warp_edges(y)


def enumerate_warps(g: MengerGraph) -> list[Warp]:
    sources = sorted(g.A)
    # each path leaves its source and never enters another
    choices = [_simple_paths(g.adjacency, a, g.A) for a in sources]
    out: list[Warp] = []

    def rec(i: int, used: set[int], acc: list[Path]) -> None:
        if i == len(sources):
            out.append(Warp(tuple(acc)))
            return
        for p in choices[i]:
            if used & set(p):
                continue
            acc.append(p)
            rec(i + 1, used | set(p), acc)
            acc.pop()

    rec(0, set(), [])
    return out


class WaveEnumeration(NamedTuple):
    waves: tuple[Warp, ...]
    truncated: bool


def enumerate_waves(g: MengerGraph, cap: Optional[int] = None) -> WaveEnumeration:
    """All waves in canonical order, optionally truncated at ``cap``.

    Raises `NegativeCount` when ``cap`` is negative.
    """
    if cap is not None and cap < 0:
        raise NegativeCount(f"cap must be at least 0, got {cap}")
    waves = [w for w in enumerate_warps(g) if is_separator(g, terminals(w))]
    waves.sort(key=lambda w: w.paths)
    if cap is not None and len(waves) > cap:
        return WaveEnumeration(tuple(waves[:cap]), True)
    return WaveEnumeration(tuple(waves), False)


def maximal_wave(g: MengerGraph) -> Warp:
    """The canonically greatest wave among those with no strictly larger wave.

    The trivial warp of singleton source paths is always a wave, so a
    maximal one exists.
    """
    waves = enumerate_waves(g).waves
    maximal = [
        w
        for w in waves
        if not any(y != w and wave_leq(w, y) for y in waves)
    ]
    return max(maximal, key=lambda w: w.paths)


@dataclass(frozen=True)
class MengerSystem:
    """Disjoint source-sink paths and a separator of the same size, with the
    separator meeting each path exactly once."""

    paths: tuple[Path, ...]
    separator: frozenset[int]


def menger_solve(g: MengerGraph) -> MengerSystem:
    """Maximum vertex-disjoint path system and matching minimum separator.

    Vertex-splitting max-flow by shortest augmenting paths (Edmonds & Karp
    1972).  Arc ``k`` and its reverse ``k ^ 1`` share one residual list, and
    each node lists its ``(head, arc)`` pairs by ascending head.  The
    separator is read off the residual reachability cut, which is the
    unique minimum cut closest to the sources.
    """
    inf = g.n + 1
    source, sink = 2 * g.n, 2 * g.n + 1
    head: list[int] = []
    residual: list[int] = []
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(sink + 1)]

    def arc(u: int, v: int, c: int) -> None:
        pairs[u].append((v, len(head)))
        pairs[v].append((u, len(head) + 1))
        head.extend((v, u))
        residual.extend((c, 0))

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, 1)
    for u, v in g.edges:
        arc(2 * u + 1, 2 * v, inf)
        arc(2 * v + 1, 2 * u, inf)
    for a in g.A:
        arc(source, 2 * a, inf)
    for b in g.B:
        arc(2 * b + 1, sink, inf)
    arcs = [sorted(p) for p in pairs]

    def search() -> list[Optional[int]]:
        """The arc that first reaches each node in a breadth-first search
        of the residual graph, which stops once it reaches the sink."""
        prev: list[Optional[int]] = [None] * (sink + 1)
        prev[source] = -1
        queue = [source]
        for u in queue:
            for v, k in arcs[u]:
                if prev[v] is None and residual[k]:
                    prev[v] = k
                    if v == sink:
                        return prev
                    queue.append(v)
        return prev

    while True:
        prev = search()
        if prev[sink] is None:
            break
        path = []
        v = sink
        while v != source:
            path.append(prev[v])
            v = head[prev[v] ^ 1]
        push = min(residual[k] for k in path)
        for k in path:
            residual[k] -= push
            residual[k ^ 1] += push

    # the last search reached every node the residual graph reaches
    separator = frozenset(
        v for v in range(g.n) if prev[2 * v] is not None and prev[2 * v + 1] is None
    )

    # The flow on a forward (even) arc is the residual of its reverse.  A
    # vertex passes at most one unit, so one forward arc out of it has flow.
    paths: list[Path] = []
    for first, k in arcs[source]:
        if not residual[k ^ 1]:
            continue
        walk = [first // 2]
        while True:
            w = next(w for w, k in arcs[2 * walk[-1] + 1] if not k & 1 and residual[k ^ 1])
            if w == sink:
                break
            walk.append(w // 2)
        paths.append(tuple(walk))
    paths.sort()
    return MengerSystem(tuple(paths), separator)


def _path_prefixes(w: Warp) -> dict[int, Path]:
    """Each warp vertex mapped to the unique warp path prefix ending there."""
    out: dict[int, Path] = {}
    for p in w.paths:
        for i, v in enumerate(p):
            out[v] = p[: i + 1]
    return out


def encode_wave(
    g: MengerGraph, wave: Warp, paths: Optional[Sequence[Path]] = None
) -> tuple[Label, ...]:
    """Labelled sequence describing a wave against the path enumeration.

    Even slot ``2i`` tells how vertex ``i`` is covered; odd slot ``2i+1``
    records which wave vertices meet enumerated path ``i``.  Slots past the
    shorter enumeration are filled with ``(0, 0)``.
    """
    if paths is None:
        paths = enumerate_ab_paths(g)
    if not is_wave(g, wave):
        raise NotAWave("only waves are encoded")
    covered = warp_vertices(wave)
    prefixes = _path_prefixes(wave)
    top = max(g.n, len(paths))
    out: list[Label] = []
    for i in range(top):
        if i < g.n and i in covered:
            out.append((1, prefixes[i]))
        else:
            out.append((0, 0))
        if i < len(paths):
            out.append((i + 2, frozenset(paths[i]) & covered))
        else:
            out.append((0, 0))
    return tuple(out)


def _label_shape(label: Label) -> str:
    if not isinstance(label, tuple) or len(label) != 2:
        raise MalformedLabel(f"{label!r} is not a pair")
    kind, payload = label
    if kind == 0 and payload == 0:
        return "blank"
    if kind == 1 and isinstance(payload, tuple):
        return "cover"
    if isinstance(kind, int) and kind >= 2 and isinstance(payload, (set, frozenset)):
        return "meet"
    raise MalformedLabel(f"{label!r} has an unrecognised shape")


def label_less(d: Label, e: Label) -> bool:
    """Strict label order: covering beats blank at the same vertex slot, and
    strictly shrinking meet-sets grow at the same path slot."""
    ds, es = _label_shape(d), _label_shape(e)
    if ds == "cover" and es == "blank":
        return True
    if ds == "meet" and es == "meet" and d[0] == e[0]:
        return set(e[1]) < set(d[1])
    return False


def _check_path_label(g: MengerGraph, q: Path, end: int) -> bool:
    return bool(q) and q[-1] == end and _path_problem(g, q) is None


def _read_coding(
    g: MengerGraph, seq: Sequence[Label], paths: Sequence[Path]
) -> Optional[tuple[dict[int, Path], dict[int, frozenset[int]]]]:
    """The cover labels of ``seq`` by vertex and its meet labels by path
    index, or None when a label does not fit its slot.

    Even slot ``2v`` holds a blank or a warp-path prefix ending at ``v``.
    Odd slot ``2i+1`` holds a blank past the path enumeration, and before
    it a non-empty subset of path ``i`` labelled ``i + 2``.  Labels are
    read left to right, so a malformed one is reported only if every slot
    before it fits.
    """
    covers: dict[int, Path] = {}
    meets: dict[int, frozenset[int]] = {}
    for k, label in enumerate(seq):
        shape = _label_shape(label)
        i = k // 2
        if shape == "blank":
            if k % 2 and i < len(paths):
                return None
        elif k % 2 == 0:
            if shape != "cover" or i >= g.n or not _check_path_label(g, label[1], i):
                return None
            covers[i] = label[1]
        else:
            if i >= len(paths) or shape != "meet" or label[0] != i + 2:
                return None
            chosen = frozenset(label[1])
            if not chosen or not chosen <= set(paths[i]):
                return None
            meets[i] = chosen
    return covers, meets


def _maximal_covers(covers: dict[int, Path]) -> dict[int, Path]:
    """The covers that no other cover extends, by end vertex: the paths of
    the wave a complete coding describes."""
    inner = {q[:i] for q in covers.values() for i in range(1, len(q))}
    return {v: q for v, q in covers.items() if q not in inner}


def wave_seq_valid(
    g: MengerGraph, seq: Sequence[Label], paths: Optional[Sequence[Path]] = None
) -> bool:
    """Whether ``seq`` is a node of the wave-coding tree (a valid prefix).

    Checks every condition that mentions only the positions present; the
    terminal-vertex condition on the meet-sets applies to complete
    sequences only.
    """
    if paths is None:
        paths = enumerate_ab_paths(g)
    top = max(g.n, len(paths))
    if len(seq) > 2 * top:
        return False
    read = _read_coding(g, seq, paths)
    if read is None:
        return False
    covers, meets = read
    # pairwise coherence of the covering paths
    for i, j in itertools.combinations(sorted(covers), 2):
        qi, qj = covers[i], covers[j]
        if set(qi) & set(qj):
            if qi != qj[: len(qi)] and qj != qi[: len(qj)]:
                return False
    # the sources and every vertex a label names are covered, where present
    named = set(g.A).union(*covers.values(), *meets.values())
    if any(2 * v < len(seq) and seq[2 * v] == (0, 0) for v in named):
        return False
    if len(seq) == 2 * top:
        ends = _maximal_covers(covers)
        return all(not chosen.isdisjoint(ends) for chosen in meets.values())
    return True


def decode_wave(
    g: MengerGraph, seq: Sequence[Label], paths: Optional[Sequence[Path]] = None
) -> Warp:
    """Rebuild the wave from a complete valid coding sequence."""
    if paths is None:
        paths = enumerate_ab_paths(g)
    top = max(g.n, len(paths))
    if len(seq) != 2 * top or not wave_seq_valid(g, seq, paths):
        raise InvalidSequence("not a complete valid wave coding")
    covers, _ = _read_coding(g, seq, paths)
    wave = warp_of(_maximal_covers(covers).values())
    if not is_wave(g, wave):
        raise InvalidSequence("decoded warp is not a wave")
    return wave
