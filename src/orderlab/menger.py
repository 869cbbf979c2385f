"""Vertex-disjoint path systems, waves, and their sequence coding in
finite undirected graphs.

A warp is a family of vertex-disjoint paths starting at the sources and
covering them, with source vertices allowed only as first elements.  A wave
is a warp whose terminals separate the sources from the sinks.
"""

from __future__ import annotations

import collections
import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from ._record import record
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

_PLAIN_INT = frozenset({int})
_BLANK = (0, 0)


@record
class MengerGraph:
    """Finite undirected graph with source set ``A`` and sink set ``B``."""

    n: int
    edges: frozenset[tuple[int, int]]
    A: frozenset[int]
    B: frozenset[int]

    @functools.cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """`_adjacency` of the graph, built on first use."""
        return _adjacency(self)

    @functools.cached_property
    def ab_paths(self) -> tuple[Path, ...]:
        """All simple paths from a source to a sink, sorted by length then
        lexicographically, built on first use."""
        adj = self.adjacency
        found = [p for a in sorted(self.A) for p in _simple_paths(adj, a) if p[-1] in self.B]
        found.sort(key=lambda p: (len(p), p))
        return tuple(found)

    @functools.cached_property
    def _warp_path_verdicts(self) -> dict[Path, bool]:
        """Whether each path of plain ints met so far is a warp path, as
        `_check_path_label` fills it in."""
        return {}


def _adjacency(g: MengerGraph) -> dict[int, tuple[int, ...]]:
    """Each named vertex's neighbours in ascending order, keyed in ascending
    order.  An edge, ``A`` or ``B`` names a vertex; any other is isolated
    and outside both sides, so no search enters it."""
    named = g.A | g.B | {v for e in g.edges for v in e}
    adj: dict[int, list[int]] = {v: [] for v in sorted(named)}
    for u, v in g.edges:
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
) -> Iterator[Path]:
    """Every simple path from ``start`` in DFS pre-order, neighbours in
    ascending order, which is lexicographic order; vertices in ``blocked``
    are never entered after ``start``."""
    path = (start,)
    yield path
    seen = {start}
    # one neighbour iterator per vertex of the current path, which is the
    # prefix of the last path found that has one vertex per iterator
    stack = [iter(adj[start])]
    while stack:
        for w in stack[-1]:
            if w not in seen and w not in blocked:
                path = path[: len(stack)] + (w,)
                yield path
                seen.add(w)
                stack.append(iter(adj[w]))
                break
        else:
            stack.pop()
            seen.discard(path[len(stack)])


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


@record
class Warp:
    """Vertex-disjoint paths from the sources, one per source vertex."""

    paths: tuple[Path, ...]

    @functools.cached_property
    def vertices(self) -> frozenset[int]:
        """The vertices on the paths, built on first use."""
        return frozenset(v for p in self.paths for v in p)

    @functools.cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges along the paths as (smaller, larger) vertex pairs,
        built on first use."""
        return frozenset(
            (min(p[i], p[i + 1]), max(p[i], p[i + 1]))
            for p in self.paths
            for i in range(len(p) - 1)
        )


def warp_of(paths: Iterable[Sequence[int]]) -> Warp:
    """Canonical form: paths sorted by their starting vertex."""
    return Warp(tuple(sorted(tuple(p) for p in paths)))


def _path_problem(g: MengerGraph, p: Path) -> Optional[str]:
    """The first rule ``p`` breaks as a path of a warp of ``g``, or None:
    warp paths are non-empty simple paths of plain ints (no bools) along
    edges of ``g`` that start at a source and never meet the source set
    again."""
    if not p:
        return "warp paths are non-empty"
    if not _PLAIN_INT.issuperset(map(type, p)):
        return f"path {p} has a vertex that is not an int"
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
    return w.vertices <= y.vertices and w.edges <= y.edges


class WaveEnumeration(NamedTuple):
    waves: tuple[Warp, ...]
    truncated: bool


def _waves(g: MengerGraph) -> Iterator[Warp]:
    """Every wave in canonical order, lazily.  The search takes one path per
    source, sources ascending, from each source's paths in lexicographic
    order that enter no source and miss the paths already taken, so warps
    come out in ``paths`` order."""
    sources = sorted(g.A)
    # a pre-order walk with one lazy iterator of partial warps per level
    stack = [iter([()])]
    while stack:
        acc = next(stack[-1], None)
        if acc is None:
            stack.pop()
        elif len(acc) < len(sources):
            paths = _simple_paths(g.adjacency, sources[len(acc)], g.A.union(*acc))
            stack.append(map(acc.__add__, zip(paths)))
        else:
            wave = Warp(acc)
            if is_separator(g, terminals(wave)):
                yield wave


def enumerate_waves(g: MengerGraph, cap: Optional[int] = None) -> WaveEnumeration:
    """All waves in canonical order, or the first ``cap`` of them with
    ``truncated`` set when there are more; raises `NegativeCount` when
    ``cap`` is negative.  The search stops at wave ``cap + 1``.
    """
    if cap is not None and cap < 0:
        raise NegativeCount(f"cap must be at least 0, got {cap}")
    found = tuple(itertools.islice(_waves(g), None if cap is None else cap + 1))
    return WaveEnumeration(found[:cap], cap is not None and len(found) > cap)


def maximal_wave(g: MengerGraph) -> Warp:
    """The canonically greatest wave among those with no strictly larger
    wave, which is the last wave.  If a wave ``y`` contains a wave ``w``,
    vertices and edges, each path of ``w`` is a prefix of ``y``'s path from
    the same source, as a source has one edge in ``y`` and every later
    vertex at most two; so ``y.paths > w.paths``.  The trivial warp of
    singleton source paths is always a wave, so a last one exists.
    """
    return collections.deque(_waves(g), maxlen=1)[0]


@record
class MengerSystem:
    """Disjoint source-sink paths and a separator of the same size, with the
    separator meeting each path exactly once."""

    paths: tuple[Path, ...]
    separator: frozenset[int]


def menger_solve(g: MengerGraph) -> MengerSystem:
    """Maximum vertex-disjoint path system and matching minimum separator.

    Vertex-splitting max-flow over the named vertices, numbered in
    ascending order, so an isolated vertex costs nothing.  Arc ``k`` and its
    reverse ``k ^ 1`` share one residual list, and each node lists its
    ``(head, arc)`` pairs by ascending head, as `_adjacency` gives them.  That
    view is built afresh, not kept on the graph: kept on each of
    path-system's 4,356 graphs, it slowed the suite by about 10%.

    The flow grows in Dinic's phases (Dinic 1970) that augment exactly the
    paths of Edmonds & Karp (1972).  A phase runs one breadth-first search
    that scans each node's arcs in list order and stops at the sink, at
    distance ``d``.  Such a search reaches each node first along the least
    sequence of arc positions among its shortest paths, so its arc pointers
    give the first shortest augmenting path in that order: the path
    Edmonds–Karp augments.  Augmenting never lowers a distance, so a later
    path of length ``d`` runs along level arcs, from distance ``i`` to
    ``i + 1`` below ``d`` or into the sink, that are not yet saturated.  A
    depth-first search over those arcs in list order, dropping dead ends,
    therefore finds the path Edmonds–Karp's next search would.  It keeps one
    current arc per node entered in the phase (Dinic's pointer), moved past
    arcs that are not level or are saturated: within a phase a level arc
    only loses residual and a node only leaves the levels, so no arc passed
    serves again.  An attempt may open the pointers of at most ``2 * d``
    nodes new to the phase, twice what a path costs that meets no dead end;
    past that, or when it finds nothing, the next phase starts with
    Edmonds–Karp's own next search.  No attempt is made once the flow
    reaches ``min(|A|, |B|)``, nor after a search that took in no more than
    ``2 * d`` nodes, which costs no more than the attempt may; so small
    graphs run plain Edmonds–Karp.  Either way the flow, the paths and the
    separator are Edmonds–Karp's.

    Each finder serves its own inputs, as timed on 40 × 40 grids.  With a
    column of sources facing a column of sinks every path falls into one
    phase, and the attempts find all but its first.  With 40 random sources
    and sinks each phase's search reaches the sink early and holds one path,
    and the attempts find none.  There, opening each phase with an attempt
    instead of the search ran 2.1× slower, and dropping the ``2 * d`` budget
    1.6× slower; on column grids neither change moved the time.

    The separator is read off the residual reachability cut, which is the
    unique minimum cut closest to the sources.
    """
    adj = _adjacency(g)
    names = list(adj)
    n = len(names)
    source, sink = 2 * n, 2 * n + 1
    # the i-th named vertex has in-node 2i and out-node 2i + 1, joined by
    # the split arc 2i of capacity 1; the other arcs have capacity n + 1.
    # Each vertex in turn appends its split arcs, then its arcs to larger
    # neighbours (smaller ones appended theirs first); source and sink last.
    node = dict(zip(names, range(0, source, 2)))
    arcs: list[list[tuple[int, int]]] = [[] for _ in range(sink + 1)]
    k = source
    for (v, ws), x in zip(adj.items(), range(0, source, 2)):
        arcs[x].append((x + 1, x))
        arcs[x + 1].append((x, x + 1))
        for w in ws:
            if w > v:
                y = node[w]
                arcs[x + 1].append((y, k))
                arcs[y].append((x + 1, k + 1))
                arcs[y + 1].append((x, k + 2))
                arcs[x].append((y + 1, k + 3))
                k += 4
    for a in sorted(g.A):
        arcs[source].append((node[a], k))
        arcs[node[a]].append((source, k + 1))
        k += 2
    for b in sorted(g.B):
        arcs[node[b] + 1].append((sink, k))
        arcs[sink].append((node[b] + 1, k + 1))
        k += 2
    residual = [1, 0] * n + [n + 1, 0] * (k // 2 - n)

    def search() -> tuple[list[int], list[Optional[int]], int]:
        """The node from which a breadth-first search of the residual graph
        first reaches each node, stopping once it reaches the sink, each
        node's distance, None where unreached, and the count of nodes
        reached.  Of the nodes at the sink's distance only the sink keeps
        its distance."""
        prev = [0] * (sink + 1)
        level: list[Optional[int]] = [None] * (sink + 1)
        level[source] = 0
        queue = [source]
        for u in queue:
            up = level[u] + 1
            for v, k in arcs[u]:
                if level[v] is None and residual[k]:
                    prev[v] = u
                    level[v] = up
                    if v == sink:
                        for w in reversed(queue):
                            if level[w] < up:
                                break
                            level[w] = None
                        return prev, level, len(queue)
                    queue.append(v)
        return prev, level, len(queue)

    def level_path(level: list[Optional[int]], ptr: dict[int, int], fresh: int) -> list[int]:
        """The arcs of the first source-to-sink path along level arcs in
        list order, or none when there is none or it enters more than
        ``fresh`` nodes that ``ptr`` does not hold.  ``ptr`` keeps each
        entered node's current arc, before which no arc is level and
        unsaturated; a dead end leaves the levels."""
        stack, path = [source], []
        while stack:
            u = stack[-1]
            if u == sink:
                return path
            i = ptr.get(u)
            if i is None:
                fresh -= 1
                if fresh < 0:
                    return []
                i = 0
            out, up = arcs[u], level[u] + 1
            for v, k in out[i:]:
                if level[v] == up and residual[k]:
                    break
                i += 1
            ptr[u] = i
            if i < len(out):
                stack.append(v)
                path.append(k)
            else:
                level[u] = None
                stack.pop()
                del path[-1:]
        return []

    # each path takes a source and a sink of its own
    flow, bound = 0, min(len(g.A), len(g.B))
    while True:
        prev, level, reached = search()
        if level[sink] is None:
            break
        path = []
        v = sink
        while v != source:
            u = prev[v]
            for w, k in arcs[u]:
                if w == v:
                    path.append(k)
                    break
            v = u
        ptr: dict[int, int] = {}
        fresh = 2 * level[sink]
        while path:
            # every path leaves an in-node next, by an arc of residual at
            # most 1, so each augmentation pushes one unit
            for k in path:
                residual[k] -= 1
                residual[k ^ 1] += 1
            flow += 1
            path = level_path(level, ptr, fresh) if flow < bound and fresh < reached else []

    # the last search reached every node the residual graph reaches
    separator = frozenset(
        v for i, v in enumerate(names) if level[2 * i] is not None and level[2 * i + 1] is None
    )

    # The flow on a forward (even) arc is the residual of its reverse.  A
    # vertex passes at most one unit, so one forward arc out of it has flow.
    # The source lists its arcs by head, so paths come out by first vertex.
    paths: list[Path] = []
    for v, k in arcs[source]:
        if not residual[k ^ 1]:
            continue
        walk = []
        while v != sink:
            walk.append(names[v // 2])
            for v, k in arcs[v + 1]:
                if not k & 1 and residual[k ^ 1]:
                    break
        paths.append(tuple(walk))
    return MengerSystem(tuple(paths), separator)


def _path_prefixes(w: Warp) -> dict[int, Path]:
    """Each warp vertex mapped to the unique warp path prefix ending there."""
    out: dict[int, Path] = {}
    for p in w.paths:
        for i, v in enumerate(p):
            out[v] = p[: i + 1]
    return out


def encode_wave(g: MengerGraph, wave: Warp) -> tuple[Label, ...]:
    """Labelled sequence describing a wave against the path enumeration
    ``g.ab_paths``.

    Even slot ``2i`` tells how vertex ``i`` is covered; odd slot ``2i+1``
    records which wave vertices meet enumerated path ``i``.  Slots past the
    shorter enumeration are filled with ``(0, 0)``.
    """
    paths = g.ab_paths
    if not is_wave(g, wave):
        raise NotAWave("only waves are encoded")
    covered = wave.vertices
    prefixes = _path_prefixes(wave)
    top = max(g.n, len(paths))
    covers = [(1, prefixes[i]) if i in prefixes else _BLANK for i in range(top)]
    meets = [(i, covered.intersection(p)) for i, p in enumerate(paths, 2)]
    meets += [_BLANK] * (top - len(paths))
    return tuple(itertools.chain.from_iterable(zip(covers, meets)))


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
    """Whether ``q`` is a warp path ending at ``end``.  A path holding
    anything but plain ints never is; any other is checked once per graph."""
    if not q or q[-1] != end or not _PLAIN_INT.issuperset(map(type, q)):
        return False
    verdicts = g._warp_path_verdicts
    ok = verdicts.get(q)
    if ok is None:
        ok = verdicts[q] = _path_problem(g, q) is None
    return ok


def _coding_covers(g: MengerGraph, seq: Sequence[Label]) -> Optional[dict[int, Path]]:
    """The longest cover label from each source, by source, when ``seq`` is
    a node of the wave-coding tree, or None when it is not.

    Even slot ``2v`` holds a blank or a warp-path prefix ending at ``v``.
    Odd slot ``2i+1`` holds a blank past the path enumeration, and before
    it a non-empty subset of path ``i`` labelled ``i + 2``.  Covers that
    share a vertex are prefixes one of the other, so the covers from one
    source form a chain and those from different sources are disjoint.  The
    sources and every vertex a label names are covered once their slot is
    present, and in a complete coding every meet holds the end of a longest
    cover.  Labels are read left to right, so a malformed one is reported
    only if every slot before it fits.
    """
    paths = g.ab_paths
    n, m = g.n, len(paths)
    if len(seq) > 2 * max(n, m):
        return None
    covers: dict[int, Path] = {}
    meets: list[set[int] | frozenset[int]] = []
    for k, label in enumerate(seq):
        i = k // 2
        pair = isinstance(label, tuple) and len(label) == 2
        if k % 2 == 0:
            if pair and label[0] == 1 and isinstance(label[1], tuple):
                if i >= n or not _check_path_label(g, label[1], i):
                    return None
                covers[i] = label[1]
                continue
            if pair and label == _BLANK:
                continue
        elif i < m:
            meet = pair and isinstance(label[0], int) and isinstance(label[1], (set, frozenset))
            if meet and label[0] == i + 2:
                chosen = label[1]  # plain ints only, as in a cover
                if not chosen or not _PLAIN_INT.issuperset(map(type, chosen)):
                    return None
                if not chosen.issubset(paths[i]):
                    return None
                meets.append(chosen)
                continue
        elif pair and label == _BLANK:
            continue
        _label_shape(label)  # raises unless the label is well formed
        return None
    # each cover extends the longest one from its source so far, or lies
    # inside it, and the longest covers of different sources are disjoint
    longest: dict[int, Path] = {}
    for q in covers.values():
        best = longest.setdefault(q[0], q)
        if len(q) > len(best):
            if q[: len(best)] != best:
                return None
            longest[q[0]] = q
        elif best[: len(q)] != q:
            return None
    covered = set().union(*longest.values())
    if len(covered) != sum(map(len, longest.values())):
        return None
    # the sources and every vertex a label names are covered, where present
    bare = covered.union(g.A, *meets).difference(covers)
    if bare and 2 * min(bare) < len(seq):
        return None
    if len(seq) == 2 * max(n, m):
        ends = {q[-1] for q in longest.values()}
        if any(map(ends.isdisjoint, meets)):
            return None
    return longest


def wave_seq_valid(g: MengerGraph, seq: Sequence[Label]) -> bool:
    """Whether ``seq`` is a node of the wave-coding tree (a valid prefix).

    Checks every condition that mentions only the positions present; the
    terminal-vertex condition on the meet-sets applies to complete
    sequences only.
    """
    return _coding_covers(g, seq) is not None


def decode_wave(g: MengerGraph, seq: Sequence[Label]) -> Warp:
    """Rebuild the wave from a complete valid coding sequence.

    The longest covers form a wave with no further check.  Every source is
    covered, and covers that share a vertex form one chain per source, so
    the longest covers are disjoint warp paths, one from each source.  Every
    A-B path holds its non-empty meet set, and that set holds the end of a
    longest cover, so those ends separate the sources from the sinks.
    """
    complete = len(seq) == 2 * max(g.n, len(g.ab_paths))
    longest = _coding_covers(g, seq) if complete else None
    if longest is None:
        raise InvalidSequence("not a complete valid wave coding")
    return warp_of(longest.values())
