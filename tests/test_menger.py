"""Path systems, separators, waves, and the wave coding."""

import hashlib
import itertools
import random
from collections import deque

import pytest

from orderlab import menger, oracles
from orderlab.errors import (
    InvalidGraph,
    InvalidSequence,
    InvalidWarp,
    MalformedLabel,
    NegativeCount,
    NotAWave,
    OrderlabError,
)
from orderlab.menger import (
    MengerGraph,
    MengerSystem,
    Warp,
    _check_path_label,
    decode_wave,
    encode_wave,
    enumerate_waves,
    graph,
    is_separator,
    is_wave,
    label_less,
    maximal_wave,
    menger_solve,
    terminals,
    validate_warp,
    warp_of,
    wave_leq,
    wave_seq_valid,
)


def path3():
    return graph(3, [(0, 1), (1, 2)], [0], [2])


def bowtie():
    # two sources and two sinks all forced through vertex 2
    return graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)], [0, 1], [3, 4])


def diamond():
    return graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], [0], [3])


def test_graph_validation():
    with pytest.raises(InvalidGraph):
        graph(2, [(0, 2)], [0], [1])
    with pytest.raises(InvalidGraph):
        graph(2, [(1, 1)], [0], [1])
    with pytest.raises(InvalidGraph):
        graph(2, [(0, 1)], [0], [5])
    g = graph(3, [(2, 1), (1, 2)], [0], [2])
    assert g.edges == frozenset({(1, 2)})


def test_enumerate_ab_paths():
    assert path3().ab_paths == ((0, 1, 2),)
    shared = graph(1, [], [0], [0])
    assert shared.ab_paths == ((0,),)
    assert diamond().ab_paths == ((0, 1, 3), (0, 2, 3))


def test_is_separator():
    g = path3()
    assert is_separator(g, {1})
    assert is_separator(g, {0})
    assert is_separator(g, {2})
    assert not is_separator(g, set())
    d = diamond()
    assert not is_separator(d, {1})
    assert is_separator(d, {1, 2})


def test_menger_solve_single_edge():
    g = graph(2, [(0, 1)], [0], [1])
    # the residual cut sits as close to the sources as possible
    assert menger_solve(g) == MengerSystem(((0, 1),), frozenset({0}))


def test_menger_solve_path():
    assert menger_solve(path3()) == MengerSystem(((0, 1, 2),), frozenset({0}))


def test_menger_solve_bottleneck():
    system = menger_solve(bowtie())
    assert system == MengerSystem(((0, 2, 3),), frozenset({2}))


def test_menger_solve_two_disjoint():
    g = graph(4, [(0, 2), (1, 3)], [0, 1], [2, 3])
    system = menger_solve(g)
    assert system.paths == ((0, 2), (1, 3))
    assert system.separator == frozenset({0, 1})
    assert is_separator(g, system.separator)
    for p in system.paths:
        assert len(system.separator & set(p)) == 1


def _reference_menger_solve(g: MengerGraph) -> MengerSystem:
    """The dict-keyed Edmonds-Karp solver that `menger_solve` replaced: the
    current one must find the same paths and the same separator."""
    inf = g.n + 1
    source, sink = 2 * g.n, 2 * g.n + 1
    cap = {}

    def arc(u, v, c):
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, 1)
    for u, v in sorted(g.edges):
        arc(2 * u + 1, 2 * v, inf)
        arc(2 * v + 1, 2 * u, inf)
    for a in sorted(g.A):
        arc(source, 2 * a, inf)
    for b in sorted(g.B):
        arc(2 * b + 1, sink, inf)
    neighbours = {}
    for u, v in cap:
        neighbours.setdefault(u, []).append(v)
    for vs in neighbours.values():
        vs.sort()
    flow = {k: 0 for k in cap}

    def bfs_augment():
        prev = {source: source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for v in neighbours.get(u, ()):
                if v not in prev and cap[(u, v)] - flow[(u, v)] > 0:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            return 0
        path = [sink]
        while path[-1] != source:
            path.append(prev[path[-1]])
        path.reverse()
        bottleneck = min(
            cap[(path[i], path[i + 1])] - flow[(path[i], path[i + 1])]
            for i in range(len(path) - 1)
        )
        for i in range(len(path) - 1):
            flow[(path[i], path[i + 1])] += bottleneck
            flow[(path[i + 1], path[i])] -= bottleneck
        return bottleneck

    while bfs_augment():
        pass

    reachable = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbours.get(u, ()):
            if v not in reachable and cap[(u, v)] - flow[(u, v)] > 0:
                reachable.add(v)
                queue.append(v)
    separator = frozenset(
        v for v in range(g.n) if 2 * v in reachable and 2 * v + 1 not in reachable
    )

    paths = []
    for a in sorted(g.A):
        if flow[(source, 2 * a)] <= 0:
            continue
        walk = [a]
        v = a
        while True:
            out = 2 * v + 1
            if flow.get((out, sink), 0) > 0:
                flow[(out, sink)] -= 1
                break
            for w in neighbours.get(out, ()):
                if w != sink and w % 2 == 0 and flow[(out, w)] > 0:
                    flow[(out, w)] -= 1
                    v = w // 2
                    walk.append(v)
                    break
            else:
                raise AssertionError("flow decomposition lost a unit")
        paths.append(tuple(walk))
    paths.sort()
    return MengerSystem(tuple(paths), separator)


def test_menger_solve_matches_reference_on_all_small_graphs():
    """Every graph on at most 4 vertices with every source and sink set:
    16,384 of the cases have 4 vertices."""
    cases = 0
    for n in range(5):
        sides = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        slots = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            edges = [e for k, e in enumerate(slots) if bits >> k & 1]
            for a, b in itertools.product(sides, repeat=2):
                g = graph(n, edges, a, b)
                assert menger_solve(g) == _reference_menger_solve(g), g
                cases += 1
    assert cases == 1 + 4 + 32 + 512 + 16384


def test_menger_solve_matches_reference_on_random_graphs():
    """400 random graphs of 5 to 12 vertices; then graphs on which one
    search is followed by further paths of the same length: 300 random
    graphs of 13 to 40 vertices, and r x r grids (r = 5, 10, 20) from the
    left column to the right one and between random sides of r vertices."""
    rng = random.Random("menger-reference")
    for _ in range(400):
        n = rng.randint(5, 12)
        density = rng.uniform(0.1, 0.7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        a = rng.sample(range(n), rng.randint(0, n))
        b = rng.sample(range(n), rng.randint(0, n))
        g = graph(n, edges, a, b)
        assert menger_solve(g) == _reference_menger_solve(g), g
    graphs = []
    for _ in range(300):
        n = rng.randint(13, 40)
        density = rng.uniform(0.05, 0.4)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        a = rng.sample(range(n), rng.randint(1, n))
        b = rng.sample(range(n), rng.randint(1, n))
        graphs.append(graph(n, edges, a, b))
    for r in (5, 10, 20):
        edges = [(i * r + j, i * r + j + 1) for i in range(r) for j in range(r - 1)]
        edges += [(i * r + j, (i + 1) * r + j) for i in range(r - 1) for j in range(r)]
        graphs.append(graph(r * r, edges, range(0, r * r, r), range(r - 1, r * r, r)))
        graphs.append(graph(r * r, edges, rng.sample(range(r * r), r), rng.sample(range(r * r), r)))
    for g in graphs:
        assert menger_solve(g) == _reference_menger_solve(g), g


def test_menger_solve_reads_only_the_named_vertices():
    """Declared vertices that no edge or side names cost nothing and change
    no answer."""
    edges = [(0, 1), (1, 2), (3, 5), (5, 4)]
    want = MengerSystem(((0, 1, 2), (3, 5, 4)), frozenset({0, 3}))
    assert menger_solve(graph(6, edges, [0, 3], [2, 4])) == want
    # 10**5 keeps a solver that allocates per declared vertex cheap to run;
    # tests/test_cli.py declares 10**12 under a memory cap
    wide = graph(10**5, edges, [0, 3], [2, 4, 10**5 - 1])
    assert list(wide.adjacency.items()) == [
        (0, (1,)), (1, (0, 2)), (2, (1,)), (3, (5,)), (4, (5,)), (5, (3, 4)), (10**5 - 1, ())
    ]
    assert menger_solve(wide) == want


def test_menger_solve_large_grid():
    """On a 60 x 60 grid from the left column to the right one, the rows are
    the only shortest paths, and the cut closest to the sources is the
    left column."""
    r = 60
    edges = [(i * r + j, i * r + j + 1) for i in range(r) for j in range(r - 1)]
    edges += [(i * r + j, (i + 1) * r + j) for i in range(r - 1) for j in range(r)]
    left = [i * r for i in range(r)]
    g = graph(r * r, edges, left, [i * r + r - 1 for i in range(r)])
    system = menger_solve(g)
    assert system.paths == tuple(tuple(range(i * r, (i + 1) * r)) for i in range(r))
    assert system.separator == frozenset(left)


def test_validate_warp_errors():
    g = path3()
    with pytest.raises(InvalidWarp):
        validate_warp(g, warp_of([(1, 2)]))
    with pytest.raises(InvalidWarp):
        validate_warp(g, warp_of([(0, 2)]))
    with pytest.raises(InvalidWarp):
        validate_warp(g, Warp(((0,), (0, 1))))
    two = graph(4, [(0, 2), (1, 3)], [0, 1], [2, 3])
    with pytest.raises(InvalidWarp):
        validate_warp(two, warp_of([(0, 2)]))
    touchy = graph(2, [(0, 1)], [0, 1], [1])
    with pytest.raises(InvalidWarp):
        validate_warp(touchy, warp_of([(0, 1), (1,)]))


@pytest.mark.parametrize("make", [path3, bowtie])
def test_warp_paths_and_cover_labels_agree(make):
    """A one-path warp passes every per-path rule of `validate_warp` (on a
    graph with two sources it still misses one) exactly when a cover label
    for the path at its last vertex passes the wave-coding path check."""
    g = make()
    for length in range(5):
        for p in itertools.product(range(-1, g.n + 1), repeat=length):
            try:
                validate_warp(g, warp_of([p]))
                accepted = True
            except InvalidWarp as exc:
                accepted = str(exc) == "warp paths must cover each source exactly once"
            assert accepted == (bool(p) and _check_path_label(g, p, p[-1])), p


def test_waves_and_order():
    g = path3()
    tiny = warp_of([(0,)])
    mid = warp_of([(0, 1)])
    full = warp_of([(0, 1, 2)])
    for w in (tiny, mid, full):
        assert is_wave(g, w)
    assert terminals(mid) == frozenset({1})
    assert wave_leq(tiny, mid) and wave_leq(mid, full) and wave_leq(tiny, full)
    assert not wave_leq(full, mid) and not wave_leq(mid, tiny)
    # the cached vertex and edge sets take no part in equality or hashing
    assert mid == warp_of(mid.paths) and hash(mid) == hash(warp_of(mid.paths))
    assert enumerate_waves(g).waves == (tiny, mid, full)
    assert maximal_wave(g) == full


def test_enumerate_waves_cap():
    g = path3()
    assert enumerate_waves(g, cap=0) == ((), True)
    assert enumerate_waves(g, cap=3) == enumerate_waves(g)
    with pytest.raises(NegativeCount):
        enumerate_waves(g, cap=-1)


def test_a_capped_wave_search_builds_only_the_paths_it_needs(monkeypatch):
    """K10 has 986,410 simple paths from vertex 0.  The search for two waves
    (A = {0}, B = {9}) stops at the path 0-1-...-9, its tenth."""
    built = 0
    simple_paths = menger._simple_paths

    class Adjacency(dict):
        """Counts its lookups: `_simple_paths` makes one per path it builds."""

        def __getitem__(self, v):
            nonlocal built
            built += 1
            return super().__getitem__(v)

    monkeypatch.setattr(
        menger, "_simple_paths", lambda adj, *rest: simple_paths(Adjacency(adj), *rest)
    )
    k10 = graph(10, itertools.combinations(range(10), 2), [0], [9])
    assert enumerate_waves(k10, cap=1) == ((warp_of([(0,)]),), True)
    assert built <= 20


def _reference_waves(g: MengerGraph) -> list[Warp]:
    """The enumeration `enumerate_waves` replaced: every choice of disjoint
    paths, one per source, each leaving its source and entering no other,
    kept when its terminals separate, then sorted by ``paths``."""

    def paths_from(path):
        yield tuple(path)
        for w in g.adjacency[path[-1]]:
            if w not in path and w not in g.A:
                yield from paths_from(path + [w])

    choices = [list(paths_from([a])) for a in sorted(g.A)]
    waves = []

    def choose(acc, used):
        if len(acc) == len(choices):
            if is_separator(g, terminals(Warp(tuple(acc)))):
                waves.append(Warp(tuple(acc)))
            return
        for p in choices[len(acc)]:
            if used.isdisjoint(p):
                choose(acc + [p], used | set(p))

    choose([], set())
    waves.sort(key=lambda w: w.paths)
    return waves


def _reference_maximal_wave(waves: list[Warp]) -> Warp:
    """The all-pairs pass `maximal_wave` replaced: the greatest by ``paths``
    of the waves that no other wave contains."""
    maximal = [w for w in waves if not any(y != w and wave_leq(w, y) for y in waves)]
    return max(maximal, key=lambda w: w.paths)


def test_wave_routes_match_the_sorted_all_pairs_reference():
    """Every connected graph on at most 5 vertices under each side
    assignment, 200 random graphs and the empty graph: the waves come out
    of the search sorted, the cap cuts that order, and the last wave is the
    greatest maximal one."""
    graphs = [
        graph(n, edges, a, b)
        for n in range(1, 6)
        for edges in oracles.connected_edge_sets(n)
        for a, b in oracles.side_assignments(n)
    ]
    rng = random.Random("wave-reference")
    graphs += [oracles.random_graph(rng, 8) for _ in range(200)]
    graphs.append(graph(0, [], [], []))
    for g in graphs:
        waves = _reference_waves(g)
        assert enumerate_waves(g) == (tuple(waves), False), g
        assert maximal_wave(g) == _reference_maximal_wave(waves), g
        if g.n <= 4:
            for cap in range(len(waves) + 2):
                assert enumerate_waves(g, cap=cap) == (tuple(waves[:cap]), cap < len(waves))
    assert len(graphs) == 4057


def test_warp_need_not_be_wave():
    g = graph(3, [(0, 1), (1, 2), (0, 2)], [0], [2])
    stub = warp_of([(0, 1)])
    validate_warp(g, stub)
    assert not is_wave(g, stub)
    with pytest.raises(NotAWave):
        encode_wave(g, stub)


def test_encode_wave_frozen():
    g = path3()
    seq = encode_wave(g, warp_of([(0, 1)]))
    assert seq == (
        (1, (0,)),
        (2, frozenset({0, 1})),
        (1, (0, 1)),
        (0, 0),
        (0, 0),
        (0, 0),
    )
    assert decode_wave(g, seq) == warp_of([(0, 1)])


def test_wave_seq_valid_prefixes():
    g = path3()
    seq = encode_wave(g, warp_of([(0, 1)]))
    for k in range(len(seq) + 1):
        assert wave_seq_valid(g, seq[:k])
    # a source left blank is never valid once its slot is present
    assert not wave_seq_valid(g, ((0, 0),))
    # a meet-set may only name covered vertices
    assert not wave_seq_valid(
        g,
        ((1, (0,)), (2, frozenset({2})), (0, 0), (0, 0), (0, 0), (0, 0)),
    )
    # complete sequences must put a warp terminal in every meet-set
    assert not wave_seq_valid(
        g,
        ((1, (0,)), (2, frozenset({0})), (1, (0, 1)), (0, 0), (0, 0), (0, 0)),
    )
    assert not wave_seq_valid(g, seq + ((0, 0),) * 2)


def test_a_path_item_that_is_not_a_plain_int_is_refused():
    """A warp path or a cover holding a string, a bool or a float is not a
    warp path: `is_wave` and `encode_wave` raise `InvalidWarp` (a string
    once made `min` raise TypeError, and ``True`` and ``1.0`` passed as the
    vertex 1), and the cover label is rejected."""
    g = path3()
    for item in ("a", True, 1.0):
        with pytest.raises(InvalidWarp, match="not an int"):
            is_wave(g, warp_of([(0, item)]))
        with pytest.raises(InvalidWarp, match="not an int"):
            encode_wave(g, warp_of([(0, item)]))
    assert not wave_seq_valid(g, ((1, (0, "a", 0)),))
    head = ((1, (0,)), (2, frozenset({0, 1})))
    assert wave_seq_valid(g, head + ((1, (0, 1)),))
    for item in (True, 1.0):
        assert not wave_seq_valid(g, head + ((1, (0, item)),))


def test_each_coding_rejection_runs():
    """A bad cover, a meet of the wrong kind or past the path enumeration,
    and an empty or off-path meet set each reject the sequence."""
    g = path3()  # one A-B path, (0, 1, 2): slots 0-5
    assert not wave_seq_valid(g, ((1, (1,)),))  # a cover ending at another vertex
    assert not wave_seq_valid(g, ((1, (0,)), (2, frozenset({0})), (1, (0, 2))))  # missing edge
    assert not wave_seq_valid(g, ((1, (0,)), (3, frozenset({0}))))  # wrong kind
    assert not wave_seq_valid(g, ((1, (0,)), (2, frozenset({0})), (0, 0), (3, frozenset({0}))))
    assert not wave_seq_valid(g, ((1, (0,)), (2, frozenset())))  # empty meet
    d = diamond()  # A-B paths (0, 1, 3) and (0, 2, 3)
    assert d.ab_paths == ((0, 1, 3), (0, 2, 3))
    assert not wave_seq_valid(d, ((1, (0,)), (2, frozenset({2}))))  # off the path
    k4 = graph(4, itertools.combinations(range(4), 2), [0], [3])
    assert len(k4.ab_paths) == 5
    code = encode_wave(k4, warp_of([(0,)]))
    assert wave_seq_valid(k4, code[:8] + ((0, 0),))
    assert not wave_seq_valid(k4, code[:8] + ((1, (0, 1, 2, 3)),))  # a cover past vertex n - 1


def test_coding_labels_are_read_left_to_right_at_the_edges_of_each_shape():
    """Kinds equal to a valid one but of another type, a `set` meet, a cover
    holding a list, and a malformed label before or after a rejected slot."""
    g = path3()
    cover, meet = (1, (0,)), (2, frozenset({0, 1}))
    with pytest.raises(MalformedLabel):
        wave_seq_valid(g, (cover, (2.0, frozenset({0, 1}))))
    with pytest.raises(MalformedLabel):
        wave_seq_valid(g, (cover, (True, frozenset({0, 1}))))
    assert not wave_seq_valid(g, (cover, (True, (0, 1))))  # a cover on a path slot
    assert wave_seq_valid(g, ((True, (0,)), meet))  # a kind equal to 1 names a cover
    assert wave_seq_valid(g, (cover, (2, {0, 1})))
    complete = (cover, (2, {0, 1}), (1, (0, 1)), (0, 0), (0, 0), (0, 0))
    assert decode_wave(g, complete).paths == ((0, 1),)
    assert not wave_seq_valid(g, (cover, meet, (1, ([0],))))
    assert not wave_seq_valid(g, ((1, ([0],)),))
    assert not wave_seq_valid(g, (cover, (3, frozenset({0})), (5,)))  # rejected, then malformed
    with pytest.raises(MalformedLabel):
        wave_seq_valid(g, (cover, (5,), (3, frozenset({0}))))  # malformed, then rejected


VALID_CODINGS = 10428
CODING_DIGEST = "9e351b87ebedc82874b90d3f0f4da1d593b7ef5fb73d0d2ef6af7529ffbc9232"


def test_wave_coding_verdicts_are_pinned():
    """Every prefix of every wave coding on the graphs of at most 4 vertices,
    and every copy of a coding with one slot replaced by a blank or by the
    label another wave has there: how many are valid, and a digest of each
    verdict, with the decoded wave or the decode error of complete ones."""
    verdicts = []
    for n in range(1, 5):
        for edges in oracles.connected_edge_sets(n):
            for a, b in oracles.side_assignments(n):
                g = graph(n, edges, a, b)
                codes = [encode_wave(g, w) for w in enumerate_waves(g).waves]
                for code in codes:
                    seqs = [code[:k] for k in range(len(code) + 1)]
                    for k in range(len(code)):
                        labels = {(0, 0)} | {o[k] for o in codes if o is not code}
                        for lab in sorted(labels, key=repr):
                            seqs.append(code[:k] + (lab,) + code[k + 1 :])
                    for seq in seqs:
                        verdict = str(int(wave_seq_valid(g, seq)))
                        if len(seq) == len(code):
                            try:
                                verdict += repr(decode_wave(g, seq).paths)
                            except InvalidSequence:
                                verdict += "InvalidSequence"
                        verdicts.append(verdict)
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert len(verdicts) == 16562
    assert sum(v.startswith("1") for v in verdicts) == VALID_CODINGS
    assert digest == CODING_DIGEST


def test_decode_rejects_incomplete():
    g = path3()
    seq = encode_wave(g, warp_of([(0, 1)]))
    with pytest.raises(InvalidSequence):
        decode_wave(g, seq[:4])


def test_label_less():
    assert label_less((1, (0,)), (0, 0))
    assert not label_less((0, 0), (1, (0,)))
    assert label_less((2, frozenset({0, 1})), (2, frozenset({0})))
    assert not label_less((2, frozenset({0})), (2, frozenset({0, 1})))
    assert not label_less((2, frozenset({0})), (3, frozenset({0})))
    assert not label_less((1, (0,)), (1, (0, 1)))
    with pytest.raises(MalformedLabel):
        label_less((5,), (0, 0))
    with pytest.raises(MalformedLabel):
        label_less((1, 3), (0, 0))


# The wave coding as it stood before `_coding_covers` read the three label
# shapes directly and checked each distinct cover path once per graph: the
# reference for `encode_wave`, `wave_seq_valid` and `decode_wave`.  Only the
# cover check is spelled out, where `_check_path_label` now keeps a memo.


def _reference_encode_wave(g: MengerGraph, wave: Warp) -> tuple:
    paths = g.ab_paths
    if not is_wave(g, wave):
        raise NotAWave("only waves are encoded")
    covered = wave.vertices
    prefixes = menger._path_prefixes(wave)
    top = max(g.n, len(paths))
    out = []
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


def _reference_coding_covers(g: MengerGraph, seq) -> dict | None:
    paths = g.ab_paths
    top = max(g.n, len(paths))
    if len(seq) > 2 * top:
        return None
    covers = {}
    meets = {}
    for k, label in enumerate(seq):
        shape = menger._label_shape(label)
        i = k // 2
        if shape == "blank":
            if k % 2 and i < len(paths):
                return None
        elif k % 2 == 0:
            if shape != "cover" or i >= g.n or not _reference_path_label(g, label[1], i):
                return None
            covers[i] = label[1]
        else:
            if i >= len(paths) or shape != "meet" or label[0] != i + 2:
                return None
            chosen = frozenset(label[1])
            if not chosen or not chosen <= set(paths[i]):
                return None
            meets[i] = chosen
    for i, j in itertools.combinations(sorted(covers), 2):
        qi, qj = covers[i], covers[j]
        if set(qi) & set(qj):
            if qi != qj[: len(qi)] and qj != qi[: len(qj)]:
                return None
    named = set(g.A).union(*covers.values(), *meets.values())
    if any(2 * v < len(seq) and seq[2 * v] == (0, 0) for v in named):
        return None
    if len(seq) == 2 * top:
        ends = _reference_maximal_covers(covers)
        if any(chosen.isdisjoint(ends) for chosen in meets.values()):
            return None
    return covers


def _reference_path_label(g: MengerGraph, q, end: int) -> bool:
    return bool(q) and q[-1] == end and menger._path_problem(g, q) is None


def _reference_maximal_covers(covers: dict) -> dict:
    inner = {q[:i] for q in covers.values() for i in range(1, len(q))}
    return {v: q for v, q in covers.items() if q not in inner}


def _reference_decode_wave(g: MengerGraph, seq) -> Warp:
    complete = len(seq) == 2 * max(g.n, len(g.ab_paths))
    covers = _reference_coding_covers(g, seq) if complete else None
    if covers is None:
        raise InvalidSequence("not a complete valid wave coding")
    wave = warp_of(_reference_maximal_covers(covers).values())
    if not is_wave(g, wave):
        raise InvalidSequence("decoded warp is not a wave")
    return wave


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except OrderlabError as exc:
        return type(exc), str(exc)


# Labels the mutations plant: the three shapes at the edges of the direct
# tests (kinds equal to 0, 1 or 2 but not plain ints, a set meet, covers of
# non-ints), and malformed ones.
PLANTED = [
    (0, 0), (0, 0.0), (False, 0), (1, (0,)), (True, (0,)), (1.0, (0,)), (1, ()),
    (1, ([0],)), (1, (0, 1.0)), (1, (0, True)), (1, ("a",)), (2, frozenset()),
    (2, {0}), (2, frozenset({0})), (3, frozenset({0, 1})), (9, frozenset({0})),
    (2.0, frozenset({0})), (True, frozenset({0})), (5,), [0, 0], (1, 3), (2, [0]),
    "ab", None, (0, 0, 0), (1, [0]), (0, 1),
]


def _all_warps(g: MengerGraph):
    """Every choice of one path per source, ascending, from the source's
    simple paths that enter no source: the warps of ``g`` and some families
    that share a vertex."""
    choices = [list(menger._simple_paths(g.adjacency, a, g.A)) for a in sorted(g.A)]
    return [Warp(paths) for paths in itertools.product(*choices)]


def test_wave_coding_matches_the_reference():
    """On the graphs of at most 4 vertices, `encode_wave` agrees with the
    reference on every warp, and `wave_seq_valid` and `decode_wave` agree
    with it, value or exception type and message, on every prefix of every
    coding and on seeded mutations: two slots swapped, a slot given a
    planted label, another coding's label or a meet of its own kind."""
    rng = random.Random("wave-coding-reference")
    checked = 0
    for n in range(1, 5):
        for edges in oracles.connected_edge_sets(n):
            for a, b in oracles.side_assignments(n):
                g = graph(n, edges, a, b)
                for w in _all_warps(g) + [warp_of([(a, "a") for a in sorted(g.A)])]:
                    got = _outcome(encode_wave, g, w)
                    assert got == _outcome(_reference_encode_wave, g, w), (g, w)
                codes = [encode_wave(g, w) for w in enumerate_waves(g).waves]
                for code in codes:
                    assert {type(p) for k, p in code if k >= 2} <= {frozenset}
                for code in codes:
                    seqs = [code[:k] for k in range(len(code) + 1)]
                    for _ in range(12):
                        seq = list(code)
                        k = rng.randrange(len(seq))
                        roll = rng.random()
                        if roll < 0.25:
                            j = rng.randrange(len(seq))
                            seq[j], seq[k] = seq[k], seq[j]
                        elif roll < 0.6:
                            seq[k] = rng.choice(PLANTED)
                        elif roll < 0.8:
                            seq[k] = rng.choice(codes)[k]
                        else:
                            vertices = rng.sample(range(-1, n + 1), rng.randint(0, 2))
                            seq[k] = (k // 2 + 2, rng.choice([set, frozenset])(vertices))
                        cut = rng.choice([len(seq), len(seq), rng.randrange(len(seq) + 1)])
                        seqs.append(tuple(seq[:cut]))
                    for seq in seqs:
                        got = _outcome(wave_seq_valid, g, seq)
                        want = _outcome(lambda: _reference_coding_covers(g, seq) is not None)
                        assert got == want, (g, seq)
                        if len(seq) == len(code):
                            got = _outcome(decode_wave, g, seq)
                            assert got == _outcome(_reference_decode_wave, g, seq), (g, seq)
                        checked += 1
    assert checked > 10000
