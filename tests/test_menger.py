"""Path systems, separators, waves, and the wave coding."""

import hashlib
import itertools
import random
from collections import deque

import pytest

from orderlab import oracles
from orderlab.errors import (
    InvalidGraph,
    InvalidSequence,
    InvalidWarp,
    MalformedLabel,
    NegativeCount,
    NotAWave,
)
from orderlab.menger import (
    MengerGraph,
    MengerSystem,
    Warp,
    _check_path_label,
    decode_wave,
    encode_wave,
    enumerate_ab_paths,
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
    assert enumerate_ab_paths(path3()) == ((0, 1, 2),)
    shared = graph(1, [], [0], [0])
    assert enumerate_ab_paths(shared) == ((0,),)
    assert enumerate_ab_paths(diamond()) == ((0, 1, 3), (0, 2, 3))


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
    rng = random.Random("menger-reference")
    for _ in range(400):
        n = rng.randint(5, 12)
        density = rng.uniform(0.1, 0.7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        a = rng.sample(range(n), rng.randint(0, n))
        b = rng.sample(range(n), rng.randint(0, n))
        g = graph(n, edges, a, b)
        assert menger_solve(g) == _reference_menger_solve(g), g


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
    assert enumerate_waves(g).waves == (tiny, mid, full)
    assert maximal_wave(g) == full


def test_enumerate_waves_cap():
    g = path3()
    assert enumerate_waves(g, cap=0) == ((), True)
    assert enumerate_waves(g, cap=3) == enumerate_waves(g)
    with pytest.raises(NegativeCount):
        enumerate_waves(g, cap=-1)


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
