"""scale-cliffs: production routes well past oracle scale, on the shapes
that expose quadratic passes and recursion limits, at sizes that succeed.

One battery per module, every answer checked against a closed form:

- order: chain posets over seeded ids through ``validate_poset`` (which runs
  ``transitive_closure``);
- lexcode: ``encode_order`` on ascending and descending chains, and
  ``lift_tree`` of a long chain automaton over a 64-letter alphabet;
- trees: dead-end chain automata with one live loop for ``live_states``,
  ``leftmost_path`` and ``minimal_path`` (through ``lift_tree``);
- wqo: ``KTree`` construction, ``ktree_leq`` (paths no deeper than 150, and
  stars), ``subtree`` and ``ktree_key`` on path and bushy trees, and
  ``higman_leq`` on long sequences over the builtin infinite families;
- menger: ``menger_solve`` on grid graphs with seeded vertex ids.

Each pass ends with an untimed cliff probe: path trees of growing size
through ``ktree_leq``, ``subtree`` and ``ktree_key``.  A size that raises
``RecursionError`` is a failed operation, so a fix shows as a count change.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from common import WRONG, Bench, Op, expect

MIN_OPS = 1
MODULES = ("order", "lexcode", "trees", "wqo", "menger")
PROBE_NODES = (100, 200, 400, 800, 1600)
PROBED = ("ktree_leq", "subtree", "ktree_key")


@dataclass
class State:
    battery: list  # (name, call, check)
    probes: list


def _chain_poset(order, ids):
    """Poset ``ids[0] < ids[1] < ...`` with its closed-form closure."""
    n = len(ids)
    lt = frozenset((ids[i], ids[j]) for i in range(n) for j in range(i + 1, n))
    return order.Poset(frozenset(ids), lt)


def _path_key_ok(key, labels) -> bool:
    """Walk a ``ktree_key`` of a path without recursing."""
    for i, label in enumerate(labels):
        if key[0] != repr(label):
            return False
        children = key[1]
        if i == len(labels) - 1:
            return children == ()
        if len(children) != 1:
            return False
        key = children[0]
    return False


def _system_problem(g, r: int, system):
    """None when ``system`` is a valid Menger system of size ``r`` on ``g``."""
    paths, sep = system.paths, system.separator
    if len(paths) != r or len(sep) != r:
        return WRONG, f"{len(paths)} paths, separator of {len(sep)}, expected {r}"
    seen: set = set()
    for p in paths:
        if p[0] not in g.A or p[-1] not in g.B or seen & set(p) or len(set(p)) != len(p):
            return WRONG, "a path does not join the sides or reuses a vertex"
        if any((min(u, v), max(u, v)) not in g.edges for u, v in zip(p, p[1:])):
            return WRONG, "a path uses a missing edge"
        if len(sep & set(p)) != 1:
            return WRONG, "a path meets the separator other than once"
        seen |= set(p)
    adj: dict = {}
    for u, v in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    reached = set(g.A - sep)
    queue = deque(reached)
    while queue:
        for w in adj.get(queue.popleft(), ()):
            if w not in reached and w not in sep:
                reached.add(w)
                queue.append(w)
    if reached & g.B:
        return WRONG, "the separator does not separate"
    return None


def setup(bench: Bench) -> State:
    from orderlab import lexcode, menger, order, trees, wqo

    rng = random.Random(f"scale-cliffs:{bench.seed}")
    battery = []

    def add(name, call, check):
        battery.append((name, call, check))

    # order: the closure pass is quadratic on chains.
    for n in (400, 300):
        ids = rng.sample(range(n), n)
        pairs = list(zip(ids, ids[1:]))
        want = _chain_poset(order, ids)
        add(f"order.validate_poset chain{n}",
            lambda pairs=pairs, n=n: order.validate_poset(pairs, range(n)),
            lambda got, want=want: expect((got.elements, got.lt), (want.elements, want.lt)))

    # lexcode: ascending chains get words (2k+1,), descending ones 0^k 1.
    n = 400
    asc = _chain_poset(order, list(range(n)))
    desc = _chain_poset(order, list(range(n - 1, -1, -1)))
    want_asc = {k: (2 * k + 1,) for k in range(n)}
    want_desc = {k: (0,) * k + (1,) for k in range(n)}
    add("lexcode.encode_order asc400", lambda: lexcode.encode_order(asc),
        lambda code: expect(dict(code.table), want_asc))
    add("lexcode.encode_order desc400", lambda: lexcode.encode_order(desc),
        lambda code: expect(dict(code.table), want_desc))
    m, n = 64, 4000
    code64 = lexcode.encode_order(_chain_poset(order, list(range(m - 1, -1, -1))))
    letters = [rng.randrange(m) for _ in range(n - 1)]
    chain64 = trees.TreeAutomaton(m, n, 0, {(i, a): i + 1 for i, a in enumerate(letters)})
    # The word of letter a is 0^a 1 a: a + 1 fresh states per transition.
    want_lift = (m, n + sum(a + 1 for a in letters), sum(a + 2 for a in letters))
    add("lexcode.lift_tree chain4000", lambda: lexcode.lift_tree(code64, chain64),
        lambda got: expect((got.alphabet_size, got.states, len(got.delta)), want_lift))

    # trees: a dead-end chain hanging off one live loop at the start state.
    alphabet = 3
    loop = rng.randrange(alphabet)
    perm = rng.sample(range(alphabet), alphabet)
    alphabet_order = _chain_poset(order, perm)
    want_lasso = trees.LassoPath((), (loop,))

    def dead_chain(n):
        delta = {(0, loop): 0}
        for i in range(n - 1):
            delta[(i, rng.choice([a for a in range(alphabet) if (i, a) not in delta]))] = i + 1
        return trees.TreeAutomaton(alphabet, n, 0, delta)

    aut = dead_chain(800)
    add("trees.live_states chain800", lambda: trees.live_states(aut),
        lambda got: expect(got, frozenset({0})))
    add("trees.leftmost_path chain800", lambda: trees.leftmost_path(aut),
        lambda got: expect(got, want_lasso))
    small = dead_chain(400)
    add("trees.minimal_path chain400", lambda: trees.minimal_path(small, alphabet_order),
        lambda got: expect(got, want_lasso))

    # wqo: path and bushy trees, long sequences over infinite families.
    def path_tree(labels):
        return (-1,) + tuple(range(len(labels) - 1)), tuple(labels)

    def star_tree(labels):
        return (-1,) + (0,) * (len(labels) - 1), tuple(labels)

    nat = order.natural_order()
    for shape, make in (("path", path_tree), ("star", star_tree)):
        parent, labels = make([rng.randrange(10) for _ in range(2000)])
        add(f"wqo.KTree {shape}2000", lambda p=parent, l=labels: wqo.KTree(p, l),
            lambda got, p=parent: expect(got.parent, p))
    t_labels = [rng.randrange(10) for _ in range(150)]
    picks = sorted(rng.sample(range(150), 100))
    s_labels = [rng.randint(0, t_labels[i]) for i in picks]
    t_path = wqo.KTree(*path_tree(t_labels))
    for verdict, labels in ((True, s_labels), (False, s_labels[:-1] + [10])):
        s_path = wqo.KTree(*path_tree(labels))
        add(f"wqo.ktree_leq path100-in-150 {verdict}",
            lambda s=s_path: wqo.ktree_leq(s, t_path, nat),
            lambda got, verdict=verdict: expect(got, verdict))
    t_labels = [rng.randrange(10) for _ in range(1500)]
    picks = rng.sample(range(1, 1500), 199)
    t_star = wqo.KTree(*star_tree(t_labels))
    s_star = wqo.KTree(*star_tree([rng.randint(0, t_labels[i]) for i in [0] + picks]))
    add("wqo.ktree_leq star200-in-1500", lambda: wqo.ktree_leq(s_star, t_star, nat),
        lambda got: expect(got, True))
    long_path = wqo.KTree(*path_tree([rng.randrange(10) for _ in range(800)]))
    want_sub = (path_tree(long_path.labels[300:])[0], long_path.labels[300:])
    add("wqo.subtree path800", lambda: wqo.subtree(long_path, 300),
        lambda got: expect((got.parent, got.labels), want_sub))
    add("wqo.subtree star1500", lambda: wqo.subtree(t_star, 0),
        lambda got: expect((got.parent, got.labels), (t_star.parent, t_star.labels)))
    want_key = (repr(t_labels[0]), tuple(sorted((repr(x), ()) for x in t_labels[1:])))
    add("wqo.ktree_key star1500", lambda: wqo.ktree_key(t_star),
        lambda got: expect(got, want_key))
    key_path = wqo.KTree(*path_tree([rng.randrange(10) for _ in range(400)]))
    add("wqo.ktree_key path400", lambda: wqo.ktree_key(key_path),
        lambda got: None if _path_key_ok(got, key_path.labels) else (WRONG, "key differs"))
    tau = tuple(rng.randrange(1, 1000) for _ in range(50_000))
    sigma = tuple(tau[i] for i in sorted(rng.sample(range(len(tau)), 5_000)))
    # 1009 is a prime above every item of tau: below none of them in any family.
    for family in (order.natural_order(), order.natural_equality(), order.divisibility()):
        for verdict, seq in ((True, sigma), (False, sigma + (1009,))):
            add(f"wqo.higman_leq {family.name} {verdict}",
                lambda seq=seq, q=family: wqo.higman_leq(seq, tau, q),
                lambda got, verdict=verdict: expect(got, verdict))

    # menger: r disjoint row paths and a column separator on an r x r grid.
    for r in (40, 30):
        ids = rng.sample(range(r * r), r * r)
        edges = [(ids[i * r + j], ids[i * r + j + 1]) for i in range(r) for j in range(r - 1)]
        edges += [(ids[i * r + j], ids[(i + 1) * r + j]) for i in range(r - 1) for j in range(r)]
        g = menger.graph(r * r, edges, [ids[i * r] for i in range(r)],
                         [ids[i * r + r - 1] for i in range(r)])
        add(f"menger.menger_solve grid{r}", lambda g=g: menger.menger_solve(g),
            lambda got, g=g, r=r: _system_problem(g, r, got))

    probes = []
    for n in PROBE_NODES:
        t = wqo.KTree(*path_tree([0] * n))
        probes += [
            (f"probe ktree_leq {n}", lambda t=t: wqo.ktree_leq(t, t, nat),
             lambda got: expect(got, True)),
            (f"probe subtree {n}", lambda t=t: wqo.subtree(t, 0),
             lambda got, t=t: expect(got.parent, t.parent)),
            (f"probe ktree_key {n}", lambda t=t: wqo.ktree_key(t),
             lambda got, t=t: None if _path_key_ok(got, t.labels) else (WRONG, "key differs")),
        ]
    return State(battery, probes)


def make_pass(state: State, rng, traced: bool) -> list[Op]:
    order = list(range(len(state.battery)))
    rng.shuffle(order)
    ops = [Op(*state.battery[i]) for i in order]
    return ops + [Op(*probe, timed=False) for probe in state.probes]


def layer_metrics(state: State, untraced, traced, pass_agg, setup_agg) -> dict[str, float]:
    metrics = {
        f"scale.{module}_s": sum(
            untraced.median(name) for name in untraced.by_name if name.startswith(module + ".")
        )
        for module in MODULES
    }
    for fn in PROBED:
        failing = [n for n in PROBE_NODES if untraced.failures_by_name.get(f"probe {fn} {n}")]
        metrics[f"cliff.{fn}.failing_sizes"] = len(failing)
        metrics[f"cliff.{fn}.first_failing_nodes"] = min(failing, default=0)
    return metrics
