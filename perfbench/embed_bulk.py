"""embed-bulk: the call patterns of ``higman-agreement`` and
``kruskal-agreement`` on seeded samples, timing only the production kernels.

Higman: a seeded subset of the 29 three-element quasi-orders, seeded
targets ``tau`` in each; one operation checks every ``sigma`` of length at
most 6 against one ``tau``, so the target is reused heavily.  Kruskal: every
one of the 286 trees of at most 5 nodes as the source, over the chain and the
antichain on two labels; one operation checks one source tree against a
seeded sample of target trees.  The samples are wide so that the seed moves
the measured rates little.  Set-up computes the expected answers with
``oracles.higman_down_set`` and ``oracles.brute_ktree_leq``; the timed calls
are ``wqo.higman_leq`` and ``wqo.ktree_leq`` only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from common import WRONG, Bench, Op

MIN_OPS = 1
QUASI_ORDERS = 24
TAUS_PER_ORDER = 8
TARGET_TREES = 24


@dataclass
class State:
    batches: list  # (kind, q, target, candidates, expected)


def setup(bench: Bench) -> State:
    from orderlab import oracles
    from orderlab.order import finite_quasi_order

    rng = random.Random(f"embed-bulk:{bench.seed}")
    batches = []
    three = [q for q in oracles.quasi_orders_upto(3) if len(q.elements) == 3]
    for q in rng.sample(three, QUASI_ORDERS):
        items = sorted(q.elements)
        seqs = oracles.all_seqs(items, 6)
        for tau in rng.sample(seqs, TAUS_PER_ORDER):
            down = oracles.higman_down_set(tau, q, items)
            batches.append(("higman", q, tau, seqs, [sigma in down for sigma in seqs]))
    chain = finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")
    anti = finite_quasi_order((0, 1), [(0, 0), (1, 1)], "anti2")
    corpus = oracles.all_ktrees(5, (0, 1))
    for q in (chain, anti):
        for s_tree in corpus:
            targets = rng.sample(corpus, TARGET_TREES)
            expected = [oracles.brute_ktree_leq(s_tree, t_tree, q) for t_tree in targets]
            batches.append(("kruskal", q, s_tree, targets, expected))
    return State(batches)


def make_pass(state: State, rng, traced: bool) -> list[Op]:
    from orderlab import wqo

    order = list(range(len(state.batches)))
    rng.shuffle(order)
    ops = []
    for i in order:
        kind, q, target, candidates, expected = state.batches[i]
        if kind == "higman":

            def call(q=q, tau=target, seqs=candidates):
                leq = wqo.higman_leq
                return [leq(sigma, tau, q) for sigma in seqs]

        else:

            def call(q=q, s_tree=target, targets=candidates):
                leq = wqo.ktree_leq
                return [leq(s_tree, t_tree, q) for t_tree in targets]

        def check(got, expected=expected, kind=kind):
            if got == expected:
                return None
            bad = sum(g != e for g, e in zip(got, expected))
            return WRONG, f"{bad} {kind} answers differ from the oracle"

        ops.append(Op(kind, call, check, work=len(candidates)))
    return ops


def layer_metrics(state: State, untraced, traced, pass_agg, setup_agg) -> dict[str, float]:
    work = {"higman": 0, "kruskal": 0}
    for batch in state.batches:
        work[batch[0]] += len(batch[3])
    rate = {
        kind: work[kind] * untraced.passes / sum(untraced.by_name[kind]) for kind in work
    }
    return {
        "embed.higman_per_s": rate["higman"],
        "embed.kruskal_per_s": rate["kruskal"],
        "oracles.higman_down_set.self_s":
            setup_agg.get("oracles.higman_down_set", (0, 0.0))[1] * traced.factor(),
        "oracles.brute_ktree_leq.self_s":
            setup_agg.get("oracles.brute_ktree_leq", (0, 0.0))[1] * traced.factor(),
    }
