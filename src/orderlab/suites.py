"""Named oracle suites: each compares a production route against an
independent reference at a documented scale.

A suite is written as a generator function of ``seed`` that yields, per
check, ``None`` when the check passes or a failure record (a dict naming
the counterexample) when it fails.  A suite may also yield a positive int
``k`` for ``k`` passing checks; it then yields the count of the passes
before each failure record, so that a run stops at the same count.
`_suite` registers it in `SUITES` and binds its name to a function
``seed -> SuiteResult``; that function hands the generator to
`formats.tally`, which counts the checks, keeps the failure records and
stops at the eighth failure, closing the generator.  ``checked`` is then
the number of checks made.

Suites are deterministic given ``seed``.  The registry `SUITES`, in
definition order, is what the command line exposes.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import random

from . import barrier, formats, lexcode, menger, oracles, trees, wqo
from ._record import record
from .errors import OrderlabError, WellFounded
from .order import finite_quasi_order, seq_less_by


@record
class SuiteResult:
    name: str
    verdict: str
    checked: int
    failures: tuple
    notes: dict


SUITES: dict = {}


def _run(name: str, checks, notes: dict) -> SuiteResult:
    checked, failures = formats.tally(checks)
    verdict = "fail" if failures else "pass"
    return SuiteResult(name, verdict, checked, tuple(failures), dict(notes))


def _suite(name: str, **notes):
    """Register a generator function of checks as the suite ``name``, with
    the fixed ``notes`` every result carries."""

    def register(checks):
        @functools.wraps(checks)
        def suite(seed: int = 0) -> SuiteResult:
            return _run(name, checks(seed), notes)

        SUITES[name] = suite
        return suite

    return register


# ------------------------------------------------------------ lexcode


def _poset_corpus(rng: random.Random) -> list:
    return oracles.all_posets(4) + [oracles.random_poset(rng, 8) for _ in range(500)]


@_suite("claim-monotone")
def claim_monotone(seed):
    """Strict pairs must map to lexicographically increasing stem codes,
    under both tie-break policies, over the full poset corpus."""
    rng = random.Random(seed)
    for poset in _poset_corpus(rng):
        for tie in lexcode.TIE_BREAKS:
            code = lexcode.encode_order(poset, tie)
            for x, y in poset.lt:
                if seq_less_by(code.table[x], code.table[y], int.__lt__):
                    yield None
                else:
                    yield {
                        "poset": formats.poset_to_doc(poset),
                        "tie_break": tie,
                        "below": x,
                        "above": y,
                        "codes": [list(code.table[x]), list(code.table[y])],
                    }


def _roundtrip_cases(rng: random.Random):
    """``(poset, code, seq)``: every sequence of length ≤ 2 over each poset
    of ≤ 4 elements, then 1000 random draws of length ≤ 6 over the corpus
    (a draw of the empty poset is skipped)."""
    corpus = _poset_corpus(rng)
    for poset in corpus:
        if len(poset.elements) > 4:
            continue
        code = lexcode.encode_order(poset)
        items = poset.sorted_elements()
        for r in range(3):
            for seq in itertools.product(items, repeat=r):
                yield poset, code, seq
    for i in range(1000):
        poset = rng.choice(corpus)
        if not poset.elements:
            continue
        tie = lexcode.TIE_BREAKS[i % 2]
        code = lexcode.encode_order(poset, tie)
        items = poset.sorted_elements()
        yield poset, code, tuple(rng.choice(items) for _ in range(rng.randint(0, 6)))


@_suite("code-roundtrip")
def code_roundtrip(seed):
    """decode_path inverts encode_seq: all short sequences over the small
    posets, plus 1000 randomised longer instances over the full corpus."""
    for poset, code, seq in _roundtrip_cases(random.Random(seed)):
        if lexcode.decode_path(code, lexcode.encode_seq(code, seq)) == seq:
            yield None
        else:
            yield {"poset": formats.poset_to_doc(poset), "seq": list(seq)}


@_suite("prefix-free")
def prefix_free(seed):
    """No element's prefix-free code word is a prefix of another's, under
    both tie-break policies, over the full poset corpus; one check per
    ordered pair of distinct elements."""
    rng = random.Random(seed)
    for poset in _poset_corpus(rng):
        for tie in lexcode.TIE_BREAKS:
            code = lexcode.encode_order(poset, tie)
            words = [(x, lexcode.encode_element(code, x)) for x in poset.sorted_elements()]
            for (x, u), (y, w) in itertools.permutations(words, 2):
                if w[: len(u)] != u:
                    yield None
                else:
                    yield {
                        "poset": formats.poset_to_doc(poset),
                        "tie_break": tie,
                        "prefix": x,
                        "of": y,
                        "words": [list(u), list(w)],
                    }


# ------------------------------------------------------------ automata


def _automaton_corpus() -> list:
    cells = [
        oracles.strided_automata(states, alphabet, 24)
        for states in range(1, 6)
        for alphabet in range(1, 4)
    ]
    out = []
    for group in itertools.zip_longest(*cells):
        out.extend(aut for aut in group if aut is not None)
    return out


def _expand(lasso: trees.LassoPath, n: int) -> tuple[int, ...]:
    """The first ``n`` letters of ``lasso``."""
    return (lasso.prefix + lasso.cycle * (n // len(lasso.cycle) + 1))[:n]


MINIMAL_PATH_CAP = 2000


def _minimal_path_checks():
    """One check per (automaton, order) pair, automata in corpus order."""
    expand = 64
    posets_by_k = {k: oracles.posets_on(k) for k in (1, 2, 3)}
    lassos_by_k = {k: oracles.all_lassos(k, 6) for k in (1, 2, 3)}
    for aut in _automaton_corpus():
        k = aut.alphabet_size
        valid = [l for l in lassos_by_k[k] if oracles.brute_lasso_in_tree(aut, l)]
        rows = [_expand(l, expand) for l in valid]
        for poset in posets_by_k[k]:
            try:
                out = trees.minimal_path(aut, poset)
            except WellFounded:
                if valid:
                    yield {
                        "automaton": formats.automaton_to_doc(aut),
                        "problem": "reported well-founded, lassos exist",
                    }
                else:
                    yield None
                continue
            if not valid:
                yield {
                    "automaton": formats.automaton_to_doc(aut),
                    "problem": "path returned in a well-founded tree",
                }
                continue
            if not oracles.brute_lasso_in_tree(aut, out):
                yield {
                    "automaton": formats.automaton_to_doc(aut),
                    "problem": "output lasso is not a path",
                }
                continue
            row = _expand(out, expand)
            lt = poset.lt
            for challenger, other in zip(valid, rows):
                if other == row:
                    continue
                d = 0
                while other[d] == row[d]:
                    d += 1
                if (other[d], row[d]) in lt:
                    yield {
                        "automaton": formats.automaton_to_doc(aut),
                        "order": sorted(lt),
                        "output": formats.lasso_to_doc(out),
                        "challenger": formats.lasso_to_doc(challenger),
                    }
                    break
            else:
                yield None


@_suite("minimal-path", cap=MINIMAL_PATH_CAP)
def minimal_path_suite(seed):
    """The least-path reduction beats every lasso of description size ≤ 6:
    none that lies in the tree may be strictly left of the output.  The
    first `MINIMAL_PATH_CAP` checks are made.

    Challenger comparison re-derives sequence order by expanding both
    lassos far past any divergence bound instead of calling path_left_of.
    """
    yield from itertools.islice(_minimal_path_checks(), MINIMAL_PATH_CAP)


@_suite("leftmost-exact")
def leftmost_exact(seed):
    """leftmost_path agrees exactly with a depth-bounded search for the
    least defined word of length 20 extendable by one letter per state."""
    for aut in _automaton_corpus():
        expected = oracles.brute_leftmost_word(aut, 20, aut.states)
        try:
            got = trees.leftmost_path(aut).take(20)
        except WellFounded:
            got = None
        if got == expected:
            yield None
        else:
            yield {
                "automaton": formats.automaton_to_doc(aut),
                "expected": None if expected is None else list(expected),
                "got": None if got is None else list(got),
            }


# ------------------------------------------------------------ embeddings


@_suite("higman-agreement")
def higman_agreement(seed):
    """higman_leq equals the injection-search oracle on every sequence pair
    of length ≤ 6 over every quasi-order with ≤ 3 elements.  It yields
    the passes against each ``tau`` as one count, split at each failure."""
    for q in oracles.quasi_orders_upto(3):
        items = sorted(q.elements)
        seqs = oracles.all_seqs(items, 6)
        impl = wqo.higman_leq
        for tau in seqs:
            down = oracles.higman_down_set(tau, q, items)
            passed = 0
            for sigma in seqs:
                if impl(sigma, tau, q) == (sigma in down):
                    passed += 1
                    continue
                if passed:
                    yield passed
                    passed = 0
                yield {"q": q.name, "sigma": list(sigma), "tau": list(tau)}
            if passed:
                yield passed


@_suite("kruskal-agreement", trees=286)
def kruskal_agreement(seed):
    """ktree_leq equals the injective-map search on all pairs of the 286
    trees with ≤ 5 nodes (up to isomorphism) over the 2-element chain and
    antichain."""
    chain = finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")
    anti = finite_quasi_order((0, 1), [(0, 0), (1, 1)], "anti2")
    corpus = oracles.all_ktrees(5, (0, 1))
    for q in (chain, anti):
        for s_tree in corpus:
            for t_tree in corpus:
                got = wqo.ktree_leq(s_tree, t_tree, q)
                if got == oracles.brute_ktree_leq(s_tree, t_tree, q):
                    yield None
                else:
                    yield {
                        "q": q.name,
                        "s": formats.ktree_to_doc(s_tree),
                        "t": formats.ktree_to_doc(t_tree),
                        "got": got,
                    }


# ------------------------------------------------------------ proof steps


@_suite("refine-step")
def refine_step(seed):
    """nash_williams_step output is bad again (checked by injection search)
    and strictly below its input in the length order, on 200 generated
    valid instances."""
    rng = random.Random(seed)
    pool = oracles.quasi_orders_upto(3)
    for _ in range(200):
        q = rng.choice(pool)
        items = list(q.elements)
        seqs = oracles.planted_bad_seqs(rng, q, items)
        s = sorted(rng.sample(range(len(seqs)), rng.randint(1, len(seqs))))
        witness = {"q": q.name, "seqs": [list(v) for v in seqs], "s": s}
        try:
            out = wqo.nash_williams_step(seqs, s, q)
        except OrderlabError as exc:
            yield {**witness, "problem": f"rejected: {exc}"}
            continue
        problems = []
        if len(out) != min(s) + len(s):
            problems.append("output length is off")
        for i, j in itertools.combinations(range(len(out)), 2):
            if oracles.brute_higman(out[i], out[j], q):
                problems.append(f"output good pair {i},{j}")
                break
        if not seq_less_by(out, tuple(seqs), lambda a, b: len(a) < len(b)):
            problems.append("output is not strictly below in the length order")
        yield {**witness, "problems": problems} if problems else None


@_suite("array-step")
def array_step(seed):
    """nwt_improvement_step output is a bad partial array again (checked
    from the definitions) and strictly below its input, on 100 generated
    singleton and 2-subset fragment instances.

    The planted index sets mirror how the step is applied: a suffix of the
    base, the whole covered base, or the range of the final block.  Index
    sets that split a tri-related pair across the truncated and kept parts
    are outside the lemma and can break badness, so none are planted.
    """
    rng = random.Random(seed)
    pool = oracles.quasi_orders_upto(3)
    for round_ in range(100):
        k = 1 + round_ % 2
        window = rng.randint(k + 1, 5)
        q = rng.choice(pool)
        items = list(q.elements)
        entries = oracles.planted_bad_array(rng, k, window, items)
        frag = barrier.uniform_fragment(k, window)
        covered = set().union(*[set(b) for b, _ in entries])
        if k == 1:
            s = {b[0] for b, _ in entries[rng.randrange(len(entries)):]}
        elif round_ % 4 == 1:
            s = covered
        else:
            s = set(entries[-1][0])
        arr = barrier.array_of(entries)
        witness = {
            "q": q.name,
            "window": window,
            "k": k,
            "entries": [[list(b), list(v)] for b, v in entries],
            "s": sorted(s),
        }
        try:
            out = barrier.nwt_improvement_step(arr, s, frag, q)
        except OrderlabError as exc:
            yield {**witness, "problem": f"rejected: {exc}"}
            continue
        problems = oracles.brute_bad_array_violations(
            out.entries, window, frag.blocks, q
        )
        n = next(i for i, (b, _) in enumerate(entries) if set(b) <= s)
        if out.entries[:n] != arr.entries[:n]:
            problems.append("shared prefix was disturbed")
        if (
            len(out.entries) <= n
            or out.entries[n][0] != entries[n][0]
            or out.entries[n][1] != entries[n][1][:-1]
        ):
            problems.append("first divergence does not truncate in place")
        yield {**witness, "problems": problems} if problems else None


def _production_clause(clause: str) -> str:
    """A clause of `oracles.brute_bad_array_violations` in the words of
    `barrier.bad_array_violations`."""
    if clause.startswith("maxima-decrease at "):
        i = int(clause.removeprefix("maxima-decrease at "))
        return f"maxima-decrease at entries {i},{i + 1}"
    if clause.startswith("dominated at "):
        return "dominated-tri-pair at entries " + clause.removeprefix("dominated at ")
    return "missing-block " + clause.removeprefix("missing ")


def _broken_arrays(rng: random.Random, entries: list, window: int):
    """``(break, entries)``: a planted bad array as planted, then copies of
    it broken one way each: two adjacent entries swapped, their blocks
    swapped under their values, a later entry given an earlier tri-related
    entry's value, and (with three entries or more) an interior entry
    dropped.  The block swap is the one break that can leave a later
    entry's block tri-related to an earlier entry's under a value that
    embeds, so it is the case that checks pairs read backwards."""
    yield "none", entries
    i = rng.randrange(len(entries) - 1)
    (b, v), (c, w) = entries[i : i + 2]
    yield "swap", [*entries[:i], (c, w), (b, v), *entries[i + 2 :]]
    yield "swap-blocks", [*entries[:i], (c, v), (b, w), *entries[i + 2 :]]
    tri = [
        (i, j)
        for i, j in itertools.combinations(range(len(entries)), 2)
        if oracles.brute_block_tri(entries[i][0], entries[j][0], 2 * window)
    ]
    i, j = rng.choice(tri)
    yield "revalue", [*entries[:j], (entries[j][0], entries[i][1]), *entries[j + 1 :]]
    if len(entries) > 2:
        i = rng.randrange(1, len(entries) - 1)
        yield "drop", entries[:i] + entries[i + 1 :]


@_suite("array-violations")
def array_violations(seed):
    """bad_array_violations lists the clauses the definitions list, in the
    same order, on 100 planted bad arrays over singleton and 2-subset
    fragments and on copies of each broken one way."""
    rng = random.Random(seed)
    pool = oracles.quasi_orders_upto(3)
    for round_ in range(100):
        k = 1 + round_ % 2
        window = rng.randint(k + 1, 5)
        q = rng.choice(pool)
        planted = oracles.planted_bad_array(rng, k, window, list(q.elements))
        frag = barrier.uniform_fragment(k, window)
        for kind, entries in _broken_arrays(rng, planted, window):
            arr = barrier.array_of(entries)
            got = list(barrier.bad_array_violations(arr, frag, wqo.higman_lift(q)))
            brute = oracles.brute_bad_array_violations(entries, window, frag.blocks, q)
            expected = [_production_clause(c) for c in brute]
            if got == expected:
                yield None
            else:
                yield {
                    "q": q.name,
                    "window": window,
                    "break": kind,
                    "entries": [[list(b), list(v)] for b, v in entries],
                    "got": got,
                    "expected": expected,
                }


# ------------------------------------------------------------ barriers


@_suite("singleton-bridge")
def singleton_bridge(seed):
    """Over singleton fragments, classify_array must reproduce the plain
    good/bad/perfect verdicts of the value sequence, exhaustively."""
    for q in oracles.quasi_orders_upto(3):
        items = sorted(q.elements)
        leq = q.leq
        for window in range(1, 7):
            frag = barrier.uniform_fragment(1, window)
            for seq in itertools.product(items, repeat=window):
                arr = barrier.array_of(((i,), seq[i]) for i in range(window))
                labels = barrier.classify_array(arr, frag, q)
                pairs = list(itertools.combinations(range(window), 2))
                hits = sum(bool(leq(seq[i], seq[j])) for i, j in pairs)
                if not pairs:
                    expected = {"bad", "perfect"}
                elif hits == len(pairs):
                    expected = {"good", "perfect"}
                elif hits == 0:
                    expected = {"bad"}
                else:
                    expected = {"good", "mixed"}
                if set(labels) == expected:
                    yield None
                else:
                    yield {
                        "q": q.name,
                        "seq": list(seq),
                        "labels": sorted(labels),
                        "expected": sorted(expected),
                    }


@_suite("star-law")
def star_law(seed):
    """star_fragment of the uniform k-subset fragment is exactly the
    uniform (k+1)-subset fragment, for k ≤ 3 and windows ≤ 8."""
    for window in range(1, 9):
        for k in range(1, min(3, window) + 1):
            starred = barrier.star_fragment(barrier.uniform_fragment(k, window))
            expected = frozenset(itertools.combinations(range(window), k + 1))
            if starred.blocks == expected and starred.window == window:
                yield None
            else:
                yield {
                    "window": window,
                    "k": k,
                    "extra": sorted(map(list, starred.blocks - expected)),
                    "missing": sorted(map(list, expected - starred.blocks)),
                }


@_suite("tri-agreement")
def tri_agreement(seed):
    """block_tri equals brute-force extension search: exhaustively for all
    block pairs in windows ≤ 5, and for all pairs of length ≤ 4 in
    windows 6 to 8, searching extensions with entries below 2×window."""

    def blocks_of(window: int, max_len: int) -> list[tuple[int, ...]]:
        return [
            b
            for r in range(1, max_len + 1)
            for b in itertools.combinations(range(window), r)
        ]

    for window in range(1, 6):
        blocks = blocks_of(window, window)
        for b in blocks:
            for c in blocks:
                if barrier.block_tri(b, c) == oracles.brute_block_tri(b, c, 2 * window):
                    yield None
                else:
                    yield {"window": window, "b": list(b), "c": list(c)}
    for window in range(6, 9):
        blocks = blocks_of(window, 4)
        # Bucket candidate extensions by their first entries so each pair
        # scans only extensions that already agree with b.
        by_prefix: dict[tuple[int, tuple[int, ...]], list] = {}
        bound = 2 * window
        for length in range(1, 6):
            for cand in itertools.combinations(range(bound), length):
                for cut in range(1, min(length, 4) + 1):
                    by_prefix.setdefault((length, cand[:cut]), []).append(cand)
        for b in blocks:
            for c in blocks:
                length = max(len(b), len(c) + 1)
                found = any(
                    cand[1 : len(c) + 1] == c
                    for cand in by_prefix.get((length, b), ())
                )
                if barrier.block_tri(b, c) == found:
                    yield None
                else:
                    yield {"window": window, "b": list(b), "c": list(c)}


@_suite("pair-homogeneous")
def pair_homogeneous(seed):
    """barrier_pair_homogeneous on the singleton fragment finds the first
    monochromatic triple of every red/blue colouring of K5 and K6, and finds
    none exactly on the K5 colourings whose red pairs form a 5-cycle (every
    vertex on two red pairs), since R(3,3) = 6."""
    for n in (5, 6):
        frag = barrier.uniform_fragment(1, n)
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            red = {p for k, p in enumerate(pairs) if mask >> k & 1}
            got = barrier.barrier_pair_homogeneous(frag, lambda b, c: (b[0], c[0]) in red, 3)
            expected = oracles.first_monochromatic_triple(n, red)
            pentagon = n == 5 and all(sum(v in p for p in red) == 2 for v in range(n))
            if got == expected and (got is None) == pentagon:
                yield None
            else:
                yield {"n": n, "red": sorted(map(list, red)), "got": got, "expected": expected}


# ------------------------------------------------------------ graphs


def _exhaustive_graphs() -> list:
    out = []
    for n in range(1, 6):
        for edges in oracles.connected_edge_sets(n):
            for a, b in oracles.side_assignments(n):
                out.append(menger.graph(n, edges, a, b))
    return out


@_suite("path-system")
def path_system(seed):
    """menger_solve matches the subset-search separator size and the
    mask-search disjoint-path count, the separator separates, and each
    path meets it exactly once; exhaustive small graphs plus 500 random."""
    rng = random.Random(seed)
    instances = _exhaustive_graphs() + [oracles.random_graph(rng, 8) for _ in range(500)]
    for g in instances:
        system = menger.menger_solve(g)
        problems = []
        flow = len(system.paths)
        separator = system.separator
        min_size, _ = oracles.brute_min_separator(g)
        if flow != min_size:
            problems.append(f"path count {flow} != min separator {min_size}")
        if oracles.brute_max_disjoint(g) != flow:
            problems.append("path count != max disjoint paths")
        if len(separator) != flow:
            problems.append("separator size != path count")
        seen: set[int] = set()
        for p in system.paths:
            if not p or p[0] not in g.A or p[-1] not in g.B:
                problems.append(f"path {p} does not join the sides")
            if any(
                (min(p[i], p[i + 1]), max(p[i], p[i + 1])) not in g.edges
                for i in range(len(p) - 1)
            ):
                problems.append(f"path {p} uses a missing edge")
            if len(set(p)) != len(p) or seen & set(p):
                problems.append(f"path {p} reuses a vertex")
            seen |= set(p)
            if len(separator & set(p)) != 1:
                problems.append(f"path {p} meets the separator more than once or not at all")
        if any(not set(p) & separator for p in oracles.brute_ab_paths(g)):
            problems.append("separator misses a path")
        yield {"graph": formats.graph_to_doc(g), "problems": problems} if problems else None


@_suite("wave-coding")
def wave_coding(seed):
    """Wave coding is injective and invertible, and larger waves get
    sequence-smaller codes, over all waves of the small connected graphs.
    One check per wave and one per ordered pair of comparable waves."""
    instances = []
    for n in range(1, 6):
        for edges in oracles.connected_edge_sets(n):
            assignments = [({0}, {n - 1})]
            if n >= 3:
                assignments.append(({0, 1}, {n - 1}))
            for a, b in assignments:
                instances.append(menger.graph(n, edges, a, b))
    for g in instances:
        waves = menger.enumerate_waves(g).waves
        coded = []
        seen: dict = {}
        for w in waves:
            seq = menger.encode_wave(g, w)
            problems = []
            if not menger.wave_seq_valid(g, seq):
                problems.append(f"encoding of {w.paths} is not valid")
            else:
                if seq in seen:
                    problems.append(f"collision between {seen[seq].paths} and {w.paths}")
                seen[seq] = w
                if menger.decode_wave(g, seq) != w:
                    problems.append(f"decode does not invert encode on {w.paths}")
                coded.append((w, seq))
            yield {"graph": formats.graph_to_doc(g), "problems": problems} if problems else None
        for (w, sw), (y, sy) in itertools.permutations(coded, 2):
            if menger.wave_leq(w, y):
                if sw == sy or seq_less_by(sy, sw, menger.label_less):
                    yield None
                else:
                    yield {
                        "graph": formats.graph_to_doc(g),
                        "problems": [f"wave order {w.paths} <= {y.paths} not reflected in codes"],
                    }


# ------------------------------------------------------------ CLI


@_suite("cli-determinism")
def cli_determinism(seed):
    """Every subcommand, run twice with identical inputs and seeds, must
    produce byte-identical stdout and the same exit code."""
    import io
    import json
    import os
    import tempfile

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:

        def write(name: str, doc) -> str:
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return path

        poset = write(
            "poset.json",
            {"elements": ["a", "b", "c"], "lt": [["c", "b"], ["b", "a"], ["c", "a"]]},
        )
        alporder = write("alporder.json", {"elements": [0], "lt": []})
        aut = write(
            "aut.json",
            {"alphabet": 1, "states": 1, "start": 0, "delta": [[0, 0, 0]]},
        )
        tree1 = write("tree1.json", {"parent": [-1], "labels": [3]})
        tree2 = write("tree2.json", {"parent": [-1, 0], "labels": [5, 1]})
        seqs = write("seqs.json", {"seqs": [[0, 1, 1], [2, 1], [3, 1]]})
        frag = write("frag.json", {"window": 2, "blocks": [[0], [1]]})
        unifrag = write("unifrag.json", {"window": 4, "uniform": 2})
        unifrag1 = write("unifrag1.json", {"window": 2, "uniform": 1})
        arr = write("arr.json", {"entries": [[[0], 3], [[1], 5]]})
        seqarr = write("seqarr.json", {"entries": [[[0], [2, 1]], [[1], [1]]]})
        chal = write("chal.json", {"challengers": [{"prefix": [], "cycle": [0]}]})
        graph_file = write(
            "graph.json",
            {"vertices": 3, "edges": [[0, 1], [1, 2]], "A": [0], "B": [2]},
        )
        wave_file = write("wave.json", {"paths": [[0, 1]]})
        g = formats.graph_from_doc(json.load(open(graph_file, encoding="utf-8")))
        labels = menger.encode_wave(g, menger.warp_of([(0, 1)]))
        seq_file = write("seq.json", {"labels": formats.labels_to_doc(labels)})

        battery = [
            ["order", "validate", "--poset", poset],
            ["order", "seq-less", "--poset", poset, "--left", "c", "--right", "a"],
            ["lexcode", "encode", "--poset", poset],
            ["lexcode", "decode", "--poset", poset, "--coded", "1,0"],
            ["lexcode", "check-claims", "--poset", poset],
            ["wqo", "higman", "--q", "nat-leq", "--left", "1,2", "--right", "0,1,3"],
            ["wqo", "kruskal", "--q", "nat-leq", "--left", tree1, "--right", tree2],
            ["wqo", "bad", "--q", "divides", "--seq", "12,6,3"],
            ["wqo", "min-bad", "--q", "nat-eq", "--bound", "5", "--length", "3"],
            ["wqo", "nw-step", "--q", "nat-eq", "--seqs", seqs, "--s", "1,2"],
            ["barrier", "check", "--frag", frag],
            ["barrier", "tri", "--left", "0,2", "--right", "2,5"],
            ["barrier", "star", "--frag", unifrag],
            ["barrier", "classify", "--frag", unifrag1, "--array", arr, "--q", "nat-leq"],
            ["barrier", "array-check", "--frag", unifrag1, "--array", seqarr, "--q", "nat-eq"],
            ["barrier", "nwt-step", "--frag", unifrag1, "--array", seqarr, "--q", "nat-eq", "--s", "0,1"],
            ["tree", "live", "--aut", aut],
            ["tree", "leftmost", "--aut", aut],
            ["tree", "minimal", "--aut", aut, "--order", alporder],
            [
                "tree", "challenge", "--aut", aut, "--order", alporder,
                "--prefix", "", "--cycle", "0", "--challengers", chal,
            ],
            ["menger", "solve", "--graph", graph_file],
            ["menger", "waves", "--graph", graph_file],
            ["menger", "max-wave", "--graph", graph_file],
            ["menger", "encode", "--graph", graph_file, "--wave", wave_file],
            ["menger", "decode", "--graph", graph_file, "--seq", seq_file],
            ["oracle", "star-law", "--seed", str(seed)],
        ]

        def run(argv: list[str]) -> tuple[int, str]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        for argv in battery:
            first = run(argv)
            second = run(argv)
            if first != second:
                yield {"argv": argv, "first": first[1], "second": second[1]}
            elif first[0] not in (0, 1, 2):
                yield {"argv": argv, "exit": first[0], "stdout": first[1]}
            else:
                yield None
