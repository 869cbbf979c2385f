"""Reference implementations and instance generators for the oracle suites.

Everything here recomputes answers from the definitions, by exhaustive
search over injections, subsets, or bounded words, deliberately avoiding
the production algorithms so each suite compares two independent routes.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .menger import MengerGraph
    from .order import Poset, QuasiOrder
    from .trees import LassoPath, TreeAutomaton
    from .wqo import KTree

# ---------------------------------------------------------------- orders


def _close_strict(pairs: Iterable[tuple[int, int]]) -> Optional[frozenset]:
    rel = set(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    if any((a, a) in rel or ((b, a) in rel and a != b) for a, b in rel):
        return None
    return frozenset(rel)


def all_posets(max_elems: int) -> list[Poset]:
    """Every labelled strict order on at most ``max_elems`` elements."""
    from .order import Poset

    out = []
    for n in range(max_elems + 1):
        seen = set()
        slots = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(1 << len(slots)):
            chosen = [p for k, p in enumerate(slots) if bits >> k & 1]
            closed = _close_strict(chosen)
            if closed is None or closed in seen:
                continue
            seen.add(closed)
            out.append(Poset(frozenset(range(n)), closed))
    return out


def posets_on(n: int) -> list[Poset]:
    return [p for p in all_posets(n) if len(p.elements) == n]


def random_poset(rng: random.Random, max_elems: int) -> Poset:
    """Random labelled strict order; labels are shuffled so declaration
    order carries no structure."""
    from .order import Poset

    n = rng.randint(2, max_elems)
    density = rng.uniform(0.1, 0.6)
    relabel = list(range(n))
    rng.shuffle(relabel)
    pairs = [
        (relabel[i], relabel[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    closed = _close_strict(pairs)
    assert closed is not None
    return Poset(frozenset(range(n)), closed)


def all_preorders(n: int) -> list[QuasiOrder]:
    """Every labelled quasi-order on ``range(n)``."""
    from .order import finite_quasi_order

    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(slots)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for k, p in enumerate(slots) if bits >> k & 1)
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(finite_quasi_order(range(n), rel, name=f"pre{n}-{bits}"))
    return out


def quasi_orders_upto(max_n: int) -> list[QuasiOrder]:
    return [q for n in range(1, max_n + 1) for q in all_preorders(n)]


# ---------------------------------------------------------------- sequences


def brute_higman(sigma: Sequence, tau: Sequence, q: QuasiOrder) -> bool:
    """Embedding by exhaustive search over strictly increasing index maps."""
    if len(sigma) > len(tau):
        return False
    return any(
        all(q.leq(x, tau[j]) for x, j in zip(sigma, pick))
        for pick in itertools.combinations(range(len(tau)), len(sigma))
    )


def all_seqs(items: Sequence, max_len: int) -> list[tuple]:
    return [
        seq
        for r in range(max_len + 1)
        for seq in itertools.product(items, repeat=r)
    ]


def higman_down_set(tau: Sequence, q: QuasiOrder, items: Sequence) -> set[tuple]:
    """All sequences over ``items`` embedding into ``tau``, built from the
    definition: choose a subsequence, then lower each item independently."""
    lower = {y: [x for x in items if q.leq(x, y)] for y in set(tau)}
    found: set[tuple] = {()}
    for r in range(1, len(tau) + 1):
        for pick in itertools.combinations(tau, r):
            found.update(itertools.product(*[lower[y] for y in pick]))
    return found


# ---------------------------------------------------------------- trees


def brute_meet_table(tree: KTree) -> list[list[int]]:
    n = len(tree.parent)
    chains = []
    for v in range(n):
        chain = []
        while v != -1:
            chain.append(v)
            v = tree.parent[v]
        chains.append(chain)
    table = [[0] * n for _ in range(n)]
    for t in range(n):
        for u in range(n):
            high = set(chains[t])
            table[t][u] = next(v for v in chains[u] if v in high)
    return table


def brute_ktree_leq(s_tree: KTree, t_tree: KTree, q: QuasiOrder) -> bool:
    """Embedding by backtracking over injective node maps, checking label
    domination and meet preservation pair by pair."""
    n, m = len(s_tree.parent), len(t_tree.parent)
    if n > m:
        return False
    smeet = brute_meet_table(s_tree)
    tmeet = brute_meet_table(t_tree)
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(s_tree.parent):
        if p != -1:
            children[p].append(v)
    order: list[int] = []

    def visit(v: int) -> None:
        order.append(v)
        for c in children[v]:
            visit(c)

    visit(s_tree.parent.index(-1))
    # Preorder keeps every meet of two placed nodes already placed.
    cand = [
        [tv for tv in range(m) if q.leq(s_tree.labels[sv], t_tree.labels[tv])]
        for sv in range(n)
    ]
    image = [-1] * n
    used = [False] * m

    def place(k: int) -> bool:
        if k == n:
            return True
        sv = order[k]
        for tv in cand[sv]:
            if used[tv]:
                continue
            ok = True
            for prev in order[:k]:
                if image[smeet[prev][sv]] != tmeet[image[prev]][tv]:
                    ok = False
                    break
            if ok:
                image[sv] = tv
                used[tv] = True
                if place(k + 1):
                    return True
                image[sv] = -1
                used[tv] = False
        return False

    return place(0)


def _relabelled(parent: tuple, labels: tuple, perm: tuple) -> tuple[tuple, tuple]:
    """The tree with node ``i`` renamed ``perm[i]``, as ``(parent, labels)``."""
    new_parent, new_labels = [-1] * len(parent), [None] * len(parent)
    for i, p in enumerate(parent):
        if p != -1:
            new_parent[perm[i]] = perm[p]
        new_labels[perm[i]] = labels[i]
    return tuple(new_parent), tuple(new_labels)


def all_ktrees(max_nodes: int, labels: Sequence) -> list[KTree]:
    """Labelled rooted trees up to isomorphism, on ≤ ``max_nodes`` nodes.

    Parent arrays are enumerated with the root at 0, and two of them with
    labels are isomorphic exactly when some renaming of the nodes that
    keeps the root at 0 maps one onto the other.  So the least
    ``(parent, labels)`` pair over those renamings is a normal form, and
    the first tree of each form is kept.
    """
    from .wqo import KTree

    out, seen = [], set()
    for n in range(1, max_nodes + 1):
        perms = [(0,) + rest for rest in itertools.permutations(range(1, n))]
        for parents in itertools.product(*[range(i) for i in range(1, n)]):
            parent = (-1,) + parents
            for labs in itertools.product(labels, repeat=n):
                key = min(_relabelled(parent, labs, perm) for perm in perms)
                if key not in seen:
                    seen.add(key)
                    out.append(KTree(parent, labs))
    return out


# ---------------------------------------------------------------- automata


def brute_leftmost_word(
    aut: TreeAutomaton, length: int, slack: int
) -> Optional[tuple[int, ...]]:
    """Least word of the given length extendable by ``slack`` more letters,
    by depth-bounded feasibility rather than liveness analysis."""
    total = length + slack
    feas = [[True] * aut.states]
    for _ in range(total):
        prev = feas[-1]
        feas.append(
            [
                any(
                    aut.delta.get((s, a)) is not None and prev[aut.delta[(s, a)]]
                    for a in range(aut.alphabet_size)
                )
                for s in range(aut.states)
            ]
        )
    if not feas[total][aut.start]:
        return None
    word: list[int] = []
    state = aut.start
    for i in range(length):
        remaining = total - i - 1
        for a in range(aut.alphabet_size):
            target = aut.delta.get((state, a))
            if target is not None and feas[remaining][target]:
                word.append(a)
                state = target
                break
    return tuple(word)


def brute_lasso_in_tree(aut: TreeAutomaton, lasso: LassoPath) -> bool:
    """Membership by unrolling: a lasso denotes a path iff the word stays
    defined for one cycle per state past the prefix."""
    state, delta = aut.start, aut.delta
    for letter in lasso.prefix + lasso.cycle * (aut.states + 1):
        state = delta.get((state, letter))
        if state is None:
            return False
    return True


def all_lassos(alphabet: int, max_total: int) -> list[LassoPath]:
    """One lasso per sequence with ``|prefix| + |cycle| <= max_total``: the
    first met in order of total length, its unique shortest lasso.

    Such a sequence is periodic from letter ``max_total`` on, with a period
    dividing ``lcm(1..max_total)``, so that many letters past the first
    ``max_total`` tell two of them apart.
    """
    from .trees import LassoPath

    letters = max_total + math.lcm(*range(1, max_total + 1))
    seen: set[tuple[int, ...]] = set()
    out = []
    for total in range(1, max_total + 1):
        for word in itertools.product(range(alphabet), repeat=total):
            for cut in range(total):
                cycle = word[cut:]
                # the sequence's first letters: the word, then its cycle again
                key = (word + cycle * (letters // len(cycle)))[:letters]
                if key not in seen:
                    seen.add(key)
                    out.append(LassoPath(word[:cut], cycle))
    return out


def strided_automata(states: int, alphabet: int, quota: int) -> list[TreeAutomaton]:
    """Deterministic sample of partial automata on ``states`` states: dense
    cyclic tables first, then a stride through the transition-table space."""
    from .trees import automaton

    out = []
    seen = set()

    def add(table: dict) -> None:
        key = tuple(sorted(table.items()))
        if key not in seen:
            seen.add(key)
            out.append(automaton(alphabet, states, 0, [(s, a, t) for (s, a), t in table.items()]))

    for shift in range(min(states, max(1, quota // 8))):
        add({(s, a): (s + a + shift) % states for s in range(states) for a in range(alphabet)})
    cells = [(s, a) for s in range(states) for a in range(alphabet)]
    space = (states + 1) ** len(cells)
    step = max(1, space // max(1, quota))
    index = 0
    while len(out) < quota and index < space:
        digits = index
        table = {}
        for cell in cells:
            digit = digits % (states + 1)
            digits //= states + 1
            if digit:
                table[cell] = digit - 1
        add(table)
        index += step + 1
    return out


# ---------------------------------------------------------------- barriers


def brute_block_tri(b: Sequence[int], c: Sequence[int], entry_bound: int) -> bool:
    """Existence search, below ``entry_bound``, for a strictly increasing
    extension ``d`` of block ``b`` whose tail ``d[1:]`` extends block ``c``:
    ``b`` followed by each increasing run of naturals above its last entry."""
    b, c = tuple(b), tuple(c)
    start = b[-1] + 1 if b else 0
    runs = itertools.combinations(range(start, entry_bound), max(len(b), len(c) + 1) - len(b))
    tails = map(operator.itemgetter(slice(1, len(c) + 1)), map(b.__add__, runs))
    return start <= entry_bound and c in tails


def first_monochromatic_triple(n: int, red: set) -> Optional[tuple[int, int, int]]:
    """First triple ``i < j < k`` below ``n``, in lexicographic order, whose
    three pairs ``(i, j)``, ``(i, k)``, ``(j, k)`` are all red or all not."""
    for i, j, k in itertools.combinations(range(n), 3):
        if ((i, j) in red) == ((i, k) in red) == ((j, k) in red):
            return i, j, k
    return None


def brute_bad_array_violations(
    entries: Sequence[tuple[tuple[int, ...], Sequence]],
    window: int,
    frag_blocks: Iterable[tuple[int, ...]],
    q: QuasiOrder,
) -> list[str]:
    """Bad-partial-array clauses checked from the definitions and worded as
    `barrier.bad_array_violations` words them, with the tri relation decided
    by extension search and domination by injection search."""
    problems = []
    bound = 2 * window
    for i in range(len(entries) - 1):
        if max(entries[i][0]) > max(entries[i + 1][0]):
            problems.append(f"maxima-decrease at entries {i},{i + 1}")
    for i, (b, v) in enumerate(entries):
        for j, (c, w) in enumerate(entries):
            if i != j and brute_block_tri(b, c, bound) and brute_higman(v, w, q):
                problems.append(f"dominated-tri-pair at entries {i},{j}")
    if entries:
        enumerated = {b for b, _ in entries[:-1]}
        covered = {x for b, _ in entries for x in b}
        frontier = max(entries[-1][0])
        for b in sorted(frag_blocks):
            if b and set(b) <= covered and max(b) < frontier and b not in enumerated:
                problems.append(f"missing-block {b}")
    return problems


def _shrinking_bodies(rng: random.Random, count: int, items: Sequence, max_base: int) -> list:
    """``count`` sequences over ``items`` with strictly decreasing lengths,
    which block every embedding outright, and one shared final item."""
    final = rng.choice(items)
    base = rng.randint(1, max_base)
    return [
        tuple(rng.choice(items) for _ in range(base + count - i)) + (final,)
        for i in range(count)
    ]


def planted_bad_seqs(rng: random.Random, q: QuasiOrder, items: Sequence) -> list[tuple]:
    """A bad sequence of 3 to 6 shrinking sequences (`_shrinking_bodies`)."""
    return _shrinking_bodies(rng, rng.randint(3, 6), items, 3)


def uniform_blocks_in_order(k: int, window: int) -> list[tuple[int, ...]]:
    """The k-subsets of the window sorted by maximum, then lexicographically,
    the order in which an array enumerates them without maxima decreases."""
    return sorted(itertools.combinations(range(window), k), key=lambda b: (max(b), b))


def planted_bad_array(
    rng: random.Random, k: int, window: int, items: Sequence
) -> list[tuple[tuple[int, ...], tuple]]:
    """A bad partial array over the uniform fragment: blocks in max-order,
    valued by shrinking sequences (`_shrinking_bodies`)."""
    blocks = uniform_blocks_in_order(k, window)
    count = rng.randint(max(2, k + 1), len(blocks))
    return list(zip(blocks, _shrinking_bodies(rng, count, items, 2)))


# ---------------------------------------------------------------- graphs


def brute_ab_paths(g: MengerGraph) -> list[tuple[int, ...]]:
    """Minimal source-to-target paths: interior vertices avoid both sides.

    Hitting every such path is the same as hitting every path between the
    sides, since any path contains one of these as a segment.
    """
    adj: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    paths: list[tuple[int, ...]] = []

    def walk(v: int, seen: set[int], path: list[int]) -> None:
        for w in adj[v]:
            if w in seen:
                continue
            if w in g.B:
                paths.append(tuple(path + [w]))
            elif w not in g.A:
                seen.add(w)
                walk(w, seen, path + [w])
                seen.remove(w)

    for a in sorted(g.A):
        if a in g.B:
            paths.append((a,))
        else:
            walk(a, {a}, [a])
    return paths


def brute_min_separator(g: MengerGraph) -> tuple[int, set[int]]:
    """Smallest vertex set meeting every source-to-target path, by subset
    enumeration in size order."""
    paths = brute_ab_paths(g)
    if not paths:
        return 0, set()
    for size in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            s = set(sub)
            if all(s & set(p) for p in paths):
                return size, s
    raise AssertionError("the full vertex set always separates")


def brute_max_disjoint(g: MengerGraph) -> int:
    """Largest family of vertex-disjoint source-to-target paths, by
    memoised search over vertex masks."""
    masks = sorted({sum(1 << v for v in p) for p in brute_ab_paths(g)})
    memo: dict[int, int] = {}

    def best(used: int) -> int:
        if used in memo:
            return memo[used]
        top = 0
        for m in masks:
            if not m & used:
                top = max(top, 1 + best(used | m))
        memo[used] = top
        return top

    return best(0)


def connected_edge_sets(n: int) -> list[list[tuple[int, int]]]:
    """Edge sets of the connected labelled graphs on ``range(n)``."""
    slots = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(slots)):
        edges = [e for k, e in enumerate(slots) if bits >> k & 1]
        parent = list(range(n))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(v) for v in range(n)}) == 1:
            out.append(edges)
    return out


def side_assignments(n: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    """A small canonical family of source/target choices for a graph on
    ``range(n)``, mixing sizes and one overlapping pair."""
    last = n - 1
    cands = [
        ({0}, {last}),
        ({0}, {0}),
        ({0}, {max(0, last - 1), last}),
        ({0, min(1, last)}, {last}),
        ({0, min(1, last)}, {max(0, last - 1), last}),
    ]
    seen = set()
    out = []
    for a, b in cands:
        key = (frozenset(a), frozenset(b))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def random_graph(rng: random.Random, max_n: int) -> MengerGraph:
    from .menger import graph

    n = rng.randint(2, max_n)
    density = rng.uniform(0.25, 0.6)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    a = rng.sample(range(n), rng.randint(1, min(3, n)))
    b = rng.sample(range(n), rng.randint(1, min(3, n)))
    return graph(n, edges, a, b)
