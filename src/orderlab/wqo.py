"""Subsequence and labelled-tree embeddings, bad sequences, and the
minimal-bad-sequence step.

Sequences over a quasi-order embed by strictly increasing index maps with
pointwise domination; finite rooted labelled trees embed by injective,
meet-preserving, label-dominating node maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import InvalidNode, NegativeCount, PreconditionViolation, UnknownElement
from .order import QuasiOrder


def higman_leq(sigma: Sequence, tau: Sequence, q: QuasiOrder) -> bool:
    """Subsequence embedding: a strictly increasing index map with
    ``sigma[i] <= tau[f(i)]`` pointwise.

    Every item of both sequences must lie in the universe.  A greedy
    earliest-match scan decides it, and is complete: any embedding can be
    pushed left one position at a time.  When a compiled quasi-order is asked
    about the same ``tau`` many times in a row, the earliest matches are read
    from the next-occurrence table of ``tau`` instead.
    """
    compiled = q.compiled
    if compiled is not None:
        try:
            rows = compiled.next_table(tau)
            if rows is not None:
                ids = compiled.ids
                j = 0
                for x in sigma:
                    j = rows[j][ids[x]]
                return j != len(rows) - 1
        except (KeyError, TypeError):
            pass  # the scan below reports the first item outside the universe
    contains = q.contains
    for item in sigma:
        if not contains(item):
            raise UnknownElement(f"{item!r} is outside the universe of {q.name}")
    for item in tau:
        if not contains(item):
            raise UnknownElement(f"{item!r} is outside the universe of {q.name}")
    leq = q.leq
    j, m = 0, len(tau)
    for x in sigma:
        while j < m and not leq(x, tau[j]):
            j += 1
        if j == m:
            return False
        j += 1
    return True


def higman_lift(q: QuasiOrder) -> QuasiOrder:
    """Finite sequences over ``q`` quasi-ordered by subsequence embedding."""
    return QuasiOrder(
        f"seqs({q.name})",
        lambda s, t: higman_leq(s, t, q),
        lambda s: isinstance(s, tuple) and all(q.contains(x) for x in s),
    )


def is_bad(seq: Sequence, q: QuasiOrder) -> Optional[tuple[int, int]]:
    """First good pair ``i < j`` with ``seq[i] <= seq[j]``, or None if bad."""
    for item in seq:
        q.require(item)
    leq = q.leq
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if leq(seq[i], seq[j]):
                return (i, j)
    return None


def min_bad_sequence(
    q: QuasiOrder,
    size_less: Callable[[Hashable, Hashable], bool],
    universe_bound: int,
    length: int,
) -> Optional[tuple[int, ...]]:
    """A bad sequence of the given length that no other bad sequence of the
    same length undercuts in the sequence order induced by ``size_less``.

    Depth-first search in ascending item order finds an initial bad
    sequence; repeated searches for a strictly smaller one (pruned at the
    first divergence from the incumbent) converge because the sequence
    order is well founded on a finite space.  Raises `NegativeCount` when
    ``universe_bound`` or ``length`` is negative.
    """
    for name, count in (("universe_bound", universe_bound), ("length", length)):
        if count < 0:
            raise NegativeCount(f"{name} must be at least 0, got {count}")
    universe = [x for x in range(universe_bound) if q.contains(x)]
    leq = q.leq

    def find(incumbent: Optional[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
        # When chasing an incumbent, a prefix is viable while it equals the
        # incumbent so far or already went below it at the divergence point.
        def dfs(prefix: tuple[int, ...], undecided: bool) -> Optional[tuple[int, ...]]:
            if len(prefix) == length:
                return None if undecided else prefix
            pos = len(prefix)
            for v in universe:
                if any(leq(p, v) for p in prefix):
                    continue
                if incumbent is None:
                    nxt = False
                elif undecided:
                    if v == incumbent[pos]:
                        nxt = True
                    elif size_less(v, incumbent[pos]):
                        nxt = False
                    else:
                        continue
                else:
                    nxt = False
                found = dfs(prefix + (v,), nxt)
                if found is not None:
                    return found
            return None

        return dfs((), incumbent is not None)

    incumbent = find(None)
    if incumbent is None:
        return None
    while True:
        better = find(incumbent)
        if better is None:
            return incumbent
        incumbent = better


def nash_williams_step(
    seqs: Sequence[Sequence], s: Iterable[int], q: QuasiOrder
) -> tuple[tuple, ...]:
    """One minimal-bad-sequence refinement step.

    Given a bad sequence of non-empty sequences and an index set ``s`` on
    which the final items are pairwise dominated in order, copy the entries
    below ``min(s)`` and re-enumerate the ``s`` entries with their final
    items dropped.  The result is bad again and strictly below the input in
    the length order at position ``min(s)``.
    """
    entries = [tuple(x) for x in seqs]
    s_sorted = sorted(set(s))
    if not s_sorted:
        raise PreconditionViolation("s-non-empty", "the index set is empty")
    if s_sorted[0] < 0 or s_sorted[-1] >= len(entries):
        raise PreconditionViolation("s-in-window", f"indices {s_sorted} exceed the window")
    for i, entry in enumerate(entries):
        if not entry:
            raise PreconditionViolation("entries-non-empty", f"entry {i} is empty")
    lifted = higman_lift(q)
    witness = is_bad(entries, lifted)
    if witness is not None:
        i, j = witness
        raise PreconditionViolation("input-bad", f"entry {i} embeds into entry {j}")
    for i, j in itertools.combinations(s_sorted, 2):
        if not q.leq(entries[i][-1], entries[j][-1]):
            raise PreconditionViolation(
                "perfect-on-s", f"final items of entries {i} and {j} are not ordered"
            )
    i0 = s_sorted[0]
    return tuple(entries[i] for i in range(i0)) + tuple(entries[k][:-1] for k in s_sorted)


@dataclass(frozen=True)
class KTree:
    """Finite rooted tree with labelled nodes, as a parent array.

    ``parent[i]`` is the parent of node ``i``; exactly one node is the root,
    marked with ``-1``.  Node order below any node is the ancestor chain, so
    meets (deepest common ancestors) always exist.
    """

    parent: tuple[int, ...]
    labels: tuple[Hashable, ...]

    def __post_init__(self):
        parent = self.parent
        n = len(parent)
        if len(self.labels) != n:
            raise ValueError("labels and parent array must have equal length")
        roots = [i for i, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise ValueError("a tree has exactly one root")
        children: list[list[int]] = [[] for _ in range(n)]
        for i, p in enumerate(parent):
            if p == -1:
                continue
            if not 0 <= p < n:
                raise InvalidNode(f"parent of node {i} is out of range")
            children[p].append(i)
        # Every node has one parent and only the root has none, so the nodes
        # the root does not reach are exactly those on or above a cycle.
        reached, stack = 1, [roots[0]]
        while stack:
            below = children[stack.pop()]
            reached += len(below)
            stack.extend(below)
        if reached != n:
            raise ValueError("parent array contains a cycle")
        object.__setattr__(self, "_root", roots[0])
        object.__setattr__(self, "_children", tuple(map(tuple, children)))

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self._root

    def children(self, v: int) -> tuple[int, ...]:
        """Children of ``v`` in ascending id order."""
        self.require(v)
        return self._children[v]

    def require(self, v: int) -> None:
        if not 0 <= v < len(self.parent):
            raise InvalidNode(f"node {v} is outside the tree")


def ktree_leq(s_tree: KTree, t_tree: KTree, q: QuasiOrder) -> bool:
    """Tree embedding: an injective meet-preserving map with dominated labels.

    Such a map sends the source root to some node ``v`` with a dominating
    label and the root's child subtrees into distinct child subtrees of
    ``v``; the search recurses on that shape with memoisation.  Each source
    child takes the first free target child it embeds into, and only a
    child with none left starts an augmenting-path search (Kuhn 1955).
    Labels are compared through the up-set bitmasks when ``q`` is compiled.
    """
    compiled = q.compiled
    if compiled is not None:
        ids, up = compiled.ids, compiled.up
        try:
            s_up = [up[ids[lab]] for lab in s_tree.labels]
            t_ids = [ids[lab] for lab in t_tree.labels]
        except (KeyError, TypeError):
            compiled = None  # the checks below report the first bad label
    if compiled is not None:

        def dominated(sv: int, tv: int) -> bool:
            return s_up[sv] >> t_ids[tv] & 1

    else:
        for lab in s_tree.labels:
            q.require(lab)
        for lab in t_tree.labels:
            q.require(lab)
        leq, s_labels, t_labels = q.leq, s_tree.labels, t_tree.labels

        def dominated(sv: int, tv: int) -> bool:
            return leq(s_labels[sv], t_labels[tv])

    s_children = s_tree._children
    t_children = t_tree._children
    m = len(t_children)
    memo: dict[int, bool] = {}

    def embed(sv: int, tv: int) -> bool:
        key = sv * m + tv
        result = memo.get(key)
        if result is None:
            result = rooted(sv, tv)
            if not result:
                for tc in t_children[tv]:
                    if embed(sv, tc):
                        result = True
                        break
            memo[key] = result
        return result

    def rooted(sv: int, tv: int) -> bool:
        if not dominated(sv, tv):
            return False
        left = s_children[sv]
        right = t_children[tv]
        if len(left) > len(right):
            return False
        assign: dict[int, int] = {}
        for l in left:
            for r in right:
                if r not in assign and embed(l, r):
                    assign[r] = l
                    break
            else:
                # with no target child taken, the sweep has tried them all
                if not assign or not augment(l, right, assign, set()):
                    return False
        return True

    def augment(l: int, right: tuple[int, ...], assign: dict[int, int], seen: set[int]) -> bool:
        for r in right:
            if r in seen or not embed(l, r):
                continue
            seen.add(r)
            if r not in assign or augment(assign[r], right, assign, seen):
                assign[r] = l
                return True
        return False

    return embed(s_tree.root, t_tree.root)


def _preorder(tree: KTree, v: int) -> list[int]:
    """Nodes of the subtree at ``v`` in preorder, children by ascending id."""
    children = tree._children
    order: list[int] = []
    stack = [v]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node]))
    return order


def subtree(tree: KTree, v: int) -> KTree:
    """Subtree rooted at ``v``, renumbered in preorder (children by id)."""
    tree.require(v)
    order = _preorder(tree, v)
    index = {old: new for new, old in enumerate(order)}
    parent = tuple(
        -1 if old == v else index[tree.parent[old]] for old in order
    )
    return KTree(parent, tuple(tree.labels[old] for old in order))


def ktree_key(tree: KTree):
    """Canonical structure key; equal keys mean isomorphic labelled trees.

    The key of a node is its label's repr with the sorted keys of its
    children; reversed preorder builds every child's key before its parent's.
    """
    children, labels = tree._children, tree.labels
    keys: dict[int, tuple] = {}
    for v in reversed(_preorder(tree, tree.root)):
        keys[v] = (repr(labels[v]), tuple(sorted(keys[c] for c in children[v])))
    return keys[tree.root]
