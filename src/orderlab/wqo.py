"""Subsequence and labelled-tree embeddings, bad sequences, and the
minimal-bad-sequence step.

Sequences over a quasi-order embed by strictly increasing index maps with
pointwise domination; finite rooted labelled trees embed by injective,
meet-preserving, label-dominating node maps.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Optional, Sequence

from ._record import record
from .errors import InvalidNode, InvalidTree, NegativeCount, PreconditionViolation
from .order import QuasiOrder


def higman_leq(sigma: Sequence, tau: Sequence, q: QuasiOrder) -> bool:
    """Subsequence embedding: a strictly increasing index map with
    ``sigma[i] <= tau[f(i)]`` pointwise.

    Every item of both sequences must lie in the universe: `QuasiOrder.require_all`
    checks ``sigma`` and then ``tau``, in one C-level pass each on the
    natural families, and reports the first item outside.  A greedy
    earliest-match scan then decides it, and is complete: any embedding can
    be pushed left one position at a time.  The scan walks one iterator over
    ``tau``, so each item of ``sigma`` resumes just past the previous match.
    When a compiled quasi-order is asked about the same ``tau`` many times in
    a row, the earliest matches are read from the next-occurrence table of
    ``tau`` instead.
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
    q.require_all(sigma)
    q.require_all(tau)
    leq = q.leq
    rest = iter(tau)
    for x in sigma:
        for y in rest:
            if leq(x, y):
                break
        else:
            return False
    return True


def higman_lift(q: QuasiOrder) -> QuasiOrder:
    """Finite sequences over ``q`` quasi-ordered by subsequence embedding."""
    return QuasiOrder(
        f"seqs({q.name})",
        lambda s, t: higman_leq(s, t, q),
        lambda s: isinstance(s, tuple) and all(map(q.contains, s)),
    )


def is_bad(seq: Sequence, q: QuasiOrder) -> Optional[tuple[int, int]]:
    """First good pair ``i < j`` with ``seq[i] <= seq[j]``, or None if bad."""
    q.require_all(seq)
    leq = q.leq
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if leq(seq[i], seq[j]):
                return (i, j)
    return None


def min_bad_sequence(
    q: QuasiOrder, universe_bound: int, length: int
) -> Optional[tuple[int, ...]]:
    """The lexicographically least bad sequence of the given length over
    ``0 .. universe_bound - 1``, or None if there is none.

    Depth-first search in ascending item order extends only bad prefixes, and
    every prefix of a bad sequence is bad, so the first sequence it completes
    is the least.  Raises `NegativeCount` when ``universe_bound`` or
    ``length`` is negative.
    """
    for name, count in (("universe_bound", universe_bound), ("length", length)):
        if count < 0:
            raise NegativeCount(f"{name} must be at least 0, got {count}")
    universe = [x for x in range(universe_bound) if q.contains(x)]
    leq = q.leq

    def dfs(prefix: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if len(prefix) == length:
            return prefix
        for v in universe:
            if any(leq(p, v) for p in prefix):
                continue
            found = dfs(prefix + (v,))
            if found is not None:
                return found
        return None

    return dfs(())


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


@record
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
            raise InvalidTree("labels and parent array must have equal length")
        roots = [i for i, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise InvalidTree("a tree has exactly one root")
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
            raise InvalidTree("parent array contains a cycle")
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
        q.require_all(s_tree.labels)
        q.require_all(t_tree.labels)
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
