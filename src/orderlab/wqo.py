"""Subsequence and labelled-tree embeddings, bad sequences, and the
minimal-bad-sequence step.

Sequences over a quasi-order embed by strictly increasing index maps with
pointwise domination; finite rooted labelled trees embed by injective,
meet-preserving, label-dominating node maps.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Hashable, Iterable, Optional, Sequence

from ._record import record
from .errors import InvalidNode, InvalidTree, NegativeCount, PreconditionViolation
from .order import QuasiOrder, divisibility, natural_order

_NATURAL = natural_order()
_DIVIDES = divisibility()


def higman_leq(sigma: Sequence, tau: Sequence, q: QuasiOrder) -> bool:
    """Subsequence embedding: a strictly increasing index map with
    ``sigma[i] <= tau[f(i)]`` pointwise.

    Every item of both sequences must lie in the universe: `QuasiOrder.require_all`
    checks ``sigma`` and then ``tau``, in one C-level pass each on the
    natural families, and reports the first item outside.  The greedy scan
    `_embeds` then decides it.  When a compiled quasi-order is asked about
    the same ``tau`` many times in a row, the earliest matches are read from
    the next-occurrence table of ``tau`` instead, one column lookup per item
    of ``sigma``.  A call whose ``tau`` is the very tuple the table was built
    for reads it in place; any other call asks `CompiledOrder.next_table`.
    """
    compiled = q.compiled
    if compiled is not None:
        try:
            table = compiled.table
            if tau is not compiled.target or table is None:
                table = compiled.next_table(tau)
            if table is not None:
                j = 0
                for x in sigma:
                    j = table[x][j]
                return j != len(tau) + 1
        except (KeyError, TypeError):
            pass  # the checks below report the first item outside the universe
    q.require_all(sigma)
    q.require_all(tau)
    return _embeds(sigma, tau, q.leq)


def _embeds(sigma: Sequence, tau: Sequence, leq) -> bool:
    """The embedding decision for items already known to be in the universe.

    A greedy earliest-match scan, which is complete: any embedding can be
    pushed left one position at a time.  It walks one iterator over ``tau``,
    so each item of ``sigma`` resumes just past the previous match.
    """
    rest = iter(tau)
    for x in sigma:
        for y in rest:
            if leq(x, y):
                break
        else:
            return False
    return True


def higman_lift(q: QuasiOrder) -> QuasiOrder:
    """Finite sequences over ``q`` quasi-ordered by subsequence embedding.

    Its ``contains`` checks every item of a sequence.  Its ``leq`` decides
    members only, as `operator.le` does for `natural_order`: it runs the
    scan of `higman_leq` without the membership checks, which `is_bad` and
    `barrier.bad_array_violations` have already made once per entry through
    ``contains``.
    """
    leq = q.leq
    return QuasiOrder(
        f"seqs({q.name})",
        lambda s, t: _embeds(s, t, leq),
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
    is the least.  The search keeps one iterator over the universe per
    position of the prefix on an explicit stack, so no length reaches the
    recursion limit.  Raises `NegativeCount` when ``universe_bound`` or
    ``length`` is negative.
    """
    for name, count in (("universe_bound", universe_bound), ("length", length)):
        if count < 0:
            raise NegativeCount(f"{name} must be at least 0, got {count}")
    universe = [x for x in range(universe_bound) if q.contains(x)]
    leq = q.leq
    prefix: list[int] = []
    pending = [iter(universe)]
    while len(prefix) < length:
        for v in pending[-1]:
            if not any(leq(p, v) for p in prefix):
                prefix.append(v)
                pending.append(iter(universe))
                break
        else:
            pending.pop()
            if not prefix:
                return None
            prefix.pop()
    return tuple(prefix)


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
    meets (deepest common ancestors) always exist.  Construction keeps the
    breadth-first node order of its validation walk, parents before
    children; `ktree_leq` reads one entry per order the tree meets, built
    on first use and kept.  Equality, hashing and ``repr`` ignore both.
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
        order = [roots[0]]
        for v in order:
            order += children[v]
        if len(order) != n:
            raise InvalidTree("parent array contains a cycle")
        object.__setattr__(self, "_root", roots[0])
        object.__setattr__(self, "_children", tuple(map(tuple, children)))
        object.__setattr__(self, "_order", order)

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

    @functools.cached_property
    def _shape(self) -> tuple[list[int], list[int], list[int]]:
        """The non-root nodes, each after every node below it, then each
        node's subtree size and height (the nodes on its longest downward
        path), summed up in that order."""
        below, parent = self._order[:0:-1], self.parent
        size, height = [1] * len(parent), [1] * len(parent)
        for v in below:
            p = parent[v]
            size[p] += size[v]
            if height[p] <= height[v]:
                height[p] = height[v] + 1
        return below, size, height

    @functools.cached_property
    def _by_order(self) -> dict:
        """`_entry`'s entry for each order the tree has met."""
        return {}

    def _entry(self, q: QuasiOrder, key: Hashable) -> tuple:
        """The entry `ktree_leq` reads under ``q``, built on a miss of
        `_by_order` and kept there under ``key``: ``q.compiled``, or ``q``
        itself when it has none.  Per node under a compiled order: its
        label's up-set row and bit, the OR of the label bits in its subtree,
        and the complement of the OR of their down-set rows.  Under any
        other: its label twice, then twice the greatest label in its subtree
        under `natural_order`, the same with 0 read as +∞ under
        `divisibility`, or 0.  Then `_shape`'s subtree sizes and heights,
        and the children.  A label outside the universe raises
        `UnknownElement`, and nothing is kept.
        """
        labels, parent = self.labels, self.parent
        below, size, height = self._shape
        if key is q:
            q.require_all(labels)
            if q == _NATURAL:
                top = list(labels)
            elif q == _DIVIDES:
                top = [x or math.inf for x in labels]
            else:
                top = [0] * len(labels)
            for v in below:
                p = parent[v]
                if top[p] < top[v]:
                    top[p] = top[v]
            rows = bits = labels
            mask = cover = top
        else:
            ids, up = key.ids, key.up
            try:
                at = [ids[lab] for lab in labels]
            except (KeyError, TypeError):
                q.require_all(labels)  # names the first label outside the universe
                raise
            down = key.down
            bits = [1 << i for i in at]
            mask, cover = bits[:], [down[i] for i in at]
            for v in below:
                p = parent[v]
                mask[p] |= mask[v]
                cover[p] |= cover[v]
            rows, cover = [up[i] for i in at], [~c for c in cover]
        self._by_order[key] = entry = rows, bits, mask, cover, size, height, self._children
        return entry


# What the outcome of a ktree_leq frame's sweep means: a source child's
# greedy match, a step of an augmenting path, or a descent into a target child.
_MATCH, _AUGMENT, _DESCEND = range(3)


def ktree_leq(s_tree: KTree, t_tree: KTree, q: QuasiOrder) -> bool:
    """Tree embedding: an injective meet-preserving map with dominated labels.

    Such a map sends the source root to some node ``v`` with a dominating
    label and the root's child subtrees into distinct child subtrees of
    ``v``.  One loop decides that shape over an explicit stack of frames,
    one per (source node, target node) pair it has to settle, with each
    pair's answer memoised; a frame waiting on a pair re-reads the memo
    when it resumes, so a deep tree meets no recursion limit.  Each source
    child takes the first free target child it embeds into, and only a
    child with none left starts an augmenting-path search (Kuhn 1955),
    kept in its frame as a path of (child, position) entries.  Two cases
    need no frame: a source leaf embeds wherever its label is dominated,
    and a non-leaf never embeds into a target leaf.  A source node with one
    child needs no matching, only some target child that takes the child.

    Before a frame opens for a pair (a, b), three necessary conditions
    rule it out: a's subtree has no more nodes and no greater height than
    b's, and every label in a's subtree lies below some label in b's.  The
    label condition is one bit test when ``q`` is compiled, and compares
    subtree maxima under `natural_order` and under `divisibility`, where 0
    reads as +∞ on both sides: x | y with y > 0 forces 0 < x <= y, and 0
    divides only 0.  Other orders get the size and height tests only.  Each
    tree keeps one entry per order it meets, which holds the arrays behind
    the tests with the labels and children, so a query reads each tree's
    with one lookup.  The tests cut adversarial shapes only, such as a path
    that does not embed into a path: inputs that pass them all still settle
    Θ(|S|·|T|) pairs, as Chung's bipartite-matching recursion does (1987).
    Labels are compared through the up-set bitmasks when ``q`` is compiled.
    Every label is checked once per tree and order, when its entry is
    built, the source's first, before any test can answer.
    """
    key = q.compiled
    if key is None:
        key, leq, beyond = q, q.leq, operator.gt
    else:
        # a label's up-set row and bit meet when it is dominated, and the
        # subtree bits and the complemented cover meet when a pair is dead
        leq = beyond = operator.and_
    s_labels, _, s_key, _, s_size, s_height, s_children = (
        s_tree._by_order.get(key) or s_tree._entry(q, key)
    )
    _, t_labels, _, t_key, t_size, t_height, t_children = (
        t_tree._by_order.get(key) or t_tree._entry(q, key)
    )
    # The roots settle the query with no frame when the source root is a
    # dominated leaf, or when the pair is dead or the target root a leaf.
    a, b = s_tree.root, t_tree.root
    if not s_children[a] and leq(s_labels[a], t_labels[b]):
        return True
    if not (
        t_children[b]
        and s_size[a] <= t_size[b]
        and s_height[a] <= t_height[b]
        and not beyond(s_key[a], t_key[b])
    ):
        return False
    m = len(t_children)
    memo: dict[int, bool] = {}
    stack: list[tuple] = []
    i = assign = path = None
    while True:
        # A frame settles the pair (sv, tv) by sweeps of the form "the first
        # target node b drawn from ``it`` and not in ``skip`` that the source
        # node ``a`` embeds into"; the stage says what a sweep's outcome means.
        sv, tv = a, b
        left, right = s_children[a], t_children[b]
        if left and len(left) <= len(right) and leq(s_labels[a], t_labels[b]):
            stage, i, a, it = _MATCH, 0, left[0], iter(right)
            skip = assign = {} if len(left) > 1 else ()
        else:
            stage, it, skip = _DESCEND, iter(right), ()
        while True:
            a_leaf = not s_children[a]
            for b in it:
                if b in skip:
                    continue
                if a_leaf and leq(s_labels[a], t_labels[b]):
                    known = True
                    break
                if t_children[b]:
                    known = memo.get(a * m + b)
                    if known is None:  # not settled yet: open a frame unless the pair is dead
                        if (
                            s_size[a] <= t_size[b]
                            and s_height[a] <= t_height[b]
                            and not beyond(s_key[a], t_key[b])
                        ):
                            break
                    elif known:
                        break
            else:
                b = None
            if b is not None and not known:
                # a frame for the pair (a, b), to resume this one when it is settled
                stack.append((sv, tv, left, right, stage, i, a, it, skip, assign, path, b))
                break
            while True:
                if stage == _MATCH:
                    if b is None:
                        if not i:  # with no target child taken, the sweep has tried them all
                            stage, a, it, skip = _DESCEND, sv, iter(right), ()
                        else:
                            stage, it, skip, path = _AUGMENT, iter(right), set(), []
                        break
                    i += 1
                    if i == len(left):
                        result = True
                    else:
                        assign[b] = a
                        a, it = left[i], iter(right)
                        break
                elif stage == _DESCEND:
                    result = b is not None
                else:  # _AUGMENT
                    if b is not None:
                        skip.add(b)
                        owner = assign.get(b)
                        if owner is not None:
                            path.append((a, it, b))
                            a, it = owner, iter(right)
                            break
                        assign[b] = a
                        for child, _, taken in path:
                            assign[taken] = child
                        i += 1
                        if i < len(left):
                            stage, a, it, skip = _MATCH, left[i], iter(right), assign
                            break
                        result = True
                    elif path:
                        a, it, _ = path.pop()
                        break
                    else:
                        stage, a, it, skip = _DESCEND, sv, iter(right), ()
                        break
                if not stack:
                    return result
                memo[sv * m + tv] = result
                sv, tv, left, right, stage, i, a, it, skip, assign, path, b = stack.pop()
                if not result:
                    break


def subtree(tree: KTree, v: int) -> KTree:
    """Subtree rooted at ``v``, renumbered in preorder (children by id)."""
    tree.require(v)
    children = tree._children
    order: list[int] = []
    stack = [v]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node]))
    index = {old: new for new, old in enumerate(order)}
    parent = tuple(
        -1 if old == v else index[tree.parent[old]] for old in order
    )
    return KTree(parent, tuple(tree.labels[old] for old in order))


def ktree_key(tree: KTree):
    """Canonical structure key; equal keys mean isomorphic labelled trees.

    The key of a node is its label's repr with the sorted keys of its
    children; the tree's node order, reversed, builds every child's key
    before its parent's.
    """
    children, labels = tree._children, tree.labels
    keys: dict[int, tuple] = {}
    for v in reversed(tree._order):
        keys[v] = (repr(labels[v]), tuple(sorted(keys[c] for c in children[v])))
    return keys[tree.root]
