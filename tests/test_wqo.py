import enum
import itertools
import random
import re
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

from orderlab import oracles
from orderlab.errors import (
    InvalidNode,
    InvalidTree,
    NegativeCount,
    PreconditionViolation,
    UnknownElement,
)
from orderlab.order import (
    QuasiOrder,
    divisibility,
    finite_quasi_order,
    natural_equality,
    natural_order,
    quasi_from_poset,
    validate_poset,
)
from orderlab.wqo import (
    KTree,
    higman_leq,
    higman_lift,
    is_bad,
    ktree_key,
    ktree_leq,
    min_bad_sequence,
    nash_williams_step,
    subtree,
)


def test_higman_basics():
    leq = natural_order()
    assert higman_leq((), (4, 2), leq)
    assert higman_leq((1, 2), (0, 1, 3), leq)
    assert not higman_leq((3, 1), (1, 3), leq)
    assert not higman_leq((0, 0), (0,), leq)
    div = divisibility()
    assert higman_leq((2, 3), (4, 2, 9), div)


def test_higman_lift_is_a_quasi_order():
    lifted = higman_lift(natural_equality())
    assert lifted.leq((1, 2), (0, 1, 0, 2))
    assert not lifted.leq((1, 2), (2, 1))
    assert lifted.contains((0, 5)) and not lifted.contains([0])


def test_is_bad_divisibility_chain():
    div = divisibility()
    assert is_bad((12, 6, 3), div) is None
    assert is_bad((12, 6, 3, 12), div) == (0, 3)
    assert is_bad((), div) is None


def test_is_bad_matches_the_first_good_pair_reference():
    # itertools.combinations lists the pairs i < j in lexicographic order
    for q in oracles.quasi_orders_upto(3):
        universe = [x for x in range(3) if q.contains(x)]
        for length in range(5):
            for seq in itertools.product(universe, repeat=length):
                pairs = itertools.combinations(range(length), 2)
                first = next(((i, j) for i, j in pairs if q.leq(seq[i], seq[j])), None)
                assert is_bad(seq, q) == first, (q.name, seq)


def test_min_bad_sequence_frozen():
    assert min_bad_sequence(natural_equality(), 5, 3) == (0, 1, 2)
    assert min_bad_sequence(natural_order(), 5, 3) == (2, 1, 0)
    assert min_bad_sequence(natural_order(), 5, 6) is None


def test_min_bad_sequence_is_the_least_bad_sequence():
    # itertools.product enumerates each length in lexicographic order.
    for q in oracles.quasi_orders_upto(3):
        for bound in range(5):
            universe = [x for x in range(bound) if q.contains(x)]
            for length in range(5):
                least = next(
                    (
                        seq
                        for seq in itertools.product(universe, repeat=length)
                        if not any(
                            q.leq(seq[i], seq[j])
                            for i in range(length)
                            for j in range(i + 1, length)
                        )
                    ),
                    None,
                )
                assert min_bad_sequence(q, bound, length) == least, (q.name, bound, length)


@pytest.mark.parametrize("universe_bound, length", [(-1, 3), (5, -1)])
def test_min_bad_sequence_rejects_negative_counts(universe_bound, length):
    with pytest.raises(NegativeCount):
        min_bad_sequence(natural_equality(), universe_bound, length)


def test_nash_williams_step_frozen():
    eq = natural_equality()
    seqs = ((0, 1, 1), (2, 1), (3, 1))
    assert nash_williams_step(seqs, {1, 2}, eq) == ((0, 1, 1), (2,), (3,))
    assert nash_williams_step(seqs, {0, 1, 2}, eq) == ((0, 1), (2,), (3,))


def test_nash_williams_step_clauses():
    eq = natural_equality()
    good = ((0, 1, 1), (2, 1), (3, 1))
    cases = [
        (good, (), "s-non-empty"),
        (good, {5}, "s-in-window"),
        (((0, 1), (), (3, 1)), {0}, "entries-non-empty"),
        (((1,), (1, 2)), {0}, "input-bad"),
        (((0, 2), (1, 3)), {0, 1}, "perfect-on-s"),
    ]
    for seqs, s, clause in cases:
        with pytest.raises(PreconditionViolation) as err:
            nash_williams_step(seqs, s, eq)
        assert err.value.clause == clause


def chain2():
    return finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")


def anti2():
    return finite_quasi_order((0, 1), [(0, 0), (1, 1)], "anti2")


def test_ktree_validation():
    with pytest.raises(InvalidTree):
        KTree((0, -1), (0, 0))
    with pytest.raises(InvalidNode):
        KTree((-1, 5), (0, 0))
    with pytest.raises(InvalidTree):
        KTree((-1,), (0, 0))
    with pytest.raises(InvalidTree):
        KTree((-1, -1), (0, 0))
    t = KTree((-1, 0, 0), (0, 1, 0))
    assert t.size == 3 and t.root == 0
    assert t.children(0) == (1, 2)


def test_ktree_leq_directions():
    single = KTree((-1,), (0,))
    pair = KTree((-1, 0), (0, 1))
    assert ktree_leq(single, pair, chain2())
    assert not ktree_leq(pair, single, chain2())
    # the antichain forbids mapping label 0 onto label 1
    low_child = KTree((-1, 0), (1, 0))
    assert ktree_leq(single, low_child, anti2())
    assert not ktree_leq(single, KTree((-1, 0), (1, 1)), anti2())


def test_ktree_leq_needs_meet_preservation():
    # a 2-chain embeds into a 3-chain but a 3-star does not: images of the
    # star's two leaves would meet at the image of the root or below it
    chain3 = KTree((-1, 0, 1), (0, 0, 0))
    star3 = KTree((-1, 0, 0), (0, 0, 0))
    q = anti2()
    assert ktree_leq(KTree((-1, 0), (0, 0)), chain3, q)
    assert not ktree_leq(star3, chain3, q)
    assert ktree_leq(chain3, chain3, q)


def test_ktree_leq_reassigns_a_greedy_child():
    # child label 1 takes the first free target child (label 2); child
    # label 2 then fits only there, so the search moves label 1 to label 1
    source = KTree((-1, 0, 0), (0, 1, 2))
    assert ktree_leq(source, KTree((-1, 0, 0), (0, 2, 1)), natural_order())
    assert not ktree_leq(source, KTree((-1, 0, 0), (0, 2, 0)), natural_order())


def test_ktree_leq_deep_path_into_itself():
    # 5,000 levels, far past the interpreter's recursion limit: the search
    # keeps its one frame per level on a list
    path = KTree((-1,) + tuple(range(4999)), (0,) * 5000)
    assert ktree_leq(path, path, natural_order())


def test_ktree_leq_deep_path_under_a_high_root():
    # the source root's label is above every target label, so the search
    # descends the whole target path, one frame per level, before it answers
    target = KTree((-1,) + tuple(range(4999)), (0,) * 5000)
    source = KTree(target.parent, (1,) + (0,) * 4999)
    assert not ktree_leq(source, target, natural_order())


def _reference_ktree_leq(s_tree, t_tree, q):
    """Reference for `ktree_leq`: its earlier recursive search, word for
    word.  It decides the same embeddings, but a tree deeper than the
    interpreter's recursion limit ends it in `RecursionError`."""
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


def _random_ktree(rng, n, labels, shape):
    if shape == "path":
        parent = (-1, *range(n - 1))
    elif shape == "star":
        parent = (-1, *(0,) * (n - 1))
    elif shape == "bushy":
        parent = (-1, *(rng.randrange(min(i, 3)) for i in range(1, n)))
    else:
        parent = (-1, *(rng.randrange(i) for i in range(1, n)))
    return KTree(parent, tuple(rng.choice(labels) for _ in range(n)))


def _ktree_pairs(rng, orders, labels):
    """Seeded (order, source, target) triples: 3,000 of random, bushy, path
    and star shapes with up to 9 and 14 nodes, then 1,000 stars into stars
    with up to two spare leaves, where greedy matches block each other and
    the augmenting search has to move them."""
    shapes = ("random", "bushy", "path", "star")
    for k in range(4000):
        q = rng.choice(orders)
        items = sorted(q.elements) if labels is None else labels
        if k < 3000:
            s_shape, t_shape = rng.choice(shapes), rng.choice(shapes)
            s_size, t_size = rng.randint(1, 9), rng.randint(1, 14)
        else:
            s_shape = t_shape = "star"
            s_size = rng.randint(3, 7)
            t_size = s_size + rng.randint(0, 2)
        yield (
            q,
            _random_ktree(rng, s_size, items, s_shape),
            _random_ktree(rng, t_size, items, t_shape),
        )


@pytest.mark.parametrize(
    "orders, labels",
    [
        (oracles.quasi_orders_upto(3), None),
        ([natural_order()], range(4)),
        ([divisibility()], range(1, 7)),
        # 0 is the top of divisibility, so no rule on label maxima holds there
        ([divisibility()], range(0, 7)),
    ],
    ids=["compiled-upto-3", "natural-leq", "divides", "divides-with-0"],
)
def test_ktree_leq_matches_the_recursive_reference(orders, labels):
    rng = random.Random(f"ktree-reference-{orders[0].name}")
    verdicts = set()
    for q, s_tree, t_tree in _ktree_pairs(rng, orders, labels):
        want = _reference_ktree_leq(s_tree, t_tree, q)
        assert ktree_leq(s_tree, t_tree, q) is want, (s_tree, t_tree, q.name)
        verdicts.add(want)
    assert verdicts == {True, False}


def _chain(n):
    return finite_quasi_order(range(n), [(x, y) for x in range(n) for y in range(x, n)], f"chain{n}")


def _path(labels):
    return KTree((-1,) + tuple(range(len(labels) - 1)), tuple(labels))


def _star(labels):
    return KTree((-1,) + (0,) * (len(labels) - 1), tuple(labels))


@pytest.mark.parametrize(
    "q, low, mid, high",
    [(_chain(3), 0, 1, 2), (natural_order(), 0, 1, 2), (divisibility(), 1, 2, 3)],
    ids=["compiled", "natural-leq", "divides"],
)
def test_each_filter_alone_rules_out_a_pair(q, low, mid, high):
    # At the root pair exactly one condition fails: the source has more
    # nodes, or more height, or a label below no target label.  The label
    # rule applies to the compiled orders, natural-leq and divides.
    cases = [
        (_star((low,) * 4), _path((mid,) * 3), _star((mid,) * 4)),  # larger
        (_path((low,) * 3), _star((mid,) * 5), _path((mid,) * 3)),  # taller
        (_path((high,)), _path((low, mid, low, mid)), _path((low, mid, high))),  # label above
    ]
    for s_tree, dead, alive in cases:
        assert _reference_ktree_leq(s_tree, dead, q) is False
        assert ktree_leq(s_tree, dead, q) is False
        assert _reference_ktree_leq(s_tree, alive, q) is True
        assert ktree_leq(s_tree, alive, q) is True


@pytest.mark.parametrize("q", [chain2(), natural_order(), divisibility()], ids=lambda q: q.name)
def test_a_bad_label_raises_before_the_filters(q):
    # the source is larger than the target, so the size test alone would say False
    small = KTree((-1,), (1,))
    for bad in (-1, [1]):
        message = f"^{re.escape(repr(bad))} is outside the universe of {q.name}$"
        with pytest.raises(UnknownElement, match=message):
            ktree_leq(KTree((-1, 0, 0), (1, 1, bad)), small, q)
        with pytest.raises(UnknownElement, match=message):
            ktree_leq(KTree((-1, 0, 0), (1, 1, 1)), KTree((-1,), (bad,)), q)


def test_ktree_identity_ignores_the_cached_arrays():
    warm = KTree((-1, 0, 0, 1), (0, 1, 1, 0))
    cold = KTree(warm.parent, warm.labels)
    for q in (chain2(), anti2(), natural_order(), divisibility()):
        assert ktree_leq(warm, warm, q)
    assert len(vars(warm)) > len(vars(cold))
    # one tree keeps one entry per order it met, compiled or not
    assert len(warm._by_order) == 4
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)


def _brute_shape(tree):
    """Each node's subtree size and height, and its children, from the
    parent array alone."""
    n = len(tree.parent)

    def up(v):  # v and every node above it
        while v != -1:
            yield v
            v = tree.parent[v]

    depth = [len(list(up(v))) for v in range(n)]
    size, height = [0] * n, [0] * n
    for v in range(n):
        for u in up(v):
            size[u] += 1
            height[u] = max(height[u], depth[v] - depth[u] + 1)
    return size, height, tuple(_scan_children(tree, v) for v in range(n))


def test_each_order_entry_holds_its_own_tree_shape():
    rng = random.Random("order-entry")
    orders = [chain2(), anti2(), _chain(3)]
    shapes = ("random", "bushy", "path", "star")
    for _ in range(300):
        q = rng.choice(orders)
        items = sorted(q.elements)
        s_tree, t_tree = (
            _random_ktree(rng, rng.randint(1, 12), items, rng.choice(shapes)) for _ in range(2)
        )
        ktree_leq(s_tree, t_tree, q)
        for tree in (s_tree, t_tree):
            size, height, children = tree._by_order[q.compiled][4:]
            assert (size, height, children) == _brute_shape(tree)
            assert (size, height, children) == (*tree._shape[1:], tree._children)


def test_a_tree_used_as_source_and_as_target_holds_one_entry_per_order():
    tree = KTree((-1, 0, 0, 1), (0, 1, 1, 0))
    other = KTree((-1, 0), (1, 0))
    for q in (chain2(), anti2()):
        ktree_leq(tree, other, q)
        entry = tree._by_order[q.compiled]
        assert ktree_leq(other, tree, q) and ktree_leq(tree, tree, q)
        assert tree._by_order[q.compiled] is entry
    assert len(tree._by_order) == len(other._by_order) == 2


@pytest.mark.parametrize("bad_source", [True, False], ids=["source", "target"])
@pytest.mark.parametrize(
    "q, bad",
    [(chain2(), 5), (chain2(), [1]), (natural_order(), -1), (divisibility(), -1)],
    ids=["unknown", "unhashable", "natural-leq", "divides"],
)
def test_a_bad_label_keeps_no_entry(bad_source, q, bad):
    good, wrong = KTree((-1, 0), (0, 1)), KTree((-1, 0), (0, bad))
    message = f"^{re.escape(repr(bad))} is outside the universe of {q.name}$"
    for _ in range(2):
        with pytest.raises(UnknownElement, match=message):
            ktree_leq(*((wrong, good) if bad_source else (good, wrong)), q)
    assert wrong._by_order == {}
    # the source is checked first, so a good target behind a bad source keeps none
    assert len(good._by_order) == (0 if bad_source else 1)


def test_each_tree_checks_its_labels_once_per_order(monkeypatch):
    checked = []
    require_all = QuasiOrder.require_all

    def counted(q, items):
        checked.append((q.name, items))
        return require_all(q, items)

    monkeypatch.setattr(QuasiOrder, "require_all", counted)
    s_tree, t_tree = KTree((-1, 0), (0, 1)), KTree((-1, 0, 0), (1, 0, 1))
    chain = chain2()
    for _ in range(3):
        # the infinite families, built afresh, are equal orders and share one entry
        for q in (natural_order(), natural_equality(), divisibility(), chain):
            for pair in ((s_tree, t_tree), (t_tree, s_tree), (s_tree, s_tree)):
                ktree_leq(*pair, q)
    # a compiled order reads its ids, so only the uncompiled ones call require_all
    names = ("natural-leq", "natural-eq", "divides")
    assert sorted(checked) == sorted((n, t.labels) for n in names for t in (s_tree, t_tree))
    assert len(s_tree._by_order) == len(t_tree._by_order) == 4


def _dead_pair(shape, n, rng):
    """A source of ``n`` nodes whose one label 10, on its last node, is
    above every label of a target of ``3n/2`` nodes with the same shape:
    a path, or a bushy tree whose nodes hang off one of the three nodes
    before them."""
    def tree(labels):
        if shape == "path":
            return _path(labels)
        parent = (-1,) + tuple(rng.randrange(max(0, i - 3), i) for i in range(1, len(labels)))
        return KTree(parent, tuple(labels))

    target = tree([rng.randrange(10) for _ in range(n * 3 // 2)])
    return tree([rng.randrange(10) for _ in range(n - 1)] + [10]), target


@pytest.mark.parametrize("shape", ["path", "bushy"])
@pytest.mark.parametrize("q", [natural_order(), _chain(11)], ids=lambda q: q.name)
def test_a_dead_5000_node_source_is_ruled_out_at_the_root(q, shape):
    # The label rule answers at the root pair, before any label comparison.
    # Without it the search settled every pair, for tens of seconds on the path.
    s_tree, t_tree = _dead_pair(shape, 5000, random.Random(f"dead-{shape}"))
    start = time.perf_counter()
    assert not ktree_leq(s_tree, t_tree, q)
    assert time.perf_counter() - start < 1.0


def test_a_dead_divisibility_path_is_ruled_out_at_the_root():
    # 11 divides none of the labels 1..10, and the target holds no 0, so the
    # rule on subtree maxima answers at the root pair.  Without it the
    # search settled every pair, for about 20 seconds.
    s_tree = _path((1,) * 4999 + (11,))
    t_tree = _path(tuple(i % 10 + 1 for i in range(7500)))
    start = time.perf_counter()
    assert not ktree_leq(s_tree, t_tree, divisibility())
    assert time.perf_counter() - start < 1.0


def test_a_zero_in_the_target_subtree_keeps_a_divisibility_pair_alive():
    # every label divides 0, so 7 embeds below a 2 although 7 > 2; and a 0
    # in the source embeds only into a 0
    q = divisibility()
    assert q == divisibility() and hash(q) == hash(divisibility())
    for s_tree, t_tree, want in [
        (_path((3, 7)), _path((2, 0, 0)), True),
        (_path((3, 7)), _path((2, 6, 5)), False),
        (_path((0,)), _path((5, 0)), True),
        (_path((1, 0)), _path((5, 10)), False),
        (_star((1, 7, 0)), _star((2, 0, 0)), True),
    ]:
        assert _reference_ktree_leq(s_tree, t_tree, q) is want
        assert ktree_leq(s_tree, t_tree, q) is want


def test_size_and_height_cut_the_leq_calls_on_a_dead_bushy_source():
    # An order that is not compiled, natural-leq or divides gets no label rule,
    # only the size and height tests, so the search still runs; the count
    # is of its leq calls: 269 here, and 11,964 without the tests.
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return x <= y

    q = QuasiOrder("counted-leq", counted, natural_order().contains)
    s_tree, t_tree = _dead_pair("bushy", 600, random.Random("counted"))
    assert not ktree_leq(s_tree, t_tree, q)
    assert len(calls) <= 1000


def test_subtree_renumbers_in_preorder():
    t = KTree((-1, 0, 0, 2), (3, 1, 4, 1))
    assert subtree(t, 2).labels == (4, 1)
    # a bushy tree numbered breadth first, each node labelled by its id
    bushy = KTree((-1, 0, 0, 0, 1, 1, 2, 4, 3, 3), tuple(range(10)))
    whole = subtree(bushy, 0)
    assert whole.labels == (0, 1, 4, 7, 5, 2, 6, 3, 8, 9)
    assert whole.parent == (-1, 0, 1, 2, 1, 0, 5, 0, 7, 7)
    assert subtree(bushy, 1) == KTree((-1, 0, 1, 0), (1, 4, 7, 5))
    assert subtree(bushy, 9) == KTree((-1,), (9,))
    for v in (-1, 10):
        with pytest.raises(InvalidNode):
            subtree(bushy, v)


def test_ktree_key_is_isomorphism_invariant():
    a = KTree((-1, 0, 0), (0, 1, 2))
    b = KTree((-1, 0, 0), (0, 2, 1))
    assert ktree_key(a) == ktree_key(b)
    assert ktree_key(a) != ktree_key(KTree((-1, 0, 1), (0, 1, 2)))


def test_ktree_key_separates_the_oracle_trees_under_any_numbering():
    """The oracle's trees are pairwise non-isomorphic, so their keys are
    distinct; renumbering a tree's nodes, root kept at 0, keeps its key."""
    trees = oracles.all_ktrees(5, (0, 1))
    keys = [ktree_key(t) for t in trees]
    assert len(trees) == len(set(keys)) == 286
    rng = random.Random("ktree-key-renumbering")
    for tree, key in zip(trees, keys):
        for _ in range(3):
            rest = rng.sample(range(1, tree.size), tree.size - 1)
            new = (0, *rest)
            parent, labels = [-1] * tree.size, [None] * tree.size
            for v, p in enumerate(tree.parent):
                parent[new[v]] = -1 if p == -1 else new[p]
                labels[new[v]] = tree.labels[v]
            assert ktree_key(KTree(tuple(parent), tuple(labels))) == key


@pytest.mark.xfail(raises=RecursionError, strict=True)
def test_ktree_key_of_two_equal_deep_child_paths():
    """ROADMAP item 4: the key is built without recursing, but sorting two
    equal deep child keys compares the nested tuples recursively in C.
    Paths of 6,000 nodes nest that comparison 12,000 deep, past the
    recursion limits of CPython 3.10 to 3.13 (1,500 nodes suffice on 3.10
    and 3.11).  Remove the mark when item 4 lands."""
    m = 6000
    parent = (-1, 0, *range(1, m), 0, *range(m + 1, 2 * m))
    key = ktree_key(KTree(parent, (0,) * (2 * m + 1)))
    assert key[0] == "0" and len(key[1]) == 2
    for child in key[1]:
        for _ in range(m - 1):
            assert child[0] == "0" and len(child[1]) == 1
            child = child[1][0]
        assert child == ("0", ())


@settings(derandomize=True, max_examples=40)
@given(
    st.lists(st.integers(0, 2), max_size=4),
    st.lists(st.integers(0, 2), max_size=4),
)
def test_higman_matches_injection_search(sigma, tau):
    leq = natural_order()
    assert higman_leq(sigma, tau, leq) == oracles.brute_higman(sigma, tau, leq)


def _reference_higman(sigma, tau, q):
    """Reference for `higman_leq` on an uncompiled order: a membership loop
    per sequence, ``sigma`` first, then an index scan over ``tau``."""
    for item in sigma:
        if not q.contains(item):
            raise UnknownElement(f"{item!r} is outside the universe of {q.name}")
    for item in tau:
        if not q.contains(item):
            raise UnknownElement(f"{item!r} is outside the universe of {q.name}")
    j, m = 0, len(tau)
    for x in sigma:
        while j < m and not q.leq(x, tau[j]):
            j += 1
        if j == m:
            return False
        j += 1
    return True


def _outcome(route, *args):
    try:
        return route(*args)
    except Exception as exc:
        return type(exc), str(exc)


FAMILIES = (natural_order(), natural_equality(), divisibility())


def _below(x, q, rng):
    """An item below ``x`` in ``q``, so that swapping it in keeps an embedding."""
    if q.name == "natural-leq":
        return rng.randint(0, x)
    if q.name == "divides":
        return rng.choice([d for d in range(1, x + 1) if x % d == 0]) if x else rng.randrange(9)
    return x


@pytest.mark.parametrize("q", FAMILIES, ids=lambda q: q.name)
def test_family_higman_matches_the_reference(q):
    rng = random.Random(f"family-scan-{q.name}")
    verdicts = set()
    for m in (0, 1, 2, 3, 10, 100, 1000, 3000):
        tau = tuple(rng.randrange(12) for _ in range(m))
        for n in sorted({0, 1, m // 2, m, m + 1, 2 * m + 3}):
            picks = sorted(rng.sample(range(m), min(n, m)))
            embedded = [_below(tau[i], q, rng) for i in picks]
            sigmas = [tuple(embedded), tuple(rng.randrange(12) for _ in range(n))]
            if embedded:
                spoiled = list(embedded)
                spoiled[rng.randrange(len(spoiled))] = 13
                sigmas.append(tuple(spoiled))
            for sigma in sigmas:
                want = _reference_higman(sigma, tau, q)
                assert higman_leq(sigma, tau, q) == want, (m, n)
                assert higman_leq(list(sigma), list(tau), q) == want, (m, n)
                verdicts.add(want)
    assert verdicts == {True, False}


class _Small(enum.IntEnum):
    NEG = -2
    TWO = 2


# Items outside the naturals in every family.  A non-negative IntEnum member
# is an int subclass other than bool, so it is a natural and is accepted.
BAD_ITEMS = (True, -1, 2.0, "3", None, _Small.NEG)


@pytest.mark.parametrize("q", FAMILIES, ids=lambda q: q.name)
def test_family_higman_reports_the_first_bad_item(q):
    long = tuple(range(1, 2001))
    assert higman_leq((_Small.TWO,), (4, _Small.TWO), q)
    assert higman_leq(long, long + (_Small.TWO,), q)
    for bad, other in itertools.permutations(BAD_ITEMS, 2):
        cases = [
            ((bad,), ()),
            ((), (bad,)),
            ((1, bad, 2, other), (3,)),
            ((2,), (3, bad, other)),
            ((1, bad), (other, 4)),  # sigma's item is reported before tau's
            (long + (bad,), long),
            (long, long + (bad,) + long + (other,)),
        ]
        for sigma, tau in cases:
            got = _outcome(higman_leq, sigma, tau, q)
            assert got == _outcome(_reference_higman, sigma, tau, q), (sigma[-3:], tau[-3:])
            assert got[0] is UnknownElement


def test_is_bad_and_ktree_leq_report_the_first_bad_item():
    nat = natural_order()
    with pytest.raises(UnknownElement, match="^-1 is outside the universe of natural-leq$"):
        is_bad((3, 1, -1, True), nat)
    with pytest.raises(UnknownElement, match="^True is outside"):
        is_bad(tuple(range(1000)) + (True, -1), nat)
    assert is_bad((_Small.TWO, 1, 2), nat) == (0, 2)
    good = KTree((-1, 0), (0, 1))
    bad_source = KTree((-1, 0, 0), (1, 2.0, -3))
    bad_target = KTree((-1, 0), (True, 0))
    # source labels before target labels, each in node order
    with pytest.raises(UnknownElement, match="^2.0 is outside the universe of natural-leq$"):
        ktree_leq(bad_source, bad_target, nat)
    with pytest.raises(UnknownElement, match="^True is outside the universe of natural-leq$"):
        ktree_leq(good, bad_target, nat)
    with pytest.raises(UnknownElement, match="^True is outside the universe of natural-leq$"):
        ktree_leq(bad_target, bad_source, nat)
    two = KTree((-1,), (_Small.TWO,))
    assert ktree_leq(two, good, divisibility()) and not ktree_leq(two, KTree((-1,), (1,)), nat)


QUASI_ORDERS = oracles.quasi_orders_upto(3)


def _warm(q):
    """Queries in a row against one target after which its table is read."""
    return q.compiled.scans_before_table + 1


@seed(20260)
@settings(max_examples=150, database=None)
@given(st.data())
def test_compiled_higman_matches_injection_search(data):
    q = data.draw(st.sampled_from(QUASI_ORDERS))
    items = st.sampled_from(q.elements)
    tau = data.draw(st.lists(items, max_size=5))
    sigmas = data.draw(st.lists(st.lists(items, max_size=4), min_size=1, max_size=6))
    # Repeated queries against one target go through its next-occurrence table.
    for target in [tuple(tau)] * _warm(q) + [tau]:
        for sigma in sigmas:
            expected = oracles.brute_higman(sigma, tau, q)
            assert higman_leq(sigma, target, q) == expected
            assert higman_leq(tuple(sigma), target, q) == expected


def test_compiled_higman_sees_a_mutated_list_target():
    q = chain2()
    tau = [0, 0]
    for _ in range(_warm(q)):
        assert not higman_leq((1,), tau, q)
    tau[1] = 1
    assert higman_leq((1,), tau, q)
    assert not higman_leq((1, 1), tau, q)
    tau.append(1)
    assert higman_leq((1, 1), tau, q)
    assert higman_leq((0, 1, 1), tau, q)


def test_compiled_higman_same_target_under_two_orders():
    tau = (1, 1)
    for _ in range(3):
        assert higman_leq((0, 1), tau, chain2())
        assert not higman_leq((0, 1), tau, anti2())
    chain, anti = chain2(), anti2()
    for _ in range(_warm(chain)):
        assert higman_leq((0, 0), tau, chain)
        assert not higman_leq((0, 0), tau, anti)


def test_compiled_higman_checks_every_item():
    q = anti2()
    message = "7 is outside the universe of anti2"
    for _ in range(_warm(q)):
        # the prefix (1,) already fails to embed into (0,)
        with pytest.raises(UnknownElement, match=message):
            higman_leq((1, 7), (0,), q)
        with pytest.raises(UnknownElement, match=message):
            higman_leq((1,), (0, 7), q)
    for _ in range(_warm(q)):  # the table for (0, 0) is in use
        assert not higman_leq((1,), (0, 0), q)
    with pytest.raises(UnknownElement, match=message):
        higman_leq((1, 7), (0, 0), q)
    # an unknown item of sigma is reported before one of tau
    for _ in range(_warm(q)):
        with pytest.raises(UnknownElement, match="8 is outside"):
            higman_leq((1, 8), (0, 7), q)


def test_higman_table_after_the_scans():
    q = finite_quasi_order(range(9), [(x, y) for x in range(9) for y in range(x, 9)], "c9")
    compiled = q.compiled
    assert compiled.scans_before_table == 6
    tau = (2, 5, 5, 8)
    for _ in range(compiled.scans_before_table):
        assert compiled.next_table(tau) is None
    table = compiled.next_table(tau)
    assert table is compiled.next_table(list(tau))
    # one column per element, over the positions 0..4 and the fail mark 5
    assert list(table) == list(range(9))
    assert all(len(column) == 6 for column in table.values())
    assert [table[x][0] for x in range(9)] == [1, 1, 1, 2, 2, 2, 4, 4, 4]
    assert [table[x][5] for x in range(9)] == [5] * 9
    assert table[5] == [2, 2, 3, 4, 5, 5] and table[8] == [4, 4, 4, 4, 5, 5]
    assert compiled.next_table((2, 5)) is None


def test_higman_table_for_an_equal_tuple_and_a_changed_list():
    q = chain2()
    tau = (0, 1, 1)
    for _ in range(_warm(q)):
        higman_leq((1,), tau, q)
    table = q.compiled.table
    assert table is not None and q.compiled.target is tau
    # an equal tuple that is another object reads the cached table
    twin = tuple(list(tau))
    assert twin is not tau
    assert q.compiled.next_table(twin) is table
    assert higman_leq((1, 1), twin, q) and not higman_leq((1, 1, 1), twin, q)
    assert q.compiled.target is tau and q.compiled.table is table
    # a list is copied on every call, so a change between calls is seen
    items = list(tau)
    assert q.compiled.next_table(items) is table
    items[2] = 0
    assert q.compiled.next_table(items) is None
    assert not higman_leq((1, 1), items, q)
    assert q.compiled.target == (0, 1, 0) and q.compiled.table is None


def test_higman_true_over_zero_and_one_reads_as_one():
    # True == 1 and hash(True) == hash(1): a finite order over {0, 1} takes
    # True for 1, in the scan and in the table alike
    pairs = [((True,), (0, 1)), ((True,), (0, 0)), ((0, True), (1, 1)), ((1,), (0, True))]
    for q, answers in ((chain2(), [True, False, True, True]), (anti2(), [True, False, False, True])):
        for (sigma, tau), want in zip(pairs, answers):
            for _ in range(_warm(q) + 2):
                assert higman_leq(sigma, tau, q) is want, (q.name, sigma, tau)
            assert q.compiled.table is not None


def test_compiled_form_matches_leq():
    for q in QUASI_ORDERS:
        compiled = q.compiled
        assert compiled is q.compiled
        for x in q.elements:
            for y in q.elements:
                bit = compiled.up[compiled.ids[x]] >> compiled.ids[y] & 1
                assert bool(bit) == q.leq(x, y)
    for q in (natural_order(), natural_equality(), divisibility()):
        assert q.compiled is None
        assert higman_lift(q).compiled is None


def test_large_finite_order_keeps_the_scan():
    # a large finite order is compiled like a small one, and still answers
    # Higman queries and reports unknown items
    n = 200
    q = finite_quasi_order(range(n), [(x, x) for x in range(n)], "anti")
    assert q.compiled is not None and len(q.compiled.up) == n
    assert higman_leq((3, 5), (1, 3, 4, 5), q)
    assert not higman_leq((5, 3), (1, 3, 4, 5), q)
    with pytest.raises(UnknownElement):
        higman_leq((n,), (1,), q)


def test_compiled_form_comes_from_the_rows():
    small = oracles.all_posets(4)
    rng = random.Random("compiled-rows")
    ids = rng.sample(range(1000), 200)
    pairs = [(x, y) for x, y in itertools.combinations(ids, 2) if rng.random() < 0.02]
    large = validate_poset(pairs, ids)
    cases = [(quasi_from_poset(p), {(x, x) for x in p.elements} | p.lt) for p in small + [large]]
    # a finite_quasi_order is compiled from its pairs at any size too
    divides = {(x, y) for x in range(1, 201) for y in range(x, 201, x)}
    cases.append((finite_quasi_order(range(1, 201), divides, "divides200"), divides))
    for q, rel in cases:
        compiled = q.compiled
        assert compiled is not None and compiled.ids == {x: i for i, x in enumerate(q.elements)}
        for x, y in itertools.product(q.elements, repeat=2):
            bit = compiled.up[compiled.ids[x]] >> compiled.ids[y] & 1
            assert bool(bit) == q.leq(x, y) == ((x, y) in rel)
            assert compiled.down[compiled.ids[y]] >> compiled.ids[x] & 1 == bit


def test_higman_over_a_large_poset_agrees_with_the_oracle():
    rng = random.Random("higman-200")
    ids = rng.sample(range(1000), 200)
    pairs = [(x, y) for x, y in itertools.combinations(ids, 2) if rng.random() < 0.05]
    q = quasi_from_poset(validate_poset(pairs, ids))
    tau = tuple(rng.choice(ids) for _ in range(12))
    sigmas = [tuple(rng.choice(ids) for _ in range(rng.randint(0, 5))) for _ in range(50)]
    # two rounds against one target: the later calls read its table
    for sigma in sigmas + sigmas:
        assert higman_leq(sigma, tau, q) == oracles.brute_higman(sigma, tau, q), sigma
    assert q.compiled.next_table(tau) is not None


def test_ktree_leq_checks_labels():
    tree = KTree((-1, 0), (0, 1))
    bad = KTree((-1, 0), (0, 5))
    with pytest.raises(UnknownElement, match="5 is outside the universe of chain2"):
        ktree_leq(bad, tree, chain2())
    with pytest.raises(UnknownElement, match="5 is outside the universe of chain2"):
        ktree_leq(tree, bad, chain2())


def test_an_unhashable_item_is_outside_a_finite_universe():
    q = chain2()
    message = r"^\[1\] is outside the universe of chain2$"
    tau = (0, 1, 1)
    for _ in range(_warm(q)):
        with pytest.raises(UnknownElement, match=message):
            higman_leq(([1],), tau, q)
        assert higman_leq((1,), tau, q)
    # the table is built now, and a lookup of [1] raises TypeError in it
    assert q.compiled.target is tau and q.compiled.table is not None
    with pytest.raises(UnknownElement, match=message):
        higman_leq((0, [1]), tau, q)
    with pytest.raises(UnknownElement, match=message):
        higman_leq((0,), (0, [1]), q)
    with pytest.raises(UnknownElement, match=message):
        ktree_leq(KTree((-1, 0), (0, [1])), KTree((-1,), (1,)), q)
    with pytest.raises(UnknownElement, match=message):
        ktree_leq(KTree((-1,), (0,)), KTree((-1, 0), (1, [1])), q)
    with pytest.raises(UnknownElement, match=message):
        is_bad((1, [1]), q)
    with pytest.raises(UnknownElement, match=message):
        q.require_all(([1],))
    with pytest.raises(UnknownElement, match=r"^\(\[1\],\) is outside the universe of seqs\(chain2\)$"):
        is_bad(((0,), ([1],)), higman_lift(q))


def test_is_bad_over_a_lifted_order_checks_each_entry_once(monkeypatch):
    passes = []
    require_all = QuasiOrder.require_all

    def counted(self, items):
        passes.append(self.name)
        return require_all(self, items)

    monkeypatch.setattr(QuasiOrder, "require_all", counted)
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))]
    lifted = higman_lift(divisibility())
    for n in (10, 40):
        passes.clear()
        # no prime divides another, so no pair is good and every pair is asked
        assert is_bad([(p,) * 3 for p in primes[:n]], lifted) is None
        assert len(passes) <= n, (n, len(passes))
    assert is_bad([(2, 3), (5,), (4, 9, 7)], lifted) == (0, 2)


def _scan_children(tree, v):
    return tuple(i for i, p in enumerate(tree.parent) if p == v)


def test_large_ktrees_construct():
    n = 5000
    path = KTree((-1,) + tuple(range(n - 1)), (0,) * n)
    star = KTree((-1,) + (0,) * (n - 1), tuple(range(n)))
    for tree in (path, star):
        assert tree.root == 0
        for v in (0, 1, n // 2, n - 1):
            assert tree.children(v) == _scan_children(tree, v)
    assert star.children(0) == tuple(range(1, n))
    with pytest.raises(InvalidNode):
        star.children(n)


def test_subtree_and_key_on_a_long_path():
    n = 5000
    path = KTree((-1,) + tuple(range(n - 1)), tuple(i % 3 for i in range(n)))
    sub = subtree(path, 1000)
    assert sub.parent == (-1,) + tuple(range(n - 1001))
    assert sub.labels == path.labels[1000:]
    key = ktree_key(path)
    for label in path.labels:
        assert key[0] == repr(label)
        assert len(key[1]) <= 1
        key = key[1][0] if key[1] else None
    assert key is None


@pytest.mark.parametrize(
    "parent, labels, exc, message",
    [
        ((-1, 0), (0,), InvalidTree, "labels and parent array must have equal length"),
        ((-1, -1), (0, 0), InvalidTree, "a tree has exactly one root"),
        ((0, 1), (0, 0), InvalidTree, "a tree has exactly one root"),
        ((-1, 5, 0), (0, 0, 0), InvalidNode, "parent of node 1 is out of range"),
        ((-1, 0, -2), (0, 0, 0), InvalidNode, "parent of node 2 is out of range"),
        ((-1, 2, 1), (0, 0, 0), InvalidTree, "parent array contains a cycle"),
        ((-1, 0, 3, 3), (0, 0, 0, 0), InvalidTree, "parent array contains a cycle"),
    ],
)
def test_ktree_rejects_malformed_parent_arrays(parent, labels, exc, message):
    with pytest.raises(exc) as err:
        KTree(parent, labels)
    assert type(err.value) is exc
    assert str(err.value) == message
