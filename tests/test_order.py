import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_package_api import run_probe

import orderlab
from orderlab import lexcode, oracles
from orderlab.errors import CycleError, NotAQuasiOrder, UnknownElement
from orderlab.order import (
    Poset,
    QuasiOrder,
    divisibility,
    finite_quasi_order,
    natural_equality,
    natural_order,
    quasi_from_poset,
    seq_less,
    seq_less_by,
    validate_poset,
)


def chain3():
    return validate_poset([(2, 1), (1, 0)], [0, 1, 2])


def test_validate_poset_adds_composites():
    assert chain3().lt == frozenset({(2, 1), (1, 0), (2, 0)})


def test_validate_poset_closes_and_rejects():
    po = chain3()
    assert po.less(2, 0)
    assert not po.less(0, 2)
    with pytest.raises(CycleError):
        validate_poset([(0, 1), (1, 0)], [0, 1])
    with pytest.raises(UnknownElement, match="element 5 is not declared"):
        validate_poset([(0, 5)], [0, 1])
    # the first stray element in pair order, the left one of a pair first
    with pytest.raises(UnknownElement, match="element 7 is not declared"):
        validate_poset([(1, 0), (7, 5), (1, 9)], [0, 1])


def naive_closure(pairs):
    """Reference closure: add the composites (x, z) of (x, y) and (y, z)
    until none is new."""
    rel = set(pairs)
    while True:
        new = {(x, z) for x, y in rel for w, z in rel if y == w} - rel
        if not new:
            return frozenset(rel)
        rel |= new


def test_closure_matches_reference_on_every_small_relation():
    # every relation over 1 to 4 elements: 2 + 2**4 + 2**9 + 2**16 of them
    relations = 0
    for n in range(1, 5):
        grid = list(itertools.product(range(n), repeat=2))
        for mask in range(1 << len(grid)):
            pairs = [p for i, p in enumerate(grid) if mask >> i & 1]
            want = naive_closure(pairs)
            cyclic = [x for x in range(n) if (x, x) in want]
            if cyclic:
                with pytest.raises(CycleError, match=f"cycle through {min(cyclic)}$"):
                    validate_poset(pairs, range(n))
            else:
                assert validate_poset(pairs, range(n)).lt == want
            relations += 1
    assert relations == 2 + 2**4 + 2**9 + 2**16


def test_cycle_report_names_the_least_element_on_a_cycle():
    # two disjoint cycles, 33 -> 20 -> 33 and 9 -> 17 -> 12 -> 9, with 1
    # below one; a frozenset of these ids lists 33 before 9
    pairs = [(33, 20), (20, 33), (9, 17), (17, 12), (12, 9), (1, 9)]
    for order in (pairs, pairs[::-1], pairs[2:] + pairs[:2]):
        with pytest.raises(CycleError) as info:
            validate_poset(order, [1, 9, 12, 17, 20, 33])
        assert str(info.value) == "relation has a cycle through 9"


def test_closure_of_a_long_chain():
    n = 2000
    chain = validate_poset(((i + 1, i) for i in range(n - 1)), range(n))
    # each element is above every smaller one and no other
    assert [row.bit_count() for row in chain.rows] == list(range(n))
    assert sum(row.bit_count() for row in chain.rows) == n * (n - 1) // 2 == 1_999_000
    assert chain.less(n - 1, 0) and not chain.less(0, n - 1)


def test_closure_of_a_long_tail_below_a_cycle():
    # the chain 1499 > 1498 > ... > 0, whose top 20 elements 1480..1499
    # also form a cycle: 1480 elements close from the sinks up, and the
    # cycle above them is left to Warshall's loop
    n, core = 1500, 1480
    pairs = [(i + 1, i) for i in range(n - 1)] + [(core, n - 1)]
    random.Random("closure-tail").shuffle(pairs)
    with pytest.raises(CycleError, match=f"cycle through {core}$"):
        validate_poset(pairs, range(n))


def test_seq_less_divergence_and_prefix():
    po = chain3()
    assert seq_less((2,), (1,), po)
    assert seq_less((1, 2), (1, 0), po)
    # a proper prefix is not below its extension
    assert not seq_less((1,), (1, 2), po)
    assert not seq_less((1, 2), (1,), po)
    assert not seq_less((), (0,), po)
    # incomparable first divergence
    anti = validate_poset([], [0, 1])
    assert not seq_less((0,), (1,), anti)
    assert not seq_less((1,), (0,), anti)


def test_seq_less_checks_membership():
    with pytest.raises(UnknownElement):
        seq_less((7,), (0,), chain3())


def test_builtin_quasi_orders():
    leq = natural_order()
    assert leq.leq(2, 5) and not leq.leq(5, 2)
    eq = natural_equality()
    assert eq.leq(3, 3) and not eq.leq(3, 4)
    div = divisibility()
    assert div.leq(3, 12)
    assert not div.leq(12, 3)
    assert div.leq(5, 0) and not div.leq(0, 5) and div.leq(0, 0)
    assert div.contains(0) and not div.contains(-1) and not div.contains(True)
    grid = (0, 1, 2, 7, 10**30, 10**30 + 1)
    for x, y in itertools.product(grid, repeat=2):
        assert leq.leq(x, y) == (x <= y) and eq.leq(x, y) == (x == y), (x, y)
    # leq is the shared builtin comparator, not a fresh lambda per call, so
    # two calls now build equal orders
    assert natural_order() == leq and natural_equality() == eq


def test_finite_quasi_order_enforces_axioms():
    q = finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")
    assert q.leq(0, 1) and not q.leq(1, 0)
    with pytest.raises(NotAQuasiOrder):
        finite_quasi_order((0, 1), [(0, 0)], "broken")
    with pytest.raises(NotAQuasiOrder):
        finite_quasi_order(
            (0, 1, 2), [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)], "broken"
        )
    with pytest.raises(UnknownElement):
        finite_quasi_order((0,), [(0, 0), (0, 9)])


# a chain on "abcde" given without its composite pairs
BROKEN_CHAIN = """
from orderlab.order import finite_quasi_order
try:
    finite_quasi_order("abcde", [(x, x) for x in "abcde"] + list(zip("abcd", "bcde")), "c5")
except Exception as err:
    print(err)
"""


def test_axiom_errors_name_the_least_failure(monkeypatch):
    messages = set()
    for hash_seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        messages.add(run_probe(BROKEN_CHAIN))
    assert messages == {"c5 is not transitive: 'a','b','c'\n"}
    # broken both ways: reflexivity is checked at every element first
    with pytest.raises(NotAQuasiOrder, match="c5 is not reflexive at 'e'"):
        finite_quasi_order("abcde", [(x, x) for x in "abcd"] + list(zip("abcd", "bcde")), "c5")
    with pytest.raises(UnknownElement, match="'z' is not declared in finite"):
        finite_quasi_order("ab", [("a", "a"), ("a", "z"), ("y", "b")])


def _called_name(func: ast.expr):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_the_finite_constructors_compile():
    q = finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")
    bare = QuasiOrder(q.name, q.leq, q.contains, q.elements)
    assert bare == q and hash(bare) == hash(q) and repr(bare) == repr(q)
    assert "compiled" not in repr(q)
    # every CompiledOrder(...) call, with the innermost function around it
    calls = []
    for path in sorted(Path(orderlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions come first, inner ones overwrite
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node.func) == "CompiledOrder":
                calls.append((path.name, owner.get(node)))
    assert sorted(calls) == [("order.py", "finite_quasi_order"), ("order.py", "quasi_from_poset")]


def test_quasi_from_poset_is_reflexive():
    q = quasi_from_poset(chain3())
    assert q.leq(1, 1)
    assert q.leq(2, 0)
    assert not q.leq(0, 2)
    assert q.elements == (0, 1, 2)


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(0, 3), max_size=5), st.lists(st.integers(0, 3), max_size=5))
def test_seq_less_by_is_a_strict_order(a, b):
    lt = int.__lt__
    assert not seq_less_by(a, a, lt)
    assert not (seq_less_by(a, b, lt) and seq_less_by(b, a, lt))


def test_a_stray_pair_raises_when_the_rows_are_derived():
    # the pair-built constructor defers its checks to the first use of the rows
    stray = Poset(frozenset({0, 1}), frozenset({(1, 0), (0, 5)}))
    with pytest.raises(UnknownElement, match="element 5 is not declared"):
        stray.rows
    with pytest.raises(UnknownElement):
        stray.less(1, 0)
    with pytest.raises(UnknownElement):
        seq_less((1,), (0,), stray)
    with pytest.raises(UnknownElement):
        lexcode.encode_order(Poset(frozenset({0, 1}), frozenset({(7, 0)})))


def test_less_of_an_undeclared_element_is_false():
    chain = chain3()
    assert chain.less(2, 0)
    assert not chain.less(2, 7) and not chain.less(7, 0) and not chain.less(7, 7)


def _construction_routes(poset, ids):
    """``poset`` relabelled by ``ids``, built by each route: validated from
    its pairs, from their reference closure, and from the relabelled pairs
    as given."""
    elems = [ids[x] for x in poset.elements]
    pairs = [(ids[x], ids[y]) for x, y in poset.lt]
    return [
        validate_poset(pairs, elems),
        Poset(elems, naive_closure(pairs)),
        Poset(frozenset(elems), frozenset(pairs)),
    ]


def test_routes_agree_on_equality_hashing_and_reading():
    rng = random.Random("poset-routes")
    corpus = oracles.all_posets(4) + [oracles.random_poset(rng, 8) for _ in range(200)]
    for poset in corpus:
        ids = rng.sample(range(3 * len(poset.elements) + 1), len(poset.elements))
        routes = _construction_routes(poset, ids)
        first = routes[0]
        assert validate_poset(poset.lt, poset.elements) == poset
        for other in routes[1:]:
            assert other == first and hash(other) == hash(first)
            assert other.sorted_elements() == first.sorted_elements() == tuple(sorted(ids))
            assert other.lt == first.lt
            for x, y in itertools.product(ids, repeat=2):
                assert other.less(x, y) == first.less(x, y) == ((x, y) in first.lt)
        assert len(set(routes)) == 1
    # a poset differs from its reverse once it has a pair
    chain = chain3()
    assert chain != validate_poset([(0, 1), (1, 2)], [0, 1, 2]) and chain != chain.lt
    with pytest.raises(AttributeError):
        chain.elements = frozenset()


def test_the_hot_routes_build_no_pairs():
    n = 1000
    poset = validate_poset([(k + 1, k) for k in range(n - 1)], range(n))
    assert sum(row.bit_count() for row in poset.rows) == n * (n - 1) // 2 == 499_500
    code = lexcode.encode_order(poset)
    assert all(code.table[k] == (0,) * k + (1,) for k in range(n))
    compiled = quasi_from_poset(poset).compiled
    # on this chain k is below exactly the ids 0..k
    assert compiled.up == tuple((1 << (k + 1)) - 1 for k in range(n))
    assert seq_less((5, n - 1), (5, 0), poset) and not seq_less((0,), (n - 1,), poset)
    assert "lt" not in vars(poset)
    # read once, the pairs are those of the rows
    assert len(poset.lt) == 499_500 and (n - 1, 0) in poset.lt
