"""Every frozen record of the package, one row each: construction by position
and by keyword, equality within one class only, hashing, the exact ``repr``,
frozen fields, and the checks its ``__post_init__`` makes."""

import pytest

from orderlab.barrier import BarrierFragment, FragmentCheck, PartialArray
from orderlab.errors import InvalidLasso, InvalidTree
from orderlab.lexcode import LexCode
from orderlab.menger import MengerGraph, MengerSystem, Warp
from orderlab.order import Poset, QuasiOrder
from orderlab.suites import SuiteResult
from orderlab.trees import ChallengerEntry, ChallengerReport, LassoPath, TreeAutomaton
from orderlab.wqo import KTree

# record class, field values, exact repr, another record class taking as many values
ROWS = [
    (
        LexCode,
        (Poset(range(2), [(0, 1)]), {0: (1,), 1: (3,)}, (0, 1)),
        "LexCode(order=Poset(elements=frozenset({0, 1}), lt=frozenset({(0, 1)})), "
        "table={0: (1,), 1: (3,)}, processing_order=(0, 1))",
        FragmentCheck,
    ),
    (KTree, ((-1, 0), ("a", "b")), "KTree(parent=(-1, 0), labels=('a', 'b'))", BarrierFragment),
    (
        QuasiOrder,
        ("q", max, bool, (0, 1)),
        "QuasiOrder(name='q', leq=<built-in function max>, contains=<class 'bool'>, "
        "elements=(0, 1))",
        MengerGraph,
    ),
    (
        BarrierFragment,
        (2, frozenset({(0, 1)})),
        "BarrierFragment(window=2, blocks=frozenset({(0, 1)}))",
        MengerSystem,
    ),
    (
        FragmentCheck,
        ("pass", (), ()),
        "FragmentCheck(verdict='pass', problems=(), uncovered=())",
        ChallengerEntry,
    ),
    (PartialArray, ((((0,), "x"),),), "PartialArray(entries=(((0,), 'x'),))", Warp),
    (
        TreeAutomaton,
        (2, 1, 0, {(0, 1): 0}),
        "TreeAutomaton(alphabet_size=2, states=1, start=0, delta={(0, 1): 0})",
        QuasiOrder,
    ),
    (LassoPath, ((), (0,)), "LassoPath(prefix=(), cycle=(0,))", ChallengerReport),
    (
        ChallengerEntry,
        (LassoPath((1,), (0,)), True, False),
        "ChallengerEntry(challenger=LassoPath(prefix=(1,), cycle=(0,)), in_tree=True, "
        "left_of_witness=False)",
        LexCode,
    ),
    (
        ChallengerReport,
        (LassoPath((), (0,)), ()),
        "ChallengerReport(witness=LassoPath(prefix=(), cycle=(0,)), entries=())",
        MengerSystem,
    ),
    (
        SuiteResult,
        ("s", "pass", 3, (), {"cap": 3}),
        "SuiteResult(name='s', verdict='pass', checked=3, failures=(), notes={'cap': 3})",
        QuasiOrder,
    ),
    (
        MengerGraph,
        (3, frozenset({(0, 1)}), frozenset({0}), frozenset({2})),
        "MengerGraph(n=3, edges=frozenset({(0, 1)}), A=frozenset({0}), B=frozenset({2}))",
        TreeAutomaton,
    ),
    (Warp, (((0, 1),),), "Warp(paths=((0, 1),))", PartialArray),
    (
        MengerSystem,
        (((0, 1),), frozenset({0})),
        "MengerSystem(paths=((0, 1),), separator=frozenset({0}))",
        BarrierFragment,
    ),
]


@pytest.mark.parametrize("cls, values, text, other", ROWS, ids=[row[0].__name__ for row in ROWS])
def test_a_record_compares_hashes_and_prints_by_its_fields(cls, values, text, other):
    fields = list(cls.__annotations__)[: len(values)]
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert tuple(getattr(a, f) for f in fields) == values
    assert a == b and not a != b and a is not b
    try:
        hash(values)
    except TypeError:
        # a record is hashable exactly when its field values are
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    twin = other(*values)
    assert a != twin and twin != a and not a == twin
    assert repr(a) == text


# SuiteResult became frozen later than the others; tests/test_suites.py checks it
FROZEN = [row[:2] for row in ROWS if row[0] is not SuiteResult]


@pytest.mark.parametrize("cls, values", FROZEN, ids=[row[0].__name__ for row in FROZEN])
def test_a_record_field_cannot_be_assigned_or_deleted(cls, values):
    a = cls(*values)
    for f in cls.__annotations__:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(a, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == cls(*values)


def test_a_record_checks_its_fields_after_init():
    assert QuasiOrder("q", max, bool).elements is None
    tree = KTree((-1, 0, 0), ("a", "b", "c"))
    assert (tree.root, tree.children(0)) == (0, (1, 2))
    with pytest.raises(InvalidTree, match="equal length"):
        KTree((-1, 0), ("a",))
    with pytest.raises(InvalidTree, match="exactly one root"):
        KTree((1, 0), ("a", "b"))
    with pytest.raises(InvalidTree, match="cycle"):
        KTree((-1, 2, 1), ("a", "b", "c"))
    with pytest.raises(InvalidLasso):
        LassoPath((0,), ())
