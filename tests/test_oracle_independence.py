"""The oracles take only data types and checked constructors from the
production modules, so a faster production routine cannot change what an
oracle enumerates or answers.  `TreeAutomaton` is a data type, which
checks nothing; `automaton` is its checked constructor."""

import ast
from pathlib import Path

import orderlab

ORACLES = Path(orderlab.__file__).with_name("oracles.py")

# production module -> names the oracles may import from it
ALLOWED = {
    "menger": {"MengerGraph", "graph"},
    "order": {"Poset", "QuasiOrder", "finite_quasi_order"},
    "trees": {"LassoPath", "TreeAutomaton", "automaton"},
    "wqo": {"KTree"},
}
# Production names the oracles may import beyond ALLOWED, each until the
# oracles do that job themselves; none is left.
EXCEPTIONS: set[tuple[str, str]] = set()


def production_imports(source: str) -> list[tuple[str, str]]:
    """Every ``(module, name)`` the source imports from the package or from
    ``importlib``, at any depth, plus any use of ``__import__``; a
    whole-module import has the name ``"*module*"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head in ("orderlab", "importlib"):
                    found.append((rest or head, "*module*"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                head, _, module = module.partition(".")
                if head not in ("orderlab", "importlib"):
                    continue
            for alias in node.names:
                found.append((module, alias.name))
        elif isinstance(node, ast.Name) and node.id == "__import__":
            found.append(("builtins", "__import__"))
    return found


def disallowed(imports):
    return [
        (module, name)
        for module, name in imports
        if name not in ALLOWED.get(module, ()) and (module, name) not in EXCEPTIONS
    ]


def test_oracles_import_only_data_types_and_constructors():
    imports = production_imports(ORACLES.read_text())
    assert ("order", "Poset") in imports and ("menger", "graph") in imports
    assert disallowed(imports) == []


def test_the_guard_flags_other_imports():
    source = "\n".join(
        [
            "import itertools",
            "from typing import Optional",
            "from .order import Poset, validate_poset",
            "from orderlab.trees import live_states",
            "from . import wqo",
            "import orderlab.menger",
            "def f():",
            "    from .lexcode import encode_order",
            "    return __import__('orderlab.trees')",
        ]
    )
    assert disallowed(production_imports(source)) == [
        ("order", "validate_poset"),
        ("trees", "live_states"),
        ("", "wqo"),
        ("menger", "*module*"),
        ("lexcode", "encode_order"),
        ("builtins", "__import__"),
    ]


def test_the_oracles_read_fields_not_methods(monkeypatch):
    """Lasso membership and tree embedding give the same answers when the
    production records' methods raise: the oracles walk ``prefix``,
    ``cycle`` and ``parent`` themselves."""
    from orderlab import oracles
    from orderlab.order import finite_quasi_order
    from orderlab.trees import LassoPath
    from orderlab.wqo import KTree

    automata = oracles.strided_automata(3, 2, 24)
    lassos = oracles.all_lassos(2, 4)
    forest = oracles.all_ktrees(4, (0, 1)) + [KTree((2, 2, -1, 1), (1, 0, 0, 1))]
    chain = finite_quasi_order((0, 1), [(0, 0), (1, 1), (0, 1)], "chain2")

    def answers():
        return (
            [oracles.brute_lasso_in_tree(aut, l) for aut in automata for l in lassos],
            [oracles.brute_ktree_leq(s, t, chain) for s in forest for t in forest],
        )

    before = answers()

    def refuse(*_):
        raise AssertionError("an oracle called a production method")

    monkeypatch.setattr(LassoPath, "item", refuse)
    monkeypatch.setattr(LassoPath, "take", refuse)
    monkeypatch.setattr(KTree, "children", refuse)
    monkeypatch.setattr(KTree, "root", property(refuse))
    assert answers() == before
    assert any(before[0]) and not all(before[0])
    assert any(before[1]) and not all(before[1])
