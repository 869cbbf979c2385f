"""Every function the package exports is reached from the command line or
an oracle suite, so no public routine goes unchecked by either.

The source is read with `ast`.  The exports are the ``_EXPORTS`` table of
the package's lazy ``__init__.py`` (module -> space-separated names).  A
top-level definition reaches every top-level definition whose name it
mentions: a bare name defined in or imported into its module, or
``module.name`` for an imported package module.  The roots are the
top-level definitions of ``cli.py`` and ``suites.py``.
"""

import ast
from pathlib import Path

import orderlab

PACKAGE = Path(orderlab.__file__).parent
ROOTS = ("cli", "suites")
# The benchmark times `subtree` on its own (wqo.subtree.self_s and the
# scale-cliffs probes); no command or suite needs it.
EXCEPTIONS = {"subtree"}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level name -> the statement that defines it."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node
    return found


def _imports(tree: ast.Module) -> tuple[dict, dict]:
    """Package imports anywhere in a module: ``name -> (module, name)`` for
    imported names and ``alias -> module`` for imported modules."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module:
                    names[local] = (node.module, alias.name)
                else:
                    modules[local] = alias.name
    return names, modules


def _exports(tree: ast.Module) -> list[tuple[str, str]]:
    """``(module, name)`` for every name in the ``_EXPORTS`` table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names.split()]
    raise AssertionError("__init__ has no _EXPORTS table")


def unreached(sources: dict[str, str]) -> set[str]:
    """Functions exported by ``sources["__init__"]`` that no chain of name
    references reaches from a top-level definition in a root module."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    imports = {module: _imports(tree) for module, tree in trees.items()}

    def mentions(module: str, node: ast.AST):
        names, modules = imports[module]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in defs[module]:
                    yield module, sub.id
                elif sub.id in names:
                    yield names[sub.id]
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in modules
            ):
                yield modules[sub.value.id], sub.attr

    seen: set = set()
    stack = [(m, name) for m in ROOTS if m in defs for name in defs[m]]
    while stack:
        module, name = stack.pop()
        if (module, name) in seen or name not in defs.get(module, {}):
            continue
        seen.add((module, name))
        stack.extend(mentions(module, defs[module][name]))
    exported = _exports(trees["__init__"])
    return {
        name
        for module, name in exported
        if isinstance(defs[module].get(name), ast.FunctionDef) and (module, name) not in seen
    }


def test_every_exported_function_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreached(sources) == EXCEPTIONS


def test_a_planted_unreached_function_is_flagged():
    sources = {
        "__init__": '_EXPORTS = {"a": "f g h k C", "b": "m"}',
        "a": "\n".join(
            [
                "def f():",
                "    return g()",
                "def g(): pass",
                "def h(): pass",
                "def k(): pass",
                "def _helper():",
                "    return h()",
                "class C: pass",
                "TABLE = [k]",
            ]
        ),
        "b": "def m(): pass",
        "cli": "from .a import f\ndef main():\n    return f()",
        "suites": "from . import a\nRUN = a.TABLE",
    }
    assert unreached(sources) == {"h", "m"}
