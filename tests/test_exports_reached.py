"""Every top-level function of a library module, exported or not, is
reached from the command line or an oracle suite, so no routine goes
unchecked by either and none lingers unused.

The source is read with `ast`.  The library modules are all but the roots
and the package's lazy ``__init__.py``.  A top-level definition reaches
every top-level definition whose name it mentions: a bare name defined in
or imported into its module, or ``module.name`` for an imported package
module.  The roots are the top-level definitions of ``cli.py`` and
``suites.py``.
"""

import ast
from pathlib import Path

import orderlab

PACKAGE = Path(orderlab.__file__).parent
ROOTS = ("cli", "suites")
# The benchmark times `subtree` and `ktree_key` on their own
# (wqo.subtree.self_s, wqo.ktree_key.self_s and the scale-cliffs probes), and
# tests/test_wqo.py checks them; no command or suite needs them.  The same
# holds for `lift_tree` (lexcode.lift_tree.self_s and the scale-cliffs probe
# `lexcode.lift_tree chain4000`), which tests/test_lexcode.py and
# tests/test_trees.py check: `minimal_path` walks the tree in code-word order
# and no longer builds the lifted automaton.
EXCEPTIONS = {"subtree", "ktree_key", "lift_tree"}


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


def unreached(sources: dict[str, str]) -> set[str]:
    """Top-level functions of the library modules in ``sources`` that no
    chain of name references reaches from a top-level definition in a root
    module."""
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
    return {
        name
        for module, found in defs.items()
        if module not in ("__init__", *ROOTS)
        for name, node in found.items()
        if isinstance(node, ast.FunctionDef) and (module, name) not in seen
    }


def test_every_library_function_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unreached(sources) == EXCEPTIONS


def test_a_planted_unreached_function_is_flagged():
    sources = {
        "__init__": "def __getattr__(name): pass",
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
        "b": "def m(): pass\ndef _unlisted(): pass",
        "cli": "from .a import f\ndef main():\n    return f()",
        "suites": "from . import a\nRUN = a.TABLE",
    }
    # _helper reaches h, but nothing reaches _helper
    assert unreached(sources) == {"h", "m", "_helper", "_unlisted"}
