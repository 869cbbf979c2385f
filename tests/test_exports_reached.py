"""Every top-level function of a library module, exported or not, is
reached from the command line or an oracle suite, so no routine goes
unchecked by either and none lingers unused.  Every domain routine that a
command runs is called by an oracle suite, or is listed with the tier-1
test that checks it against a reference.

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
# The modules whose routines the commands run.
DOMAIN = ("barrier", "lexcode", "menger", "order", "trees", "wqo")
# Domain routines that a command's handler calls although no registered
# suite but cli-determinism calls them, or calls them only to build its
# cases: routine -> (reason, the tier-1 test that checks it against a
# reference).
SUITELESS = {
    "order.validate_poset": (
        "the suites take their posets from the oracles' builders",
        "tests/test_order.py::test_closure_matches_reference_on_every_small_relation",
    ),
    "order.seq_less": (
        "the suites compare sequences with seq_less_by or at their own first divergence",
        "tests/test_order.py::test_seq_less_matches_the_first_divergence_on_small_posets",
    ),
    "wqo.is_bad": (
        "no suite asks whether one sequence is bad",
        "tests/test_wqo.py::test_is_bad_matches_the_first_good_pair_reference",
    ),
    "barrier.check_fragment": (
        "no suite checks whether a fragment covers its window",
        "tests/test_barrier.py::test_check_fragment_reports_the_first_eight_uncovered_sequences",
    ),
    "barrier.union_block": (
        "tri-agreement checks block_tri, and star-law the starred fragment, not one union",
        "tests/test_barrier.py::test_union_block_is_the_range_union_exactly_on_tri_pairs",
    ),
    "trees.live_states": (
        "leftmost-exact and minimal-path check the paths that rest on it, not the live set",
        "tests/test_trees.py::test_live_states_matches_reference_on_every_small_automaton",
    ),
    "menger.terminals": (
        "max-wave reports the wave's ends beside its paths",
        "tests/test_menger.py::test_wave_routes_match_the_sorted_all_pairs_reference",
    ),
    "wqo.min_bad_sequence": (
        "no suite searches for bad sequences",
        "tests/test_wqo.py::test_min_bad_sequence_is_the_least_bad_sequence",
    ),
    "menger.enumerate_waves": (
        "wave-coding takes its waves from it and checks their codes, not the wave set",
        "tests/test_menger.py::test_wave_routes_match_the_sorted_all_pairs_reference",
    ),
    "menger.maximal_wave": (
        "no suite asks for a maximal wave",
        "tests/test_menger.py::test_wave_routes_match_the_sorted_all_pairs_reference",
    ),
    "trees.challenger_check": (
        "minimal-path compares its own expansions of the challengers instead",
        "tests/test_trees.py::test_challenger_check_matches_the_lasso_reference",
    ),
}


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


def _parse(sources: dict[str, str]) -> tuple[dict, dict]:
    """Each module's top-level definitions and package imports."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    imports = {module: _imports(tree) for module, tree in trees.items()}
    return defs, imports


def _mentions(defs: dict, imports: dict, module: str, node: ast.AST):
    """The ``(module, name)`` pairs that ``node`` mentions."""
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


def _reach(defs: dict, imports: dict, start, within=None) -> set:
    """The definitions that a chain of mentions reaches from ``start``,
    followed only through the module ``within`` when it is given."""
    seen: set = set()
    stack = list(start)
    while stack:
        module, name = stack.pop()
        if (module, name) in seen or name not in defs.get(module, {}):
            continue
        seen.add((module, name))
        if within in (None, module):
            stack.extend(_mentions(defs, imports, module, defs[module][name]))
    return seen


def unreached(sources: dict[str, str]) -> set[str]:
    """Top-level functions of the library modules in ``sources`` that no
    chain of name references reaches from a top-level definition in a root
    module."""
    defs, imports = _parse(sources)
    seen = _reach(defs, imports, [(m, name) for m in ROOTS if m in defs for name in defs[m]])
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


def _command_handlers(defs: dict) -> dict[str, str]:
    """Each command path of `cli._COMMANDS` -> its handler's name."""
    out = {}
    for call in ast.walk(defs["cli"]["_COMMANDS"]):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_Command":
            out[call.args[0].value] = call.args[2].id
    return out


def _registered_suites(defs: dict) -> dict[str, str]:
    """Each suite name that `suites._suite` registers -> its function's name."""
    out = {}
    for name, node in defs["suites"].items():
        for dec in getattr(node, "decorator_list", ()):
            if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "_suite":
                out[dec.args[0].value] = name
    return out


def command_routines(sources: dict[str, str]) -> tuple[dict[str, list[str]], set[str]]:
    """Each domain routine that a command's handler calls -> those commands,
    but `oracle`; and the domain routines that the registered suites but
    cli-determinism call.  A handler calls what the definitions of
    ``cli.py`` it reaches mention, and a suite what those of ``suites.py``
    it reaches mention."""
    defs, imports = _parse(sources)

    def routines(module: str, names) -> set[str]:
        reached = _reach(defs, imports, [(module, name) for name in names], within=module)
        return {
            f"{m}.{name}"
            for m, name in reached
            if m in DOMAIN and isinstance(defs[m][name], ast.FunctionDef)
        }

    called: dict[str, list[str]] = {}
    for path, handler in _command_handlers(defs).items():
        if path != "oracle":
            for routine in sorted(routines("cli", [handler])):
                called.setdefault(routine, []).append(path)
    suites = _registered_suites(defs)
    return called, routines("suites", [f for s, f in suites.items() if s != "cli-determinism"])


def unchecked(sources: dict[str, str], listed: dict) -> dict[str, list[str]]:
    """The domain routines that a command runs, with those commands, that
    no registered suite but cli-determinism calls and ``listed`` lacks."""
    called, checked = command_routines(sources)
    return {r: paths for r, paths in called.items() if r not in checked and r not in listed}


def test_every_command_routine_is_called_by_a_suite_or_listed_with_its_test():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unchecked(sources, SUITELESS) == {}
    called, _ = command_routines(sources)
    assert SUITELESS.keys() <= called.keys()
    root = Path(__file__).parent.parent
    for reason, test in SUITELESS.values():
        path, name = test.split("::")
        assert name in _definitions(ast.parse((root / path).read_text(encoding="utf-8"))), test


def test_a_planted_handler_that_runs_an_unchecked_routine_is_flagged():
    sources = {
        "__init__": "def __getattr__(name): pass",
        "wqo": "def checked(): pass\ndef unchecked(): pass\ndef replayed(): pass\nclass K: pass",
        "cli": "\n".join(
            [
                "def _load():",
                "    from . import wqo",
                "    return wqo.unchecked()",
                "def _run(a, _):",
                "    from . import wqo",
                "    return wqo.checked(), wqo.replayed(), wqo.K(), _load()",
                "def _oracle(a, _):",
                "    from . import wqo",
                "    return wqo.unchecked()",
                "_COMMANDS = (",
                "    _Command('wqo run', (), _run),",
                "    _Command('oracle', (), _oracle),",
                ")",
            ]
        ),
        "suites": "\n".join(
            [
                "def _corpus():",
                "    from . import wqo",
                "    return wqo.checked()",
                "@_suite('a')",
                "def a(seed):",
                "    yield _corpus()",
                "@_suite('cli-determinism')",
                "def c(seed):",
                "    from . import wqo",
                "    yield wqo.replayed()",
            ]
        ),
    }
    # _load's call counts for the handler that reaches it; oracle's does not
    assert unchecked(sources, {}) == {"wqo.unchecked": ["wqo run"], "wqo.replayed": ["wqo run"]}
    assert unchecked(sources, {"wqo.unchecked": ("", "")}) == {"wqo.replayed": ["wqo run"]}
