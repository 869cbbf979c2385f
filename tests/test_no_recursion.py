"""No function of the package calls itself, directly or through other
functions of its module, so a legal input deep enough to pass the
interpreter's recursion limit never ends in `RecursionError`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import orderlab

PACKAGE = Path(orderlab.__file__).parent
# reference code, run only at oracle scale
EXEMPT = {"oracles.py"}
# recursive searches still waiting for an explicit stack
ALLOWED: set[str] = set()
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (*FUNCTIONS, ast.ClassDef)


def scoped(node: ast.AST, kinds) -> list:
    """The nodes of the given kinds in ``node``'s own scope: its body at any
    depth, but not the inside of a function or class defined there."""
    found, todo = [], list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        if isinstance(child, kinds):
            found.append(child)
        if not isinstance(child, SCOPES):
            todo.extend(ast.iter_child_nodes(child))
    return found


def call_graph(source: str, module: str) -> dict[str, set[str]]:
    """Each function of ``source``, nested ones included, by qualified name,
    mapped to the functions of ``source`` it calls by name.  A name resolves
    to the innermost enclosing function scope that defines it, then to the
    module; class bodies are no scope for the functions inside them."""
    graph: dict[str, set[str]] = {}

    def visit(node: ast.AST, name: str, visible: dict[str, str]) -> None:
        inner = scoped(node, SCOPES)
        if not isinstance(node, ast.ClassDef):
            local = [d.name for d in inner if isinstance(d, FUNCTIONS)]
            visible = visible | {f: f"{name}.{f}" for f in local}
        if isinstance(node, FUNCTIONS):
            graph[name] = {
                visible[c.func.id]
                for c in scoped(node, ast.Call)
                if isinstance(c.func, ast.Name) and c.func.id in visible
            }
        for d in inner:
            visit(d, f"{name}.{d.name}", visible)

    visit(ast.parse(source), module, {})
    return graph


def recursive_functions(source: str, module: str) -> set[str]:
    """The functions of ``source`` that reach themselves through calls."""
    graph = call_graph(source, module)
    found = set()
    for start, callees in graph.items():
        seen, todo = set(), list(callees)
        while todo and start not in seen:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo.extend(graph[f])
        if start in seen:
            found.add(start)
    return found


def test_only_the_listed_searches_recurse():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in EXEMPT:
            found |= recursive_functions(path.read_text(), path.stem)
    assert found == ALLOWED


def test_the_guard_flags_a_recursive_closure():
    source = "\n".join(
        [
            "def simple_paths(adj, start):",
            "    out = []",
            "    def dfs(path):",
            "        out.append(tuple(path))",
            "        for w in adj[path[-1]]:",
            "            if w not in path:",
            "                dfs(path + [w])",
            "    dfs([start])",
            "    return out",
            "def ping(n):",
            "    return pong(n - 1) if n else 0",
            "def pong(n):",
            "    return ping(n)",
            "def helper(n):",
            "    return n",
            "def caller(n):",
            "    def helper(m):",
            "        return caller(m)",
            "    return helper(n)",
            "class Walker:",
            "    def walk(self, n):",
            "        return walk(n) + helper(n)",
        ]
    )
    assert recursive_functions(source, "m") == {
        "m.simple_paths.dfs",
        "m.ping",
        "m.pong",
        "m.caller",
        "m.caller.helper",
    }


def test_min_bad_sequence_runs_below_a_small_recursion_limit():
    """A bad sequence longer than the recursion limit is found in a fresh
    interpreter whose limit is 100."""
    probe = "\n".join(
        [
            "import sys",
            "from orderlab.order import natural_equality",
            "from orderlab.wqo import min_bad_sequence",
            "sys.setrecursionlimit(100)",
            "print(min_bad_sequence(natural_equality(), 150, 120) == tuple(range(120)))",
        ]
    )
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr
