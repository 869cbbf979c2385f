"""suite-mix: every oracle suite except ``higman-agreement`` and
``kruskal-agreement``, each called in process as ``SUITES[name](seed)``,
which is the ``orderlab oracle <suite>`` path.

A pass runs the twelve suites once, in an order drawn from the seed, each
with a suite seed drawn from the seeds whose ``checked`` counts were
captured.  A suite must return verdict ``pass`` with the captured count.
Set-up is what a user pays before the first check: a fresh interpreter
importing the suites, the CLI and numpy (which ``minimal-path`` imports on
first use).  It runs in a child interpreter, because only a fresh process
can repeat an import; the child runs alone, before any timed work.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from dataclasses import dataclass

from common import HERE, ROOT, WRONG, Bench, Op

GOLDEN = json.loads((HERE / "golden" / "suites.json").read_text(encoding="utf-8"))
MIN_OPS = 24  # two whole passes: a pass holds few, long operations
MODULES = ("orderlab.suites", "orderlab.cli", "numpy")


@dataclass
class State:
    suites: object


def setup(bench: Bench) -> State:
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(MODULES)],
        check=True, env=bench.child_env(), cwd=ROOT,
    )
    modules = [importlib.import_module(name) for name in MODULES]
    return State(modules[0])


def make_pass(state: State, rng, traced: bool) -> list[Op]:
    names = sorted(GOLDEN)
    rng.shuffle(names)
    ops = []
    for name in names:
        seed = rng.choice(sorted(GOLDEN[name]))
        checked = GOLDEN[name][seed]

        def call(name=name, seed=int(seed)):
            return state.suites.SUITES[name](seed)

        def check(result, checked=checked):
            if result.verdict != "pass":
                return WRONG, f"verdict {result.verdict}"
            if result.checked != checked:
                return WRONG, f"checked {result.checked}, golden {checked}"
            return None

        ops.append(Op(name, call, check, work=checked))
    return ops


def layer_metrics(state: State, untraced, traced, pass_agg, setup_agg) -> dict[str, float]:
    return {f"suites.{name}.wall_s": untraced.median(name) for name in GOLDEN}
