"""cli-oneshot: a closed loop with one client.  Each operation is one
``python -m orderlab.cli ...`` subprocess, waited for before the next.

A pass runs the 26 commands of the ``cli-determinism`` battery and six
malformed documents, in an order drawn from the seed.  Valid commands must
reproduce the golden stdout byte for byte and the golden exit code.  A
malformed document must end in exit 0, 1, 2, 64 or 65, and with exactly one
canonical JSON document on stdout for 0, 1 and 2.

Traced passes run the same commands through ``cli_driver.py``, which times
``import orderlab.cli`` and records spans inside the child.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import FAILED, HERE, ROOT, WRONG, Bench, Op, Reference, canonical

GOLDEN = json.loads((HERE / "golden" / "cli.json").read_text(encoding="utf-8"))
MIN_OPS = 160  # five passes; p90 needs at least ten samples beyond it
CONTRACT_EXITS = (0, 1, 2, 64, 65)
INTERP_CALLS = 15
RENDER = ("formats.canonical_dumps", "formats.labels_to_doc", "formats.lasso_to_doc")
CALL_TIMEOUT_S = 60


@dataclass
class State:
    bench: Bench
    directory: Path
    cases: list  # (argv, golden record or None for a malformed document)
    calls: int = 0
    child_spans: list = field(default_factory=list)


def reference(bench: Bench) -> Reference:
    """A bare interpreter start, the floor of every call.

    A sample of the in-process reference loop inside a call would take the
    CPU from the child, and a call follows the host's speed about half as
    strongly as that loop does; an interpreter start follows it as a call
    does.
    """
    cmd = [sys.executable, "-c", "pass"]
    env = bench.child_env()
    return Reference(
        lambda: subprocess.run(cmd, env=env, cwd=ROOT, timeout=CALL_TIMEOUT_S), 0.05, 1, 0.4
    )


def setup(bench: Bench) -> State:
    """Write the input documents and warm the bytecode caches with one call."""
    directory = bench.tmp / "cli"
    directory.mkdir(exist_ok=True)
    paths = {}
    for name, doc in GOLDEN["files"].items():
        path = directory / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = str(path)
    unreadable = directory / GOLDEN["unreadable"]
    unreadable.mkdir(exist_ok=True)
    paths[GOLDEN["unreadable"]] = str(unreadable)

    def fill(argv):
        return [paths[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in argv]

    cases = [(fill(c["argv"]), c) for c in GOLDEN["commands"]]
    cases += [(fill(argv), None) for argv in GOLDEN["malformed"]]
    subprocess.run(
        [sys.executable, "-m", "orderlab.cli", "oracle", "star-law"],
        capture_output=True, env=bench.child_env(), cwd=ROOT, timeout=CALL_TIMEOUT_S,
    )
    return State(bench, directory, cases)


def _check_valid(golden: dict):
    stdout = golden["stdout"].encode("ascii")

    def check(proc):
        if proc.returncode != golden["exit"]:
            return WRONG, f"exit {proc.returncode}, golden {golden['exit']}"
        if proc.stdout != stdout:
            return WRONG, "stdout differs from the golden report"
        return None

    return check


def _check_malformed(proc):
    code = proc.returncode
    if code not in CONTRACT_EXITS:
        return FAILED, f"exit {code} is outside the exit-code contract"
    if code in (0, 1, 2) and not canonical(proc.stdout.decode("utf-8", "replace")):
        return FAILED, f"exit {code} without one canonical JSON report"
    return None


def make_pass(state: State, rng, traced: bool) -> list[Op]:
    order = list(range(len(state.cases)))
    rng.shuffle(order)
    env = state.bench.child_env()
    ops = []
    for i in order:
        argv, golden = state.cases[i]
        if traced:
            span_file = state.directory / f"spans-{state.calls}.json"
            state.calls += 1
            cmd = [sys.executable, str(HERE / "cli_driver.py"), str(span_file), *argv]
        else:
            cmd = [sys.executable, "-m", "orderlab.cli", *argv]

        def call(cmd=cmd):
            return subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=CALL_TIMEOUT_S)

        name = " ".join(argv[:2]) if golden else "malformed " + " ".join(argv[:2])
        ops.append(Op(name, call, _check_valid(golden) if golden else _check_malformed))
    return ops


def _interp_ms(bench: Bench) -> float:
    """Median wall time of a bare interpreter start, the floor of every call."""
    times = []
    for _ in range(INTERP_CALLS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=bench.child_env(), cwd=ROOT,
                       timeout=CALL_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def layer_metrics(state: State, untraced, traced, pass_agg, setup_agg) -> dict[str, float]:
    """Per-call layer times from the driver children's span records, merged
    into ``pass_agg`` so the per-function metrics cover the children too.
    Times are scaled like the traced passes' timings, except the unscaled
    interpreter floor."""
    import tracing

    imports = []
    for k in range(state.calls):
        path = state.directory / f"spans-{k}.json"
        if not path.is_file():
            continue
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        imports.append(record["import_s"])
        tracing.merge(pass_agg, record["aggregate"])
        labels = record["labels"]
        state.child_spans.extend([k, s[0], labels[s[1]], s[2], s[3], s[4]] for s in record["spans"])
    calls = max(len(imports), 1)
    scale_ms = traced.factor() * 1e3

    def per_call_ms(select) -> float:
        return sum(s for label, (_, s) in pass_agg.items() if select(label)) / calls * scale_ms

    def domain(label: str) -> bool:
        return not label.startswith(("cli.", "formats."))

    return {
        "cli.interp_ms": _interp_ms(state.bench),
        "cli.import_ms": statistics.median(imports) * scale_ms if imports else 0.0,
        "cli.build_parser_ms": per_call_ms(lambda label: label == "cli.build_parser"),
        "cli.glue_ms": per_call_ms(lambda label: label == "cli.main"),
        "formats.parse_ms": per_call_ms(
            lambda label: label.startswith("formats.") and label not in RENDER
        ),
        "formats.render_ms": per_call_ms(lambda label: label in RENDER),
        "cli.domain_ms": per_call_ms(domain),
    }
