"""Capture the expected outputs the benchmark checks against.

Run from the repository root, on the commit whose behaviour is the
reference:

    python3 perfbench/capture_golden.py

It writes two files under ``perfbench/golden/``:

- ``cli.json``: the input documents and commands of the ``cli-oneshot``
  workload.  For each command of the ``cli-determinism`` battery it stores
  the exit code and the exact stdout of a one-shot ``python -m orderlab.cli``
  call.  The malformed documents carry no golden output; they are checked
  against the exit-code contract instead.
- ``suites.json``: the ``checked`` count of every suite that ``suite-mix``
  runs, for each suite seed in ``SUITE_SEEDS``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SUITE_SEEDS = range(8)
SKIPPED_SUITES = ("higman-agreement", "kruskal-agreement")

# The documents of the ``cli-determinism`` suite battery, byte for byte as
# that suite writes them (``json.dump`` defaults), so the content digests in
# the reports match.  ``seq`` is the coded form of the wave ``[[0, 1]]``.
FILES = {
    "poset": {"elements": ["a", "b", "c"], "lt": [["c", "b"], ["b", "a"], ["c", "a"]]},
    "alporder": {"elements": [0], "lt": []},
    "aut": {"alphabet": 1, "states": 1, "start": 0, "delta": [[0, 0, 0]]},
    "tree1": {"parent": [-1], "labels": [3]},
    "tree2": {"parent": [-1, 0], "labels": [5, 1]},
    "seqs": {"seqs": [[0, 1, 1], [2, 1], [3, 1]]},
    "frag": {"window": 2, "blocks": [[0], [1]]},
    "unifrag": {"window": 4, "uniform": 2},
    "unifrag1": {"window": 2, "uniform": 1},
    "arr": {"entries": [[[0], 3], [[1], 5]]},
    "seqarr": {"entries": [[[0], [2, 1]], [[1], [1]]]},
    "chal": {"challengers": [{"prefix": [], "cycle": [0]}]},
    "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]], "A": [0], "B": [2]},
    "wave": {"paths": [[0, 1]]},
    "seq": {"labels": [[1, [0]], [2, [0, 1]], [1, [0, 1]], [0, 0], [0, 0], [0, 0]]},
    # Malformed documents (ROADMAP item 3): unhashable poset names, a
    # negative vertex count, a negative window, an empty uniform block.
    "bad_names": {"elements": [[1], [2]], "lt": []},
    "bad_lt_pair": {"elements": ["a", "b"], "lt": [[["a"], "b"]]},
    "neg_vertices": {"vertices": -1, "edges": [], "A": [], "B": []},
    "neg_window": {"window": -3, "blocks": []},
    "uniform_zero": {"uniform": 0, "window": 3},
}
# Created as a directory, so reading it as a file fails.
UNREADABLE = "unreadable"

COMMANDS = [
    ["order", "validate", "--poset", "{poset}"],
    ["order", "seq-less", "--poset", "{poset}", "--left", "c", "--right", "a"],
    ["lexcode", "encode", "--poset", "{poset}"],
    ["lexcode", "decode", "--poset", "{poset}", "--coded", "1,0"],
    ["lexcode", "check-claims", "--poset", "{poset}"],
    ["wqo", "higman", "--q", "nat-leq", "--left", "1,2", "--right", "0,1,3"],
    ["wqo", "kruskal", "--q", "nat-leq", "--left", "{tree1}", "--right", "{tree2}"],
    ["wqo", "bad", "--q", "divides", "--seq", "12,6,3"],
    ["wqo", "min-bad", "--q", "nat-eq", "--bound", "5", "--length", "3"],
    ["wqo", "nw-step", "--q", "nat-eq", "--seqs", "{seqs}", "--s", "1,2"],
    ["barrier", "check", "--frag", "{frag}"],
    ["barrier", "tri", "--left", "0,2", "--right", "2,5"],
    ["barrier", "star", "--frag", "{unifrag}"],
    ["barrier", "classify", "--frag", "{unifrag1}", "--array", "{arr}", "--q", "nat-leq"],
    ["barrier", "array-check", "--frag", "{unifrag1}", "--array", "{seqarr}", "--q", "nat-eq"],
    ["barrier", "nwt-step", "--frag", "{unifrag1}", "--array", "{seqarr}", "--q", "nat-eq", "--s", "0,1"],
    ["tree", "live", "--aut", "{aut}"],
    ["tree", "leftmost", "--aut", "{aut}"],
    ["tree", "minimal", "--aut", "{aut}", "--order", "{alporder}"],
    [
        "tree", "challenge", "--aut", "{aut}", "--order", "{alporder}",
        "--prefix", "", "--cycle", "0", "--challengers", "{chal}",
    ],
    ["menger", "solve", "--graph", "{graph}"],
    ["menger", "waves", "--graph", "{graph}"],
    ["menger", "max-wave", "--graph", "{graph}"],
    ["menger", "encode", "--graph", "{graph}", "--wave", "{wave}"],
    ["menger", "decode", "--graph", "{graph}", "--seq", "{seq}"],
    ["oracle", "star-law", "--seed", "0"],
]

MALFORMED = [
    ["order", "validate", "--poset", "{bad_names}"],
    ["order", "validate", "--poset", "{bad_lt_pair}"],
    ["menger", "solve", "--graph", "{neg_vertices}"],
    ["barrier", "star", "--frag", "{neg_window}"],
    ["barrier", "check", "--frag", "{uniform_zero}"],
    ["order", "validate", "--poset", "{unreadable}"],
]


def write_inputs(directory: Path) -> dict[str, str]:
    """Write the documents; return the placeholder -> path mapping."""
    paths = {}
    for name, doc in FILES.items():
        path = directory / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = str(path)
    unreadable = directory / UNREADABLE
    unreadable.mkdir(exist_ok=True)
    paths[UNREADABLE] = str(unreadable)
    return paths


def fill(argv: list[str], paths: dict[str, str]) -> list[str]:
    return [paths[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in argv]


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def capture_cli() -> dict:
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        paths = write_inputs(Path(tmp))
        commands = []
        for argv in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "orderlab.cli", *fill(argv, paths)],
                capture_output=True, text=True, env=cli_env(ROOT), cwd=ROOT,
            )
            commands.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
    return {"files": FILES, "unreadable": UNREADABLE, "commands": commands, "malformed": MALFORMED}


def capture_suites() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from orderlab import suites

    out = {}
    for name in suites.SUITES:
        if name in SKIPPED_SUITES:
            continue
        counts = {}
        for seed in SUITE_SEEDS:
            result = suites.SUITES[name](seed)
            if result.verdict != "pass":
                raise SystemExit(f"{name} seed {seed}: verdict {result.verdict}")
            counts[str(seed)] = result.checked
        out[name] = counts
    return out


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, doc in (("cli.json", capture_cli()), ("suites.json", capture_suites())):
        with open(GOLDEN / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
