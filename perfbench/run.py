"""orderlab benchmark: one-shot CLI latency, oracle-suite throughput,
embedding kernels and scaling cliffs.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program comes from ``src/`` of the same checkout.  A run sets the
workload up several times (the median is ``setup_s``), then repeats whole
passes over the workload's operations for about ``--seconds`` seconds,
checking every answer.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the same passes untraced and then
traced, and reports the per-layer metrics.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Result and span files go to ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from common import FAILED, LOOP, ROOT, SRC, Bench, Speed, Tally

WORKLOADS = {
    "cli-oneshot": "cli_oneshot",
    "suite-mix": "suite_mix",
    "embed-bulk": "embed_bulk",
    "scale-cliffs": "scale_cliffs",
}
SETUP_REPEATS = 5
FUNCTION_METRIC = re.compile(r"^(\w+\.\w+)\.(self_s|calls)$")


def run_pass(ops, tally: Tally, speed: Speed, tracer=None) -> None:
    clock = time.perf_counter
    last = speed.sample()
    for op in ops:
        if tracer is not None:
            if not op.timed:
                continue
            tracer.op = tally.attempted
        paused = speed.arm(op.timed)
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a crashing operation is a failed one
            problem = (FAILED, f"raised {type(exc).__name__}")
        else:
            problem = None
        end = clock()
        speed.disarm()
        if problem is None:
            problem = op.check(result)
        tally.record(op, start, end, end - start - (speed.paused - paused), problem)
        if clock() - last >= speed.reference.every_s:
            last = speed.sample()
    speed.sample()


def measure(
    workload, state, seed: int, seconds: float, speed: Speed, min_ops=1, passes=None, tracer=None
) -> Tally:
    """Whole passes until about ``seconds`` have gone and at least
    ``min_ops`` timed operations ran, or exactly ``passes`` passes.

    The inputs and expected answers built so far are moved out of the
    collector's sight first, so that collections during timed calls scan
    the program's objects and not the benchmark's.
    """
    gc.collect()
    gc.freeze()
    tally = Tally()
    clock = time.perf_counter
    start = clock()
    while True:
        began = clock()
        ops = workload.make_pass(state, random.Random(f"{seed}:{tally.passes}"), tracer is not None)
        run_pass(ops, tally, speed, tracer)
        tally.passes += 1
        now = clock()
        if passes is not None:
            if tally.passes >= passes:
                break
        elif len(tally.records) >= min_ops and now - start + (now - began) / 2 >= seconds:
            break
    tally.finish(speed)
    return tally


def smoothed_quantile(values, q: float, half_width: float) -> float:
    """Mean of the values ranked within ``half_width`` of quantile ``q``.

    A workload mixes operations of different sizes in fixed proportions, so
    a plain order statistic jumps from one operation kind to another when
    two kinds of similar latency swap places; averaging a band of ranks
    moves smoothly instead.  On uniform operations it equals the quantile.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = min(int((q - half_width) * n), n - 1)
    hi = max(int(round((q + half_width) * n)), lo + 1)
    return statistics.fmean(ordered[lo:hi])


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    lat = tally.latencies
    return {
        "setup_s": setup_s,
        "ok_frac": 1 - tally.failed / tally.attempted,
        "p50_ms": smoothed_quantile(lat, 0.5, 0.2) * 1e3,
        "p90_ms": smoothed_quantile(lat, 0.9, 0.05) * 1e3,
        "ops_per_s": tally.work / tally.busy,
    }


def per_layer(spec, workload, state, untraced, traced, pass_agg, setup_agg) -> dict[str, float]:
    """Per-layer metrics: the workload's own, then every ``<module>.<fn>``
    metric from the traced passes (per pass).  A layer the workload does not
    reach reads 0.  Span times are scaled like the traced passes' timings."""
    own = workload.layer_metrics(state, untraced, traced, pass_agg, setup_agg)
    seconds_per_pass = traced.factor() / traced.passes

    def self_s(prefix: str) -> float:
        return sum(s for label, (_, s) in pass_agg.items() if label.startswith(prefix))

    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        match = FUNCTION_METRIC.match(name)
        if name in own:
            value = own[name]
        elif name == "trace.overhead_frac":
            value = traced.busy / untraced.busy - 1
        elif name == "oracles.self_s":
            value = self_s("oracles.") * seconds_per_pass
        elif name == "suites.glue_self_s":
            value = self_s("suites.") * seconds_per_pass
        elif match:
            calls, seconds = pass_agg.get(match.group(1), (0, 0.0))
            value = seconds * seconds_per_pass if match.group(2) == "self_s" else calls / traced.passes
        else:
            value = 0.0
        metrics[name] = value
    return metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def pin_cpu():
    """Keep the benchmark and its children on one CPU, so the reference loop
    samples the speed of the CPU the measured work runs on."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def provenance(args, cpu) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "child_pythonhashseed": "0",
        "pinned_cpu": cpu,
    }


def run(args, spec, bench: Bench):
    workload = importlib.import_module(WORKLOADS[args.workload])
    # Sampling inside operations needs them to run in this process.
    reference = workload.reference(bench) if hasattr(workload, "reference") else LOOP
    inside = reference is LOOP
    if not args.trace:
        setup_times = []
        speed = Speed(reference, inside)
        for _ in range(SETUP_REPEATS):
            start = speed.sample()
            state = workload.setup(bench)
            end = time.perf_counter()
            speed.sample()
            setup_times.append(speed.scale(start, end, end - start))
        tally = measure(workload, state, args.seed, args.seconds, speed, workload.MIN_OPS)
        return [tally], end_to_end(tally, statistics.median(setup_times)), None

    import tracing

    state = workload.setup(bench)
    untraced = measure(workload, state, args.seed, args.seconds / 2, Speed(reference, inside))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    state = workload.setup(bench)
    setup_agg = tracer.aggregate()
    tracer.reset()
    # No samples inside traced operations: their time would land in the spans.
    traced = measure(workload, state, args.seed, 0, Speed(reference), passes=untraced.passes, tracer=tracer)
    pass_agg = tracer.aggregate()
    metrics = per_layer(spec, workload, state, untraced, traced, pass_agg, setup_agg)
    spans = tracer.dump()
    spans["child_spans"] = getattr(state, "child_spans", [])
    return [untraced, traced], metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orderlab" / "__init__.py").is_file():
        print(f"perfbench: no orderlab sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpu = pin_cpu()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    tempfile.tempdir = tmp
    try:
        tallies, metrics, spans = run(args, spec, Bench(args.seed, Path(tmp)))
    finally:
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    meta = provenance(args, cpu)
    loops = sorted(x for t in tallies for x in t.loops)
    meta["reference_ms"] = {
        "min": loops[0] * 1e3, "median": statistics.median(loops) * 1e3, "max": loops[-1] * 1e3,
    }
    raw = tallies[0].raw_latencies
    meta["unscaled"] = {
        "p50_ms": smoothed_quantile(raw, 0.5, 0.2) * 1e3,
        "p90_ms": smoothed_quantile(raw, 0.9, 0.05) * 1e3,
        "ops_per_s": tallies[0].work / sum(raw),
    }
    problems: dict[str, int] = {}
    for t in tallies:
        for key, count in t.problems.items():
            problems[key] = problems.get(key, 0) + count
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": meta, "problems": problems, **result}, fh, indent=1)
    if spans is not None:
        with open(out_dir / f"spans-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"provenance": meta, **spans}, fh)

    print("# provenance " + json.dumps(meta, sort_keys=True))
    for key, count in sorted(problems.items()):
        print(f"# {count} x {key}")
    print(f"# passes {[t.passes for t in tallies]}, operations {result['attempted']}, "
          f"failed {result['failed']}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:16.6f} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
