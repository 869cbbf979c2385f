"""Traced one-shot CLI call, run as a child of the cli-oneshot workload.

    python3 perfbench/cli_driver.py <span-file> <orderlab arguments...>

It times ``import orderlab.cli``, wraps the public functions of the loaded
orderlab modules, calls ``cli.main`` with the arguments, and writes the
import time, per-function totals and spans to ``<span-file>``.  Stdout and
the exit code are those of ``cli.main``, so the caller checks them as it
checks a plain ``python -m orderlab.cli`` call.
"""

import json
import sys
import time


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from orderlab import cli

    import_s = time.perf_counter() - start
    import tracing

    tracer = tracing.Tracer(cap=2_000)
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        record = {"import_s": import_s, "aggregate": tracer.aggregate(), **tracer.dump()}
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
