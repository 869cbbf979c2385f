"""Spans at the public-function boundaries of the orderlab modules.

The benchmark installs the spans from outside: every public function defined
in an ``orderlab`` module is replaced, in every ``orderlab`` namespace that
binds it (``cli`` imports ``validate_poset``, ``barrier`` imports
``higman_lift``), by a wrapper that records one span per call.  Suite
functions are also replaced in the ``suites.SUITES`` registry, and
``KTree.__init__`` is wrapped as ``wqo.KTree_init``.  Only modules
already imported are wrapped, so tracing moves no import cost: a module the
program imports lazily (``build_parser`` imports ``suites``) keeps paying for
that import where it did.  Untraced runs never call `install`, so they run
the program unmodified.

Self time is computed from how spans nest: each span subtracts the duration
of its direct child spans.  It is accumulated exactly for every call; the raw
span records are kept in memory up to a cap and written out when the run
ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types

MODULES = (
    "order", "lexcode", "trees", "wqo", "barrier", "menger",
    "formats", "oracles", "suites", "cli",
)
SPAN_CAP = 100_000


class Tracer:
    """In-memory span recorder with per-label call counts and self time."""

    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.labels: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0

    def reset(self) -> None:
        """Forget counts and spans, keeping the installed labels."""
        self.calls = [0] * len(self.labels)
        self.self_s = [0.0] * len(self.labels)
        self.spans = []
        self.dropped = 0

    def wrap(self, label: str, fn):
        index = len(self.labels)
        self.labels.append(label)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[index] += duration - frame[1]
                self.calls[index] += 1
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(self.spans) < self.cap:
                    self.spans.append((span_id, index, start, end, parent, self.op))
                else:
                    self.dropped += 1

        return traced

    def aggregate(self) -> dict[str, list]:
        """``label -> [calls, self seconds]`` for labels that were called."""
        return {
            label: [calls, self_s]
            for label, calls, self_s in zip(self.labels, self.calls, self.self_s)
            if calls
        }

    def dump(self) -> dict:
        return {
            "labels": self.labels,
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }


def install(tracer: Tracer) -> None:
    """Wrap every public function of the loaded orderlab modules in every
    namespace that binds it."""
    modules = [
        sys.modules[name]
        for name in ["orderlab"] + [f"orderlab.{m}" for m in MODULES]
        if name in sys.modules
    ]
    wrapped: dict[int, object] = {}
    for module in modules:
        if module.__name__ == "orderlab":
            continue
        short = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (
                isinstance(obj, types.FunctionType)
                and not name.startswith("_")
                and obj.__module__ == module.__name__
            ):
                wrapped[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                setattr(module, name, wrapped[id(obj)])
    if "orderlab.suites" in sys.modules:
        registry = sys.modules["orderlab.suites"].SUITES
        for name, fn in list(registry.items()):
            registry[name] = wrapped.get(id(fn), fn)
    if "orderlab.wqo" in sys.modules:
        ktree = sys.modules["orderlab.wqo"].KTree
        ktree.__init__ = tracer.wrap("wqo.KTree_init", ktree.__init__)


def merge(into: dict[str, list], other: dict[str, list]) -> None:
    """Add one ``aggregate()`` result into another."""
    for label, (calls, self_s) in other.items():
        slot = into.setdefault(label, [0, 0.0])
        slot[0] += calls
        slot[1] += self_s
