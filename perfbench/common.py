"""Shared pieces of the benchmark: operations, outcome tallies, and the
environment of the child interpreters."""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Outcome kinds returned by an operation's check.  A wrong answer makes the
# run incorrect; a failure (a crash, a broken exit-code contract, a
# recursion-depth error) is counted but is not a wrong answer.
WRONG = "wrong"
FAILED = "failed"

Problem = Optional[tuple[str, str]]


class Op(NamedTuple):
    """One operation of a pass.

    ``call`` does the work and is the only timed part; ``check`` compares its
    result with the expected one and returns None or ``(kind, reason)``.
    ``work`` is the number of answers the call produces.  Untimed
    operations count toward attempted and failed only.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], Problem]
    work: int = 1
    timed: bool = True


def expect(got, expected, what: str = "answer") -> Problem:
    return None if got == expected else (WRONG, f"{what} differs from the expected value")


@dataclass
class Bench:
    """What a workload needs to know about the run."""

    seed: int
    tmp: Path

    def child_env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(self.tmp)
        return env


@dataclass(frozen=True)
class Reference:
    """Fixed work whose time follows the host's speed as the measured
    operations' time does: ``run`` takes ``seconds`` at the reference speed
    and is timed ``burst`` times in a row, at least every ``every_s``."""

    run: Callable[[], object]
    seconds: float
    burst: int
    every_s: float


def _pick(a: int, b: int) -> int:
    return a + b if a < b else a - b


def _reference_loop() -> int:
    """Fixed pure-Python work mixing calls, tuples, dicts, sets and strings."""
    table: dict = {}
    seen = set()
    out = []
    for i in range(6000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + _pick(i % 7, i % 11)
        if key in seen:
            out.append(key)
        seen.add((i % 97, 0))
        out.append(str(i))
    out.sort(key=str)
    return len(out) + sum(table.values())


LOOP = Reference(_reference_loop, 0.005, 3, 0.2)


class Speed:
    """The host's speed, sampled with a `Reference`.

    On a shared host the same work can take 1.5 times as long from one
    second to the next.  The benchmark times the reference between
    operations and, when ``inside`` is set, every ``every_s`` inside them
    from a timer signal; the time spent in those samples is taken out of the
    operation's time.  Each timing is then scaled by the reference's
    ``seconds`` over the mean reference time around and inside it (the
    samples before and after count as the median of the nearest
    ``burst``), so that times read as if measured at one fixed speed.
    Unscaled figures go to the result file.
    """

    def __init__(self, reference: Reference, inside: bool = False):
        self.reference = reference
        self.inside = inside
        self.ends: list[float] = []
        self.loops: list[float] = []
        self.paused = 0.0
        if inside:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _loop(self) -> float:
        start = time.perf_counter()
        self.reference.run()
        end = time.perf_counter()
        self.ends.append(end)
        self.loops.append(end - start)
        return end - start

    def _on_alarm(self, signum, frame) -> None:
        self.paused += self._loop()

    def sample(self) -> float:
        """Take a burst of samples between operations; return the time."""
        for _ in range(self.reference.burst):
            self._loop()
        return self.ends[-1]

    def arm(self, timed: bool) -> float:
        """Start sampling inside an operation; return the paused total."""
        if self.inside and timed:
            every = self.reference.every_s
            signal.setitimer(signal.ITIMER_REAL, every, every)
        return self.paused

    def disarm(self) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` of work done between ``start`` and ``end``, at the
        reference speed."""
        burst = self.reference.burst
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_left(self.ends, end)
        before = self.loops[max(first - burst, 0):first] or self.loops[:burst]
        after = self.loops[last:last + burst] or self.loops[-burst:]
        loops = self.loops[first:last] + [statistics.median(before), statistics.median(after)]
        return seconds * self.reference.seconds / statistics.fmean(loops)


@dataclass
class Tally:
    """Outcomes and timings of the operations run in one phase.

    Raw timings are recorded as the operations run; `finish` scales them to
    the reference speed and derives the statistics.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    passes: int = 0
    records: list = field(default_factory=list)
    failures_by_name: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    by_name: dict = field(default_factory=dict)
    work: int = 0
    busy: float = 0.0
    loops: list = field(default_factory=list)

    def record(self, op: Op, start: float, end: float, seconds: float, problem: Problem) -> None:
        self.attempted += 1
        if op.timed:
            self.records.append((op.name, op.work, start, end, seconds))
        if problem is not None:
            self.failed += 1
            if problem[0] == WRONG:
                self.wrong += 1
            self.failures_by_name[op.name] = self.failures_by_name.get(op.name, 0) + 1
            key = f"{problem[0]}: {op.name}: {problem[1]}"
            self.problems[key] = self.problems.get(key, 0) + 1

    def finish(self, speed: Speed) -> None:
        self.loops = speed.loops
        for name, work, start, end, seconds in self.records:
            scaled = speed.scale(start, end, seconds)
            self.raw_latencies.append(seconds)
            self.latencies.append(scaled)
            self.by_name.setdefault(name, []).append(scaled)
            self.work += work
            self.busy += scaled

    def median(self, name: str) -> float:
        return statistics.median(self.by_name[name])

    def factor(self) -> float:
        """Mean scale applied to this phase's timings."""
        return self.busy / sum(self.raw_latencies)


def canonical(text: str) -> bool:
    """Whether ``text`` is exactly one canonical JSON document and a newline."""
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    return text == json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"
