"""The suite runner and the suite registry.

The runner tests feed `suites._run` synthetic generators of checks; none of
them is registered in `SUITES`.
"""

import re
import types
from pathlib import Path

from test_acceptance import CHECKED

from orderlab import suites

README = Path(__file__).resolve().parents[1] / "README.md"


def planted(n, failing, closed=None):
    """``n`` checks, failing exactly at the 1-based positions ``failing``;
    ``closed["done"]`` is set when the generator is closed or ends."""
    try:
        for i in range(1, n + 1):
            yield {"at": i} if i in failing else None
    finally:
        if closed is not None:
            closed["done"] = True


def test_runner_stops_at_the_eighth_failure_and_closes():
    failing = [3 * k + 2 for k in range(20)]
    closed = {"done": False}
    result = suites._run("planted", planted(100, set(failing), closed), {})
    assert result.verdict == "fail"
    assert result.failures == tuple({"at": i} for i in failing[:8])
    assert result.checked == failing[7]
    assert closed["done"]


def test_runner_counts_an_all_pass_generator_to_the_end():
    result = suites._run("clean", planted(37, set()), {"cap": 37})
    assert result.verdict == "pass"
    assert result.checked == 37
    assert result.failures == ()
    assert result.notes == {"cap": 37}
    empty = suites._run("empty", planted(0, set()), {})
    assert (empty.verdict, empty.checked) == ("pass", 0)


def test_runner_keeps_every_failure_below_the_cap():
    result = suites._run("few", planted(50, {4, 40}), {})
    assert result.verdict == "fail"
    assert result.checked == 50
    assert result.failures == ({"at": 4}, {"at": 40})


def test_result_notes_are_not_the_registered_dict():
    notes = {"trees": 286}
    first = suites._run("a", planted(1, set()), notes)
    first.notes["trees"] = 0
    second = suites._run("a", planted(1, set()), notes)
    assert notes == {"trees": 286}
    assert second.notes == {"trees": 286}


def readme_suite_table() -> dict[str, int]:
    """``suite -> checks`` from the table in the README's "Oracle suites"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Oracle suites\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| ([a-z-]+) \| ([\d,]+) \|", section, re.M)
    return {name: int(count.replace(",", "")) for name, count in rows}


def test_registry_matches_the_tracer_the_acceptance_counts_and_the_readme():
    for name, fn in suites.SUITES.items():
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == "orderlab.suites", name
        assert not fn.__name__.startswith("_") and getattr(suites, fn.__name__) is fn, name
    assert set(suites.SUITES) == set(CHECKED)
    assert readme_suite_table() == CHECKED
