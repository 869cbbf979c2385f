"""The suite runner and the suite registry.

The runner tests feed `formats.tally` and `suites._run` synthetic
generators of checks; none of them is registered in `SUITES`.
"""

import itertools
import re
import types
from pathlib import Path

import pytest
from test_acceptance import CHECKED

from orderlab import formats, oracles, suites, wqo
from orderlab.errors import MAX_FAILURES

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


def test_tally_counts_nones_ints_and_records():
    assert formats.tally(planted(37, set())) == (37, [])
    assert formats.tally(planted(0, set())) == (0, [])

    def mixed():
        yield None
        yield 5
        yield {"at": 7}
        yield None
        yield 1
        yield {"at": 10}
        yield 3

    assert formats.tally(mixed()) == (13, [{"at": 7}, {"at": 10}])


def test_tally_stops_at_the_last_record_with_the_count_before_it():
    closed = {"done": False}

    def counted():
        try:
            for k in itertools.count(1):
                yield k  # k passing checks, then one failure
                yield {"at": k}
        finally:
            closed["done"] = True

    checked, failures = formats.tally(counted())
    assert failures == [{"at": k} for k in range(1, MAX_FAILURES + 1)]
    assert checked == sum(range(1, MAX_FAILURES + 1)) + MAX_FAILURES
    assert closed["done"]


def _per_check_higman_agreement(seed):
    """higman-agreement with one None per passing check, as a reference for
    the suite, which yields its passes as counts."""
    for q in oracles.quasi_orders_upto(3):
        items = sorted(q.elements)
        seqs = oracles.all_seqs(items, 6)
        impl = wqo.higman_leq
        for tau in seqs:
            down = oracles.higman_down_set(tau, q, items)
            for sigma in seqs:
                if impl(sigma, tau, q) == (sigma in down):
                    yield None
                else:
                    yield {"q": q.name, "sigma": list(sigma), "tau": list(tau)}


def _negate_every_1000th_higman_call(monkeypatch):
    calls = itertools.count(1)
    higman_leq = wqo.higman_leq

    def faulty(sigma, tau, q):
        answer = higman_leq(sigma, tau, q)
        return not answer if next(calls) % 1000 == 0 else answer

    monkeypatch.setattr(wqo, "higman_leq", faulty)


def test_higman_agreement_stops_where_the_per_check_form_stops(monkeypatch):
    _negate_every_1000th_higman_call(monkeypatch)
    result = suites.higman_agreement(0)
    monkeypatch.undo()
    _negate_every_1000th_higman_call(monkeypatch)  # the call count starts again
    checked, failures = formats.tally(_per_check_higman_agreement(0))
    assert (result.verdict, result.checked, len(result.failures)) == ("fail", 8000, MAX_FAILURES)
    assert (result.checked, list(result.failures)) == (checked, failures)


def test_result_notes_are_not_the_registered_dict():
    notes = {"trees": 286}
    first = suites._run("a", planted(1, set()), notes)
    first.notes["trees"] = 0
    second = suites._run("a", planted(1, set()), notes)
    assert notes == {"trees": 286}
    assert second.notes == {"trees": 286}


def test_a_result_is_frozen():
    result = suites._run("a", planted(1, set()), {})
    with pytest.raises(AttributeError):
        result.verdict = "fail"
    assert result.verdict == "pass"


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
