"""End-to-end command tests: exit codes, report shape, determinism."""

import contextlib
import io
import itertools
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orderlab import cli, formats

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def child_env():
    """The environment for a child interpreter that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_limited(argv):
    """Exit code and stdout of ``python -m orderlab.cli`` in a child process
    whose address space is capped at 1 GiB, so that a command which
    allocates per declared item ends in `MemoryError` (exit 70) instead of
    taking the host's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "orderlab.cli", *argv],
        capture_output=True, text=True, env=child_env(), preexec_fn=cap,
    )
    return proc.returncode, proc.stdout


def chain_poset(tmp_path):
    return write(
        tmp_path,
        "poset.json",
        {"elements": ["a", "b", "c"], "lt": [["c", "b"], ["b", "a"]]},
    )


def test_tri_pass_report():
    code, out, err = run(["barrier", "tri", "--left", "0,2", "--right", "2,5"])
    assert code == 0
    assert json.loads(out) == {
        "command": "barrier tri",
        "inputs": {"left": "0,2", "right": "2,5"},
        "verdict": "pass",
        "details": {"tri": True, "union": [0, 2, 5]},
        "counters": {"checked": 1, "failures": 0},
    }
    assert err.strip() == "barrier tri: pass"


def test_tri_fail_exit():
    code, out, _ = run(["barrier", "tri", "--left", "0,2", "--right", "3,5"])
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["details"] == {"tri": False}
    assert report["counters"]["failures"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["barrier", "tri", "--left", "0,2", "--right", "2,5"],
        ["wqo", "min-bad", "--q", "nat-eq", "--bound", "300", "--length", "290"],
    ],
)
def test_a_closed_stdout_is_an_output_error(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orderlab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 74
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "output error: stdout was closed before the report was written\n"


def test_inconclusive_exit(tmp_path):
    frag = write(tmp_path, "frag.json", {"uniform": 2, "window": 3})
    code, out, _ = run(["barrier", "check", "--frag", frag])
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["details"]["problems"] == []
    assert [2] in report["details"]["uncovered"]


def test_usage_errors():
    assert run(["frobnicate"])[0] == 64
    assert run([])[0] == 64
    assert run(["barrier", "tri", "--left", "0"])[0] == 64
    assert run(["barrier", "tri", "--left", "0", "--right", "1", "--bogus", "2"])[0] == 64
    assert run(["oracle", "nonsense"])[0] == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["menger", "waves", "--graph", "GRAPH", "--cap", "N"],
        ["wqo", "min-bad", "--q", "nat-eq", "--bound", "N", "--length", "3"],
        ["wqo", "min-bad", "--q", "nat-eq", "--bound", "5", "--length", "N"],
    ],
    ids=["cap", "bound", "length"],
)
def test_negative_counts_are_usage_errors(tmp_path, argv):
    g = write(tmp_path, "graph.json", {"vertices": 2, "edges": [[0, 1]], "A": [0], "B": [1]})

    def with_count(n):
        return [{"GRAPH": g, "N": n}.get(tok, tok) for tok in argv]

    code, out, err = run(with_count("-2"))
    assert (code, out) == (64, "")
    assert "'-2' is not a non-negative integer" in err
    assert run(with_count("0"))[0] in (0, 1)


def test_malformed_json_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(["order", "validate", "--poset", str(bad)])
    assert code == 65
    assert out == ""
    assert err.startswith("input error:")


def test_order_validate(tmp_path):
    code, out, _ = run(["order", "validate", "--poset", chain_poset(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report["details"] == {"elements": 3, "strict_pairs": 3}
    assert re.fullmatch(r"[0-9a-f]{16}", report["inputs"]["poset"])
    # a cyclic order is a failed check on well-formed input, not a parse error
    cyclic = write(
        tmp_path, "cyclic.json", {"elements": ["a", "b"], "lt": [["a", "b"], ["b", "a"]]}
    )
    code, out, _ = run(["order", "validate", "--poset", cyclic])
    assert code == 1
    assert json.loads(out)["details"]["error"] == "CycleError"


def test_order_seq_less(tmp_path):
    poset = chain_poset(tmp_path)
    code, out, _ = run(["order", "seq-less", "--poset", poset, "--left", "c", "--right", "b"])
    assert code == 0 and json.loads(out)["details"] == {"less": True}
    code, out, _ = run(["order", "seq-less", "--poset", poset, "--left", "b", "--right", "c"])
    assert code == 1 and json.loads(out)["details"] == {"less": False}


def test_lexcode_encode_table(tmp_path):
    code, out, _ = run(["lexcode", "encode", "--poset", chain_poset(tmp_path)])
    assert code == 0
    details = json.loads(out)["details"]
    assert details["table"] == {"a": [1], "b": [0, 1], "c": [0, 0, 1]}
    assert details["processing_order"] == ["a", "b", "c"]


def test_lexcode_decode(tmp_path):
    poset = chain_poset(tmp_path)
    code, out, _ = run(["lexcode", "decode", "--poset", poset, "--coded", "0,1,1"])
    assert code == 0
    assert json.loads(out)["details"] == {"seq": ["b"]}
    code, out, _ = run(["lexcode", "decode", "--poset", poset, "--coded", "0,1,1,1,0"])
    assert code == 0
    assert json.loads(out)["details"] == {"seq": ["b", "a"]}
    code, out, _ = run(["lexcode", "decode", "--poset", poset, "--coded", "0,0"])
    assert code == 1
    assert json.loads(out)["details"]["error"] == "MalformedCode"


def test_long_chain_commands_build_no_pairs(tmp_path, monkeypatch):
    from orderlab import order

    def no_pairs(poset):
        raise AssertionError("the pair set of a poset was built")

    # 999 > 998 > ... > 0 by name; a read of any poset's pairs fails the call
    monkeypatch.setattr(order.Poset, "lt", property(no_pairs))
    n = 1000
    doc = {"elements": list(range(n)), "lt": [[k + 1, k] for k in range(n - 1)]}
    poset = write(tmp_path, "chain1000.json", doc)
    code, out, _ = run(["order", "validate", "--poset", poset])
    assert code == 0
    assert json.loads(out)["details"] == {"elements": n, "strict_pairs": 499_500}
    code, out, _ = run(["lexcode", "encode", "--poset", poset])
    assert code == 0
    table = json.loads(out)["details"]["table"]
    assert table == {str(k): [0] * k + [1] for k in range(n)}


def test_lexcode_check_claims(tmp_path):
    code, out, _ = run(
        ["lexcode", "check-claims", "--poset", chain_poset(tmp_path), "--tie-break", "largest-id"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["details"]["problems"] == []
    # 3 strict pairs, 6 ordered pairs of distinct words, 1 + 3 + 9 short sequences
    assert report["counters"] == {"checked": 22, "failures": 0}


def test_lexcode_check_claims_stops_at_the_eighth_failure(tmp_path, monkeypatch):
    from orderlab import lexcode

    def one_word(order, tie_break):
        elems = order.sorted_elements()
        return lexcode.LexCode(order, {x: (1,) for x in elems}, elems)

    # every pair of a 5-chain breaks monotonicity: 10 failures before the cap
    monkeypatch.setattr(lexcode, "encode_order", one_word)
    names = list("abcde")
    chain = {"elements": names, "lt": [[x, y] for x, y in zip(names, names[1:])]}
    poset = write(tmp_path, "chain5.json", chain)
    code, out, _ = run(["lexcode", "check-claims", "--poset", poset])
    report = json.loads(out)
    assert code == 1
    assert report["counters"] == {"checked": 8, "failures": 8}
    assert [p["claim"] for p in report["details"]["problems"]] == ["monotone"] * 8


@pytest.mark.parametrize(
    "route, fault, elements, passed, problems",
    [
        (
            # every word is a prefix of every other: 8 of the 12 ordered pairs fail
            "encode_element",
            lambda f: lambda code, x: (),
            "abcd",
            0,
            [
                {"claim": "prefix-free", "prefix": x, "word": y}
                for x, y in list(itertools.permutations("abcd", 2))[:8]
            ],
        ),
        (
            # the 6 ordered pairs and the empty sequence pass
            "decode_path",
            lambda f: lambda code, coded: f(code, coded)[1:],
            "abc",
            7,
            [
                {"claim": "roundtrip", "seq": list(seq)}
                for seq in ["a", "b", "c", "aa", "ab", "ac", "ba", "bb"]
            ],
        ),
    ],
    ids=["prefix-free", "roundtrip"],
)
def test_lexcode_check_claims_reports_each_failed_claim(
    tmp_path, monkeypatch, route, fault, elements, passed, problems
):
    from orderlab import lexcode

    monkeypatch.setattr(lexcode, route, fault(getattr(lexcode, route)))
    poset = write(tmp_path, "antichain.json", {"elements": list(elements), "lt": []})
    code, out, _ = run(["lexcode", "check-claims", "--poset", poset])
    report = json.loads(out)
    assert code == 1
    assert report["details"]["problems"] == problems
    assert report["counters"] == {"checked": passed + 8, "failures": 8}


def test_wqo_higman_and_bad():
    code, out, _ = run(["wqo", "higman", "--q", "nat-leq", "--left", "1,2", "--right", "0,1,3"])
    assert code == 0 and json.loads(out)["details"] == {"embeds": True}
    code, out, _ = run(["wqo", "bad", "--q", "divides", "--seq", "12,6,3"])
    assert code == 0 and json.loads(out)["details"] == {"bad": True}
    code, out, _ = run(["wqo", "bad", "--q", "divides", "--seq", "12,6,12"])
    assert code == 1
    details = json.loads(out)["details"]
    assert details["good_pair"] == [0, 2] and details["items"] == [12, 12]


def test_wqo_min_bad():
    code, out, _ = run(["wqo", "min-bad", "--q", "nat-eq", "--bound", "5", "--length", "3"])
    assert code == 0
    assert json.loads(out)["details"] == {"found": True, "seq": [0, 1, 2]}


def test_wqo_kruskal_embeds_a_deep_path_into_itself(tmp_path):
    """A 5,000-node path is far deeper than the interpreter's default
    recursion limit, and a fresh interpreter decides it with exit 0."""
    n = 5000
    path = write(tmp_path, "path.json", {"parent": [-1, *range(n - 1)], "labels": [0] * n})
    code, out = run_limited(["wqo", "kruskal", "--q", "nat-leq", "--left", path, "--right", path])
    assert code == 0
    assert json.loads(out)["details"] == {"embeds": True}


def test_wqo_nw_step(tmp_path):
    seqs = write(tmp_path, "seqs.json", {"seqs": [[0, 1, 1], [2, 1], [3, 1]]})
    code, out, _ = run(["wqo", "nw-step", "--q", "nat-eq", "--seqs", seqs, "--s", "1,2"])
    assert code == 0
    assert json.loads(out)["details"] == {"seqs": [[0, 1, 1], [2], [3]]}
    code, out, _ = run(["wqo", "nw-step", "--q", "nat-eq", "--seqs", seqs, "--s", "9"])
    assert code == 1
    assert json.loads(out)["details"]["clause"] == "s-in-window"


def test_barrier_star(tmp_path):
    frag = write(tmp_path, "frag.json", {"uniform": 1, "window": 3})
    code, out, _ = run(["barrier", "star", "--frag", frag])
    assert code == 0
    assert json.loads(out)["details"] == {
        "window": 3,
        "blocks": [[0, 1], [0, 2], [1, 2]],
    }


def test_barrier_star_of_a_uniform_fragment_wider_than_its_window(tmp_path):
    """No block has more elements than the window, so the fragment is empty
    however large ``uniform`` is."""
    huge = write(tmp_path, "huge.json", {"uniform": 10**12, "window": 4})
    wide = write(tmp_path, "wide.json", {"uniform": 5, "window": 4})
    code, out = run_limited(["barrier", "star", "--frag", huge])
    assert code == 0
    report = json.loads(out)
    assert report["details"] == {"window": 4, "blocks": []}
    assert report["verdict"] == "pass"
    assert report == json.loads(run(["barrier", "star", "--frag", wide])[1]) | {
        "inputs": report["inputs"]
    }


def test_barrier_classify(tmp_path):
    frag = write(tmp_path, "frag.json", {"uniform": 1, "window": 3})
    arr = write(tmp_path, "arr.json", {"entries": [[[0], 0], [[1], 2], [[2], 1]]})
    code, out, _ = run(["barrier", "classify", "--frag", frag, "--array", arr, "--q", "nat-leq"])
    assert code == 0
    assert json.loads(out)["details"] == {"labels": ["good", "mixed"]}


def test_barrier_nwt_step(tmp_path):
    frag = write(tmp_path, "frag.json", {"uniform": 1, "window": 3})
    arr = write(
        tmp_path,
        "seqarr.json",
        {"entries": [[[0], [5, 7, 1]], [[1], [5, 1]], [[2], [1]]]},
    )
    code, out, _ = run(
        ["barrier", "nwt-step", "--frag", frag, "--array", arr, "--q", "nat-eq", "--s", "1,2"]
    )
    assert code == 0
    assert json.loads(out)["details"] == {
        "entries": [[[0], [5, 7, 1]], [[1], [5]], [[2], []]]
    }


def test_barrier_array_check_stops_at_the_eighth_violation(tmp_path):
    frag = write(tmp_path, "frag.json", {"uniform": 1, "window": 10})
    # every one of the 45 tri-related pairs is dominated
    arr = write(tmp_path, "seqarr.json", {"entries": [[[i], [1]] for i in range(10)]})
    code, out, _ = run(["barrier", "array-check", "--frag", frag, "--array", arr, "--q", "nat-eq"])
    report = json.loads(out)
    assert code == 1
    assert report["counters"] == {"checked": 10, "failures": 8}
    assert len(report["details"]["violations"]) == 8


@pytest.mark.parametrize(
    "argv, value",
    [
        (["classify"], 1),
        (["array-check"], [1]),
        (["nwt-step", "--s", "0"], [1]),
    ],
    ids=["classify", "array-check", "nwt-step"],
)
def test_an_array_that_repeats_a_block_is_malformed(tmp_path, argv, value):
    frag = write(tmp_path, "frag.json", {"uniform": 1, "window": 3})
    arr = write(tmp_path, "arr.json", {"entries": [[[0], value], [[0], value]]})
    command = ["barrier", argv[0], "--frag", frag, "--array", arr, "--q", "nat-eq", *argv[1:]]
    assert run(command)[:2] == (65, "")


def test_tree_commands(tmp_path):
    aut = write(
        tmp_path, "aut.json", {"alphabet": 1, "states": 1, "start": 0, "delta": [[0, 0, 0]]}
    )
    order = write(tmp_path, "order.json", {"elements": ["x"], "lt": []})
    code, out, _ = run(["tree", "live", "--aut", aut])
    assert code == 0
    assert json.loads(out)["details"] == {"live": [0], "start_live": True}
    code, out, _ = run(["tree", "leftmost", "--aut", aut])
    assert json.loads(out)["details"] == {"lasso": {"prefix": [], "cycle": [0]}}
    code, out, _ = run(["tree", "minimal", "--aut", aut, "--order", order])
    assert code == 0
    assert json.loads(out)["details"]["lasso"] == {"prefix": [], "cycle": [0]}
    dead = write(
        tmp_path, "dead.json", {"alphabet": 1, "states": 1, "start": 0, "delta": []}
    )
    code, out, _ = run(["tree", "leftmost", "--aut", dead])
    assert code == 1
    assert json.loads(out)["details"]["error"] == "WellFounded"


def test_liveness_counts_only_the_states_that_transitions_name(tmp_path):
    # 10**20 declared states, two of them named: no per-state table is built
    aut = write(
        tmp_path,
        "aut.json",
        {"alphabet": 2, "states": 10**20, "start": 0, "delta": [[0, 0, 1], [1, 1, 0]]},
    )
    code, out, _ = run(["tree", "live", "--aut", aut])
    assert code == 0
    assert json.loads(out)["details"] == {"live": [0, 1], "start_live": True}
    code, out, _ = run(["tree", "leftmost", "--aut", aut])
    assert code == 0
    assert json.loads(out)["details"] == {"lasso": {"prefix": [], "cycle": [0, 1]}}


def test_tree_challenge(tmp_path):
    aut = write(
        tmp_path, "aut.json", {"alphabet": 1, "states": 1, "start": 0, "delta": [[0, 0, 0]]}
    )
    order = write(tmp_path, "order.json", {"elements": ["x"], "lt": []})
    chal = write(
        tmp_path, "chal.json", {"challengers": [{"prefix": [], "cycle": [0]}]}
    )
    code, out, _ = run(
        ["tree", "challenge", "--aut", aut, "--order", order, "--cycle", "0",
         "--challengers", chal]
    )
    assert code == 0
    details = json.loads(out)["details"]
    assert details["minimal"] is True
    assert details["entries"][0]["in_tree"] is True
    assert details["entries"][0]["left_of_witness"] is False


ERROR_DOCS = {
    "aut": {"alphabet": 1, "states": 1, "start": 0, "delta": [[0, 0, 0]]},
    "one": {"elements": ["x"], "lt": []},
    "two": {"elements": ["x", "y"], "lt": []},
    "chal": {"challengers": [{"prefix": [], "cycle": [3]}]},
    "frag": {"window": 2, "uniform": 1},
    "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]], "A": [0], "B": [2]},
    # one malformed document per `formats` shape check
    "list": [],
    "no_elements": {"lt": []},
    "float_name": {"elements": [1.5], "lt": []},
    "twin_names": {"elements": ["a", "a"], "lt": []},
    "short_lt": {"elements": ["a", "b"], "lt": [["a"]]},
    "root_last": {"parent": [1, -1], "labels": [1, 2]},
    "short_entry": {"entries": [[[0]]]},
    "scalar_value": {"entries": [[[0], 3]]},
    "short_delta": {"alphabet": 1, "states": 1, "start": 0, "delta": [[0, 0]]},
    "long_edge": {"vertices": 3, "edges": [[0, 1, 2]], "A": [0], "B": [2]},
    "short_label": {"labels": [[1]]},
    "text_in_word": {"labels": [[1, [0, "x"]]]},
    "text_kind": {"labels": [["x", 0]]},
    "negative_label": {"parent": [-1], "labels": [-1]},
    "scalar_seq": {"seqs": [3]},
    "named": {"elements": ["a", "b", 3], "lt": [["a", "b"], ["b", 3], ["a", 3]]},
}


@pytest.mark.parametrize(
    "argv, code, report",
    [
        (
            ["tree", "minimal", "--aut", "{aut}", "--order", "{two}"],
            65,
            "two.json: order has 2 elements, alphabet has 1",
        ),
        (
            ["tree", "challenge", "--aut", "{aut}", "--order", "{one}", "--cycle", "",
             "--challengers", "{chal}"],
            65,
            "cycle: must be non-empty",
        ),
        (
            ["tree", "challenge", "--aut", "{aut}", "--order", "{one}", "--cycle", "0",
             "--challengers", "{chal}"],
            1,
            {"error": "BadLetter", "message": "letter 3 is outside the alphabet"},
        ),
        (
            ["wqo", "min-bad", "--q", "nat-eq", "--bound", "abc", "--length", "3"],
            64,
            "argument --bound: 'abc' is not a non-negative integer",
        ),
        (["barrier", "tri", "--left", "0,x", "--right", "1"], 65, "left: 'x' is not an integer"),
        (
            ["barrier", "tri", "--left=-1,2", "--right", "3"],
            1,
            {"error": "NotIncreasing", "message": "(-1, 2) has negative entries"},
        ),
        (["order", "validate", "--poset", "{list}"], 65, ": expected an object"),
        (["order", "validate", "--poset", "{no_elements}"], 65, "missing key 'elements'"),
        (
            ["order", "validate", "--poset", "{float_name}"],
            65,
            "element names are strings or integers",
        ),
        (["order", "validate", "--poset", "{twin_names}"], 65, "element names must be distinct"),
        (["order", "validate", "--poset", "{short_lt}"], 65, "each lt entry is a pair"),
        (
            ["wqo", "kruskal", "--q", "nat-leq", "--left", "{root_last}", "--right", "{root_last}"],
            65,
            "the root is index 0, marked with -1",
        ),
        (
            ["barrier", "classify", "--frag", "{frag}", "--array", "{short_entry}", "--q", "nat-leq"],
            65,
            "each entry is a [block, value] pair",
        ),
        (
            ["barrier", "array-check", "--frag", "{frag}", "--array", "{scalar_value}", "--q",
             "nat-eq"],
            65,
            "values must be sequences",
        ),
        (["tree", "live", "--aut", "{short_delta}"], 65, "each delta entry is [state, letter, state]"),
        (["menger", "solve", "--graph", "{long_edge}"], 65, "each edge is a pair"),
        (
            ["menger", "decode", "--graph", "{graph}", "--seq", "{short_label}"],
            65,
            "each label is a pair",
        ),
        (
            ["menger", "decode", "--graph", "{graph}", "--seq", "{text_in_word}"],
            65,
            "expected a list of integers",
        ),
        (
            ["menger", "decode", "--graph", "{graph}", "--seq", "{text_kind}"],
            65,
            "label kinds are integers",
        ),
        (
            ["wqo", "higman", "--q", "{named}", "--left", "a", "--right", "b,zz"],
            65,
            "right: 'zz' is not a declared element",
        ),
        (
            ["wqo", "higman", "--q", "nat-leq", "--left", "1,x", "--right", "1"],
            65,
            "left: 'x' is not a natural number",
        ),
        (
            ["wqo", "higman", "--q", "nat-leq", "--left", "1", "--right=2,-1"],
            65,
            "right: '-1' is not a natural number",
        ),
        (
            ["wqo", "kruskal", "--q", "nat-leq", "--left", "{negative_label}", "--right",
             "{root_last}"],
            65,
            ".labels: -1 is not a natural number",
        ),
        (
            ["wqo", "nw-step", "--q", "nat-eq", "--seqs", "{scalar_seq}", "--s", "0"],
            65,
            "[0]: expected a sequence",
        ),
    ],
    ids=[
        "order-size", "empty-cycle", "challenger-letter", "bound-text", "block-item",
        "negative-block", "not-an-object", "missing-key", "name-type", "duplicate-names",
        "lt-pair", "tree-root", "array-entry", "array-sequence", "delta-triple", "edge-pair",
        "label-pair", "word-integers", "label-kind", "named-token", "item-text",
        "item-negative", "json-item-negative", "seqs-sequence",
    ],
)
def test_error_branches(tmp_path, argv, code, report):
    """An input error (65) or usage error (64) writes no report and names
    the problem on stderr; a domain error is a failing report (exit 1)."""
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in ERROR_DOCS.items()}
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
    result, out, err = run(argv)
    assert result == code
    if isinstance(report, str):
        assert out == "" and report in err
    else:
        assert json.loads(out)["details"] == report


@pytest.mark.parametrize(
    "argv, details",
    [
        (
            ["wqo", "kruskal", "--left", "{source}", "--right", "{target}"],
            {"embeds": True},
        ),
        (
            ["barrier", "classify", "--frag", "{frag}", "--array", "{array}"],
            {"labels": ["bad"]},
        ),
    ],
    ids=["kruskal", "classify"],
)
def test_a_poset_file_order_reads_json_items_by_name(tmp_path, argv, details):
    docs = {
        "named": ERROR_DOCS["named"],
        "source": {"parent": [-1, 0], "labels": ["a", 3]},
        "target": {"parent": [-1, 0, 1], "labels": ["a", "b", 3]},
        "frag": ERROR_DOCS["frag"],
        "array": {"entries": [[[0], "b"], [[1], "a"]]},
    }
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
    code, out, _ = run(argv + ["--q", paths["named"]])
    assert (code, json.loads(out)["details"]) == (0, details)


@pytest.mark.parametrize("bound, searched", [(10, 3), (2, 2)])
def test_wqo_min_bad_bounds_a_poset_file_by_its_size(tmp_path, monkeypatch, bound, searched):
    from orderlab import wqo

    bounds = []
    search = wqo.min_bad_sequence

    def recording(q, bound, length):
        bounds.append(bound)
        return search(q, bound, length)

    monkeypatch.setattr(wqo, "min_bad_sequence", recording)
    argv = ["wqo", "min-bad", "--q", chain_poset(tmp_path), "--bound", str(bound), "--length", "2"]
    code, out, _ = run(argv)
    assert bounds == [searched]
    assert code == 0 and len(json.loads(out)["details"]["seq"]) == 2


def test_menger_solve(tmp_path):
    g = write(
        tmp_path, "graph.json", {"vertices": 2, "edges": [[0, 1]], "A": [0], "B": [1]}
    )
    code, out, _ = run(["menger", "solve", "--graph", g])
    assert code == 0
    assert json.loads(out)["details"] == {
        "size": 1,
        "paths": [[0, 1]],
        "separator": [0],
    }


@pytest.mark.parametrize("command", ["solve", "waves", "max-wave"])
def test_menger_reads_only_the_vertices_its_graph_names(tmp_path, command):
    """A 3-vertex path declared among 10**12 vertices reports as among 3,
    but for the input hash."""
    doc = {"edges": [[0, 1], [1, 2]], "A": [0], "B": [2]}
    huge = write(tmp_path, "huge.json", {"vertices": 10**12, **doc})
    small = write(tmp_path, "small.json", {"vertices": 3, **doc})
    code, out = run_limited(["menger", command, "--graph", huge])
    assert code == 0
    report = json.loads(out)
    want = json.loads(run(["menger", command, "--graph", small])[1])
    assert report["inputs"]["graph"] != want["inputs"]["graph"]
    assert report == want | {"inputs": report["inputs"]}


def test_menger_encode_decode(tmp_path):
    g = write(
        tmp_path,
        "graph.json",
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "A": [0], "B": [2]},
    )
    wave = write(tmp_path, "wave.json", {"paths": [[0, 1]]})
    code, out, _ = run(["menger", "encode", "--graph", g, "--wave", wave])
    assert code == 0
    labels = json.loads(out)["details"]["labels"]
    assert labels == [[1, [0]], [2, [0, 1]], [1, [0, 1]], [0, 0], [0, 0], [0, 0]]
    seq = write(tmp_path, "seq.json", {"labels": labels})
    code, out, _ = run(["menger", "decode", "--graph", g, "--seq", seq])
    assert code == 0
    assert json.loads(out)["details"] == {"paths": [[0, 1]]}
    shortcut = write(
        tmp_path,
        "shortcut.json",
        {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "A": [0], "B": [2]},
    )
    code, out, _ = run(["menger", "encode", "--graph", shortcut, "--wave", wave])
    assert code == 1
    assert json.loads(out)["details"]["error"] == "NotAWave"


@pytest.mark.parametrize("blank", [[0, False], [0, 0.0]], ids=["false", "float"])
def test_a_blank_label_is_the_integer_zero(tmp_path, blank):
    g = write(
        tmp_path,
        "graph.json",
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "A": [0], "B": [2]},
    )
    labels = [[1, [0]], [2, [0, 1]], [1, [0, 1]], [0, 0], [0, 0], blank]
    seq = write(tmp_path, "seq.json", {"labels": labels})
    assert run(["menger", "decode", "--graph", g, "--seq", seq])[:2] == (65, "")


def test_menger_waves_and_max_wave_on_a_long_path(tmp_path):
    """A 1,100-vertex path, deeper than the interpreter's recursion limit."""
    n = 1100
    g = write(
        tmp_path,
        "path.json",
        {"vertices": n, "edges": [[v, v + 1] for v in range(n - 1)], "A": [0], "B": [n - 1]},
    )
    code, out, _ = run(["menger", "waves", "--graph", g])
    assert code == 0
    details = json.loads(out)["details"]
    assert details["count"] == n and details["truncated"] is False
    assert details["waves"][-1] == [list(range(n))]
    code, out, _ = run(["menger", "max-wave", "--graph", g])
    assert code == 0
    assert json.loads(out)["details"] == {"paths": [list(range(n))], "terminals": [n - 1]}


def test_menger_waves_cap_stops_the_search_on_a_wide_star(tmp_path):
    """1,100 sources around one sink: the search stops at the third wave."""
    n = 1100
    g = write(
        tmp_path,
        "star.json",
        {"vertices": n + 1, "edges": [[v, n] for v in range(n)], "A": list(range(n)), "B": [n]},
    )
    code, out, _ = run(["menger", "waves", "--cap", "2", "--graph", g])
    assert code == 0
    details = json.loads(out)["details"]
    assert details["count"] == 2 and details["truncated"] is True
    assert details["waves"][1][-1] == [n - 1, n]


def test_menger_waves_cap_bounds_the_search_on_a_complete_graph(tmp_path):
    """K10 from vertex 0 to vertex 9: the search stops at the second wave,
    after a few of the 986,410 simple paths from 0."""
    edges = [list(e) for e in itertools.combinations(range(10), 2)]
    g = write(tmp_path, "k10.json", {"vertices": 10, "edges": edges, "A": [0], "B": [9]})
    code, out, _ = run(["menger", "waves", "--cap", "1", "--graph", g])
    assert code == 0
    assert json.loads(out)["details"] == {"count": 1, "truncated": True, "waves": [[[0]]]}


def test_barrier_check_walks_a_long_block(tmp_path):
    frag = write(tmp_path, "frag.json", {"blocks": [list(range(1500))], "window": 1500})
    code, out, _ = run(["barrier", "check", "--frag", frag])
    assert code == 2
    uncovered = json.loads(out)["details"]["uncovered"]
    assert len(uncovered) == 8
    assert uncovered[0] == [*range(1498), 1499]


@pytest.mark.parametrize(
    "command, k, code, blocks",
    # C(40, 3) = 9880 blocks are checked in both; star builds C(40, 3) from C(40, 2)
    [("check", 3, 2, None), ("star", 2, 0, 9880)],
)
def test_barrier_on_a_wide_uniform_fragment(tmp_path, command, k, code, blocks):
    """A uniform fragment is checked like any other, in one pass: blocks of
    equal length are never tried for containment in each other."""
    frag = write(tmp_path, "frag.json", {"uniform": k, "window": 40})
    start = time.perf_counter()
    got, out, _ = run(["barrier", command, "--frag", frag])
    elapsed = time.perf_counter() - start
    assert got == code
    details = json.loads(out)["details"]
    if blocks is None:
        assert details["problems"] == [] and len(details["uncovered"]) == 8
    else:
        assert len(details["blocks"]) == blocks
    assert elapsed < 3.0, elapsed


def test_oracle_smoke():
    code, out, _ = run(["oracle", "star-law"])
    assert code == 0
    suites = json.loads(out)["details"]["suites"]
    assert len(suites) == 1 and suites[0]["verdict"] == "pass"


def test_reports_are_byte_identical(tmp_path):
    poset = chain_poset(tmp_path)
    argv = ["lexcode", "encode", "--poset", poset, "--tie-break", "largest-id"]
    first = run(argv)
    second = run(argv)
    assert first == second
    assert first[0] == 0


def golden_battery(tmp_path):
    """The benchmark's golden record, and a function that fills its argv
    templates with paths to its documents, written as the benchmark writes
    them so the digests match, and to its unreadable file (a directory)."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    paths = {}
    for name, doc in golden["files"].items():
        path = tmp_path / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths[name] = str(path)
    unreadable = tmp_path / golden["unreadable"]
    unreadable.mkdir()
    paths[golden["unreadable"]] = str(unreadable)
    return golden, lambda argv: [paths[a[1:-1]] if a.startswith("{") else a for a in argv]


def test_golden_battery_is_byte_identical(tmp_path):
    """Every command of the benchmark's golden battery reproduces its
    recorded stdout and exit code."""
    golden, fill = golden_battery(tmp_path)
    assert len(golden["commands"]) == 26
    for case in golden["commands"]:
        code, out, _ = run(fill(case["argv"]))
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_cli_determinism_runs_the_golden_battery():
    """The cli-determinism suite's documents and commands are the golden
    battery's, with ``{seed}`` at 0, and its ``seq`` document is the coded
    form of the wave ``[[0, 1]]`` on its graph."""
    from orderlab import menger, suites

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert suites.CLI_FILES == {name: golden["files"][name] for name in suites.CLI_FILES}
    assert len(suites.CLI_FILES) == 15
    battery = [["0" if a == "{seed}" else a for a in argv] for argv in suites.CLI_BATTERY]
    assert battery == [case["argv"] for case in golden["commands"]]
    g = formats.graph_from_doc(suites.CLI_FILES["graph"])
    labels = menger.encode_wave(g, menger.warp_of([(0, 1)]))
    assert suites.CLI_FILES["seq"] == {"labels": formats.labels_to_doc(labels)}


# Runs the cli-determinism battery in process over the documents in the
# directory argv[1], printing each command's exit code and stdout.
BATTERY_CHILD = """
import contextlib, io, os, sys
from orderlab import cli, suites
paths = {name: os.path.join(sys.argv[1], name + ".json") for name in suites.CLI_FILES}
paths["seed"] = "0"
for template in suites.CLI_BATTERY:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([paths[a[1:-1]] if a.startswith("{") else a for a in template])
    sys.stdout.write(f"{code} {out.getvalue()}")
"""


def test_golden_battery_prints_the_same_bytes_under_two_hash_seeds(tmp_path):
    """The battery's element names are strings, whose set order follows the
    hash seed, and `menger encode` and `decode` print set-valued meet
    labels: two interpreters under different ``PYTHONHASHSEED`` values
    print the golden bytes."""
    golden, _ = golden_battery(tmp_path)
    expected = "".join(f"{case['exit']} {case['stdout']}" for case in golden["commands"])
    for seed in ("1", "98765"):
        proc = subprocess.run(
            [sys.executable, "-c", BATTERY_CHILD, str(tmp_path)],
            capture_output=True, text=True, env=dict(child_env(), PYTHONHASHSEED=seed),
        )
        assert (proc.returncode, proc.stdout) == (0, expected), seed


def test_golden_malformed_documents_keep_the_exit_contract(tmp_path):
    """The battery's malformed documents and its unreadable file end in a
    contract exit code, with one canonical report whenever the exit code
    carries one; each of them is a parse error."""
    golden, fill = golden_battery(tmp_path)
    assert len(golden["malformed"]) == 6
    for argv in golden["malformed"]:
        code, out, _ = run(fill(argv))
        assert code in (0, 1, 2, 64, 65), argv
        if code in (0, 1, 2):
            assert out == formats.canonical_dumps(json.loads(out)) + "\n", argv
        assert (code, out) == (65, ""), argv


@pytest.mark.parametrize(
    "argv, docs, stdout",
    [
        (
            ["barrier", "check", "--frag", "{frag}"],
            {"frag": {"window": 3, "blocks": [[0], [0, 1], [2, 1], [5]]}},
            '{"command":"barrier check","counters":{"checked":1,"failures":3},'
            '"details":{"problems":["block (2, 1) is not strictly increasing",'
            '"block (5,) leaves the window 3",'
            '"range of (0,) is contained in range of (0, 1)"],"uncovered":[]},'
            '"inputs":{"frag":"075de7b9f6d962b0"},"verdict":"fail"}\n',
        ),
        (
            ["barrier", "check", "--frag", "{frag}"],
            {"frag": {"window": 3, "blocks": [[-1]]}},
            '{"command":"barrier check","counters":{"checked":1,"failures":1},'
            '"details":{"problems":["block (-1,) leaves the window 3"],"uncovered":[]},'
            '"inputs":{"frag":"08e6b540176a3e2d"},"verdict":"fail"}\n',
        ),
        (
            ["menger", "encode", "--graph", "{graph}", "--wave", "{wave}"],
            {
                "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]], "A": [0], "B": [2]},
                "wave": {"paths": [[0, 2]]},
            },
            '{"command":"menger encode","counters":{"checked":1,"failures":1},'
            '"details":{"error":"InvalidWarp",'
            '"message":"path (0, 2) uses the missing edge (0, 2)"},'
            '"inputs":{"graph":"6af9db3d5b693164","wave":"5fa176d5573cc5fc"},'
            '"verdict":"fail"}\n',
        ),
    ],
    ids=["fragment-problems", "fragment-negative-entry", "warp-missing-edge"],
)
def test_fail_reports_are_pinned(tmp_path, argv, docs, stdout):
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    argv = [paths[a[1:-1]] if a.startswith("{") else a for a in argv]
    assert run(argv)[:2] == (1, stdout)


@pytest.mark.parametrize(
    "argv, code, details",
    [
        (["order", "seq-less", "--poset", "{p}", "--left", "0", "--right", "1"], 0, {"less": True}),
        (["wqo", "higman", "--q", "{p}", "--left", "0", "--right", "2,1"], 0, {"embeds": True}),
        (["wqo", "bad", "--q", "{p}", "--seq", "2,0,1"], 1,
         {"bad": False, "good_pair": [1, 2], "items": [0, 1]}),
    ],
    ids=["order-seq-less", "wqo-higman", "wqo-bad"],
)
def test_integer_names_are_given_by_their_text(tmp_path, argv, code, details):
    poset = write(tmp_path, "p.json", {"elements": [0, 1, 2], "lt": [[0, 1]]})
    result, out, _ = run([poset if a == "{p}" else a for a in argv])
    assert (result, json.loads(out)["details"]) == (code, details)


def test_domain_error_report_names_command_and_inputs():
    code, out, err = run(["barrier", "tri", "--left", "2,0", "--right", "1"])
    assert code == 1
    assert json.loads(out) == {
        "command": "barrier tri",
        "inputs": {"left": "2,0", "right": "1"},
        "verdict": "fail",
        "details": {"error": "NotIncreasing", "message": "(2, 0) is not strictly increasing"},
        "counters": {"checked": 1, "failures": 1},
    }
    assert err.strip() == "barrier tri: fail"


def test_an_internal_error_is_exit_70_with_one_report(tmp_path, monkeypatch):
    """An exception that is no `OrderlabError` is a fault of the program:
    exit 70 and one canonical report naming the command and its inputs."""

    def broken(a, spec):
        raise KeyError("lost")

    table = tuple(c._replace(op=broken) if c.path == "order validate" else c for c in cli._COMMANDS)
    monkeypatch.setattr(cli, "_COMMANDS", table)
    poset = chain_poset(tmp_path)
    code, out, err = run(["order", "validate", "--poset", poset])
    assert code == 70
    assert out == formats.canonical_dumps(json.loads(out)) + "\n"
    assert json.loads(out) == {
        "command": "order validate",
        "inputs": {"poset": cli._digest(poset)},
        "verdict": "error",
        "details": {"error": "KeyError", "message": "'lost'"},
        "counters": {"checked": 0, "failures": 0},
    }
    assert err.startswith("Traceback") and "KeyError: 'lost'" in err
    assert err.endswith("\norder validate: error\n")


def test_decode_does_not_record_tie_break(tmp_path):
    poset = chain_poset(tmp_path)
    argv = ["lexcode", "decode", "--poset", poset, "--coded", "0,1,1"]
    _, out, _ = run(argv + ["--tie-break", "largest-id"])
    assert set(json.loads(out)["inputs"]) == {"poset", "coded"}


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": [[1], [2]], "lt": []},
        {"elements": ["a", "b"], "lt": [[["a"], "b"]]},
        {"elements": [1, True], "lt": [[1, True]]},
        {"elements": [1, 2], "lt": [[1, True]]},
    ],
    ids=["unhashable-element", "unhashable-lt-name", "bool-element", "bool-lt-name"],
)
def test_poset_names_must_be_strings_or_integers(tmp_path, doc):
    code, out, err = run(["order", "validate", "--poset", write(tmp_path, "p.json", doc)])
    assert (code, out) == (65, "")
    assert err.startswith("input error:")


def test_named_items_must_be_names(tmp_path):
    frag = write(tmp_path, "frag.json", {"uniform": 1, "window": 2})
    arr = write(tmp_path, "arr.json", {"entries": [[[0], ["a"]], [[1], "b"]]})
    argv = ["barrier", "classify", "--frag", frag, "--array", arr, "--q", chain_poset(tmp_path)]
    code, out, _ = run(argv)
    assert (code, out) == (65, "")


@pytest.mark.parametrize(
    "argv, name, doc",
    [
        (["barrier", "check"], "--frag", {"window": 3, "uniform": 0}),
        (["barrier", "check"], "--frag", {"window": 3, "uniform": True}),
        (["barrier", "check"], "--frag", {"window": True, "blocks": []}),
        (["barrier", "star"], "--frag", {"window": -3, "blocks": []}),
        (["barrier", "star"], "--frag", {"window": 3, "uniform": 0}),
        (["menger", "solve"], "--graph", {"vertices": -1, "edges": [], "A": [], "B": []}),
        (["tree", "live"], "--aut", {"alphabet": -1, "states": 1, "start": 0, "delta": []}),
        (["tree", "live"], "--aut", {"alphabet": True, "states": 1, "start": 0, "delta": []}),
    ],
)
def test_negative_sizes_and_bools_are_parse_errors(tmp_path, argv, name, doc):
    code, out, _ = run(argv + [name, write(tmp_path, "doc.json", doc)])
    assert (code, out) == (65, "")


# ------------------------------------------------------ loading and parsing

# the golden command a group is probed with -> the orderlab submodules one
# `python -m orderlab.cli` call of it loads
LOADED = {
    "order validate": {"_record", "errors", "formats", "order"},
    "lexcode encode": {"_record", "errors", "formats", "order", "lexcode"},
    "lexcode check-claims": {"_record", "errors", "formats", "order", "lexcode", "suites"},
    "wqo higman": {"_record", "errors", "formats", "order", "wqo"},
    "barrier check": {"_record", "errors", "formats", "barrier"},
    "barrier tri": {"_record", "errors", "formats", "barrier"},
    "barrier classify": {"_record", "errors", "formats", "order", "barrier"},
    "tree live": {"_record", "errors", "formats", "trees"},
    "tree leftmost": {"_record", "errors", "formats", "trees"},
    "tree minimal": {"_record", "errors", "formats", "order", "trees", "lexcode"},
    "menger solve": {"_record", "errors", "formats", "menger"},
    "oracle star-law": {"_record", "errors", "formats", "suites", "barrier"},
    "oracle tri-agreement": {"_record", "errors", "formats", "suites", "barrier", "oracles"},
}
# the commands of LOADED that read no input file, so digest none
NO_INPUT_FILE = {"wqo higman", "barrier tri", "oracle star-law", "oracle tri-agreement"}
# the argv of each command of LOADED that the golden battery does not hold
OFF_BATTERY = {"oracle tri-agreement": ["oracle", "tri-agreement", "--seed", "0"]}


# runs `python -m orderlab.cli <args>`, then prints the loaded orderlab
# submodules and which of three costly standard modules the call added to a
# bare interpreter's
PROBE = """
import sys
bare = set(sys.modules)
import runpy
try:
    runpy.run_module("orderlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(*sorted(m for m in sys.modules if m.startswith("orderlab.")), file=sys.stderr)
print(*sorted({"dataclasses", "inspect", "hashlib"} & (set(sys.modules) - bare)), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command", list(LOADED))
def test_a_call_loads_only_the_modules_of_its_command(tmp_path, command):
    """Each call answers as the golden battery records, or, off the battery,
    as the same call in process does."""
    if command in OFF_BATTERY:
        argv = OFF_BATTERY[command]
        expected = run(argv)[:2]
    else:
        golden, fill = golden_battery(tmp_path)
        (case,) = [c for c in golden["commands"] if " ".join(c["argv"][:2]) == command]
        argv, expected = fill(case["argv"]), (case["exit"], case["stdout"])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout) == expected
    loaded, costly = (line.split() for line in proc.stderr.splitlines()[-2:])
    assert {m.removeprefix("orderlab.") for m in loaded} == LOADED[command]
    assert costly == ([] if command in NO_INPUT_FILE else ["hashlib"])


def outcome(argv):
    """Exit code, stdout and stderr of `cli.main`, also when argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "group", [None, "order", "lexcode", "wqo", "barrier", "tree", "menger", "oracle"]
)
def test_a_one_group_parser_answers_as_the_full_parser(monkeypatch, group):
    """``main`` builds only the parsers of the group its first argument
    names; help, usage and errors read as with every parser built."""
    lead = [group] if group else []
    cases = [lead, lead + ["--help"], lead + ["bogus"]]
    cases += [[*c.path.split(), "--help"] for c in cli._COMMANDS if c.path.split()[0] == group]
    one_group = [outcome(argv) for argv in cases]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda group=None: full())
    assert [outcome(argv) for argv in cases] == one_group
