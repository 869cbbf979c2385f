"""End-to-end command tests: exit codes, report shape, determinism."""

import contextlib
import io
import json
import re
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


def test_lexcode_check_claims(tmp_path):
    code, out, _ = run(
        ["lexcode", "check-claims", "--poset", chain_poset(tmp_path), "--tie-break", "largest-id"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["details"]["problems"] == []
    assert report["counters"]["checked"] > 9


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
