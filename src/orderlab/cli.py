"""Command-line interface.

Every command prints one canonical JSON report on stdout and a one-line
summary on stderr.  Exit codes: 0 pass, 1 fail, 2 inconclusive, 64 usage
error, 65 malformed input, 70 internal error, 74 stdout closed before the
report was written.  Reports are byte-deterministic: inputs are recorded
as content digests and all sets are emitted sorted.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Callable, NamedTuple, Optional

from . import formats
from .errors import OrderlabError, ParseError

EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_IOERR = 74
# report verdict -> exit code; an "error" report is a fault of the program (EX_SOFTWARE)
_EXITS = {"pass": 0, "fail": 1, "inconclusive": 2, "error": 70}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(path: str) -> str:
    import hashlib  # here, so that a call with no input file never loads it

    return hashlib.sha256(formats.read_bytes(path)).hexdigest()[:16]


def _size(text: str) -> int:
    """A count or bound from the command line: an integer, at least 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _csv(text: str) -> list[str]:
    text = text.strip()
    if not text:
        return []
    return [tok.strip() for tok in text.split(",")]


def _csv_ints(text: str, where: str) -> tuple[int, ...]:
    out = []
    for tok in _csv(text):
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(f"{where}: {tok!r} is not an integer") from None
    return tuple(out)


def _csv_items(text: str, spec: formats.QuasiSpec, where: str) -> tuple:
    return tuple(spec.parse_item(tok, where) for tok in _csv(text))


def _load(loader, path: str, *extra):
    """Read the JSON document at ``path`` and parse it with ``loader``."""
    return loader(formats.read_json(path), *extra, path)


def _holds(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------- order


def _order_validate(a, _):
    from .order import validate_poset
    names, pairs = _load(formats.raw_poset_from_doc, a.poset)
    rows = validate_poset(pairs, range(len(names))).rows
    return "pass", {"elements": len(names), "strict_pairs": sum(row.bit_count() for row in rows)}


def _order_seq_less(a, _):
    from .order import seq_less
    named = _load(formats.poset_from_doc, a.poset)
    left = tuple(named.text_to_id(tok, "left") for tok in _csv(a.left))
    right = tuple(named.text_to_id(tok, "right") for tok in _csv(a.right))
    less = seq_less(left, right, named.poset)
    return _holds(less), {"less": less}


# ---------------------------------------------------------------- lexcode


def _load_code(a):
    from .lexcode import encode_order
    named = _load(formats.poset_from_doc, a.poset)
    return named, encode_order(named.poset, a.tie_break)


def _lexcode_encode(a, _):
    named, code = _load_code(a)
    table = {str(named.to_name(x)): list(code.table[x]) for x in sorted(code.table)}
    order = [named.to_name(x) for x in code.processing_order]
    return "pass", {"table": table, "processing_order": order}


def _lexcode_decode(a, _):
    from . import lexcode
    named, code = _load_code(a)
    seq = lexcode.decode_path(code, _csv_ints(a.coded, "coded"))
    return "pass", {"seq": [named.to_name(x) for x in seq]}


def _lexcode_check_claims(a, _):
    from . import suites
    named, code = _load_code(a)
    poset, name = named.poset, named.to_name

    def checks():
        for pair in suites.monotone_failures(poset, code):
            yield pair and {"claim": "monotone", "below": name(pair[0]), "above": name(pair[1])}
        for pair in suites.prefix_failures(poset, code):
            yield pair and {"claim": "prefix-free", "prefix": name(pair[0]), "word": name(pair[1])}
        seqs = itertools.islice(suites.short_seqs(poset.sorted_elements()), 300)
        for seq in suites.roundtrip_failures(code, seqs):
            yield None if seq is None else {"claim": "roundtrip", "seq": [name(x) for x in seq]}

    checked, problems = formats.tally(checks())
    return _holds(not problems), {"problems": problems}, checked, len(problems)


# ---------------------------------------------------------------- wqo


def _wqo_higman(a, spec):
    from . import wqo
    left = _csv_items(a.left, spec, "left")
    right = _csv_items(a.right, spec, "right")
    ok = wqo.higman_leq(left, right, spec.q)
    return _holds(ok), {"embeds": ok}


def _wqo_kruskal(a, spec):
    from . import wqo
    s_tree = _load(formats.ktree_from_doc, a.left, spec)
    t_tree = _load(formats.ktree_from_doc, a.right, spec)
    ok = wqo.ktree_leq(s_tree, t_tree, spec.q)
    return _holds(ok), {"embeds": ok}


def _wqo_bad(a, spec):
    from . import wqo
    seq = _csv_items(a.seq, spec, "seq")
    pair = wqo.is_bad(seq, spec.q)
    if pair is None:
        return "pass", {"bad": True}
    i, j = pair
    items = [spec.show_item(seq[i]), spec.show_item(seq[j])]
    return "fail", {"bad": False, "good_pair": [i, j], "items": items}


def _wqo_min_bad(a, spec):
    from . import wqo
    bound = a.bound
    if spec.named is not None:
        bound = min(bound, len(spec.named.names))
    seq = wqo.min_bad_sequence(spec.q, bound, a.length)
    if seq is None:
        return "fail", {"found": False, "message": "no bad sequence"}
    return "pass", {"found": True, "seq": [spec.show_item(x) for x in seq]}


def _wqo_nw_step(a, spec):
    from . import wqo
    seqs = _load(formats.seqs_from_doc, a.seqs, spec)
    out = wqo.nash_williams_step(seqs, frozenset(_csv_ints(a.s, "s")), spec.q)
    return "pass", {"seqs": [[spec.show_item(x) for x in entry] for entry in out]}


# ---------------------------------------------------------------- barrier


def _barrier_check(a, _):
    from . import barrier
    blocks, window = _load(formats.raw_fragment_from_doc, a.frag)
    result = barrier.check_fragment(blocks, window)
    details = {
        "problems": list(result.problems),
        "uncovered": [list(seq) for seq in result.uncovered],
    }
    return result.verdict, details, 1, len(result.problems)


def _barrier_tri(a, _):
    from . import barrier
    b = _csv_ints(a.left, "left")
    c = _csv_ints(a.right, "right")
    ok = barrier.block_tri(b, c)
    details = {"tri": ok}
    if ok:
        details["union"] = list(barrier.union_block(b, c))
    return _holds(ok), details


def _barrier_star(a, _):
    from . import barrier
    starred = barrier.star_fragment(_load(formats.fragment_from_doc, a.frag))
    return "pass", {"window": starred.window, "blocks": [list(b) for b in starred.sorted_blocks()]}


def _frag_and_array(a, spec, sequences: bool):
    frag = _load(formats.fragment_from_doc, a.frag)
    return frag, _load(formats.array_from_doc, a.array, spec, sequences)


def _barrier_classify(a, spec):
    from . import barrier
    frag, arr = _frag_and_array(a, spec, sequences=False)
    return "pass", {"labels": sorted(barrier.classify_array(arr, frag, spec.q))}


def _barrier_array_check(a, spec):
    from . import barrier, wqo
    frag, arr = _frag_and_array(a, spec, sequences=True)
    violations = barrier.bad_array_violations(arr, frag, wqo.higman_lift(spec.q))
    listed = list(itertools.islice(violations, formats.MAX_FAILURES))
    return _holds(not listed), {"violations": listed}, max(1, len(arr.entries)), len(listed)


def _barrier_nwt_step(a, spec):
    from . import barrier
    frag, arr = _frag_and_array(a, spec, sequences=True)
    out = barrier.nwt_improvement_step(arr, frozenset(_csv_ints(a.s, "s")), frag, spec.q)
    entries = [
        [list(block), [spec.show_item(x) for x in value]] for block, value in out.entries
    ]
    return "pass", {"entries": entries}


# ---------------------------------------------------------------- tree


def _alphabet_order(a, aut):
    named = _load(formats.poset_from_doc, a.order)
    if len(named.names) != aut.alphabet_size:
        raise ParseError(
            f"{a.order}: order has {len(named.names)} elements, "
            f"alphabet has {aut.alphabet_size}"
        )
    return named


def _tree_live(a, _):
    from . import trees
    aut = _load(formats.automaton_from_doc, a.aut)
    live = trees.live_states(aut)
    return "pass", {"live": sorted(live), "start_live": aut.start in live}


def _tree_leftmost(a, _):
    from . import trees
    lasso = trees.leftmost_path(_load(formats.automaton_from_doc, a.aut))
    return "pass", {"lasso": formats.lasso_to_doc(lasso)}


def _tree_minimal(a, _):
    from . import trees
    aut = _load(formats.automaton_from_doc, a.aut)
    lasso = trees.minimal_path(aut, _alphabet_order(a, aut).poset)
    return "pass", {"lasso": formats.lasso_to_doc(lasso)}


def _tree_challenge(a, _):
    from . import trees
    aut = _load(formats.automaton_from_doc, a.aut)
    named = _alphabet_order(a, aut)
    cycle = _csv_ints(a.cycle, "cycle")
    if not cycle:
        raise ParseError("cycle: must be non-empty")
    witness = trees.LassoPath(_csv_ints(a.prefix, "prefix"), cycle)
    challengers = _load(formats.lassos_from_doc, a.challengers)
    report = trees.challenger_check(aut, witness, challengers, named.poset)
    entries = [
        {
            "challenger": formats.lasso_to_doc(e.challenger),
            "in_tree": e.in_tree,
            "left_of_witness": e.left_of_witness,
        }
        for e in report.entries
    ]
    beaten = sum(1 for e in report.entries if e.in_tree and e.left_of_witness)
    details = {"minimal": report.minimal, "entries": entries}
    return _holds(report.minimal), details, max(1, len(entries)), beaten


# ---------------------------------------------------------------- menger


def _menger_solve(a, _):
    from . import menger
    system = menger.menger_solve(_load(formats.graph_from_doc, a.graph))
    return "pass", {
        "size": len(system.paths),
        "paths": [list(p) for p in system.paths],
        "separator": sorted(system.separator),
    }


def _menger_waves(a, _):
    from . import menger
    enum = menger.enumerate_waves(_load(formats.graph_from_doc, a.graph), cap=a.cap)
    details = {
        "count": len(enum.waves),
        "truncated": enum.truncated,
        "waves": [[list(p) for p in w.paths] for w in enum.waves],
    }
    return "pass", details, max(1, len(enum.waves)), 0


def _menger_max_wave(a, _):
    from . import menger
    wave = menger.maximal_wave(_load(formats.graph_from_doc, a.graph))
    return "pass", {
        "paths": [list(p) for p in wave.paths],
        "terminals": sorted(menger.terminals(wave)),
    }


def _menger_encode(a, _):
    from . import menger
    g = _load(formats.graph_from_doc, a.graph)
    labels = menger.encode_wave(g, _load(formats.warp_from_doc, a.wave))
    return "pass", {"labels": formats.labels_to_doc(labels)}


def _menger_decode(a, _):
    from . import menger
    g = _load(formats.graph_from_doc, a.graph)
    wave = menger.decode_wave(g, _load(formats.labels_from_doc, a.seq))
    return "pass", {"paths": [list(p) for p in wave.paths]}


# ---------------------------------------------------------------- oracle


def _oracle(a, _):
    from . import suites
    names = list(suites.SUITES)
    if a.suite != "all":
        if a.suite not in suites.SUITES:
            choices = ", ".join(map(repr, names + ["all"]))
            raise UsageError(f"argument suite: invalid choice: {a.suite!r} (choose from {choices})")
        names = [a.suite]
    results = [suites.SUITES[name](a.seed) for name in names]
    verdict = "fail" if any(r.verdict == "fail" for r in results) else "pass"
    details = {
        "suites": [
            {
                "name": r.name,
                "verdict": r.verdict,
                "checked": r.checked,
                "failures": list(r.failures),
                "notes": r.notes,
            }
            for r in results
        ]
    }
    checked = sum(r.checked for r in results)
    return verdict, details, checked, sum(len(r.failures) for r in results)


# ---------------------------------------------------------------- the table

_REQUIRED = object()
_TYPES = {"int": int, "size": _size}


class _Arg(NamedTuple):
    """One declared argument.  ``kind`` says how it enters the ``inputs``
    record: "file" as a content digest, "q" as the builtin order name or a
    digest of the poset file, "text", "int" and "size" (an integer of at
    least 0) as given."""

    flag: str  # "--poset", or a bare name for a positional argument
    kind: str = "text"
    default: object = _REQUIRED
    choices: Optional[Callable[[], tuple]] = None  # called when the parser is built
    record: bool = True

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    """One row of the command table.

    ``op`` takes the parsed arguments and the resolved `QuasiSpec` (None
    for commands without ``--q``).  It returns ``(verdict, details)``, or
    ``(verdict, details, checked, failures)`` when the counters are not
    those of one check that failed exactly when the verdict is "fail".
    """

    path: str
    args: tuple[_Arg, ...]
    op: Callable


def _tie_breaks() -> tuple:
    from .lexcode import TIE_BREAKS
    return TIE_BREAKS


_POSET = _Arg("--poset", "file")
_TIE = _Arg("--tie-break", default="smallest-id", choices=_tie_breaks)
_Q = _Arg("--q", "q")
_LEFT, _RIGHT = _Arg("--left"), _Arg("--right")
_FRAG_ARRAY_Q = (_Arg("--frag", "file"), _Arg("--array", "file"), _Q)
_AUT = _Arg("--aut", "file")
_ORDER = _Arg("--order", "file")
_GRAPH = _Arg("--graph", "file")

_COMMANDS = (
    _Command("order validate", (_POSET,), _order_validate),
    _Command("order seq-less", (_POSET, _LEFT, _RIGHT), _order_seq_less),
    _Command("lexcode encode", (_POSET, _TIE), _lexcode_encode),
    _Command(
        "lexcode decode",
        (_POSET, _Arg("--coded"), _TIE._replace(record=False)),
        _lexcode_decode,
    ),
    _Command("lexcode check-claims", (_POSET, _TIE), _lexcode_check_claims),
    _Command("wqo higman", (_Q, _LEFT, _RIGHT), _wqo_higman),
    _Command(
        "wqo kruskal",
        (_Q, _Arg("--left", "file"), _Arg("--right", "file")),
        _wqo_kruskal,
    ),
    _Command("wqo bad", (_Q, _Arg("--seq")), _wqo_bad),
    _Command(
        "wqo min-bad", (_Q, _Arg("--bound", "size"), _Arg("--length", "size")), _wqo_min_bad
    ),
    _Command("wqo nw-step", (_Q, _Arg("--seqs", "file"), _Arg("--s")), _wqo_nw_step),
    _Command("barrier check", (_Arg("--frag", "file"),), _barrier_check),
    _Command("barrier tri", (_LEFT, _RIGHT), _barrier_tri),
    _Command("barrier star", (_Arg("--frag", "file"),), _barrier_star),
    _Command("barrier classify", _FRAG_ARRAY_Q, _barrier_classify),
    _Command("barrier array-check", _FRAG_ARRAY_Q, _barrier_array_check),
    _Command("barrier nwt-step", _FRAG_ARRAY_Q + (_Arg("--s"),), _barrier_nwt_step),
    _Command("tree live", (_AUT,), _tree_live),
    _Command("tree leftmost", (_AUT,), _tree_leftmost),
    _Command("tree minimal", (_AUT, _ORDER), _tree_minimal),
    _Command(
        "tree challenge",
        (
            _AUT,
            _ORDER,
            _Arg("--prefix", default=""),
            _Arg("--cycle"),
            _Arg("--challengers", "file"),
        ),
        _tree_challenge,
    ),
    _Command("menger solve", (_GRAPH,), _menger_solve),
    _Command("menger waves", (_GRAPH, _Arg("--cap", "size", None)), _menger_waves),
    _Command("menger max-wave", (_GRAPH,), _menger_max_wave),
    _Command("menger encode", (_GRAPH, _Arg("--wave", "file")), _menger_encode),
    _Command("menger decode", (_GRAPH, _Arg("--seq", "file")), _menger_decode),
    _Command("oracle", (_Arg("suite"), _Arg("--seed", "int", 0)), _oracle),
)


def _run(cmd: _Command, args) -> dict:
    """Record the inputs, resolve ``--q``, run the op and build the report.

    Malformed input (`ParseError`) and usage errors propagate.  Any other
    domain error becomes a fail report naming the command and its inputs,
    with the exception's clause when it has one.  Any other exception is a
    fault of the program: an "error" report (exit 70) with nothing counted
    as checked, and the traceback on stderr.
    """
    inputs: dict = {}
    try:
        for arg in cmd.args:
            value = getattr(args, arg.dest)
            if arg.record:
                inputs[arg.dest] = _digest(value) if arg.kind == "file" else value
        spec = None
        if any(arg.kind == "q" for arg in cmd.args):
            spec = formats.quasi_from_spec(args.q)
            if spec.named is not None:
                inputs["q"] = _digest(args.q)
        verdict, details, *counters = cmd.op(args, spec)
    except (ParseError, UsageError):
        raise
    except Exception as exc:
        verdict, counters = "fail" if isinstance(exc, OrderlabError) else "error", ()
        if verdict == "error":
            import traceback
            traceback.print_exc()
        details = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "clause", None) is not None:
            details["clause"] = exc.clause
    checked, failures = counters or (int(verdict != "error"), int(verdict == "fail"))
    return {
        "command": cmd.path,
        "inputs": inputs,
        "verdict": verdict,
        "details": details,
        "counters": {"checked": checked, "failures": failures},
    }


def build_parser(group: Optional[str] = None) -> _Parser:
    """The parser of every command, or, for a known ``group``, of that
    group's commands only.  Each other group then gets an empty parser,
    which leaves the top-level usage and help unchanged."""
    parser = _Parser(prog="orderlab", description=__doc__)
    top = parser.add_subparsers(dest="group", parser_class=_Parser)
    if group not in {cmd.path.split()[0] for cmd in _COMMANDS}:
        group = None
    groups: dict = {}
    subs: dict = {}
    for cmd in _COMMANDS:
        name, *sub = cmd.path.split()
        if name not in groups:
            groups[name] = top.add_parser(name)
        if group not in (None, name):
            continue
        p = groups[name]
        if sub:
            if name not in subs:
                subs[name] = p.add_subparsers(dest="cmd")
            p = subs[name].add_parser(sub[0])
        for arg in cmd.args:
            kwargs: dict = {"type": _TYPES[arg.kind]} if arg.kind in _TYPES else {}
            if arg.choices is not None:
                kwargs["choices"] = arg.choices()
            if arg.default is not _REQUIRED:
                kwargs["default"] = arg.default
            elif arg.flag.startswith("-"):
                kwargs["required"] = True
            p.add_argument(arg.flag, **kwargs)
        p.set_defaults(command=cmd)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        cmd = getattr(args, "command", None)
        if cmd is None:
            print(parser.format_usage(), file=sys.stderr, end="")
            return EXIT_USAGE
        report = _run(cmd, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        print(formats.canonical_dumps(report), flush=True)
    except BrokenPipeError:
        # the reader is gone: point stdout at nothing, so the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_IOERR
    print(f"{report['command']}: {report['verdict']}", file=sys.stderr)
    return _EXITS[report["verdict"]]


if __name__ == "__main__":
    sys.exit(main())
