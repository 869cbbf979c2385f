"""JSON document parsing for the CLI, canonical serialisation, and the
tally of a run of checks.

One parse layer with uniform errors: every loader raises `ParseError` with
the offending location.  Named poset elements are interned to dense ids in
declaration order.  Each loader imports the domain constructor it calls, so
a command loads only the modules its documents need.
"""

from __future__ import annotations

import contextlib
import json
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import MAX_FAILURES, OrderlabError, ParseError

if TYPE_CHECKING:
    from .barrier import BarrierFragment, PartialArray
    from .menger import MengerGraph, Warp
    from .order import Poset, QuasiOrder
    from .trees import LassoPath, TreeAutomaton


def tally(checks) -> tuple[int, list]:
    """Run the generator ``checks`` until it ends or yields its
    `MAX_FAILURES`-th failure record, then close it.  Returns the number of
    checks made and the failure records.

    Each item the generator yields is None for one passing check, a
    positive int ``k`` for ``k`` passing checks, or a failure record.  A
    generator that yields the count of the passes before each failure thus
    stops at the same ``checked`` count as one that yields None per pass.
    """
    checked = counted = 0  # counted: what the ints add beyond one item each
    failures: list = []
    with contextlib.closing(checks):
        for checked, record in enumerate(checks, 1):
            if record is not None:
                if record.__class__ is int:
                    counted += record - 1
                    continue
                failures.append(record)
                if len(failures) == MAX_FAILURES:
                    break
    return checked + counted, failures


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_json(path: str) -> object:
    raw = read_bytes(path)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def canonical_dumps(obj: object) -> str:
    """Stable serialisation: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _expect(doc: object, key: str, kind: type, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _size(doc: object, key: str, where: str) -> int:
    value = _expect(doc, key, int, where)
    if value < 0:
        raise ParseError(f"{where}: key {key!r} must not be negative")
    return value


def _is_name(value: object) -> bool:
    """Element names are strings or integers; a bool would alias 0 or 1."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _built(make, where: str, *args):
    """``make(*args)``, where a domain error from the constructor means the
    document at ``where`` is malformed."""
    try:
        return make(*args)
    except OrderlabError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _int_list(value: object, where: str) -> list[int]:
    if not isinstance(value, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in value
    ):
        raise ParseError(f"{where}: expected a list of integers")
    return value


class NamedPoset:
    """A poset together with its declared element names."""

    def __init__(self, poset: Poset, names: Sequence):
        self.poset = poset
        self.names = tuple(names)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.text_ids = {str(name): i for i, name in enumerate(self.names)}

    def to_id(self, name, where: str = "element") -> int:
        if not _is_name(name) or name not in self.ids:
            raise ParseError(f"{where}: {name!r} is not a declared element")
        return self.ids[name]

    def text_to_id(self, token: str, where: str = "element") -> int:
        """The id of the element written ``token`` on the command line, which
        names ``0`` as ``"0"``; `raw_poset_from_doc` keeps names distinct as
        text."""
        if token not in self.text_ids:
            raise ParseError(f"{where}: {token!r} is not a declared element")
        return self.text_ids[token]

    def to_name(self, i: int):
        return self.names[i]


def raw_poset_from_doc(doc: object, where: str = "poset"):
    """Shape-check only: declared names and lt pairs as dense ids."""
    elements = _expect(doc, "elements", list, where)
    if not all(map(_is_name, elements)):
        raise ParseError(f"{where}: element names are strings or integers")
    if len(set(map(str, elements))) != len(elements):
        raise ParseError(f"{where}: element names must be distinct")
    ids = {name: i for i, name in enumerate(elements)}
    lt = _expect(doc, "lt", list, where)
    pairs = []
    for entry in lt:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"{where}: each lt entry is a pair")
        for name in entry:
            if not _is_name(name) or name not in ids:
                raise ParseError(f"{where}: {name!r} is not a declared element")
        pairs.append((ids[entry[0]], ids[entry[1]]))
    return tuple(elements), pairs


def poset_from_doc(doc: object, where: str = "poset") -> NamedPoset:
    from .order import validate_poset
    elements, pairs = raw_poset_from_doc(doc, where)
    return NamedPoset(_built(validate_poset, where, pairs, range(len(elements))), elements)


def poset_to_doc(poset: Poset) -> dict:
    return {"elements": sorted(poset.elements), "lt": [list(p) for p in sorted(poset.lt)]}


class QuasiSpec:
    """A quasi-order plus the element codec the CLI uses with it.

    Built-in orders work on plain naturals; a poset file yields its
    reflexive closure over interned names.
    """

    def __init__(self, q: QuasiOrder, named: Optional[NamedPoset]):
        self.q = q
        self.named = named

    def parse_item(self, token: str, where: str = "item"):
        if self.named is not None:
            return self.named.text_to_id(token, where)
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"{where}: {token!r} is not a natural number") from None
        if value < 0:
            raise ParseError(f"{where}: {token!r} is not a natural number")
        return value

    def parse_json_item(self, value, where: str = "item"):
        if self.named is not None:
            return self.named.to_id(value, where)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ParseError(f"{where}: {value!r} is not a natural number")
        return value

    def show_item(self, item):
        if self.named is not None:
            return self.named.to_name(item)
        return item


def quasi_from_spec(spec: str) -> QuasiSpec:
    from .order import divisibility, natural_equality, natural_order, quasi_from_poset
    if spec == "nat-leq":
        return QuasiSpec(natural_order(), None)
    if spec == "nat-eq":
        return QuasiSpec(natural_equality(), None)
    if spec == "divides":
        return QuasiSpec(divisibility(), None)
    named = poset_from_doc(read_json(spec), where=spec)
    return QuasiSpec(quasi_from_poset(named.poset, name=spec), named)


def ktree_from_doc(doc: object, spec: QuasiSpec, where: str = "tree"):
    from .wqo import KTree
    parent = _int_list(_expect(doc, "parent", list, where), f"{where}.parent")
    labels = _expect(doc, "labels", list, where)
    if not parent or parent[0] != -1:
        raise ParseError(f"{where}: the root is index 0, marked with -1")
    interned = tuple(spec.parse_json_item(lab, f"{where}.labels") for lab in labels)
    return _built(KTree, where, tuple(parent), interned)


def ktree_to_doc(tree) -> dict:
    return {"parent": list(tree.parent), "labels": list(tree.labels)}


def raw_fragment_from_doc(doc: object, where: str = "fragment"):
    """The blocks and the window of a fragment document.

    Listed blocks come back as written, unvalidated, so that
    `barrier.check_fragment` can report every problem.  The ``uniform``
    shorthand comes back as the blocks `uniform_fragment` builds; they are
    checked like any others, in one pass, as no two have nested ranges.
    """
    from .barrier import uniform_fragment
    window = _size(doc, "window", where)
    if "uniform" in doc:
        k = _expect(doc, "uniform", int, where)
        return _built(uniform_fragment, where, k, window).blocks, window
    blocks = _expect(doc, "blocks", list, where)
    return [tuple(_int_list(b, f"{where}.blocks")) for b in blocks], window


def fragment_from_doc(doc: object, where: str = "fragment") -> BarrierFragment:
    from .barrier import fragment
    return _built(fragment, where, *raw_fragment_from_doc(doc, where))


def array_from_doc(
    doc: object, spec: QuasiSpec, sequences: bool, where: str = "array"
) -> PartialArray:
    from .barrier import array_of
    entries = _expect(doc, "entries", list, where)
    parsed = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"{where}: each entry is a [block, value] pair")
        block = tuple(_int_list(entry[0], f"{where}.block"))
        if sequences:
            if not isinstance(entry[1], list):
                raise ParseError(f"{where}: values must be sequences")
            value = tuple(
                spec.parse_json_item(v, f"{where}.value") for v in entry[1]
            )
        else:
            value = spec.parse_json_item(entry[1], f"{where}.value")
        parsed.append((block, value))
    return _built(array_of, where, parsed)


def automaton_from_doc(doc: object, where: str = "automaton") -> TreeAutomaton:
    from .trees import automaton
    alphabet = _size(doc, "alphabet", where)
    states = _expect(doc, "states", int, where)
    start = _expect(doc, "start", int, where)
    delta = _expect(doc, "delta", list, where)
    triples = []
    for entry in delta:
        trip = _int_list(entry, f"{where}.delta")
        if len(trip) != 3:
            raise ParseError(f"{where}: each delta entry is [state, letter, state]")
        triples.append(tuple(trip))
    return _built(automaton, where, alphabet, states, start, triples)


def automaton_to_doc(aut: TreeAutomaton) -> dict:
    return {
        "alphabet": aut.alphabet_size,
        "states": aut.states,
        "start": aut.start,
        "delta": sorted([s, a, t] for (s, a), t in aut.delta.items()),
    }


def graph_from_doc(doc: object, where: str = "graph") -> MengerGraph:
    from .menger import graph
    n = _size(doc, "vertices", where)
    edges = _expect(doc, "edges", list, where)
    pairs = []
    for entry in edges:
        pair = _int_list(entry, f"{where}.edges")
        if len(pair) != 2:
            raise ParseError(f"{where}: each edge is a pair")
        pairs.append(tuple(pair))
    a = _int_list(_expect(doc, "A", list, where), f"{where}.A")
    b = _int_list(_expect(doc, "B", list, where), f"{where}.B")
    return _built(graph, where, n, pairs, a, b)


def graph_to_doc(g: MengerGraph) -> dict:
    return {
        "vertices": g.n,
        "edges": [list(e) for e in sorted(g.edges)],
        "A": sorted(g.A),
        "B": sorted(g.B),
    }


def warp_from_doc(doc: object, where: str = "warp") -> Warp:
    from .menger import warp_of
    paths = _expect(doc, "paths", list, where)
    return warp_of(tuple(_int_list(p, f"{where}.paths")) for p in paths)


def labels_from_doc(doc: object, where: str = "labels"):
    entries = _expect(doc, "labels", list, where)
    out = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"{where}: each label is a pair")
        kind, payload = entry
        if not isinstance(kind, int) or isinstance(kind, bool):
            raise ParseError(f"{where}: label kinds are integers")
        if kind == 0:
            if type(payload) is not int or payload != 0:
                raise ParseError(f"{where}: blank labels are [0, 0]")
            out.append((0, 0))
        elif kind == 1:
            out.append((1, tuple(_int_list(payload, where))))
        else:
            out.append((kind, frozenset(_int_list(payload, where))))
    return tuple(out)


def labels_to_doc(labels) -> list:
    out = []
    for kind, payload in labels:
        if kind == 0:
            out.append([0, 0])
        elif kind == 1:
            out.append([1, list(payload)])
        else:
            out.append([kind, sorted(payload)])
    return out


def seqs_from_doc(doc: object, spec: QuasiSpec, where: str = "seqs") -> tuple:
    entries = _expect(doc, "seqs", list, where)
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, list):
            raise ParseError(f"{where}[{i}]: expected a sequence")
        out.append(tuple(spec.parse_json_item(v, f"{where}[{i}]") for v in entry))
    return tuple(out)


def lassos_from_doc(doc: object, where: str = "challengers") -> list[LassoPath]:
    from .trees import LassoPath
    entries = _expect(doc, "challengers", list, where)
    out = []
    for i, entry in enumerate(entries):
        prefix = _int_list(_expect(entry, "prefix", list, f"{where}[{i}]"), where)
        cycle = _int_list(_expect(entry, "cycle", list, f"{where}[{i}]"), where)
        out.append(_built(LassoPath, f"{where}[{i}]", tuple(prefix), tuple(cycle)))
    return out


def lasso_to_doc(lasso: LassoPath) -> dict:
    return {"prefix": list(lasso.prefix), "cycle": list(lasso.cycle)}
