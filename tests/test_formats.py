"""Serialisers round-trip through their parsers."""

import pytest

from orderlab import formats, oracles
from orderlab.errors import ParseError
from orderlab.menger import graph
from orderlab.trees import LassoPath


def test_poset_roundtrip():
    for poset in oracles.all_posets(3):
        assert formats.poset_from_doc(formats.poset_to_doc(poset)).poset == poset


def test_automaton_roundtrip():
    for aut in oracles.strided_automata(3, 2, 24):
        assert formats.automaton_from_doc(formats.automaton_to_doc(aut)) == aut


def test_graph_roundtrip():
    for g in [graph(1, [], [0], [0]), graph(4, [(0, 1), (2, 1), (3, 2)], [0, 3], [2])]:
        assert formats.graph_from_doc(formats.graph_to_doc(g)) == g


def test_ktree_roundtrip():
    spec = formats.quasi_from_spec("nat-leq")
    for tree in oracles.all_ktrees(4, (0, 1)):
        assert formats.ktree_from_doc(formats.ktree_to_doc(tree), spec) == tree


def test_lasso_roundtrip():
    lassos = [LassoPath((), (0,)), LassoPath((1, 0), (2, 1))]
    doc = {"challengers": [formats.lasso_to_doc(l) for l in lassos]}
    assert formats.lassos_from_doc(doc) == lassos


def test_negative_vertex_count_is_rejected():
    with pytest.raises(ParseError):
        formats.graph_from_doc({"vertices": -1, "edges": [], "A": [], "B": []})
