"""The package namespace is lazy (PEP 562) and still exports every name it
exported when ``__init__`` imported each module eagerly, bound to the same
objects."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orderlab

SRC = str(Path(orderlab.__file__).resolve().parents[1])

# module -> the names `orderlab` exported from it before the namespace was lazy
EAGER_EXPORTS = {
    "errors": """BadLetter CycleError EmptyBlock InvalidNode InvalidSequence InvalidWarp
        InvalidWitness MalformedCode MalformedLabel NegativeCount NotAWave NotIncreasing
        NotTriRelated OrderlabError ParseError PreconditionViolation UnknownElement
        WellFounded""",
    "order": """Poset QuasiOrder divisibility finite_quasi_order natural_equality
        natural_order quasi_from_poset seq_less seq_less_by validate_poset""",
    "lexcode": "LexCode TIE_BREAKS decode_path encode_element encode_order encode_seq lift_tree",
    "trees": """ChallengerEntry ChallengerReport LassoPath TreeAutomaton automaton
        canonical_lasso challenger_check lasso_in_tree leftmost_path live_states
        minimal_path path_left_of""",
    "wqo": """KTree higman_leq higman_lift is_bad ktree_key ktree_leq min_bad_sequence
        nash_williams_step subtree""",
    "barrier": """BarrierFragment FragmentCheck PartialArray array_of bad_array_violations
        barrier_pair_homogeneous base_of block_tri check_fragment classify_array fragment
        nwt_improvement_step star_fragment uniform_fragment union_block""",
    "menger": """MengerGraph MengerSystem Warp decode_wave encode_wave enumerate_waves
        graph is_separator is_wave label_less maximal_wave menger_solve terminals
        validate_warp warp_of wave_leq wave_seq_valid""",
}
EAGER = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names.split()]


def test_every_eager_export_is_the_module_object():
    assert len(EAGER) == 88
    for module, name in EAGER:
        expected = getattr(importlib.import_module(f"orderlab.{module}"), name)
        assert getattr(orderlab, name) is expected, name
        namespace: dict = {}
        exec(f"from orderlab import {name}", namespace)
        assert namespace[name] is expected, name


def test_dir_and_star_import_cover_the_exports():
    names = {name for _, name in EAGER} | set(EAGER_EXPORTS)
    assert names <= set(orderlab.__all__)
    assert names <= set(dir(orderlab))
    namespace: dict = {}
    exec("from orderlab import *", namespace)
    assert set(orderlab.__all__) <= set(namespace)
    for name in orderlab.__all__:
        assert namespace[name] is getattr(orderlab, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orderlab.no_such_name
    with pytest.raises(ImportError):
        exec("from orderlab import no_such_name", {})
    assert not hasattr(orderlab, "_no_such_private_name")


def test_the_package_loads_a_submodule_on_first_use():
    probe = "\n".join(
        [
            "import sys, orderlab",
            "loaded = lambda: sorted(m for m in sys.modules if 'orderlab' in m)",
            "print(loaded())",
            "orderlab.menger.menger_solve",
            "print(loaded())",
        ]
    )
    assert run_probe(probe).splitlines() == [
        "['orderlab']",
        "['orderlab', 'orderlab._record', 'orderlab.errors', 'orderlab.menger']",
    ]
    # a submodule loads only what it calls at import time, not what it annotates
    for module, loaded in {
        "lexcode": {"_record", "errors", "lexcode"},
        "trees": {"_record", "errors", "trees"},
        "barrier": {"_record", "errors", "barrier"},
        "wqo": {"_record", "errors", "order", "wqo"},
        "suites": {"_record", "errors", "formats", "suites"},
        "oracles": {"oracles"},
    }.items():
        probe = "\n".join(
            [
                "import sys",
                f"import orderlab.{module}",
                "print(*[m[9:] for m in sys.modules if m.startswith('orderlab.')])",
            ]
        )
        assert set(run_probe(probe).split()) == loaded, module


def run_probe(probe: str) -> str:
    """The stdout of ``probe`` run by a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout
