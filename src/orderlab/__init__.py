"""orderlab: a workbench for finite order combinatorics.

Sequence and tree embeddings over quasi-orders, lexicographic order
codings, leftmost paths of tree automata, barrier fragments with partial
arrays, and disjoint path systems with wave codings.

The namespace is lazy (PEP 562): ``import orderlab`` loads no submodule,
and ``orderlab.X`` or ``from orderlab import X`` imports the one module
that defines ``X`` on first use; ``orderlab.wqo`` imports that module.
"""

import sys

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": """AlphabetMismatch BadLetter CycleError EmptyBlock InvalidArray InvalidAutomaton
        InvalidFragment InvalidGraph InvalidLasso InvalidNode InvalidSequence InvalidTree
        InvalidWarp InvalidWitness MalformedCode MalformedLabel NegativeCount NotAQuasiOrder
        NotAWave NotIncreasing NotTriRelated OrderlabError ParseError PreconditionViolation
        UnknownElement UnknownTieBreak WellFounded""",
    "order": """Poset QuasiOrder divisibility finite_quasi_order natural_equality natural_order
        quasi_from_poset seq_less seq_less_by validate_poset""",
    "lexcode": """LexCode TIE_BREAKS decode_path encode_element encode_order encode_seq
        lift_tree""",
    "trees": """ChallengerEntry ChallengerReport LassoPath TreeAutomaton automaton
        canonical_lasso challenger_check lasso_in_tree leftmost_path live_states minimal_path
        path_left_of""",
    "wqo": """KTree higman_leq higman_lift is_bad ktree_key ktree_leq min_bad_sequence
        nash_williams_step subtree""",
    "barrier": """BarrierFragment FragmentCheck PartialArray array_of bad_array_violations
        barrier_pair_homogeneous base_of block_tri check_fragment classify_array fragment
        nwt_improvement_step star_fragment uniform_fragment union_block""",
    "menger": """MengerGraph MengerSystem Warp decode_wave encode_wave enumerate_waves
        graph is_separator is_wave label_less maximal_wave menger_solve terminals
        validate_warp warp_of wave_leq wave_seq_valid""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_MODULE_OF]


def _submodule(module: str):
    """Import ``orderlab.<module>`` as an import statement does, so that
    ``-X importtime`` lists it also when ``from . import <module>`` loads it
    through `__getattr__`."""
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
