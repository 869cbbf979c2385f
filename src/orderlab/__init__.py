"""orderlab: a workbench for finite order combinatorics.

Sequence and tree embeddings over quasi-orders, lexicographic order
codings, leftmost paths of tree automata, barrier fragments with partial
arrays, and disjoint path systems with wave codings.
"""

from .errors import (
    BadLetter,
    CycleError,
    EmptyBlock,
    InvalidNode,
    InvalidSequence,
    InvalidWarp,
    InvalidWitness,
    MalformedCode,
    MalformedLabel,
    NegativeCount,
    NotAWave,
    NotIncreasing,
    NotTriRelated,
    OrderlabError,
    ParseError,
    PreconditionViolation,
    UnknownElement,
    WellFounded,
)
from .order import (
    Poset,
    QuasiOrder,
    divisibility,
    finite_quasi_order,
    natural_equality,
    natural_order,
    quasi_from_poset,
    seq_less,
    seq_less_by,
    validate_poset,
)
from .lexcode import (
    LexCode,
    TIE_BREAKS,
    decode_path,
    encode_element,
    encode_order,
    encode_seq,
    lift_tree,
)
from .trees import (
    ChallengerEntry,
    ChallengerReport,
    LassoPath,
    TreeAutomaton,
    automaton,
    canonical_lasso,
    challenger_check,
    lasso_in_tree,
    leftmost_path,
    live_states,
    minimal_path,
    path_left_of,
)
from .wqo import (
    KTree,
    higman_leq,
    higman_lift,
    is_bad,
    ktree_key,
    ktree_leq,
    min_bad_sequence,
    nash_williams_step,
    subtree,
)
from .barrier import (
    BarrierFragment,
    FragmentCheck,
    PartialArray,
    array_of,
    bad_array_violations,
    barrier_pair_homogeneous,
    base_of,
    block_tri,
    check_fragment,
    classify_array,
    fragment,
    nwt_improvement_step,
    restrict,
    star_fragment,
    uniform_fragment,
    union_block,
)
from .menger import (
    MengerGraph,
    MengerSystem,
    Warp,
    decode_wave,
    encode_wave,
    enumerate_ab_paths,
    enumerate_warps,
    enumerate_waves,
    graph,
    is_separator,
    is_wave,
    label_less,
    maximal_wave,
    menger_solve,
    terminals,
    validate_warp,
    warp_of,
    wave_leq,
    wave_seq_valid,
)

__version__ = "0.1.0"
