"""Exception types shared across the workbench, and the failure cap every
report shares."""

# a report lists at most this many failures, and its check stops at the last
MAX_FAILURES = 8


class OrderlabError(Exception):
    """Base class for every error raised by this package."""


class ParseError(OrderlabError):
    """Input document is not valid JSON or does not match its schema."""


class NegativeCount(OrderlabError):
    """A count, cap or bound that must be at least 0 is negative."""


class UnknownElement(OrderlabError):
    """An element outside the declared universe was used."""


class CycleError(OrderlabError):
    """The transitive closure of a strict order relates an element to itself."""


class NotAQuasiOrder(OrderlabError):
    """A finite relation is not reflexive or not transitive."""


class MalformedCode(OrderlabError):
    """A coded sequence does not decompose into valid code blocks."""


class UnknownTieBreak(OrderlabError):
    """A tie-break rule is not one of the documented names."""


class AlphabetMismatch(OrderlabError):
    """A tree's alphabet differs from the elements of the order coding it."""


class InvalidGraph(OrderlabError):
    """An edge is a loop, or an edge or a side leaves the vertex set."""


class InvalidNode(OrderlabError):
    """A node id is outside the tree."""


class InvalidTree(OrderlabError):
    """A parent array does not describe one rooted tree over its labels."""


class PreconditionViolation(OrderlabError):
    """A named precondition of a proof-step operation failed."""

    def __init__(self, clause: str, detail: str = ""):
        super().__init__(f"{clause}: {detail}" if detail else clause)
        self.clause = clause


class EmptyBlock(OrderlabError):
    """A block that must be non-empty is empty."""


class NotIncreasing(OrderlabError):
    """A block must be a strictly increasing sequence of naturals."""


class NotTriRelated(OrderlabError):
    """Block union is only defined for tri-related blocks."""


class InvalidFragment(OrderlabError):
    """A block leaves the window, a block's range lies inside another's, or
    a uniform block size is below 1."""


class InvalidArray(OrderlabError):
    """An array repeats a block or uses a block outside its fragment."""


class InvalidAutomaton(OrderlabError):
    """A state is out of range, or two transitions share a state and letter."""


class InvalidLasso(OrderlabError):
    """A lasso path has an empty cycle."""


class BadLetter(OrderlabError):
    """A letter is outside the automaton's alphabet."""


class WellFounded(OrderlabError):
    """The tree has no infinite path, so no path can be extracted."""


class InvalidWitness(OrderlabError):
    """The claimed path is not a path of the tree."""


class NotAWave(OrderlabError):
    """The warp's terminals do not separate the sources from the sinks."""


class InvalidSequence(OrderlabError):
    """The labelled sequence does not satisfy the wave-coding conditions."""


class MalformedLabel(OrderlabError):
    """A wave-coding label has an unrecognised shape."""


class InvalidWarp(OrderlabError):
    """The path family is not a warp of the graph."""
