"""Exception types shared across the workbench."""


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
