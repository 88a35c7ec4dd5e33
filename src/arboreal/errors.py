"""Exception types shared across the package."""


class ArborealError(Exception):
    """Base class for every package-specific error."""


class UnknownTaxonError(ArborealError, KeyError):
    """A taxon name is not part of the taxon set in play."""

    def __str__(self) -> str:
        # KeyError would print the bare repr of the taxon
        return f"unknown taxon {self.args[0]!r}"


class UnknownVertexError(ArborealError, KeyError):
    """A vertex id is not part of the network in play."""


class DisconnectedGraphError(ArborealError):
    """An operation that needs a connected graph got a disconnected one."""


class EmptySubsetError(ArborealError):
    """An induced subgraph was requested on an empty vertex subset."""


class NoEdgesError(ArborealError):
    """An operation that needs at least one edge got an edgeless graph."""


class TooLargeError(ArborealError):
    """Input exceeds the hard size cap of an exhaustive operation."""


class NotACoverError(ArborealError):
    """The given family is not an edge clique cover of the graph."""


class NotArborealError(ArborealError):
    """An operation restricted to arboreal networks got a non-arboreal one."""


class NotUltrametricError(ArborealError):
    """No labelled tree on the given taxa can produce the map."""


class AmbiguousSplitError(ArborealError):
    """Two distinct symbols both disconnect at a tree-building step.

    This cannot happen for any symbolic map; reaching it means a bug.
    """


class ConstructionMismatchError(ArborealError):
    """A constructed network failed its own round-trip check (internal bug)."""


class MissingWitnessError(ArborealError):
    """A graph was rejected as not ptolemaic, yet neither a hole nor an
    induced gem could be found in it.

    The recognizer and the witness finders agree on every graph; reaching
    this means a bug.
    """


class GenerationExhaustedError(ArborealError):
    """A random generator gave up after its bounded number of retries."""


class InputParseError(ArborealError):
    """A serialized document could not be parsed."""


# Rule names for InvalidNetworkError.kind, in the order validation checks them.
CYCLIC = "cyclic"
DISCONNECTED = "disconnected"
ROOT_OUTDEG_LT_2 = "root-outdeg-lt-2"
LEAF_INDEG_NE_1 = "leaf-indeg-ne-1"
INDEG1_OUTDEG1 = "indeg1-outdeg1"
LEAF_SET_MISMATCH = "leaf-set-mismatch"


class InvalidNetworkError(ArborealError):
    """A digraph violates the network degree or shape rules.

    `kind` names the first violated rule, using the module-level constants.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
