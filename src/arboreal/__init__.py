"""Arboreal phylogenetic networks, ptolemaic shared-ancestry graphs, and the
symbolic maps they explain."""

from types import ModuleType as _ModuleType

from .build import arboreal_representation, build_network_from_cover
from .cliques import (
    CliqueFamily,
    CoverDigraph,
    cover_digraph,
    ecc_min,
    intersection_closure,
    is_edge_clique_cover,
    maximal_cliques,
    underlying_acyclic,
)
from .errors import (
    AmbiguousSplitError,
    ArborealError,
    ConstructionMismatchError,
    DisconnectedGraphError,
    EmptySubsetError,
    GenerationExhaustedError,
    InputParseError,
    InvalidNetworkError,
    MissingWitnessError,
    NoEdgesError,
    NotACoverError,
    NotArborealError,
    NotUltrametricError,
    TooLargeError,
    UnknownTaxonError,
    UnknownVertexError,
)
from .graphs import (
    TaxonSet,
    UGraph,
    connected_components,
    contains_gem,
    find_induced_hole,
    induced_subgraph,
    is_chordal,
    is_connected,
    is_ptolemaic,
    ptolemaic_witness,
)
from .networks import (
    AlternatingCycle,
    Network,
    cluster,
    find_alternating_cycle,
    h_tilde,
    is_arboreal,
    shared_ancestry_graph,
    validate_network,
)
from .oracle import bfs_distances, ptolemy_inequality_holds
from .symbolic import (
    GAP_GLYPH,
    LabelledNetwork,
    SymbolicMap,
    Violation,
    are_isomorphic,
    build_ultrametric_tree,
    check_arboreal_conditions,
    check_violation,
    clique_modules,
    evaluate_map,
    explain,
    find_a4_violation,
    find_delta_violation,
    find_pi_violation,
    graph_of_map,
    is_discriminating,
    make_discriminating,
    strong_clique_modules,
    verify_phi_bijection,
)

# the submodules bound while the package imports are not part of the API
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
