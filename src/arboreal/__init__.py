"""Arboreal phylogenetic networks, ptolemaic shared-ancestry graphs, and the
symbolic maps they explain."""

from .build import (
    arboreal_representation,
    build_network_from_cover,
    contract_tree_arcs,
)
from .cliques import (
    CliqueFamily,
    CoverDigraph,
    cover_digraph,
    ecc_min,
    intersection_closure,
    is_clique,
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
    bfs_distances,
    connected_components,
    contains_gem,
    find_induced_hole,
    induced_subgraph,
    is_chordal,
    is_connected,
    is_ptolemaic,
    ptolemaic_witness,
    ptolemy_inequality_holds,
)
from .networks import (
    AlternatingCycle,
    Network,
    cluster,
    find_alternating_cycle,
    from_digraph,
    h_tilde,
    is_arboreal,
    shared_ancestry_graph,
    validate_network,
)
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

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
