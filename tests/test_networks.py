"""Network validation, arboreality, clusters and ancestry."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import (
    InvalidNetworkError,
    LabelledNetwork,
    UnknownTaxonError,
    cluster,
    evaluate_map,
    find_alternating_cycle,
    h_tilde,
    is_arboreal,
    maximal_cliques,
    shared_ancestry_graph,
    validate_network,
)
from arboreal.errors import (
    CYCLIC,
    DISCONNECTED,
    INDEG1_OUTDEG1,
    LEAF_INDEG_NE_1,
    LEAF_SET_MISMATCH,
    ROOT_OUTDEG_LT_2,
)
from arboreal.oracle import (
    GenParams,
    brute_force_minimal_common_ancestors,
    random_arboreal_network,
    random_network,
)

CHERRY_ARCS = [(0, 1), (0, 2)]
CHERRY_LEAVES = {1: "a", 2: "b"}


def invalid_kind(arcs, leaves, **kw):
    with pytest.raises(InvalidNetworkError) as err:
        validate_network(arcs, leaves, **kw)
    return err.value.kind


def test_cherry_is_the_smallest_network():
    net = validate_network(CHERRY_ARCS, CHERRY_LEAVES)
    assert net.num_vertices == 3
    assert net.roots == (0,) and net.leaf_vertices == (1, 2)
    assert net.hybrids == ()
    assert is_arboreal(net)
    assert net.taxon_of(1) == "a" and net.leaf_vertex("b") == 2
    with pytest.raises(UnknownTaxonError):
        net.leaf_vertex("z")


def test_each_shape_rule_reports_its_kind():
    assert invalid_kind([(0, 0)], {}) == CYCLIC
    assert invalid_kind([(0, 1), (1, 2), (2, 0)], {}) == CYCLIC
    assert invalid_kind(
        CHERRY_ARCS + [(3, 4), (3, 5)],
        {1: "a", 2: "b", 4: "c", 5: "d"},
    ) == DISCONNECTED
    assert invalid_kind([(0, 1), (1, 2), (1, 3)], {2: "a", 3: "b"}) == ROOT_OUTDEG_LT_2
    assert invalid_kind(
        [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 5)],
        {3: "a", 4: "b", 5: "c"},
    ) == LEAF_INDEG_NE_1
    assert invalid_kind(
        [(0, 1), (0, 2), (1, 3), (3, 4), (3, 5)],
        {2: "a", 4: "b", 5: "c"},
    ) == INDEG1_OUTDEG1
    assert invalid_kind(CHERRY_ARCS, {1: "a"}) == LEAF_SET_MISMATCH
    assert invalid_kind(CHERRY_ARCS, {1: "a", 2: "a"}) == LEAF_SET_MISMATCH


def test_declared_vertices_cost_nothing_before_connectivity():
    # a declared vertex that no arc or leaf mentions is isolated, which is
    # reported before anything is allocated per declared vertex
    tracemalloc.start()
    try:
        kind = invalid_kind(CHERRY_ARCS, CHERRY_LEAVES, num_vertices=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kind == DISCONNECTED
    assert peak < 2**20
    # the rule order holds: a cycle is reported first
    assert invalid_kind([(0, 1), (1, 2), (2, 0)], {}, num_vertices=10**6) == CYCLIC


def test_validate_rejects_garbage_ids():
    with pytest.raises(ValueError):
        validate_network([(0, 5)], {5: "a"}, num_vertices=2)
    with pytest.raises(ValueError):
        validate_network(CHERRY_ARCS + CHERRY_ARCS[:1], CHERRY_LEAVES)
    with pytest.raises(ValueError):
        validate_network([], {})


@pytest.mark.parametrize("names", [["r"], ["r", "a", "b", "c"], ["r", "a", 3]])
def test_validate_wants_one_string_name_per_vertex(names):
    with pytest.raises(ValueError, match="names must hold one string per vertex"):
        validate_network(CHERRY_ARCS, CHERRY_LEAVES, vertex_names=names)


def test_degree_accessors(seven_taxa):
    net = seven_taxa.net
    assert net.roots == (0, 1)
    assert net.root_count() == 2
    assert net.hybrids == (4,)
    assert net.indeg(4) == 2 and net.outdeg(4) == 2
    assert net.children(0) == (2, 4) and net.parents(4) == (0, 1)
    assert net.is_leaf(5) and not net.is_leaf(2)


def test_ancestor_and_descendant_sets(seven_taxa):
    net = seven_taxa.net
    assert net.descendants(2) == frozenset({2, 5, 6})
    # the descendant set is reflexive
    assert 0 in net.descendants(0)


def test_cluster_contents(seven_taxa):
    net = seven_taxa.net
    assert cluster(net, 0) == frozenset("1234")
    assert cluster(net, 1) == frozenset("34567")
    assert cluster(net, 4) == frozenset("34")
    assert cluster(net, net.leaf_vertex("6")) == frozenset("6")


def test_hybrid_surplus_and_arboreality(seven_taxa, crown):
    tree = seven_taxa.net
    assert h_tilde(tree) == 1  # one doubly-fed vertex
    assert is_arboreal(tree)
    assert len(tree.arcs) == tree.num_vertices - 1
    assert h_tilde(crown) == 3
    assert not is_arboreal(crown)


def test_alternating_cycle_witness(seven_taxa, crown):
    assert find_alternating_cycle(seven_taxa.net) is None
    cyc = find_alternating_cycle(crown)
    assert cyc is not None
    assert cyc.k >= 1
    assert cyc.verify(crown)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_alternating_cycles_appear_exactly_off_trees(seed):
    p = GenParams(leaf_range=(3, 8), root_range=(1, 3), hybrid_bias=0.4, seed=seed)
    net = random_network(p)
    cyc = find_alternating_cycle(net)
    if is_arboreal(net):
        assert cyc is None
    else:
        assert cyc is not None and cyc.verify(net)


def vertex_named(net):
    # every branching vertex labelled by its own id, so the map read off
    # the network names the least common ancestor of each pair
    return evaluate_map(
        LabelledNetwork.build(net, {v: f"v{v}" for v in net.vertices() if net.outdeg(v) >= 2})
    )


def test_lca_values_on_the_two_root_tree(seven_taxa):
    lca = vertex_named(seven_taxa.net)
    assert lca.value("1", "2") == "v2"
    assert lca.value("3", "4") == "v4"
    assert lca.value("1", "3") == "v0"
    assert lca.value("4", "6") == "v1"
    assert lca.value("1", "5") is None  # no shared ancestry across the roots


def test_brute_minimal_common_ancestors_on_the_crown(crown):
    mca = brute_force_minimal_common_ancestors
    assert mca(crown, "1", "2") == frozenset({2})
    assert mca(crown, "2", "3") == frozenset({3})
    assert mca(crown, "1", "3") == frozenset({1})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_lca_matches_brute_force_on_trees(seed):
    # each root beyond the first joins the rest through a hybrid, and two
    # taxa that lie below different roots only have no common ancestor
    p = GenParams(leaf_range=(2, 30), root_range=(1, 6), seed=seed)
    net = random_arboreal_network(p)
    lca = vertex_named(net)
    for (x, y), got in lca.items():
        mcas = brute_force_minimal_common_ancestors(net, x, y)
        assert len(mcas) <= 1
        assert got == (f"v{min(mcas)}" if mcas else None)


def test_shared_ancestry_edges(seven_taxa):
    g = shared_ancestry_graph(seven_taxa.net)
    assert g.has_edge("1", "2")
    assert g.has_edge("3", "6")
    assert not g.has_edge("1", "5")
    assert g.edge_count == 15  # 21 pairs minus the 6 without common ancestors


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_shared_ancestry_matches_pairwise_ancestor_sets(seed):
    # the extra hybrid arcs close undirected cycles, so most draws are not
    # arboreal
    p = GenParams(leaf_range=(2, 20), root_range=(1, 5), hybrid_bias=0.3, seed=seed)
    net = random_network(p)
    expected = [
        (x, y) for x, y in net.taxa.pairs() if brute_force_minimal_common_ancestors(net, x, y)
    ]
    assert shared_ancestry_graph(net).sorted_edges() == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_any_shared_ancestry_clique_sits_below_one_vertex(seed):
    # Helly's property: on an arboreal network the ancestor sets of the taxa
    # are subtrees of a tree, so pairwise meeting ones share a vertex
    p = GenParams(leaf_range=(3, 8), root_range=(1, 3), seed=seed)
    net = random_arboreal_network(p)
    g = shared_ancestry_graph(net)
    clusters = [cluster(net, v) for v in net.vertices()]
    for q in maximal_cliques(g):
        assert any(q <= c for c in clusters)
    for r in net.roots:
        assert maximal_cliques(g)  # connected graphs on >= 2 taxa have an edge
        assert cluster(net, r) in {c for c in clusters}


def test_a_non_arboreal_network_can_hang_a_clique_below_no_vertex():
    # Helly's property needs the arboreal hypothesis: in this valid network
    # every two taxa of the clique share an ancestor, but no vertex lies
    # above all five
    p = GenParams(leaf_range=(3, 8), root_range=(1, 3), hybrid_bias=0.3, seed=3159)
    net = random_network(p)
    assert not is_arboreal(net)
    q = frozenset({"t02", "t04", "t05", "t06", "t07"})
    assert q in maximal_cliques(shared_ancestry_graph(net)).as_sets()
    assert not any(q <= cluster(net, v) for v in net.vertices())
