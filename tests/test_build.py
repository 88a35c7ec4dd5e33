"""Turning graphs into networks whose shared ancestry realizes them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import (
    CliqueFamily,
    ConstructionMismatchError,
    DisconnectedGraphError,
    InvalidNetworkError,
    NoEdgesError,
    UGraph,
    arboreal_representation,
    build_network_from_cover,
    cluster,
    is_arboreal,
    maximal_cliques,
    shared_ancestry_graph,
)
from arboreal import build, graphs
from arboreal.networks import validate_network
from arboreal.oracle import random_connected_graph


def root_clusters(net):
    return {cluster(net, r) for r in net.roots}


def test_naive_representation_uses_one_root_per_edge(two_quads, c4):
    # the edges of any graph are distinct 2-sets, hence an antichain cover
    # that hangs one root over each edge
    for g in (two_quads, c4):
        edges = CliqueFamily.build(g.taxa, g.sorted_edges())
        net = build_network_from_cover(g, edges)
        assert net.root_count() == g.edge_count
        assert root_clusters(net) == edges.as_sets()
        assert shared_ancestry_graph(net) == g
    split = UGraph.build("abcd", [("a", "b"), ("c", "d")])
    with pytest.raises(InvalidNetworkError):
        build_network_from_cover(split, CliqueFamily.build(split.taxa, split.sorted_edges()))


def test_cover_network_on_the_two_quads(two_quads):
    fam = maximal_cliques(two_quads)
    net = build_network_from_cover(two_quads, fam)
    assert shared_ancestry_graph(net) == two_quads
    assert net.root_count() == 2
    assert root_clusters(net) == fam.as_sets()
    assert len(net.hybrids) == 1
    assert cluster(net, net.hybrids[0]) == frozenset("34")
    assert is_arboreal(net)


def test_cover_network_with_a_five_piece_cover(two_quads):
    fam = CliqueFamily.build(
        two_quads.taxa, [set("123"), set("124"), set("34"), set("356"), set("456")]
    )
    net = build_network_from_cover(two_quads, fam)
    assert shared_ancestry_graph(net) == two_quads
    assert net.root_count() == 5
    assert root_clusters(net) == fam.as_sets()
    assert not is_arboreal(net)


def test_nested_cover_members_stop_being_roots(two_quads):
    fam = CliqueFamily.build(two_quads.taxa, [set("1234"), set("3456"), set("34")])
    net = build_network_from_cover(two_quads, fam)
    # the nested member survives as an inner vertex, not a root
    assert root_clusters(net) == {frozenset("1234"), frozenset("3456")}
    assert shared_ancestry_graph(net) == two_quads


def test_cover_network_on_a_cycle(c4):
    fam = maximal_cliques(c4)  # the four edges
    net = build_network_from_cover(c4, fam)
    assert shared_ancestry_graph(net) == c4
    assert net.root_count() == 4
    assert not is_arboreal(net)


def test_cover_missing_a_taxon_cannot_connect():
    from arboreal import NotACoverError

    g = UGraph.build("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(NotACoverError):
        build_network_from_cover(g, CliqueFamily.build(g.taxa, [set("ab")]))
    # all edges covered, but an isolated taxon has nowhere to hang
    loner = UGraph.build("abc", [("a", "b")])
    with pytest.raises(InvalidNetworkError):
        build_network_from_cover(loner, CliqueFamily.build(loner.taxa, [set("ab")]))


def test_cover_network_certifies_its_shared_ancestry(monkeypatch):
    def misnamed(arcs, leaf_names, **kw):
        # hang every taxon where the next one belongs
        names = list(leaf_names.values())
        return validate_network(arcs, dict(zip(leaf_names, names[1:] + names[:1])), **kw)

    monkeypatch.setattr(build, "validate_network", misnamed)
    path = UGraph.build("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ConstructionMismatchError):
        build_network_from_cover(path, maximal_cliques(path))


def test_arboreal_representation_exists_exactly_for_ptolemaic(two_quads, c4, gem, count_calls):
    counts = count_calls([graphs._lexbfs, maximal_cliques])
    net = arboreal_representation(two_quads)
    assert net is not None and is_arboreal(net)
    assert net.root_count() == 2
    assert shared_ancestry_graph(net) == two_quads
    assert arboreal_representation(c4) is None
    assert arboreal_representation(gem) is None
    # one LexBFS pass per call decides and yields the roots; no Bron-Kerbosch
    assert counts == {"_lexbfs": 3}


def test_arboreal_representation_guards():
    # connectivity is checked first, so only a lone vertex reaches the
    # edge-count guard
    with pytest.raises(NoEdgesError):
        arboreal_representation(UGraph.build("a", []))
    with pytest.raises(DisconnectedGraphError):
        arboreal_representation(UGraph.build("ab", []))
    with pytest.raises(DisconnectedGraphError):
        arboreal_representation(UGraph.build("abcd", [("a", "b"), ("c", "d")]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 7))
def test_representations_realize_random_graphs(seed, n):
    g = random_connected_graph(n, seed)
    if not g.edge_count:
        return
    fam = maximal_cliques(g)
    net = build_network_from_cover(g, fam)
    assert shared_ancestry_graph(net) == g
    assert root_clusters(net) == fam.as_sets()
    arb = arboreal_representation(g)
    if arb is not None:
        assert is_arboreal(arb)
        assert shared_ancestry_graph(arb) == g
