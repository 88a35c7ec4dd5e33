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
    contract_tree_arcs,
    h_tilde,
    is_arboreal,
    maximal_cliques,
    shared_ancestry_graph,
)
from arboreal import build
from arboreal.networks import validate_network
from arboreal.oracle import GenParams, random_arboreal_network, random_connected_graph


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


def test_arboreal_representation_exists_exactly_for_ptolemaic(two_quads, c4, gem):
    net = arboreal_representation(two_quads)
    assert net is not None and is_arboreal(net)
    assert net.root_count() == 2
    assert shared_ancestry_graph(net) == two_quads
    assert arboreal_representation(c4) is None
    assert arboreal_representation(gem) is None


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


def test_contract_tree_arcs_merges_redundant_levels():
    k4 = UGraph.build("abcd", [(a, b) for a in "abcd" for b in "abcd" if a < b])
    fam = CliqueFamily.build(k4.taxa, [set("abcd"), set("ab")])
    net = build_network_from_cover(k4, fam)
    packed = contract_tree_arcs(net)
    assert packed.num_vertices == 5  # one root over four leaves
    assert packed.root_count() == 1
    assert shared_ancestry_graph(packed) == k4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_contraction_preserves_the_interesting_structure(seed):
    p = GenParams(leaf_range=(3, 9), root_range=(1, 3), seed=seed)
    net = random_arboreal_network(p)
    packed = contract_tree_arcs(net)
    assert shared_ancestry_graph(packed) == shared_ancestry_graph(net)
    assert packed.root_count() == net.root_count()
    assert h_tilde(packed) == h_tilde(net)
    assert is_arboreal(packed)
    # fixpoint: nothing left for a second pass
    again = contract_tree_arcs(packed)
    assert again.num_vertices == packed.num_vertices


def contract_by_fixpoint(net):
    # The contraction as a fixpoint loop: contract the first eligible arc in
    # topological-then-id order, recompute the order, repeat until none is
    # left.  Reference for the one-pass `contract_tree_arcs`.
    kids = {v: set(net.children(v)) for v in net.vertices()}
    pars = {v: set(net.parents(v)) for v in net.vertices()}
    leaves = set(net.leaf_vertices)

    def topo_order():
        pending = {v: len(pars[v]) for v in kids}
        ready = sorted((v for v in kids if not pending[v]), reverse=True)
        out = []
        while ready:
            v = ready.pop()
            out.append(v)
            for c in sorted(kids[v], reverse=True):
                pending[c] -= 1
                if not pending[c]:
                    ready.append(c)
            ready.sort(reverse=True)
        return out

    changed = True
    while changed:
        changed = False
        for u in topo_order():
            if len(kids[u]) < 2:
                continue
            for v in sorted(kids[u]):
                if v in leaves or len(pars[v]) != 1:
                    continue
                kids[u].discard(v)
                for c in kids[v]:
                    kids[u].add(c)
                    pars[c].discard(v)
                    pars[c].add(u)
                del kids[v], pars[v]
                changed = True
                break
            if changed:
                break

    ids = {v: i for i, v in enumerate(sorted(kids))}
    return validate_network(
        [(ids[u], ids[v]) for u in kids for v in kids[u]],
        {ids[v]: net.taxon_of(v) for v in kids if v in leaves},
        num_vertices=len(ids),
        taxa=net.taxa,
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_contraction_matches_the_fixpoint_loop(seed, from_graph):
    p = GenParams(leaf_range=(3, 12), root_range=(1, 4), seed=seed)
    net = random_arboreal_network(p)
    if from_graph:
        # the arboreal representation of a ptolemaic support graph, the
        # input `explain` contracts
        net = arboreal_representation(shared_ancestry_graph(net))
    packed = contract_tree_arcs(net)
    expected = contract_by_fixpoint(net)
    assert packed == expected
    assert packed.vertex_names == expected.vertex_names
