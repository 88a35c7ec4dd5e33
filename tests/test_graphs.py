"""Taxon sets, undirected graphs, and the ptolemaic recognizers."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import (
    TaxonSet,
    UGraph,
    UnknownTaxonError,
    bfs_distances,
    connected_components,
    contains_gem,
    induced_subgraph,
    is_connected,
    is_ptolemaic,
    ptolemy_inequality_holds,
)
from arboreal import graphs
from arboreal.networks import shared_ancestry_graph
from arboreal.oracle import (
    GenParams,
    brute_is_chordal,
    enumerate_connected_graphs,
    hole_by_pair_search,
    is_ptolemaic_by_gem,
    random_connected_graph,
    random_network,
    random_symbolic_map,
)
from arboreal.symbolic import graph_of_map


def hole_of(g):
    # the chordless cycle the LexBFS pass reports, or None when g is chordal
    return graphs._ptolemaic_pass(g)[0]


def complete_graph(taxa):
    taxa = list(taxa)
    return UGraph.build(taxa, [(a, b) for i, a in enumerate(taxa) for b in taxa[i + 1:]])


def path_graph(taxa):
    taxa = list(taxa)
    return UGraph.build(taxa, list(zip(taxa, taxa[1:])))


def cycle_graph(taxa):
    taxa = list(taxa)
    return UGraph.build(taxa, list(zip(taxa, taxa[1:] + taxa[:1])))


def test_taxon_set_keeps_insertion_order():
    ts = TaxonSet.of(["u", "a", "m"])
    assert list(ts) == ["u", "a", "m"]
    assert ts.index("m") == 2
    assert "a" in ts and "z" not in ts
    assert ts.sorted(["m", "u"]) == ("u", "m")


def test_taxon_set_rejects_bad_input():
    with pytest.raises(ValueError):
        TaxonSet.of([])
    with pytest.raises(ValueError):
        TaxonSet.of(["a", "a"])
    with pytest.raises(ValueError):
        TaxonSet.of(["a", ""])
    with pytest.raises(UnknownTaxonError):
        TaxonSet.of(["a", "b"]).index("c")


def test_pairs_are_canonical_by_position():
    ts = TaxonSet.of(["b", "a"])
    assert ts.pair("a", "b") == ("b", "a")
    assert list(ts.pairs()) == [("b", "a")]
    with pytest.raises(ValueError):
        ts.pair("a", "a")


def test_ugraph_normalises_edges():
    g = UGraph.build("abc", [("b", "a"), ("a", "b")])
    assert g.edge_count == 1
    assert g.sorted_edges() == [("a", "b")]
    assert g.has_edge("b", "a") and not g.has_edge("a", "c")
    assert len(g.neighbors("a")) == 1 and len(g.neighbors("c")) == 0
    assert g.neighbors("a") == frozenset({"b"})


def test_ugraph_rejects_loops_and_strangers():
    with pytest.raises(ValueError):
        UGraph.build("ab", [("a", "a")])
    with pytest.raises(UnknownTaxonError):
        UGraph.build("ab", [("a", "c")])


def test_connectivity_and_components():
    g = UGraph.build("abcde", [("a", "b"), ("b", "c"), ("d", "e")])
    assert not is_connected(g)
    assert connected_components(g) == [("a", "b", "c"), ("d", "e")]
    assert is_connected(path_graph("abcde"))
    assert is_connected(UGraph.build("a", []))


def test_bfs_distances_on_a_path():
    g = path_graph("abcd")
    assert bfs_distances(g, "a") == {"a": 0, "b": 1, "c": 2, "d": 3}
    gapped = UGraph.build("abc", [("a", "b")])
    assert "c" not in bfs_distances(gapped, "a")


def test_induced_subgraph_drops_outside_edges(two_quads):
    sub = induced_subgraph(two_quads, ["1", "2", "5"])
    assert list(sub.taxa) == ["1", "2", "5"]
    assert sub.sorted_edges() == [("1", "2")]
    with pytest.raises(UnknownTaxonError, match="'9'"):
        induced_subgraph(two_quads, ["1", "9", "8", "7"])


def test_chordality_of_small_standards(c4, c5, two_quads):
    assert hole_of(c4) is not None
    assert hole_of(c5) is not None
    assert hole_of(two_quads) is None
    assert hole_of(path_graph("abcde")) is None
    assert hole_of(complete_graph("abcd")) is None


def test_hole_finder_returns_an_induced_cycle(c4, c5, two_quads):
    for g in (c4, c5):
        hole = hole_of(g)
        assert hole is not None and len(hole) == len(g.taxa)
        assert set(hole) == set(g.taxa)
    assert hole_of(two_quads) is None
    # a hole inside a larger graph: C4 with a pendant
    g = UGraph.build("wxyzp", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w"), ("p", "w")])
    hole = hole_of(g)
    assert hole is not None and set(hole) == set("wxyz")


def test_gem_finder(gem, c5, two_quads):
    found = contains_gem(gem)
    assert found is not None and len(found) == 5
    hub = found[-1]
    inner = [v for v in found if v != hub]
    assert all(gem.has_edge(hub, v) for v in inner)
    assert contains_gem(c5) is None
    assert contains_gem(two_quads) is None
    assert contains_gem(complete_graph("abcde")) is None


def test_ptolemaic_standards(c4, gem, two_quads):
    assert is_ptolemaic(two_quads)
    assert is_ptolemaic(complete_graph("abcd"))
    assert is_ptolemaic(path_graph("abcdef"))
    assert not is_ptolemaic(c4)       # a hole
    assert not is_ptolemaic(gem)      # chordal but gem-bearing
    assert hole_of(gem) is None


def test_metric_reading_matches_structure(c4, gem, two_quads):
    for g in (c4, gem, two_quads, path_graph("abcd"), complete_graph("abc")):
        assert ptolemy_inequality_holds(g) == is_ptolemaic(g)


def test_metric_reading_needs_connectivity():
    g = UGraph.build("abcd", [("a", "b"), ("c", "d")])
    with pytest.raises(Exception):
        ptolemy_inequality_holds(g)


def test_chordal_agrees_with_brute_force_small():
    for n in range(2, 5):
        for g in enumerate_connected_graphs(n):
            assert (hole_of(g) is None) == brute_is_chordal(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 8))
def test_chordal_agrees_with_brute_force_random(seed, n):
    g = random_connected_graph(n, seed)
    assert (hole_of(g) is None) == brute_is_chordal(g)


def assert_listed_hole(g, hole):
    # an induced cycle of length >= 4, listed around the cycle from its
    # lowest taxon position towards the lower of that vertex's neighbors
    ring = induced_subgraph(g, hole)
    assert len(set(hole)) == len(hole) >= 4
    assert all(len(ring.neighbors(v)) == 2 for v in hole)
    assert all(g.has_edge(a, b) for a, b in zip(hole, hole[1:] + hole[:1]))
    pos = [g.taxa.index(v) for v in hole]
    assert pos[0] == min(pos) and pos[1] < pos[-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 8))
def test_hole_witnesses_verify(seed, n):
    # a grown chordal graph with one extra edge (unless it is complete)
    # often has a long hole
    chordal = grown_chordal_graph(n, seed)
    missing = [e for e in combinations(chordal.taxa, 2) if not chordal.has_edge(*e)]
    extra = random.Random(seed).sample(missing, min(1, len(missing)))
    grown = UGraph.build(chordal.taxa, chordal.sorted_edges() + extra)
    for g in (random_connected_graph(n, seed, edge_prob=0.35), grown):
        hole = hole_of(g)
        assert (hole is None) == brute_is_chordal(g)
        if hole is not None:
            assert_listed_hole(g, hole)


def test_ptolemaic_matches_gem_reference_on_every_small_graph():
    # every labelled graph on 1..6 vertices, disconnected ones included
    checked = ptolemaic = 0
    for n in range(1, 7):
        names = "abcdef"[:n]
        pairs = list(combinations(names, 2))
        for mask in range(1 << len(pairs)):
            g = UGraph.build(names, [p for i, p in enumerate(pairs) if mask >> i & 1])
            verdict = is_ptolemaic(g)
            assert verdict == is_ptolemaic_by_gem(g), g.sorted_edges()
            hole = hole_of(g)
            assert (hole is None) == (hole_by_pair_search(g) is None), g.sorted_edges()
            if hole is not None:
                assert_listed_hole(g, hole)
            checked += 1
            ptolemaic += verdict
    assert checked == 1 + 2 + 8 + 64 + 1024 + 32768
    assert 0 < ptolemaic < checked


def grown_chordal_graph(n, seed):
    # each new vertex joins a clique inside the closed neighborhood of an
    # earlier one, so every graph is chordal and gems are common
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(n)]
    adj = {names[0]: set()}
    for i in range(1, n):
        anchor = rng.choice(names[:i])
        joined = [anchor]
        for w in sorted(adj[anchor]):
            if rng.random() < 0.6 and all(w in adj[k] for k in joined):
                joined.append(w)
        adj[names[i]] = set(joined)
        for w in joined:
            adj[w].add(names[i])
    return UGraph.build(names, [(v, w) for v in names for w in adj[v] if v < w])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 12), st.sampled_from([0.1, 0.25, 0.5, 0.8]))
def test_ptolemaic_matches_gem_reference_on_random_graphs(seed, n, density):
    rng = random.Random(seed)
    names = [f"t{i}" for i in range(n)]
    g = UGraph.build(names, [e for e in combinations(names, 2) if rng.random() < density])
    assert is_ptolemaic(g) == is_ptolemaic_by_gem(g)
    chordal = grown_chordal_graph(n, seed)
    assert is_ptolemaic(chordal) == is_ptolemaic_by_gem(chordal)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0.0, 0.05, 0.15, 0.3]))
def test_ptolemaic_matches_gem_reference_on_shared_ancestry(seed, bias):
    p = GenParams(leaf_range=(4, 12), root_range=(1, 5), hybrid_bias=bias, seed=seed)
    g = shared_ancestry_graph(random_network(p))
    assert is_ptolemaic(g) == is_ptolemaic_by_gem(g)


def first_gem_by_degrees(g):
    # five vertices induce a gem iff their induced degrees are 2, 2, 3, 3, 4
    for sub in combinations(g.taxa.taxa, 5):
        degrees = sorted(sum(g.has_edge(v, w) for w in sub) for v in sub)
        if degrees == [2, 2, 3, 3, 4]:
            return sub
    return None


def test_gem_scan_names_the_first_gem_on_every_small_graph():
    gems = 0
    for n in range(5, 7):
        for g in enumerate_connected_graphs(n):
            found = contains_gem(g)
            assert found == first_gem_by_degrees(g), g.sorted_edges()
            gems += found is not None
    assert gems > 0


def test_gem_scan_names_the_first_gem_on_random_graphs():
    gems = 0
    for seed in range(120):
        n = 7 + seed % 3
        for g in (random_connected_graph(n, seed, edge_prob=0.6), grown_chordal_graph(n, seed)):
            found = contains_gem(g)
            assert found == first_gem_by_degrees(g), (seed, g.sorted_edges())
            gems += found is not None
    assert gems > 0


def drawn_graph(seed, source):
    rng = random.Random(seed)
    if source == "map":
        p = GenParams(leaf_range=(2, 12), symbol_count=2, hybrid_bias=0.4, seed=seed)
        return graph_of_map(random_symbolic_map(p))
    if source == "network":
        p = GenParams(leaf_range=(2, 14), root_range=(1, 5), hybrid_bias=0.3, seed=seed)
        return shared_ancestry_graph(random_network(p))
    names = [f"t{i}" for i in range(rng.randint(1, 12))]
    rng.shuffle(names)
    edges = [
        (b, a) if rng.random() < 0.5 else (a, b)
        for a, b in combinations(names, 2)
        if rng.random() < 0.4
    ]
    g = UGraph.build(names, edges + edges[: len(edges) // 3])
    assert {frozenset(e) for e in g.sorted_edges()} == {frozenset(e) for e in edges}
    return g


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["map", "network", "build"]))
def test_adjacency_rows_are_symmetric_and_round_trip(seed, source):
    g = drawn_graph(seed, source)
    n = len(g.taxa)
    assert len(g.adj) == n
    for i, row in enumerate(g.adj):
        assert not row >> i & 1 and not row >> n
        assert all((row >> j & 1) == (g.adj[j] >> i & 1) for j in range(n))
    edges = g.sorted_edges()
    assert edges == [p for p in g.taxa.pairs() if g.has_edge(*p)]
    assert g.edge_count == len(edges)
    assert UGraph.build(g.taxa, edges) == g
