"""Clique families, minimum edge clique covers, and the containment order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import (
    CliqueFamily,
    NoEdgesError,
    TooLargeError,
    cover_digraph,
    ecc_min,
    intersection_closure,
    is_clique,
    is_edge_clique_cover,
    maximal_cliques,
    underlying_acyclic,
)
from arboreal import UGraph
from arboreal.oracle import (
    brute_maximal_cliques,
    brute_transitive_reduction,
    enumerate_connected_graphs,
    random_connected_graph,
    subset_intersection_closure,
)


def family(g, *members):
    return CliqueFamily.build(g.taxa, [frozenset(m) for m in members])


def test_family_is_canonical_and_checks_members(two_quads):
    fam = family(two_quads, "3456", "34", "1234")
    assert [set(m) for m in fam.sets] == [set("34"), set("1234"), set("3456")]
    assert fam.member_sorted(fam.sets[1]) == ("1", "2", "3", "4")
    assert fam.as_sets() == frozenset({frozenset("34"), frozenset("1234"), frozenset("3456")})
    with pytest.raises(ValueError):
        family(two_quads, "34", "43")  # same member twice
    with pytest.raises(ValueError):
        family(two_quads, "")


def test_is_clique(two_quads, c4):
    assert is_clique(two_quads, set("1234"))
    assert is_clique(two_quads, set("34"))
    assert is_clique(two_quads, {"1"})
    assert not is_clique(two_quads, set("12345"))
    assert not is_clique(c4, set("wxy"))


def test_maximal_cliques_on_fixtures(two_quads, c4):
    assert maximal_cliques(two_quads).as_sets() == frozenset(
        {frozenset("1234"), frozenset("3456")}
    )
    assert maximal_cliques(c4).as_sets() == frozenset(
        frozenset(e) for e in c4.sorted_edges()
    )
    edgeless = UGraph.build("ab", [])
    assert maximal_cliques(edgeless).sets == ()


def test_maximal_cliques_match_brute_force():
    for n in range(2, 5):
        for g in enumerate_connected_graphs(n):
            assert maximal_cliques(g).as_sets() == brute_maximal_cliques(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 8))
def test_maximal_cliques_match_brute_force_random(seed, n):
    g = random_connected_graph(n, seed)
    assert maximal_cliques(g).as_sets() == brute_maximal_cliques(g)


def test_maximal_cliques_of_a_clique_deeper_than_the_recursion_limit():
    taxa = [f"t{i}" for i in range(1100)]
    k = UGraph.build(taxa, [(a, b) for i, a in enumerate(taxa) for b in taxa[i + 1:]])
    assert maximal_cliques(k).as_sets() == frozenset({frozenset(taxa)})


def test_cover_predicate(two_quads):
    assert is_edge_clique_cover(two_quads, family(two_quads, "1234", "3456"))
    # members may nest, coverage is all that counts
    assert is_edge_clique_cover(two_quads, family(two_quads, "1234", "3456", "34"))
    assert not is_edge_clique_cover(two_quads, family(two_quads, "1234"))
    # a non-clique member disqualifies
    assert not is_edge_clique_cover(two_quads, family(two_quads, "1234", "3456", "25"))


def test_minimum_cover_sizes(two_quads, c4):
    k, fam = ecc_min(two_quads)
    assert k == 2 and fam.as_sets() == maximal_cliques(two_quads).as_sets()
    k, fam = ecc_min(c4)
    assert k == 4 and is_edge_clique_cover(c4, fam)
    k, _ = ecc_min(UGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")]))
    assert k == 3
    k, fam = ecc_min(UGraph.build("abcd", [(a, b) for a in "abcd" for b in "abcd" if a < b]))
    assert k == 1 and fam.as_sets() == {frozenset("abcd")}


def test_minimum_cover_guards():
    with pytest.raises(NoEdgesError):
        ecc_min(UGraph.build("ab", []))
    big = UGraph.build(
        [f"v{i}" for i in range(26)], [(f"v{i}", f"v{i+1}") for i in range(25)]
    )
    with pytest.raises(TooLargeError):
        ecc_min(big)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 7))
def test_minimum_cover_is_a_cover_and_no_smaller_than_cliques_allow(seed, n):
    g = random_connected_graph(n, seed)
    if not g.edge_count:
        return
    k, fam = ecc_min(g)
    assert len(fam.sets) == k
    assert is_edge_clique_cover(g, fam)
    # one maximal clique can absorb at most its own edges
    assert k <= len(maximal_cliques(g))


def test_intersection_closure_fixture(two_quads):
    fam = maximal_cliques(two_quads)
    closed = intersection_closure(fam)
    assert closed.as_sets() == frozenset(
        {frozenset("1234"), frozenset("3456"), frozenset("34")}
    )
    with pytest.raises(ValueError):
        intersection_closure(CliqueFamily.build(two_quads.taxa, []))


def test_closure_is_idempotent_and_contains_input(two_quads, c4):
    for g in (two_quads, c4):
        fam = maximal_cliques(g)
        closed = intersection_closure(fam)
        assert fam.as_sets() <= closed.as_sets()
        assert intersection_closure(closed).as_sets() == closed.as_sets()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 7))
def test_closure_matches_subset_formula(seed, n):
    g = random_connected_graph(n, seed)
    fam = maximal_cliques(g)
    if not fam.sets:
        return
    assert intersection_closure(fam).as_sets() == subset_intersection_closure(fam.as_sets())


def test_cover_digraph_chain_and_antichain(two_quads):
    chain = family(two_quads, "1234", "34", "3")
    h = cover_digraph(chain)
    got = {(chain.sets[a], chain.sets[b]) for a, b in h.arcs}
    assert got == {
        (frozenset("1234"), frozenset("34")),
        (frozenset("34"), frozenset("3")),
    }
    flat = family(two_quads, "1234", "3456")
    assert cover_digraph(flat).arcs == ()


def test_cover_digraph_skips_covered_containments(two_quads):
    # 1234 > 34 > 3: no direct arc from 1234 to 3
    fam = family(two_quads, "1234", "34", "3")
    h = cover_digraph(fam)
    pairs = {(fam.sets[a], fam.sets[b]) for a, b in h.arcs}
    assert (frozenset("1234"), frozenset("3")) not in pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 7))
def test_cover_digraph_matches_brute_reduction(seed, n):
    g = random_connected_graph(n, seed)
    fam = maximal_cliques(g)
    if not fam.sets:
        return
    closed = intersection_closure(fam)
    h = cover_digraph(closed)
    got = {(closed.sets[i], closed.sets[j]) for i, j in h.arcs}
    assert got == brute_transitive_reduction(closed.as_sets())


def test_underlying_acyclicity_separates_the_fixtures(two_quads, c4):
    good = intersection_closure(maximal_cliques(two_quads))
    assert underlying_acyclic(cover_digraph(good))
    bad = intersection_closure(maximal_cliques(c4))
    assert not underlying_acyclic(cover_digraph(bad))
