"""The seeded generators and brute-force references used by the other suites."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import (
    GenerationExhaustedError,
    NotArborealError,
    TooLargeError,
    evaluate_map,
    is_arboreal,
    is_connected,
    is_discriminating,
    is_edge_clique_cover,
    maximal_cliques,
    validate_network,
)
from arboreal import oracle
from arboreal.symbolic import LabelledNetwork
from arboreal.oracle import (
    GenParams,
    count_tree_shapes,
    enumerate_antichain_covers,
    enumerate_connected_graphs,
    enumerate_edge_clique_covers,
    enumerate_labelled_trees,
    random_arboreal_network,
    random_connected_graph,
    random_labelled_network,
    random_network,
    random_symbolic_map,
    random_uncollapse,
)


def test_params_are_checked():
    with pytest.raises(ValueError):
        GenParams(leaf_range=(1, 4))
    with pytest.raises(ValueError):
        GenParams(leaf_range=(5, 4))
    with pytest.raises(ValueError):
        GenParams(root_range=(0, 2))
    with pytest.raises(ValueError):
        GenParams(symbol_count=0)
    with pytest.raises(ValueError):
        GenParams(hybrid_bias=1.5)


def test_generators_are_deterministic():
    p = GenParams(leaf_range=(3, 8), root_range=(1, 3), seed=17)
    assert random_arboreal_network(p) == random_arboreal_network(p)
    assert random_labelled_network(p) == random_labelled_network(p)
    assert random_symbolic_map(p) == random_symbolic_map(p)
    q = GenParams(leaf_range=(3, 8), root_range=(1, 3), hybrid_bias=0.4, seed=17)
    assert random_network(q) == random_network(q)
    assert random_connected_graph(6, 17) == random_connected_graph(6, 17)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_arboreal_generator_is_sound(seed):
    p = GenParams(leaf_range=(3, 10), root_range=(1, 4), seed=seed)
    net = random_arboreal_network(p)
    assert is_arboreal(net)
    assert len(net.arcs) == net.num_vertices - 1
    assert 3 <= len(net.taxa) <= 10
    assert 1 <= net.root_count() <= 4


def test_arboreal_generator_retries_a_non_tree(monkeypatch):
    # the tree check is a raise, not an assert, so it also holds under -O
    non_tree = validate_network(
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6)],
        {4: "a", 5: "b", 6: "c"},
    )
    assert not is_arboreal(non_tree)
    calls = []

    def first_a_non_tree(*args, **kwargs):
        calls.append(args)
        return non_tree if len(calls) == 1 else validate_network(*args, **kwargs)

    monkeypatch.setattr(oracle, "validate_network", first_a_non_tree)
    net = random_arboreal_network(GenParams(leaf_range=(3, 6), seed=3))
    assert len(calls) >= 2 and is_arboreal(net)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_network_generator_reduces_to_trees_without_bias(seed):
    p0 = GenParams(leaf_range=(3, 8), root_range=(1, 3), hybrid_bias=0.0, seed=seed)
    assert random_network(p0) == random_arboreal_network(
        GenParams(leaf_range=(3, 8), root_range=(1, 3), seed=seed)
    )
    p = GenParams(leaf_range=(3, 8), root_range=(1, 3), hybrid_bias=0.5, seed=seed)
    net = random_network(p)
    validate_network(net.arcs, dict(net.leaves), num_vertices=net.num_vertices)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_labelled_generator_covers_exactly_the_branchings(seed):
    p = GenParams(leaf_range=(3, 8), root_range=(1, 3), symbol_count=3, seed=seed)
    ln = random_labelled_network(p)
    assert {v for v, _ in ln.labels} == {
        v for v in ln.net.vertices() if ln.net.outdeg(v) >= 2
    }
    assert set(ln.symbol_alphabet()) <= {"a", "b", "c"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_map_generator_respects_alphabet_and_gap_bias(seed):
    p = GenParams(leaf_range=(3, 8), symbol_count=2, hybrid_bias=0.0, seed=seed)
    d = random_symbolic_map(p)
    assert d.gap_count() == 0
    assert set(d.symbols) <= {"a", "b"}


def test_connected_graph_generator_gives_up_honestly():
    with pytest.raises(GenerationExhaustedError):
        random_connected_graph(3, seed=0, edge_prob=0.0)


def test_connected_graph_census():
    assert [sum(1 for _ in enumerate_connected_graphs(n)) for n in range(1, 6)] == [
        1, 1, 4, 38, 728,
    ]
    for g in enumerate_connected_graphs(3):
        assert is_connected(g)
    with pytest.raises(TooLargeError):
        list(enumerate_connected_graphs(7))


def test_tree_shape_counts():
    assert [count_tree_shapes(n) for n in range(1, 6)] == [1, 1, 4, 26, 236]


def test_labelled_tree_enumeration_matches_the_shape_counts():
    # with one symbol the labelling is forced, so trees == shapes
    for n, want in [(2, 1), (3, 4), (4, 26)]:
        taxa = [f"t{i}" for i in range(n)]
        assert sum(1 for _ in enumerate_labelled_trees(taxa, ["a"])) == want
    # two symbols on four taxa: every shape, every branching labelling
    trees = list(enumerate_labelled_trees(["w", "x", "y", "z"], ["a", "b"]))
    assert len(trees) == 162
    seen = set()
    for ln in trees:
        assert isinstance(ln, LabelledNetwork)
        assert ln.net.root_count() == 1
        assert is_arboreal(ln.net)
        d = evaluate_map(ln)
        assert d.gap_count() == 0
        seen.add((ln.net.arcs, ln.net.leaves, ln.labels))
    assert len(seen) == 162


def test_labelled_tree_enumeration_caps():
    with pytest.raises(TooLargeError):
        list(enumerate_labelled_trees(list("abcde"), ["a", "b"]))
    with pytest.raises(TooLargeError):
        list(enumerate_labelled_trees(list("abc"), ["a", "b", "c", "d"]))


def test_edge_clique_cover_enumeration(two_quads, c4):
    covers = enumerate_edge_clique_covers(two_quads, max_size=2)
    assert covers == {maximal_cliques(two_quads).as_sets()}
    for fam in enumerate_edge_clique_covers(c4, max_size=4):
        assert len(fam) == 4
    triangle = random_connected_graph(3, 0, edge_prob=1.0)
    assert {frozenset({frozenset(triangle.taxa)})} <= enumerate_edge_clique_covers(
        triangle, max_size=1
    )


def test_antichain_cover_enumeration(two_quads):
    covers = enumerate_antichain_covers(two_quads)
    assert maximal_cliques(two_quads).as_sets() in covers
    for fam in covers:
        sets = sorted(fam, key=len)
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                assert not (a < b or b < a)


def test_uncollapse_needs_a_tree(crown):
    labels = {v: "A" for v in crown.vertices() if crown.outdeg(v) >= 2}
    with pytest.raises(NotArborealError):
        random_uncollapse(LabelledNetwork.build(crown, labels), seed=0)


def test_uncollapse_returns_none_when_nothing_applies():
    # a bare cherry admits no inverse move
    net = validate_network([(0, 1), (0, 2)], {1: "a", 2: "b"})
    ln = LabelledNetwork.build(net, {0: "A"})
    assert random_uncollapse(ln, seed=0) is None


def test_uncollapse_grows_but_keeps_the_map(seven_taxa):
    grown = random_uncollapse(seven_taxa, seed=3)
    assert grown is not None
    assert grown.net.num_vertices > seven_taxa.net.num_vertices
    assert evaluate_map(grown) == evaluate_map(seven_taxa)
    assert not is_discriminating(grown)
