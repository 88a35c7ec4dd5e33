"""Symbolic maps, their explainability conditions, and the normal form."""

import random
import sys
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import (
    GAP_GLYPH,
    ConstructionMismatchError,
    LabelledNetwork,
    NotArborealError,
    NotUltrametricError,
    SymbolicMap,
    TaxonSet,
    TooLargeError,
    Violation,
    are_isomorphic,
    build_network_from_cover,
    build_ultrametric_tree,
    check_arboreal_conditions,
    check_violation,
    clique_modules,
    cluster,
    evaluate_map,
    explain,
    find_a4_violation,
    find_delta_violation,
    find_pi_violation,
    graph_of_map,
    is_discriminating,
    make_discriminating,
    maximal_cliques,
    shared_ancestry_graph,
    strong_clique_modules,
    verify_phi_bijection,
)
from arboreal import graphs, networks, symbolic
from arboreal.networks import validate_network
from arboreal.symbolic import A4, DELTA, NOT_CONNECTED, NOT_PTOLEMAIC, PI, _canonical_form
from arboreal.oracle import (
    PLANT_KINDS,
    GenParams,
    a4_by_quad_scan,
    delta_by_triple_scan,
    pi_by_quad_scan,
    planted_map,
    random_labelled_network,
    random_symbolic_map,
    random_uncollapse,
    verdict_by_scans,
)


def map_of(taxa, values, symbols=None):
    return SymbolicMap.build(TaxonSet.of(taxa), values, symbols)


def pi_violating_map():
    # one symbol along a four-taxon path, the other across it
    values = {("w", "x"): "A", ("x", "y"): "A", ("y", "z"): "A"}
    values.update({("w", "y"): "B", ("w", "z"): "B", ("x", "z"): "B"})
    return map_of("wxyz", values)


def a4_violating_map():
    values = {("a", "b"): "A", ("a", "c"): "A", ("b", "c"): "B",
              ("a", "d"): "A", ("b", "d"): "A"}
    return map_of("abcd", values)


def test_map_shape_checks():
    ts = TaxonSet.of("abc")
    with pytest.raises(ValueError):
        SymbolicMap(ts, ("A", "B"))  # one entry short
    with pytest.raises(ValueError):
        SymbolicMap(ts, ("A", "", "B"))
    with pytest.raises(ValueError):
        SymbolicMap(ts, ("A", GAP_GLYPH, "B"))
    with pytest.raises(ValueError):
        SymbolicMap(ts, ("A", None, "B"), symbols=("A",))  # B not declared
    with pytest.raises(ValueError):
        SymbolicMap.build(TaxonSet.of("a"), {})


def test_map_accessors_and_alphabet():
    d = map_of("abc", {("a", "b"): "A", ("b", "c"): "B"})
    assert d.value("b", "a") == "A"
    assert d.value("a", "c") is None
    assert d.entries.count(None) == 1
    assert d.symbols == ("A", "B")
    declared = map_of("abc", {("a", "b"): "A"}, symbols=("A", "B", "C"))
    assert declared.symbols == ("A", "B", "C")
    # equality ignores the declared alphabet
    assert declared == map_of("abc", {("a", "b"): "A"})
    assert dict(d.items())[("a", "b")] == "A"


def test_build_accepts_either_endpoint_order():
    d = map_of("ab", {("b", "a"): "A"})
    assert d.value("a", "b") == "A"
    with pytest.raises(ValueError):
        map_of("ab", {("a", "b"): "A", ("b", "a"): "B"})


def test_support_graph(seven_map):
    g = graph_of_map(seven_map)
    assert g.edge_count == 15
    assert g.has_edge("1", "2") and not g.has_edge("1", "5")


def test_delta_violation_detected():
    d = map_of("abc", {("a", "b"): "A", ("a", "c"): "B", ("b", "c"): "C"})
    triple = find_delta_violation(d)
    assert triple is not None and set(triple) == set("abc")
    v = check_arboreal_conditions(d)
    assert v is not None and v.kind == DELTA
    assert check_violation(d, v)


def test_pi_violation_detected():
    d = pi_violating_map()
    quad = find_pi_violation(d)
    assert quad is not None and set(quad) == set("wxyz")
    v = check_arboreal_conditions(d)
    assert v is not None and v.kind == PI
    assert check_violation(d, v)


def test_a4_violation_detected():
    d = a4_violating_map()
    assert find_delta_violation(d) is None
    assert find_pi_violation(d) is None
    quad = find_a4_violation(d)
    assert quad is not None
    v = check_arboreal_conditions(d)
    assert v is not None and v.kind == A4
    assert check_violation(d, v)


def test_disconnected_support_reported_first():
    d = map_of("abcd", {("a", "b"): "A", ("c", "d"): "A"})
    v = check_arboreal_conditions(d)
    assert v is not None and v.kind == NOT_CONNECTED
    assert check_violation(d, v)


def test_hole_in_support_reported():
    values = {("w", "x"): "A", ("x", "y"): "A", ("y", "z"): "A", ("w", "z"): "A"}
    d = map_of("wxyz", values)
    v = check_arboreal_conditions(d)
    assert v is not None and v.kind == NOT_PTOLEMAIC
    assert set(v.witness) == set("wxyz")
    assert check_violation(d, v)


def test_violation_checker_rejects_corrupt_witnesses():
    d = pi_violating_map()
    v = check_arboreal_conditions(d)
    assert not check_violation(d, Violation(v.kind, v.witness[:3]))
    assert not check_violation(d, Violation(v.kind, ("w", "x", "y", "q")))
    assert not check_violation(d, Violation(DELTA, ("w", "x", "y")))


def violation_kind(v):
    # a not-ptolemaic verdict is named by its witness, a hole or a gem
    if v.kind != NOT_PTOLEMAIC:
        return v.kind
    return next(k for k, text in symbolic._PTOLEMAIC_DETAIL.items() if text == v.detail)


def test_every_reported_violation_rechecks(gem):
    # all 4096 maps over four taxa with values A, B, C or the gap, plus a
    # map whose support is the gem: between them they draw every kind of
    # verdict, and the construction's verdict is the scans' on each
    taxa = TaxonSet.of("abcd")
    maps = [SymbolicMap(taxa, values) for values in product(("A", "B", "C", None), repeat=6)]
    maps.append(SymbolicMap.build(gem.taxa, {e: "A" for e in gem.sorted_edges()}))
    seen = set()
    for d in maps:
        v = check_arboreal_conditions(d)
        out = explain(d)
        assert v == (out if isinstance(out, Violation) else None) == verdict_by_scans(d)
        if v is not None:
            assert check_violation(d, v)
            seen.add(violation_kind(v))
    assert seen == {NOT_CONNECTED, "hole", "gem", DELTA, PI, A4}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_random_violations_recheck(seed):
    p = GenParams(leaf_range=(5, 8), symbol_count=1 + seed % 3, hybrid_bias=0.1 * (seed % 4), seed=seed)
    d = random_symbolic_map(p)
    v = check_arboreal_conditions(d)
    assert v is None or check_violation(d, v)


# each bitmask scan and the quadruple scan it replaced, kept as a reference
SCAN_TWINS = [
    (find_delta_violation, delta_by_triple_scan),
    (find_pi_violation, pi_by_quad_scan),
    (find_a4_violation, a4_by_quad_scan),
]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 12), st.sampled_from([2, 3]),
       st.sampled_from([0.0, 0.05, 0.2, 0.5]))
def test_scans_name_the_reference_witness_on_random_maps(seed, n, symbols, gaps):
    p = GenParams(leaf_range=(n, n), symbol_count=symbols, hybrid_bias=gaps, seed=seed)
    d = random_symbolic_map(p)
    for scan, reference in SCAN_TWINS:
        assert scan(d) == reference(d), scan.__name__


@pytest.mark.parametrize("kind", PLANT_KINDS)
def test_scans_name_the_reference_witness_at_40_taxa(kind):
    # an explainable map with one pair changed: every violation runs
    # through that pair, so the scans run deep before they find one
    d = planted_map(40, kind, seed=2)
    for scan, reference in SCAN_TWINS:
        assert scan(d) == reference(d), scan.__name__


@pytest.mark.parametrize("kind", PLANT_KINDS)
def test_check_names_a_planted_violation_at_100_taxa(kind):
    d = planted_map(100, kind, seed=1)
    v = check_arboreal_conditions(d)
    assert v is not None and violation_kind(v) == kind
    assert check_violation(d, v)


def test_clean_map_has_no_violation(seven_map, module_map):
    assert check_arboreal_conditions(seven_map) is None
    assert check_arboreal_conditions(module_map) is None


def test_labelled_network_label_domain(seven_taxa):
    net = seven_taxa.net
    assert seven_taxa.label_of(0) == "W"
    assert seven_taxa.symbol_alphabet() == ("B", "W")
    good = dict(seven_taxa.labels)
    with pytest.raises(ValueError):
        LabelledNetwork.build(net, {**good, 5: "W"})  # leaf labelled
    missing = dict(good)
    del missing[4]
    with pytest.raises(ValueError):
        LabelledNetwork.build(net, missing)
    with pytest.raises(ValueError):
        LabelledNetwork.build(net, {**good, 0: GAP_GLYPH})


def test_evaluate_reads_off_least_common_ancestor_labels(seven_taxa, seven_map):
    d = evaluate_map(seven_taxa)
    assert d == seven_map
    assert d.value("1", "2") == "B"
    assert d.value("1", "4") == "W"
    assert d.value("3", "4") == "B"
    assert d.value("4", "7") == "B"
    assert d.value("2", "6") is None
    assert d.entries.count(None) == 6


def test_evaluate_needs_a_tree(crown):
    labels = {v: "A" for v in crown.vertices() if crown.outdeg(v) >= 2}
    ln = LabelledNetwork.build(crown, labels)
    with pytest.raises(NotArborealError):
        evaluate_map(ln)


def test_support_graph_is_the_shared_ancestry_graph(seven_taxa, seven_map):
    assert graph_of_map(seven_map) == shared_ancestry_graph(seven_taxa.net)


def test_explain_round_trips_the_fixture(seven_taxa, seven_map):
    out = explain(seven_map)
    assert isinstance(out, LabelledNetwork)
    assert evaluate_map(out) == seven_map
    # the fixture is already discriminating, and the normal form is unique
    assert is_discriminating(seven_taxa)
    assert are_isomorphic(out, seven_taxa)


SCANS = [find_delta_violation, find_pi_violation, find_a4_violation]


def test_one_explain_runs_each_stage_once(seven_map, count_calls):
    counts = count_calls([
        graph_of_map, graphs._ptolemaic_pass, graphs._lexbfs, maximal_cliques,
        shared_ancestry_graph, evaluate_map, validate_network, build_ultrametric_tree, cluster,
        build_network_from_cover, networks._cluster_masks, *SCANS,
    ])
    assert isinstance(explain(seven_map), LabelledNetwork)
    # one LexBFS pass both checks and yields the cliques, so Bron-Kerbosch
    # never runs; the cover network is built unchecked, and only the
    # assembly is validated and certified, by reproducing the map, so no
    # scan runs
    assert counts == {
        "graph_of_map": 1, "_ptolemaic_pass": 1, "_lexbfs": 1, "evaluate_map": 1,
        "validate_network": 1, "_cluster_masks": 1,
    }
    counts.clear()
    assert check_arboreal_conditions(seven_map) is None
    assert not any(counts[scan.__name__] for scan in SCANS)
    # a failed construction scans only up to the first witness
    counts.clear()
    assert explain(pi_violating_map()).kind == PI
    assert {scan.__name__: counts[scan.__name__] for scan in SCANS} == {
        "find_delta_violation": 1, "find_pi_violation": 1, "find_a4_violation": 0,
    }


def test_explain_certifies_the_assembled_network(seven_map, monkeypatch):
    split = symbolic._split_tree

    def mislabelled(value, group):
        arcs, labels, members = split(value, group)
        return arcs, {node: "?" for node in labels}, members

    monkeypatch.setattr(symbolic, "_split_tree", mislabelled)
    with pytest.raises(ConstructionMismatchError):
        explain(seven_map)


def test_explain_returns_the_violation_for_bad_maps():
    v = explain(pi_violating_map())
    assert isinstance(v, Violation) and v.kind == PI
    v = explain(a4_violating_map())
    assert isinstance(v, Violation) and v.kind == A4


def test_gap_free_maps_get_single_rooted_trees():
    d = map_of("abc", {("a", "b"): "B", ("a", "c"): "W", ("b", "c"): "W"})
    tree = build_ultrametric_tree(d)
    assert tree.net.root_count() == 1
    assert tree.net.num_vertices == 5
    assert evaluate_map(tree) == d
    assert is_discriminating(tree)


def test_ultrametric_guards():
    gapped = map_of("abc", {("a", "b"): "B"})
    with pytest.raises(NotUltrametricError):
        build_ultrametric_tree(gapped)
    delta = map_of("abc", {("a", "b"): "A", ("a", "c"): "B", ("b", "c"): "C"})
    with pytest.raises(NotUltrametricError):
        build_ultrametric_tree(delta)
    pi = pi_violating_map()
    with pytest.raises(NotUltrametricError):
        build_ultrametric_tree(pi)


def test_normal_form_is_idempotent(seven_taxa):
    nf = make_discriminating(seven_taxa)
    assert are_isomorphic(nf, seven_taxa)
    assert are_isomorphic(make_discriminating(nf), nf)


def cherry_under_equal_labels():
    # root 0 (A) over leaf x and vertex 1 (A) over leaves y and z: rule 2
    # folds 1 into 0
    net = validate_network([(0, 1), (0, 2), (1, 3), (1, 4)], {2: "x", 3: "y", 4: "z"})
    return LabelledNetwork.build(net, {0: "A", 1: "A"})


def test_normal_form_certifies_the_map(monkeypatch):
    # root 0 (A) over leaf x and vertex 1 (B) over leaves y and z is
    # already discriminating; a contraction that folds the arc (0, 1)
    # anyway merges two labels and changes the map
    net = validate_network([(0, 1), (0, 2), (1, 3), (1, 4)], {2: "x", 3: "y", 4: "z"})
    contract = symbolic._contract_arcs
    monkeypatch.setattr(symbolic, "_contract_arcs", lambda net, fold: contract(net, [(0, 1)]))
    with pytest.raises(ConstructionMismatchError):
        make_discriminating(LabelledNetwork.build(net, {0: "A", 1: "B"}))


def test_normal_form_certifies_the_fixpoint(monkeypatch):
    monkeypatch.setattr(symbolic, "is_discriminating", lambda ln: False)
    with pytest.raises(ConstructionMismatchError):
        make_discriminating(cherry_under_equal_labels())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_discriminating_vertices_branch_iff_their_cluster_is_plural(seed):
    p = GenParams(leaf_range=(2, 12), root_range=(1, 4), symbol_count=1 + seed % 3, seed=seed)
    net = make_discriminating(random_labelled_network(p)).net
    for v in net.vertices():
        assert (net.outdeg(v) >= 2) == (len(cluster(net, v)) >= 2)


def test_phi_counts_vertices_against_module_chains(seven_taxa):
    assert verify_phi_bijection(seven_taxa)


def test_phi_needs_a_tree(crown):
    labels = {v: "A" for v in crown.vertices() if crown.outdeg(v) >= 2}
    with pytest.raises(NotArborealError):
        verify_phi_bijection(LabelledNetwork.build(crown, labels))


def test_clique_modules_of_the_demo_map(module_map):
    mods = clique_modules(module_map)
    big = {m for m in mods if len(m) >= 2}
    assert big == {
        frozenset("tu"), frozenset("xy"), frozenset("tz"),
        frozenset("xyz"), frozenset("txy"), frozenset("txyz"),
    }
    singles = {m for m in mods if len(m) == 1}
    assert singles == {frozenset(t) for t in module_map.taxa}
    assert strong_clique_modules(module_map).as_sets() == {
        frozenset("tu"), frozenset("xy"), frozenset("txyz"),
    }


def test_clique_module_cap():
    taxa = [f"t{i}" for i in range(17)]
    values = {(taxa[0], taxa[1]): "A"}
    with pytest.raises(TooLargeError):
        clique_modules(SymbolicMap.build(TaxonSet.of(taxa), values))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_random_labelled_networks_round_trip(seed):
    p = GenParams(leaf_range=(3, 9), root_range=(1, 3), symbol_count=2, seed=seed)
    ln = random_labelled_network(p)
    d = evaluate_map(ln)
    assert check_arboreal_conditions(d) is None
    out = explain(d)
    assert isinstance(out, LabelledNetwork)
    assert evaluate_map(out) == d
    assert is_discriminating(out)
    assert verify_phi_bijection(out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_gap_free_iff_single_root(seed):
    p = GenParams(leaf_range=(3, 8), root_range=(1, 3), seed=seed)
    ln = random_labelled_network(p)
    d = evaluate_map(ln)
    assert (d.entries.count(None) == 0) == (ln.net.root_count() == 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_undoing_collapses_keeps_the_map(seed):
    p = GenParams(leaf_range=(4, 8), root_range=(1, 2), symbol_count=2, seed=seed)
    nf = make_discriminating(random_labelled_network(p))
    grown = random_uncollapse(nf, seed=seed + 1)
    if grown is None:
        return
    assert not is_discriminating(grown)
    assert evaluate_map(grown) == evaluate_map(nf)
    assert are_isomorphic(make_discriminating(grown), nf)


def make_discriminating_by_folds(ln):
    # The collapse as a sequence of single folds: fold the first collapsible
    # arc in canonical order, rule 1 before rule 2, the tail absorbing the
    # head, and rescan.  Reference for the one-quotient `make_discriminating`.
    net = ln.net
    kids = {v: list(net.children(v)) for v in net.vertices()}
    pars = {v: list(net.parents(v)) for v in net.vertices()}
    labels = dict(ln.labels)
    leaves = dict(net.leaves)

    def fold(u, v):
        for p in pars[v]:
            if p != u:
                kids[p][kids[p].index(v)] = u
                pars[u].append(p)
        kids[u] = [c for c in kids[u] if c != v] + kids[v]
        for c in kids[v]:
            pars[c][pars[c].index(v)] = u
        if v in labels:
            labels[u] = labels.pop(v)
        del kids[v], pars[v]

    def first(rule):
        arcs = sorted((u, v) for u in kids for v in kids[u] if v not in leaves)
        return next(((u, v) for u, v in arcs if rule(u, v)), None)

    while True:
        arc = first(lambda u, v: len(kids[u]) == 1) or first(
            lambda u, v: len(pars[v]) == 1 and labels[u] == labels[v]
        )
        if arc is None:
            break
        fold(*arc)

    ids = {v: i for i, v in enumerate(sorted(kids))}
    new = validate_network(
        [(ids[u], ids[v]) for u in kids for v in kids[u]],
        {ids[v]: t for v, t in leaves.items()},
        num_vertices=len(ids),
        taxa=net.taxa,
    )
    return LabelledNetwork.build(new, {ids[v]: s for v, s in labels.items()})


def stretched_network(seed):
    # A random labelled network stretched without changing its map: a push
    # moves some children of a branching vertex into a fresh equally
    # labelled child, a lift moves two or more parents of a hybrid onto a
    # fresh outdegree-1 vertex above it.  Lifts repeat on the same hybrids,
    # which then gain several outdegree-1 parents; last, the ids are shuffled.
    rng = random.Random(seed)
    p = GenParams(leaf_range=(4, 12), root_range=(2, 6), symbol_count=1 + seed % 2, seed=seed)
    ln = random_labelled_network(p)
    kids = {v: list(ln.net.children(v)) for v in ln.net.vertices()}
    pars = {v: list(ln.net.parents(v)) for v in ln.net.vertices()}
    labels = dict(ln.labels)
    for _ in range(rng.randint(1, 8)):
        v = len(kids)
        # a hybrid left with one parent must still branch
        spare = {h: len(pars[h]) - (len(kids[h]) < 2) for h in kids}
        lifts = [h for h in kids if len(pars[h]) >= 2 and spare[h] >= 2]
        pushes = [w for w in kids if len(kids[w]) >= 3]
        if lifts and (not pushes or rng.random() < 0.75):
            h = rng.choice(lifts)
            lifted = rng.sample(pars[h], rng.randint(2, spare[h]))
            kids[v], pars[v] = [h], lifted
            pars[h] = [q for q in pars[h] if q not in lifted] + [v]
            for q in lifted:
                kids[q][kids[q].index(h)] = v
        elif pushes:
            w = rng.choice(pushes)
            block = rng.sample(kids[w], rng.randint(2, len(kids[w]) - 1))
            kids[v], pars[v], labels[v] = block, [w], labels[w]
            kids[w] = [c for c in kids[w] if c not in block] + [v]
            for c in block:
                pars[c][pars[c].index(w)] = v
    ids = list(kids)
    rng.shuffle(ids)
    net = validate_network(
        [(ids[u], ids[c]) for u in kids for c in kids[u]],
        {ids[v]: t for v, t in ln.net.leaves},
        num_vertices=len(ids),
        taxa=ln.taxa,
    )
    return LabelledNetwork.build(net, {ids[v]: s for v, s in labels.items()})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_normal_form_matches_the_sequential_folds(seed):
    ln = stretched_network(seed)
    assert make_discriminating(ln) == make_discriminating_by_folds(ln)


def recursive_canonical_form(ln, anchor):
    # the recursive encoding `_canonical_form` must reproduce character for
    # character; it recurses once per tree level
    net = ln.net
    nbrs = {v: [] for v in net.vertices()}
    for u, v in net.arcs:
        nbrs[u].append((v, ">"))
        nbrs[v].append((u, "<"))

    def enc(v, back):
        head = net.taxon_of(v) if net.is_leaf(v) else ln._label_of.get(v, "")
        parts = sorted(tag + enc(w, v) for w, tag in nbrs[v] if w != back)
        return "(" + head + "|" + ",".join(parts) + ")"

    return enc(net.leaf_vertex(anchor), None)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_form_matches_the_recursive_encoding(seed):
    p = GenParams(leaf_range=(2, 12), root_range=(1, 4), symbol_count=3, seed=seed)
    ln = random_labelled_network(p)
    for anchor in ln.taxa.taxa:
        assert _canonical_form(ln, anchor) == recursive_canonical_form(ln, anchor)


def caterpillar(names, labels):
    # one root, spine vertices 0..n-2; names[i] hangs off spine vertex i,
    # and the last two names share the last spine vertex
    spine = len(names) - 1
    arcs = [(i, i + 1) for i in range(spine - 1)]
    leaves = {}
    for i in range(spine):
        arcs.append((i, spine + i))
        leaves[spine + i] = names[i]
    arcs.append((spine - 1, 2 * spine))
    leaves[2 * spine] = names[spine]
    net = validate_network(arcs, leaves, num_vertices=2 * spine + 1)
    return LabelledNetwork.build(net, dict(enumerate(labels)))


def test_isomorphism_of_a_deep_caterpillar():
    # the smallest taxon hangs at the far end of the spine
    n = 2000
    ln = caterpillar([f"t{n - 1 - i:04d}" for i in range(n)], ["AB"[i % 2] for i in range(n - 1)])
    assert are_isomorphic(ln, ln)


def test_evaluate_a_long_caterpillar_in_closed_form():
    # the pair (t_i, t_j), i < j, meets at spine vertex i
    n = 1000
    labels = [f"s{i % 7}" for i in range(n - 1)]
    d = evaluate_map(caterpillar([f"t{i:04d}" for i in range(n)], labels))
    assert d.taxa.taxa == tuple(f"t{i:04d}" for i in range(n))
    assert d.entries == tuple(labels[i] for i, _ in combinations(range(n), 2))


def test_build_a_deep_caterpillar_tree_under_a_low_recursion_limit():
    # alternating symbols down the spine, so each level splits off one taxon
    n = 150
    taxa = TaxonSet.of(f"t{i:03d}" for i in range(n))
    d = SymbolicMap(taxa, tuple("AB"[i % 2] for i, _ in combinations(range(n), 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        tree = build_ultrametric_tree(d)
    finally:
        sys.setrecursionlimit(limit)
    assert tree.net.num_vertices == 2 * n - 1
    assert evaluate_map(tree) == d


def test_a_local_tree_reads_each_pair_once():
    # alternating symbols down a 60-member caterpillar: 59 levels, each
    # splitting off one member
    n = 60
    reads = []

    def value(a, b):
        reads.append(frozenset((a, b)))
        return "AB"[min(a, b) % 2]

    arcs, labels, members = symbolic._split_tree(value, tuple(range(n)))
    assert len(reads) == len(set(reads)) == n * (n - 1) // 2
    assert len(arcs) == 2 * n - 2 and len(labels) == n - 1
    assert sorted(members.values()) == list(range(n))
