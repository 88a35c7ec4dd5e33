"""End-to-end verification suites runnable from the CLI and the test suite.

Each criterion re-derives one pillar of the theory at desk scale, exhaustive
where the space is small and seeded-random where it is not, and reports one
pass/fail line.  `run_all` never weakens a criterion: a budget (seconds)
only shrinks the randomized sample counts, never the exhaustive sweeps or
the tolerances, and the full-scale defaults are what the test suite pins.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .build import arboreal_representation, build_network_from_cover
from .cliques import (
    CliqueFamily,
    cover_digraph,
    ecc_min,
    intersection_closure,
    maximal_cliques,
    underlying_acyclic,
)
from .graphs import TaxonSet, UGraph, is_ptolemaic
from .networks import (
    cluster,
    find_alternating_cycle,
    h_tilde,
    is_arboreal,
    shared_ancestry_graph,
)
from .oracle import (
    GenParams,
    enumerate_antichain_covers,
    enumerate_connected_graphs,
    enumerate_edge_clique_covers,
    enumerate_labelled_trees,
    is_ptolemaic_by_gem,
    ptolemy_inequality_holds,
    random_connected_graph,
    random_labelled_network,
    random_network,
    random_symbolic_map,
    random_uncollapse,
    verdict_by_scans,
)
from .symbolic import (
    SymbolicMap,
    Violation,
    build_ultrametric_tree,
    evaluate_map,
    explain,
    is_discriminating,
    make_discriminating,
    are_isomorphic,
    strong_clique_modules,
    verify_phi_bijection,
)
from .errors import NotUltrametricError

FULL_BUDGET = 600.0  # seconds the full-scale suite is allowed on a laptop


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.name}: {self.detail} ({self.elapsed:.1f}s)"


# -- shared fixtures ----------------------------------------------------------


def two_quads_graph() -> UGraph:
    """Two 4-cliques glued on {3, 4}: the running six-vertex example."""
    quads = [list("1234"), list("3456")]
    edges = {(a, b) for q in quads for a in q for b in q if a < b}
    return UGraph.build(list("123456"), sorted(edges))


def module_demo_map() -> SymbolicMap:
    """Five-taxon map with three gaps whose strong clique-modules are known."""
    values = {}
    for pair in [("x", "z"), ("x", "t"), ("y", "z"), ("y", "t"), ("z", "t")]:
        values[pair] = "B"
    values[("x", "y")] = "W"
    values[("t", "u")] = "W"
    return SymbolicMap.build(TaxonSet.of(["t", "u", "x", "y", "z"]), values)


# -- criteria -----------------------------------------------------------------


def _ptolemaic_three_way(random_count: int = 10000):
    """Metric, forbidden-subgraph, clique-separator and clique-order
    readings agree."""

    def routes_agree(g: UGraph) -> bool:
        metric = ptolemy_inequality_holds(g)
        gem_free = is_ptolemaic_by_gem(g)
        separators = is_ptolemaic(g)
        fam = maximal_cliques(g)
        order = (
            underlying_acyclic(cover_digraph(intersection_closure(fam)))
            if len(fam)
            else True
        )
        return metric == gem_free == separators == order

    checked = disagreements = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            checked += 1
            disagreements += not routes_agree(g)
    probs = (0.25, 0.45, 0.65)
    for s in range(random_count):
        g = random_connected_graph(6 + s % 3, seed=s, edge_prob=probs[(s // 3) % 3])
        checked += 1
        disagreements += not routes_agree(g)
    return disagreements == 0, f"{checked} graphs, {disagreements} disagreements"


def _unique_minimum_cover(random_count: int = 0):
    """The maximal-clique family is the one minimum edge clique cover."""
    checked = bad = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            if not is_ptolemaic(g):
                continue
            checked += 1
            fam = maximal_cliques(g)
            size, witness = ecc_min(g)
            covers = enumerate_edge_clique_covers(g, size)
            if not (
                size == len(fam)
                and witness.as_sets() == fam.as_sets()
                and covers == frozenset({fam.as_sets()})
            ):
                bad += 1
    return bad == 0, f"{checked} ptolemaic graphs, {bad} failures"


def _cover_network_representation(random_count: int = 0):
    """Every antichain cover represents its graph with the cover as roots,
    and every vertex that is neither a root nor a leaf has two or more
    parents."""
    graphs = covers = bad = 0
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            graphs += 1
            for sets in enumerate_antichain_covers(g):
                if not sets:
                    continue
                covers += 1
                net = build_network_from_cover(g, CliqueFamily.build(g.taxa, sets))
                root_sets = {cluster(net, r) for r in net.roots}
                inner = (v for v in net.vertices() if not net.is_leaf(v))
                one_parent = any(net.indeg(v) == 1 for v in inner)
                if shared_ancestry_graph(net) != g or root_sets != sets or one_parent:
                    bad += 1
    return bad == 0, f"{covers} covers over {graphs} graphs, {bad} failures"


def _hybrid_count_vs_roots(random_count: int = 10000):
    """Excess indegree floors at root surplus; equality marks the trees."""
    biases = (0.0, 0.1, 0.25, 0.5)
    bad = 0
    for s in range(random_count):
        p = GenParams(
            leaf_range=(2, 8),
            root_range=(1, 4),
            hybrid_bias=biases[s % 4],
            seed=s,
        )
        net = random_network(p)
        surplus, tree = h_tilde(net) - (net.root_count() - 1), is_arboreal(net)
        witness = find_alternating_cycle(net)
        fine = surplus >= 0 and (surplus == 0) == tree == (witness is None)
        if witness is not None:
            fine = fine and witness.verify(net)
        bad += not fine
    return bad == 0, f"{random_count} networks, {bad} failures"


def _arboreal_representability(random_count: int = 0):
    """A connected graph has an arboreal representation iff ptolemaic, and
    its roots are the clusters Bron-Kerbosch finds as maximal cliques."""
    checked = represented = bad = 0
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            checked += 1
            net = arboreal_representation(g)
            if (net is not None) != is_ptolemaic(g):
                bad += 1
                continue
            if net is None:
                continue
            represented += 1
            if not (
                is_arboreal(net)
                and {cluster(net, r) for r in net.roots} == maximal_cliques(g).as_sets()
                and shared_ancestry_graph(net) == g
            ):
                bad += 1
    return bad == 0, f"{checked} graphs, {represented} represented, {bad} failures"


def _map_explanation_round_trip(random_count: int = 1000):
    """Maps read off labelled arboreal networks pass the scans and rebuild."""
    bad = 0
    for s in range(random_count):
        p = GenParams(
            leaf_range=(3, 12),
            root_range=(1, 4),
            symbol_count=1 + s % 4,
            seed=s,
        )
        ln = random_labelled_network(p)
        d = evaluate_map(ln)
        out = explain(d)
        fine = (
            verdict_by_scans(d) is None
            and not isinstance(out, Violation)
            and evaluate_map(out) == d
        )
        bad += not fine
    return bad == 0, f"{random_count} networks, {bad} failures"


def _map_characterization_converse(random_count: int = 100000):
    """Explanation succeeds exactly when the scans find no violation, and
    otherwise reports the violation the scans find first."""
    biases = (0.0, 0.15, 0.3, 0.5)
    explained = bad = 0
    for s in range(random_count):
        p = GenParams(
            leaf_range=(2, 5),
            symbol_count=2,
            hybrid_bias=biases[s % 4],
            seed=s,
        )
        d = random_symbolic_map(p)
        out = explain(d)
        verdict = verdict_by_scans(d)
        if isinstance(out, Violation):
            bad += out != verdict
        else:
            explained += 1
            bad += verdict is not None or evaluate_map(out) != d
    return bad == 0, f"{random_count} maps, {explained} explained, {bad} failures"


def _ultrametric_tree_oracle(random_count: int = 0):
    """Tree building succeeds exactly on maps some labelled tree induces."""
    ts = TaxonSet.of(["x", "y", "z", "u"])
    images = {evaluate_map(t) for t in enumerate_labelled_trees(ts, ["B", "W"])}
    built = bad = 0
    for vals in product(("B", "W"), repeat=6):
        d = SymbolicMap(ts, vals, ("B", "W"))
        try:
            tree = build_ultrametric_tree(d)
        except NotUltrametricError:
            bad += d in images
            continue
        built += 1
        bad += (d not in images) or evaluate_map(tree) != d
    return bad == 0 and built == 52, f"{built}/64 maps built, {bad} failures"


def _discriminating_normal_form(random_count: int = 1000):
    """Collapsing is canonical; the cluster bijection marks the normal form."""
    bad = grown_count = 0
    for s in range(random_count):
        p = GenParams(
            leaf_range=(3, 9),
            root_range=(1, 3),
            symbol_count=1 + s % 3,
            seed=s,
        )
        ln = random_labelled_network(p)
        nf_direct = make_discriminating(ln)
        out = explain(evaluate_map(ln))
        fine = not isinstance(out, Violation)
        if fine:
            nf_rebuilt = make_discriminating(out)
            fine = are_isomorphic(nf_direct, nf_rebuilt)
            for nf in (nf_direct, nf_rebuilt):
                fine = fine and is_discriminating(nf) and verify_phi_bijection(nf)
        grown = random_uncollapse(nf_direct, seed=s + 10007)
        if grown is not None:
            grown_count += 1
            fine = (
                fine
                and evaluate_map(grown) == evaluate_map(nf_direct)
                and not is_discriminating(grown)
                and not verify_phi_bijection(grown)
            )
        bad += not fine
    return bad == 0, f"{random_count} seeds, {grown_count} perturbed, {bad} failures"


def _strong_clique_modules_fixture(random_count: int = 0):
    """The five-taxon example yields exactly its three strong modules."""
    d = module_demo_map()
    got = strong_clique_modules(d).as_sets()
    want = frozenset({
        frozenset("txyz"),
        frozenset("xy"),
        frozenset("tu"),
    })
    return got == want, f"{sorted(''.join(sorted(s)) for s in got)}"


def _cover_network_fixture(random_count: int = 0):
    """The six-vertex example: its two covers give 2-root and 5-root forms."""
    g = two_quads_graph()
    fam2 = CliqueFamily.build(g.taxa, [frozenset("1234"), frozenset("3456")])
    net2 = build_network_from_cover(g, fam2)
    hybrids = net2.hybrids
    fine = (
        net2.root_count() == 2
        and is_arboreal(net2)
        and shared_ancestry_graph(net2) == g
        and len(hybrids) == 1
        and cluster(net2, hybrids[0]) == frozenset("34")
    )
    fam5 = CliqueFamily.build(
        g.taxa,
        [
            frozenset("123"),
            frozenset("124"),
            frozenset("34"),
            frozenset("356"),
            frozenset("456"),
        ],
    )
    net5 = build_network_from_cover(g, fam5)
    fine = fine and net5.root_count() == 5
    fine = fine and {cluster(net5, r) for r in net5.roots} == fam5.as_sets()
    return fine, f"2-cover roots={net2.root_count()}, 5-cover roots={net5.root_count()}"


CRITERIA: list = [
    ("ptolemaic-three-way-equivalence", _ptolemaic_three_way, 10000),
    ("unique-minimum-cover", _unique_minimum_cover, 0),
    ("cover-network-representation", _cover_network_representation, 0),
    ("hybrid-count-vs-roots", _hybrid_count_vs_roots, 10000),
    ("arboreal-representability", _arboreal_representability, 0),
    ("map-explanation-round-trip", _map_explanation_round_trip, 1000),
    ("map-characterization-converse", _map_characterization_converse, 100000),
    ("ultrametric-tree-oracle", _ultrametric_tree_oracle, 0),
    ("discriminating-normal-form", _discriminating_normal_form, 1000),
    ("strong-clique-modules-fixture", _strong_clique_modules_fixture, 0),
    ("cover-network-fixture", _cover_network_fixture, 0),
]

MIN_RANDOM = 200


def run_one(name: str, fn: Callable, full_count: int, budget: Optional[float]) -> CriterionResult:
    if full_count and budget is not None:
        scale = max(0.0, min(1.0, budget / FULL_BUDGET))
        count = max(MIN_RANDOM, int(full_count * scale))
    else:
        count = full_count
    start = time.perf_counter()
    try:
        passed, detail = fn(count) if full_count else fn()
    except Exception as err:  # a criterion crash is a failure, not an abort
        passed, detail = False, f"raised {type(err).__name__}: {err}"
    if full_count and count != full_count:
        detail += f" [scaled to {count} of {full_count}]"
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_all(budget: Optional[float] = None) -> list:
    """Run every criterion; `budget` (seconds) shrinks random sample sizes
    proportionally but never below a floor and never the exhaustive parts."""
    return [run_one(name, fn, full, budget) for name, fn, full in CRITERIA]
