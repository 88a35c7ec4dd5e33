"""The two workloads: for a seed, the list of requests that makes one round.

A request is one CLI verb with its input document, the exit code the verb
must return, and a check of its output against the reference computations.
Each workload fixes a plan of input sizes and shapes, so every seed gives a
round of the same make-up.

Each workload is the union of two request sets, each built by its own
function below: `maps` is `explain_accept` plus `check_reject`, and
`networks` is `represent_cover` plus `networks_deep`.  Two workloads rather
than four give each run twice the time within the same total, and the
host's speed wanders over tens of seconds: at 30 s a run the quartile
spread of ten runs reached 0.26-0.31 on some timings, above their bound.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import gen
import reference as ref
from reference import CheckFailed, need


@dataclass(frozen=True)
class Request:
    verb: str
    text: str  # input document
    exit_code: int
    check: Callable  # output text -> None, raises CheckFailed
    size: int  # taxa in the input, for the reports
    tag: str  # kind or shape of the input, for the reports


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError as err:
        raise CheckFailed(f"output is not JSON: {err}") from None


def _dump(doc) -> str:
    return json.dumps(doc)


def _shape_rng(workload: str, slot: int) -> random.Random:
    """The generator of one slot's structure, the same for every seed.

    The structure (shapes, taxon names, vertex numbers, graph edges) fixes
    most of a request's cost; the seed draws the symbols and the pair a
    value-changing plant flips.  So one seed's round
    costs about what another's does, and a run's figures depend on the
    program and the host rather than on the seed.
    """
    return random.Random(f"{workload}/{slot}")


def _explainable(rng, shape_rng, n: int, roots: int, symbols: int) -> tuple:
    """A labelled arboreal network (structure from `shape_rng`, labels from
    `rng`) and the map it induces, by the reference walk."""
    net = gen.label(rng, gen.arboreal_network(shape_rng, n, roots), symbols)
    net = gen.shuffled(shape_rng, net)
    return net, ref.lca_values(net)


# -- explain-accept -----------------------------------------------------------

# (taxa, slots) pairs.  The gem scan is O(n^5), so the slots thin out as n
# grows; a round takes about 8 s on a 2-core x86 VM.  The median and the
# 90th percentile each fall inside a block of one size (12 and 20 taxa), so
# that they do not jump between sizes when the host's speed wavers.
EXPLAIN_PLAN = ((8, 6), (10, 7), (12, 12), (14, 4), (16, 3), (18, 2), (20, 7),
                (22, 1), (24, 1), (28, 1))


def _check_explanation(values: dict) -> Callable:
    def check(text: str):
        net = ref.read_network(_parse(text), labelled=True)
        need(ref.lca_values(net) == values, "explanation induces another map")
    return check


def explain_accept(seed: int, plan=EXPLAIN_PLAN) -> list:
    rng = random.Random(seed)
    out = []
    for n, slots in plan:
        for i in range(slots):
            roots = 1 + (i * 3 + n) % 8
            symbols = 2 + (i + n // 2) % 2
            shape_rng = _shape_rng("explain-accept", len(out))
            net, values = _explainable(rng, shape_rng, n, roots, symbols)
            taxa = sorted(net.taxon.values())
            doc = gen.map_doc(taxa, values, gen.SYMBOLS[:symbols])
            out.append(Request("explain", _dump(doc), 0, _check_explanation(values), n, f"{roots}-roots"))
    return out


# -- check-reject -------------------------------------------------------------

KINDS = ("hole", "gem", "delta", "pi", "a4")
# (taxa, slots per kind); as above, blocks of 14 and 20 taxa hold the
# median and the 90th percentile
CHECK_PLAN = ((12, 1), (14, 5), (16, 1), (18, 1), (20, 4), (28, 1))
MAX_DRAWS = 400
# Root counts per kind: a hole needs a support graph of diameter >= 3, which
# takes three roots and is likely from four; gems and a4 patterns need gaps,
# so two roots.
ROOTS = {"hole": (4, 8), "gem": (2, 6), "delta": (1, 6), "pi": (1, 6), "a4": (2, 6)}


def _plant(rng: random.Random, kind: str, taxa: list, d: dict):
    """Change one pair of the explainable map `d` so that it violates the
    condition `kind` and no condition the program tests earlier.  Returns
    the changed map, or None when this map offers no such pair.

    `d` passes every condition, so a new hole, gem, delta, pi or a4 pattern
    must contain the changed pair; that keeps each test below local.
    """
    adj = ref.support(taxa, d)
    symbols = sorted({v for v in d.values() if v is not None})
    pairs = list(combinations(taxa, 2))
    rng.shuffle(pairs)
    for x, y in pairs:
        old = d[frozenset((x, y))]
        if kind == "hole":
            # an edge across a shortest path of length >= 3 closes a hole
            if old is None and ref.distances_from(adj, x)[y] >= 3:
                return {**d, frozenset((x, y)): rng.choice(symbols)}
        elif kind == "gem":
            if old is not None or ref.distances_from(adj, x)[y] != 2:
                continue
            adj2 = {t: set(ns) for t, ns in adj.items()}
            adj2[x].add(y)
            adj2[y].add(x)
            others = [t for t in taxa if t not in (x, y)]
            if ref.is_chordal(adj2) and any(
                ref.is_gem(adj2, (x, y) + three) for three in combinations(others, 3)
            ):
                return {**d, frozenset((x, y)): rng.choice(symbols)}
        elif old is not None:
            others = [t for t in taxa if t not in (x, y)]
            for new in symbols:
                if new == old:
                    continue
                e = {**d, frozenset((x, y)): new}
                delta = any(ref.is_delta(e, (x, y, z)) for z in others)
                if kind == "delta":
                    if delta:
                        return e
                    continue
                fours = [(x, y, z, u) for z, u in combinations(others, 2)]
                pi = not delta and any(ref.pi_pattern(e, q) for q in fours)
                if kind == "pi" and pi:
                    return e
                if kind == "a4" and not delta and not pi and any(ref.a4_pattern(e, q) for q in fours):
                    return e
    return None


def _check_verdict(kind: str, taxa: list, d: dict) -> Callable:
    def check(text: str):
        ref.check_violation(kind, taxa, d, _parse(text))
    return check


def check_reject(seed: int, plan=CHECK_PLAN) -> list:
    rng = random.Random(seed)
    out = []
    for n, slots in plan:
        for i in range(slots):
            for k, kind in enumerate(KINDS):
                # delta needs three symbols; the other plants use two, so
                # that no delta can arise
                symbols = 3 if kind == "delta" else 2
                low, high = ROOTS[kind]
                roots = low + (i + n) % (high - low + 1)
                shape_rng = _shape_rng("check-reject", len(out))
                # hole and gem plants change the structure, so the slot
                # picks their pair; the other kinds flip a value
                plant_rng = shape_rng if kind in ("hole", "gem") else rng
                for _ in range(MAX_DRAWS):
                    net, values = _explainable(rng, shape_rng, n, roots, symbols)
                    taxa = sorted(net.taxon.values())
                    shape_rng.shuffle(taxa)
                    d = _plant(plant_rng, kind, taxa, values)
                    if d is not None:
                        break
                else:
                    raise RuntimeError(f"no {kind} plant at n={n} in {MAX_DRAWS} draws")
                doc = gen.map_doc(taxa, d, gen.SYMBOLS[:symbols])
                out.append(Request("check", _dump(doc), 1, _check_verdict(kind, taxa, d), n, kind))
    return out


# -- represent-cover ----------------------------------------------------------

# (taxa, edge probability) for G(n, p) inputs.  The densest reach closures
# of about a thousand members; at two thousand one request takes 8-13 s.
# One of each entry of both plans makes a round.
GRAPH_PLAN = ((20, 0.15), (20, 0.35), (20, 0.5), (20, 0.6), (20, 0.7), (24, 0.5),
              (28, 0.45), (30, 0.1), (30, 0.3), (30, 0.5), (36, 0.3), (36, 0.45),
              (40, 0.1), (40, 0.2), (40, 0.3), (44, 0.35), (50, 0.08), (50, 0.15),
              (50, 0.25), (50, 0.3), (60, 0.05), (60, 0.1), (60, 0.18), (60, 0.25))
# (taxa, roots, extra hybrid arcs) for shared-ancestry graphs of networks
NETWORK_PLAN = ((20, 4, 3), (24, 6, 4), (28, 6, 6), (30, 8, 6), (34, 8, 8), (36, 10, 6),
                (40, 12, 8), (44, 14, 8), (46, 12, 12), (50, 16, 10), (52, 14, 14),
                (56, 18, 10), (58, 16, 16), (60, 20, 12))


def _check_representation(taxa: list, edges: set) -> Callable:
    def check(text: str):
        cliques = ref.maximal_cliques(ref.adjacency(taxa, edges))
        doc = _parse(text)
        net = ref.read_network(doc.get("network"), labelled=False)
        need(sorted(net.taxon.values()) == sorted(taxa), "leaves are not the taxa")
        need(ref.shared_ancestry_edges(net) == edges, "shared ancestry differs from the input")
        claimed = {tuple(sorted(e)) for e in doc["shared_ancestry_graph"]["edges"]}
        need(claimed == edges, "reported shared-ancestry graph differs from the input")
        clusters = ref.root_clusters(net)
        need(len(clusters) == len(set(clusters)) and set(clusters) == cliques,
             "root clusters are not the maximal cliques")
    return check


def represent_cover(seed: int, graphs=GRAPH_PLAN, networks=NETWORK_PLAN) -> list:
    rng = random.Random(seed)
    inputs = []
    for n, p in graphs:
        shape_rng = _shape_rng("represent-cover", len(inputs))
        inputs.append((*gen.random_graph(shape_rng, n, p), f"gnp-{p}"))
    for n, roots, extra in networks:
        shape_rng = _shape_rng("represent-cover", len(inputs))
        net = gen.with_hybrid_arcs(shape_rng, gen.arboreal_network(shape_rng, n, roots), extra)
        inputs.append((gen.taxon_names(n), ref.shared_ancestry_edges(net), f"sag-{roots}-roots"))
    out = []
    for taxa, edges, tag in inputs:
        names = dict(zip(taxa, rng.sample(taxa, len(taxa))))
        edges = {tuple(sorted((names[a], names[b]))) for a, b in edges}
        doc = gen.graph_doc(taxa, edges)
        check = _check_representation(taxa, edges)
        out.append(Request("represent", _dump(doc), 0, check, len(taxa), tag))
    return out


# -- networks-deep ------------------------------------------------------------

# (leaves, shape, roots) slots; each gives one evaluate and one normalize.
# Caterpillars cost about n^3, so they stop at 110 leaves.  The requests on
# the 65- and 70-leaf caterpillars and the 100-leaf deep network cost within
# about 1.4x of each other and hold the median; a block of mid-cost inputs
# holds the 90th percentile, with one 250-leaf network above.
DEEP_PLAN = (
    tuple((n, "caterpillar", 1 + i % 3) for i, n in enumerate(
        (50, 50, 55, 60, 65, 65, 70, 70, 90, 100, 105, 110)))
    + tuple((n, "deep", 3 + i % 6) for i, n in enumerate(
        (50, 60, 75, 100, 125, 150, 160, 175, 250))))


def _check_evaluation(net: gen.Net, expected: Callable) -> Callable:
    def check(text: str):
        taxa, values = ref.read_map(_parse(text))
        need(sorted(taxa) == sorted(net.taxon.values()), "map is on other taxa")
        need(values == expected(), "map differs from the reference evaluation")
    return check


def _check_normal_form(expected: Callable) -> Callable:
    def check(text: str):
        nf = ref.read_network(_parse(text), labelled=True)
        fault = ref.discriminating_fault(nf)
        need(fault is None, f"not discriminating: {fault}")
        need(ref.lca_values(nf) == expected(), "normal form induces another map")
    return check


def networks_deep(seed: int, plan=DEEP_PLAN) -> list:
    rng = random.Random(seed)
    out = []
    for slot, (n, shape, roots) in enumerate(plan):
        # the split hybrids add vertices, so the slot picks them: with the
        # seed picking them the peak resident set moved by 10% between seeds
        shape_rng = _shape_rng("networks-deep", slot)
        net = gen.arboreal_network(shape_rng, n, roots, shape)
        net = gen.stretch(shape_rng, gen.label(rng, net, 2, repeat=0.5), share=0.5)
        net = gen.shuffled(rng, net)
        text = _dump(gen.network_doc(net))
        expected = functools.cache(functools.partial(ref.lca_values, net))
        out.append(Request("evaluate", text, 0, _check_evaluation(net, expected), n, shape))
        out.append(Request("normalize", text, 0, _check_normal_form(expected), n, shape))
    return out


def _union(*parts) -> Callable:
    """The requests of `parts`, in an order that is the same for every seed.
    With the order drawn from the seed, the peak resident set moved by up to
    14% between seeds, as the requests before the largest one left the heap
    more or less fragmented; with one order it moves by about 1%."""
    key = "/".join(part.__name__ for part in parts)

    def make(seed: int) -> list:
        out = [r for part in parts for r in part(seed)]
        random.Random(key).shuffle(out)
        return out
    return make


WORKLOADS = {
    "maps": _union(explain_accept, check_reject),
    "networks": _union(represent_cover, networks_deep),
}
