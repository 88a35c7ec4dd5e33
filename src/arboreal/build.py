"""Constructions that turn undirected graphs and clique covers into networks.

The central one hangs a network under the intersection closure of a clique
cover: the closure's containment order becomes the branching structure, and
the taxa are wired in below the smallest members containing them.
"""
from __future__ import annotations

from typing import Optional

from .cliques import (
    CliqueFamily,
    cover_digraph,
    intersection_closure,
    is_edge_clique_cover,
)
from .errors import (
    ConstructionMismatchError,
    DisconnectedGraphError,
    NoEdgesError,
    NotACoverError,
)
from .graphs import UGraph, _members, _ptolemaic_pass, _witness_or_cliques, is_connected
from .networks import Network, shared_ancestry_graph, validate_network


def build_network_from_cover(g: UGraph, cover: CliqueFamily) -> Network:
    """The network hung under the containment order of `cover`'s
    intersection closure.

    Vertices are the closure members ordered by containment (arcs point
    from superset to subset), plus a singleton vertex for each taxon that
    is not itself a closure member, attached below the one member that
    contains the taxon minimally.  A closure member that stays a sink but
    has several parents cannot serve as a leaf itself, so it receives a
    fresh leaf child; every remaining sink carries exactly one taxon and
    becomes that taxon's leaf.

    The roots are always cover members, and are exactly the cover iff the
    cover is an antichain.  Then every non-root member has two or more
    parents: a member B with the single parent C lies in no cover member
    that misses C, so the meet of the cover members holding B, which is B,
    would hold C.  The result's shared-ancestry graph must equal
    `g`; `ConstructionMismatchError` reports a network that fails this.
    """
    if cover.over != g.taxa:
        raise NotACoverError("cover and graph must share the taxon set")
    if not is_edge_clique_cover(g, cover):
        raise NotACoverError("the family does not cover the edges of the graph")

    closure = intersection_closure(cover)
    masks, taxa = closure.masks, g.taxa.taxa
    # members first, in name order; then the single leaves, in taxon-name
    # order; then the fresh leaves, in member order
    names = [tuple(taxa[i] for i in _members(m)) for m in masks]
    order = sorted(range(len(masks)), key=names.__getitem__)
    vid = {a: k for k, a in enumerate(order)}
    vertex_names = ["".join(names[a]) for a in order]
    hasse = cover_digraph(closure).arcs
    arcs = [(vid[a], vid[b]) for a, b in hasse]
    # The closure is closed under intersection, so the members holding a
    # taxon have a least one, which is also the first of them in canonical
    # (size-first) order.
    host: dict = {}
    for a, m in enumerate(masks):
        for i in _members(m):
            host.setdefault(i, a)

    leaf_names = {}
    for i in sorted(range(len(taxa)), key=taxa.__getitem__):
        if i in host and masks[host[i]].bit_count() == 1:
            continue  # the taxon is itself a member
        if i in host:
            arcs.append((vid[host[i]], len(vertex_names)))
        # else the taxon is isolated; its leaf dangles so that validation
        # reports the disconnection rather than dying here
        leaf_names[len(vertex_names)] = taxa[i]
        vertex_names.append(taxa[i])

    # A member of two or more taxa has a child (a smaller member or a taxon
    # it hosts), and a singleton member has none, so the singleton members
    # are the member sinks.
    parents = [0] * len(masks)
    for _, b in hasse:
        parents[b] += 1
    for a in order:
        if masks[a].bit_count() == 1:
            (t,) = names[a]
            if parents[a] >= 2:
                arcs.append((vid[a], len(vertex_names)))
                leaf_names[len(vertex_names)] = t
                vertex_names.append(t + "'")
            else:
                leaf_names[vid[a]] = t

    net = validate_network(
        arcs, leaf_names, num_vertices=len(vertex_names), taxa=g.taxa, vertex_names=vertex_names
    )
    if shared_ancestry_graph(net) != g:
        raise ConstructionMismatchError("the network's shared ancestry differs from the graph")
    return net


def arboreal_representation(g: UGraph) -> Optional[Network]:
    """An arboreal network whose shared-ancestry graph is `g`, or None.

    Exists iff `g` is ptolemaic; then its maximal cliques, read off the
    LexBFS pass that decides this, are the unique minimum edge clique cover,
    and `build_network_from_cover` on them lands in the arboreal case, with
    one root per maximal clique.
    """
    _require_connected_edges(g)
    cliques = _ptolemaic_pass(g)[1]
    if cliques is None:
        return None
    return build_network_from_cover(g, CliqueFamily(g.taxa, tuple(cliques)))


def _arboreal_or_witness(g: UGraph) -> tuple:
    # (arboreal_representation(g), None), or (None, ptolemaic_witness(g))
    # when g is not ptolemaic, from one LexBFS pass
    _require_connected_edges(g)
    witness, cliques = _witness_or_cliques(g)
    if witness is not None:
        return None, witness
    return build_network_from_cover(g, CliqueFamily(g.taxa, tuple(cliques))), None


def _require_connected_edges(g: UGraph):
    if not is_connected(g):
        raise DisconnectedGraphError("the graph must be connected")
    if not g.edge_count:
        raise NoEdgesError("need at least one edge")
