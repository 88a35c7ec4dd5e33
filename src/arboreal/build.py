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
    maximal_cliques,
)
from .errors import (
    ConstructionMismatchError,
    DisconnectedGraphError,
    NoEdgesError,
    NotACoverError,
    NotArborealError,
)
from .graphs import UGraph, _members, is_connected, is_ptolemaic
from .networks import (
    Network,
    _contract_arcs,
    is_arboreal,
    shared_ancestry_graph,
    validate_network,
)


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
    cover is an antichain.  The result's shared-ancestry graph must equal
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

    Exists iff `g` is ptolemaic; then the family of maximal cliques is the
    unique minimum edge clique cover and `build_network_from_cover` on it
    lands in the arboreal case, with one root per maximal clique.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("the graph must be connected")
    if not g.edge_count:
        raise NoEdgesError("need at least one edge")
    if not is_ptolemaic(g):
        return None
    return build_network_from_cover(g, maximal_cliques(g))


def contract_tree_arcs(net: Network) -> Network:
    """Contract away the branching-into-branching tree arcs.

    Contracting an arc (u, v) where u has outdegree >= 2 and v is a non-leaf
    vertex of indegree 1 merges v into u.  Indegrees never change under such
    merges, and only a vertex of outdegree >= 2 gains children, so no merge
    makes or unmakes another contractible arc (an outdegree-1 parent is a
    hybrid and never changes).  The fixpoint is therefore one quotient by
    the arcs contractible in the input.  Each folded head has indegree 1, so
    every merged class has exactly one member that no folded arc enters, its
    top, which names the class; the survivors keep their id order.  Leaf
    set, root count and the shared-ancestry graph are unchanged.
    """
    if not is_arboreal(net):
        raise NotArborealError("contraction is defined on arboreal networks")
    fold = [
        (u, v)
        for u, v in net.arcs
        if not net.is_leaf(v) and net.indeg(v) == 1 and net.outdeg(u) >= 2
    ]
    return _contract_arcs(net, fold)[0]
