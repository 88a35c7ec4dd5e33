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
from .graphs import UGraph, is_connected, is_ptolemaic
from .networks import Network, _contract_arcs, from_digraph, is_arboreal, shared_ancestry_graph


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
    hasse = cover_digraph(closure)
    members = list(closure.sets)
    arcs = [(("set", members[a]), ("set", members[b])) for a, b in hasse.arcs]
    # The closure is closed under intersection, so the members holding a
    # taxon have a least one, which is also the first of them in canonical
    # (size-first) order.
    host: dict = {}
    for a in members:
        for t in a:
            host.setdefault(t, a)

    singles = []
    for t in g.taxa:
        if t in host and len(host[t]) == 1:
            continue  # t is itself a member
        singles.append(("single", t))
        if t in host:
            arcs.append((("set", host[t]), ("single", t)))
        # else t is isolated; its leaf dangles so that validation reports
        # the disconnection rather than dying here

    outdeg: dict = {}
    indeg: dict = {}
    for u, v in arcs:
        outdeg[u] = outdeg.get(u, 0) + 1
        indeg[v] = indeg.get(v, 0) + 1
    # a member of two or more taxa has a child (a smaller member or a taxon
    # it hosts), so only a singleton member can be a sink
    fresh = []
    for a in members:
        key = ("set", a)
        if outdeg.get(key, 0) == 0 and indeg.get(key, 0) >= 2:
            fresh.append(("fresh", a))
            arcs.append((key, ("fresh", a)))

    leaf_names = {}
    for a in members:
        if len(a) == 1 and outdeg.get(("set", a), 0) == 0 and ("fresh", a) not in fresh:
            (t,) = a
            leaf_names[("set", a)] = t
    for key in singles:
        leaf_names[key] = key[1]
    for key in fresh:
        (t,) = key[1]
        leaf_names[key] = t

    def label(s: frozenset) -> str:
        return "".join(closure.member_sorted(s))

    order = sorted(range(len(members)), key=lambda i: closure.member_sorted(members[i]))
    verts = [("set", members[i]) for i in order]
    verts += sorted(singles) + sorted(fresh, key=lambda k: label(k[1]))
    display = {("set", a): label(a) for a in members}
    display.update({key: key[1] for key in singles})
    display.update({key: label(key[1]) + "'" for key in fresh})
    net = from_digraph(verts, arcs, leaf_names, taxa=g.taxa, display_names=display)
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
    order, arcs, _ = _contract_arcs(net, fold)
    return from_digraph(order, arcs, dict(net.leaves), taxa=net.taxa)
