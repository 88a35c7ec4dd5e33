"""Phylogenetic-style networks: connected acyclic digraphs whose sinks are
the taxa, every root branches, and no vertex merely passes through.

Vertex ids are opaque integers assigned in construction order; nothing
semantic ever depends on them.  `validate_network` is the one constructor
that checks the shape rules, and reports the first violated rule by name.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from . import errors
from .errors import InvalidNetworkError, UnknownTaxonError, UnknownVertexError
from .graphs import TaxonSet, UGraph, _members


@dataclass(frozen=True)
class Network:
    """Validated network.  Build through `validate_network`."""

    num_vertices: int
    arcs: tuple  # sorted (tail, head) pairs
    leaves: tuple  # sorted (vertex, taxon) pairs
    taxa: TaxonSet
    vertex_names: Optional[tuple] = field(default=None, compare=False)
    _children: tuple = field(init=False, repr=False, compare=False)
    _parents: tuple = field(init=False, repr=False, compare=False)
    _taxon_of: dict = field(init=False, repr=False, compare=False)
    _vertex_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kids = [[] for _ in range(self.num_vertices)]
        pars = [[] for _ in range(self.num_vertices)]
        for u, v in self.arcs:
            kids[u].append(v)
            pars[v].append(u)
        object.__setattr__(self, "_children", tuple(tuple(sorted(k)) for k in kids))
        object.__setattr__(self, "_parents", tuple(tuple(sorted(p)) for p in pars))
        object.__setattr__(self, "_taxon_of", dict(self.leaves))
        object.__setattr__(self, "_vertex_of", {t: v for v, t in self.leaves})

    # -- structure accessors ------------------------------------------------

    def vertices(self) -> range:
        return range(self.num_vertices)

    def check_vertex(self, v: int) -> int:
        if not (isinstance(v, int) and 0 <= v < self.num_vertices):
            raise UnknownVertexError(v)
        return v

    def children(self, v: int) -> tuple:
        return self._children[self.check_vertex(v)]

    def parents(self, v: int) -> tuple:
        return self._parents[self.check_vertex(v)]

    def outdeg(self, v: int) -> int:
        return len(self.children(v))

    def indeg(self, v: int) -> int:
        return len(self.parents(v))

    @property
    def roots(self) -> tuple:
        return tuple(v for v in self.vertices() if not self._parents[v])

    @property
    def hybrids(self) -> tuple:
        return tuple(v for v in self.vertices() if len(self._parents[v]) >= 2)

    @property
    def leaf_vertices(self) -> tuple:
        return tuple(v for v, _ in self.leaves)

    def is_leaf(self, v: int) -> bool:
        return self.check_vertex(v) in self._taxon_of

    def taxon_of(self, v: int) -> str:
        self.check_vertex(v)
        try:
            return self._taxon_of[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} is not a leaf") from None

    def leaf_vertex(self, taxon: str) -> int:
        try:
            return self._vertex_of[taxon]
        except KeyError:
            raise UnknownTaxonError(taxon) from None

    def root_count(self) -> int:
        return len(self.roots)

    # -- reachability ---------------------------------------------------------

    def descendants(self, v: int) -> frozenset:
        """All vertices reachable from `v`, including `v` itself."""
        self.check_vertex(v)
        seen = {v}
        queue = deque([v])
        while queue:
            w = queue.popleft()
            for c in self._children[w]:
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        return frozenset(seen)


@dataclass(frozen=True)
class AlternatingCycle:
    """Witness for a non-tree undirected cycle, split at its direction flips.

    `tops[i]` sends internally disjoint directed paths down to `bottoms[i]`
    and `bottoms[i-1]`; every bottom therefore has indegree >= 2.  The paths
    are stored with both endpoints: `down_pairs[i]` holds the path
    tops[i] -> bottoms[i] and the path tops[(i+1) % k] -> bottoms[i].
    """

    tops: tuple
    bottoms: tuple
    down_pairs: tuple

    @property
    def k(self) -> int:
        return len(self.tops)

    def verify(self, net: Network) -> bool:
        if len(self.tops) != len(self.bottoms) or self.k < 1:
            return False
        arcset = set(net.arcs)

        def is_path(path: tuple) -> bool:
            return len(path) >= 2 and all(
                (path[i], path[i + 1]) in arcset for i in range(len(path) - 1)
            )

        interiors = []
        for i in range(self.k):
            left, right = self.down_pairs[i]
            if not (is_path(left) and is_path(right)):
                return False
            if left[0] != self.tops[i] or right[0] != self.tops[(i + 1) % self.k]:
                return False
            if left[-1] != self.bottoms[i] or right[-1] != self.bottoms[i]:
                return False
            if net.indeg(self.bottoms[i]) < 2:
                return False
            interiors.append(left[1:-1])
            interiors.append(right[1:-1])
        # the witness paths tile a simple cycle: interiors are pairwise
        # disjoint and avoid the tops and bottoms
        seen = set(self.tops) | set(self.bottoms)
        if len(seen) != 2 * self.k and self.k > 1:
            return False
        for inner in interiors:
            for v in inner:
                if v in seen:
                    return False
                seen.add(v)
        return True


def validate_network(
    arcs: Iterable[tuple],
    leaf_names: Mapping,
    *,
    num_vertices: Optional[int] = None,
    taxa: Optional[TaxonSet] = None,
    vertex_names: Optional[Sequence[str]] = None,
) -> Network:
    """Check the shape rules and build a `Network`.

    Rules, in the order they are reported: the digraph is acyclic, the
    underlying graph is connected, every indegree-0 vertex has outdegree >= 2,
    every outdegree-0 vertex has indegree exactly 1, no vertex has indegree
    and outdegree both 1, and `leaf_names` is a bijection from the
    outdegree-0 vertices onto the taxa.
    """
    arcs = [(int(u), int(v)) for u, v in arcs]
    mentioned = {u for u, _ in arcs} | {v for _, v in arcs} | set(leaf_names)
    if num_vertices is None:
        num_vertices = max(mentioned) + 1 if mentioned else 0
    if num_vertices <= 0:
        raise ValueError("a network needs at least one vertex")
    for v in mentioned:
        if not 0 <= v < num_vertices:
            raise ValueError(f"vertex id {v} out of range")
    if len(set(arcs)) != len(arcs):
        raise ValueError("duplicate arcs")
    if any(u == v for u, v in arcs):
        raise InvalidNetworkError(errors.CYCLIC, "self-loop")

    # Adjacency only for the mentioned vertices and vertex 0: any other
    # declared vertex is isolated, which the connectivity test reports, so
    # nothing is allocated per declared vertex before that test.
    kids = {v: [] for v in mentioned | {0}}
    pars = {v: [] for v in kids}
    for u, v in arcs:
        kids[u].append(v)
        pars[v].append(u)

    # acyclic (Kahn)
    indeg = {v: len(p) for v, p in pars.items()}
    queue = deque(v for v, d in indeg.items() if d == 0)
    visited = 0
    while queue:
        v = queue.popleft()
        visited += 1
        for c in kids[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if visited != len(kids):
        raise InvalidNetworkError(errors.CYCLIC, "the digraph contains a directed cycle")

    # connected
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in kids[v] + pars[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != num_vertices:
        raise InvalidNetworkError(errors.DISCONNECTED, "the underlying graph is disconnected")

    for v in range(num_vertices):
        if not pars[v] and len(kids[v]) < 2:
            raise InvalidNetworkError(
                errors.ROOT_OUTDEG_LT_2, f"root {v} has outdegree {len(kids[v])}"
            )
        if not kids[v] and len(pars[v]) != 1:
            raise InvalidNetworkError(
                errors.LEAF_INDEG_NE_1, f"sink {v} has indegree {len(pars[v])}"
            )
        if len(kids[v]) == 1 and len(pars[v]) == 1:
            raise InvalidNetworkError(
                errors.INDEG1_OUTDEG1, f"vertex {v} has indegree and outdegree 1"
            )

    sinks = {v for v in range(num_vertices) if not kids[v]}
    if set(leaf_names) != sinks:
        raise InvalidNetworkError(
            errors.LEAF_SET_MISMATCH, "leaf naming does not cover exactly the sinks"
        )
    names = [leaf_names[v] for v in sorted(sinks)]
    if len(set(names)) != len(names):
        raise InvalidNetworkError(errors.LEAF_SET_MISMATCH, "duplicate taxon in leaf naming")
    if taxa is None:
        taxa = TaxonSet.of(sorted(names))
    elif set(taxa.taxa) != set(names):
        raise InvalidNetworkError(
            errors.LEAF_SET_MISMATCH, "leaf naming does not match the given taxon set"
        )

    return Network(
        num_vertices=num_vertices,
        arcs=tuple(sorted(arcs)),
        leaves=tuple(sorted((v, leaf_names[v]) for v in sinks)),
        taxa=taxa,
        vertex_names=tuple(vertex_names) if vertex_names is not None else None,
    )


def h_tilde(net: Network) -> int:
    """Total excess indegree over the vertices with indegree >= 2."""
    return sum(net.indeg(v) - 1 for v in net.vertices() if net.indeg(v) >= 2)


def is_arboreal(net: Network) -> bool:
    """True iff the underlying undirected graph is a tree.

    The underlying graph of a valid network is connected and simple, so the
    tree test is an edge count.  Equivalently, the excess indegree `h_tilde`
    equals the root surplus: the underlying cycles are exactly what pushes
    the hybrid surplus above it.
    """
    return len(net.arcs) == net.num_vertices - 1


def find_alternating_cycle(net: Network) -> Optional[AlternatingCycle]:
    """A witness cycle if the underlying graph is not a tree, else None.

    Any undirected cycle decomposes at its orientation flips: vertices whose
    two cycle arcs both leave are the tops, vertices whose two cycle arcs
    both enter are the bottoms, and the monotone runs between them are the
    directed witness paths.
    """
    if is_arboreal(net):
        return None
    und = [set() for _ in net.vertices()]
    for u, v in net.arcs:
        und[u].add(v)
        und[v].add(u)
    parent: dict = {0: None}
    stack = [0]
    cycle_join = None
    while stack and cycle_join is None:
        v = stack.pop()
        for w in sorted(und[v]):
            if w not in parent:
                parent[w] = v
                stack.append(w)
            elif parent[v] != w:
                cycle_join = (v, w)
                break
    a, b = cycle_join
    path_a = [a]
    while parent[path_a[-1]] is not None:
        path_a.append(parent[path_a[-1]])
    on_a = {v: i for i, v in enumerate(path_a)}
    path_b = [b]
    while path_b[-1] not in on_a:
        path_b.append(parent[path_b[-1]])
    meet = path_b[-1]
    cyc = path_a[: on_a[meet] + 1] + list(reversed(path_b[:-1]))

    m = len(cyc)
    arcset = set(net.arcs)
    dirs = [1 if (cyc[i], cyc[(i + 1) % m]) in arcset else -1 for i in range(m)]
    tops_pos = [i for i in range(m) if dirs[i] == 1 and dirs[i - 1] == -1]
    bottoms_pos = [i for i in range(m) if dirs[i] == -1 and dirs[i - 1] == 1]

    start = tops_pos[0]
    cyc = cyc[start:] + cyc[:start]
    dirs = dirs[start:] + dirs[:start]
    flips = [i for i in range(m) if dirs[i] != dirs[i - 1]] + [m]
    # flips[0] == 0 is the leading top; runs alternate down, up, down, up, ...
    runs = [cyc[flips[j]: flips[j + 1] + 1] for j in range(len(flips) - 1)]
    runs[-1] = runs[-1] + [cyc[0]]  # last run wraps back to the leading top
    tops = [run[0] for run in runs[0::2]]
    bottoms = [run[-1] for run in runs[0::2]]
    ups = [tuple(reversed(run)) for run in runs[1::2]]
    down_pairs = tuple(
        (tuple(runs[2 * i]), ups[i]) for i in range(len(tops))
    )
    return AlternatingCycle(tuple(tops), tuple(bottoms), down_pairs)


def _contract_arcs(net: Network, fold: Iterable[tuple]) -> tuple:
    """The quotient of `net` by the arcs in `fold`, as `(quotient, ids)`.

    A union-find over the folded arcs merges their endpoints into classes.
    Each class is named by its largest member that no folded arc enters,
    the classes are numbered in the order of their names, and `ids[v]` is
    the number of `v`'s class.  On an arboreal network a class spans a
    subtree of the underlying tree, so no arc outside `fold` joins two
    members of one class.
    """
    up = list(net.vertices())

    def find(v: int) -> int:
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    entered = set()
    for u, v in fold:
        entered.add(v)
        up[find(v)] = find(u)
    name = {}
    for v in net.vertices():
        if v not in entered:
            name[find(v)] = v  # ids ascend, so the largest top is kept
    rank = {top: i for i, top in enumerate(sorted(name.values()))}
    ids = [rank[name[find(v)]] for v in net.vertices()]
    quotient = validate_network(
        [(ids[u], ids[v]) for u, v in net.arcs if ids[u] != ids[v]],
        {ids[v]: t for v, t in net.leaves},
        num_vertices=len(rank),
        taxa=net.taxa,
    )
    return quotient, ids


def cluster(net: Network, v: int) -> frozenset:
    """Taxa of the leaves reachable from `v`."""
    return frozenset(net._taxon_of[w] for w in net.descendants(v) if w in net._taxon_of)


def _cluster_masks(net: Network) -> list:
    """The cluster of every vertex as a taxon bitmask, bit i standing for
    `net.taxa.taxa[i]`, indexed by vertex.

    One pass upward from the leaves: a vertex is finished once all its
    children are, and its mask is the union of theirs.
    """
    masks = [0] * net.num_vertices
    for v, t in net.leaves:
        masks[v] = 1 << net.taxa.index(t)
    waiting = [len(kids) for kids in net._children]
    ready = list(net.leaf_vertices)
    while ready:
        v = ready.pop()
        for p in net._parents[v]:
            masks[p] |= masks[v]
            waiting[p] -= 1
            if not waiting[p]:
                ready.append(p)
    return masks


def shared_ancestry_graph(net: Network) -> UGraph:
    """Graph on the taxa joining two leaves iff they have a common ancestor.

    Every vertex lies below a root, so two taxa share an ancestor exactly
    when some root's cluster holds both.
    """
    masks = _cluster_masks(net)
    adj = [0] * len(net.taxa)
    for r in net.roots:
        for i in _members(masks[r]):
            adj[i] |= masks[r]
    return UGraph(net.taxa, tuple(row & ~(1 << i) for i, row in enumerate(adj)))
