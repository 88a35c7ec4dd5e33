"""Undirected graphs on a fixed, ordered taxon set.

The taxon order fixed at construction is used for every deterministic
tie-break: canonical edge tuples, witness ordering, serialization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .errors import (
    EmptySubsetError,
    MissingWitnessError,
    UnknownTaxonError,
)


@dataclass(frozen=True)
class TaxonSet:
    """Ordered collection of distinct taxon identifiers."""

    taxa: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.taxa:
            raise ValueError("taxon set must not be empty")
        if any(not isinstance(t, str) or not t for t in self.taxa):
            raise ValueError("taxa must be non-empty strings")
        if len(set(self.taxa)) != len(self.taxa):
            raise ValueError("taxa must be distinct")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.taxa)})

    @classmethod
    def of(cls, taxa: Iterable[str]) -> "TaxonSet":
        return cls(tuple(taxa))

    def index(self, taxon: str) -> int:
        try:
            return self._index[taxon]
        except KeyError:
            raise UnknownTaxonError(taxon) from None

    def pair(self, a: str, b: str) -> tuple[str, str]:
        """Canonical unordered pair: endpoints sorted by taxon position."""
        if a == b:
            raise ValueError(f"pair endpoints must differ, got {a!r} twice")
        return (a, b) if self.index(a) < self.index(b) else (b, a)

    def sorted(self, taxa: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(taxa, key=self.index))

    def pairs(self) -> Iterable[tuple[str, str]]:
        return combinations(self.taxa, 2)

    def __len__(self) -> int:
        return len(self.taxa)

    def __iter__(self):
        return iter(self.taxa)

    def __contains__(self, taxon) -> bool:
        return taxon in self._index


def _members(mask: int) -> list:
    """Positions of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class UGraph:
    """Simple undirected graph whose vertices are the taxa.

    `adj` holds one neighbour bitmask per taxon position: bit j of `adj[i]`
    stands for the edge `taxa.taxa[i]`-`taxa.taxa[j]`, so the rows are
    symmetric and no row holds its own bit.
    """

    taxa: TaxonSet
    adj: tuple

    @classmethod
    def build(cls, taxa: Iterable[str], edges: Iterable[tuple[str, str]]) -> "UGraph":
        """The graph on `taxa` with the given name pairs as edges, checked
        in the order given."""
        ts = TaxonSet.of(taxa)
        adj = [0] * len(ts)
        for a, b in edges:
            i, j = map(ts.index, ts.pair(a, b))
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(ts, tuple(adj))

    def neighbors(self, taxon: str) -> frozenset:
        taxa = self.taxa.taxa
        return frozenset(taxa[j] for j in _members(self.adj[self.taxa.index(taxon)]))

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.adj[self.taxa.index(a)] >> self.taxa.index(b) & 1)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def sorted_edges(self) -> list[tuple[str, str]]:
        taxa = self.taxa.taxa
        return [
            (taxa[i], taxa[j]) for i, row in enumerate(self.adj) for j in _members(row) if j > i
        ]


def _reach(adj, start: int, allowed: int) -> int:
    """The vertices joined to the bitmask `start` by paths through `allowed`,
    `start` included, as a bitmask."""
    seen = frontier = start
    while frontier:
        nxt = 0
        for i in _members(frontier):
            nxt |= adj[i]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def is_connected(g: UGraph) -> bool:
    """True iff `g` is connected; a one-vertex graph counts as connected."""
    everything = (1 << len(g.adj)) - 1
    return _reach(g.adj, 1, everything) == everything


def _components(adj, within: int = -1) -> list:
    """The components of the graph with neighbour bitmask rows `adj`,
    induced on the vertices of the bitmask `within` (all by default), as
    bitmasks, listed by lowest member."""
    left = within & (1 << len(adj)) - 1
    comps = []
    while left:
        comp = _reach(adj, left & -left, left)
        comps.append(comp)
        left &= ~comp
    return comps


def connected_components(g: UGraph) -> list[tuple[str, ...]]:
    """Components as taxon tuples, each sorted, listed by first member."""
    taxa = g.taxa.taxa
    return [tuple(taxa[i] for i in _members(comp)) for comp in _components(g.adj)]


def _lexbfs(adj: list) -> list:
    # Lexicographic BFS by partition refinement.  The cells hold the
    # unvisited vertices of equal label, largest label first; the next
    # vertex is the lowest taxon position in the first cell, and its
    # neighbors move to the front of every cell.
    cells = [(1 << len(adj)) - 1]
    order = []
    while cells:
        low = cells[0] & -cells[0]
        v = low.bit_length() - 1
        order.append(v)
        refined = []
        for cell in cells:
            cell &= ~low
            inside = cell & adj[v]
            if inside:
                refined.append(inside)
            if cell ^ inside:
                refined.append(cell ^ inside)
        cells = refined
    return order


def _hole(g: UGraph, x: int, u: int, w: int) -> tuple:
    # The cycle x closes with a shortest w-u path whose inner vertices avoid
    # x's closed neighborhood, listed as `_ptolemaic_pass` states.
    adj = g.adj
    allowed = ~(adj[x] | 1 << x) | 1 << u
    layers, seen = [1 << w], 1 << w
    while not seen >> u & 1:
        nxt = 0
        for a in _members(layers[-1]):
            nxt |= adj[a]
        nxt &= allowed & ~seen
        if not nxt:
            raise MissingWitnessError("the elimination ordering fails, yet no hole closes there")
        layers.append(nxt)
        seen |= nxt
    cycle = [x, u]
    for layer in reversed(layers[:-1]):
        cycle.append(_members(adj[cycle[-1]] & layer)[0])
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    cycle = min(cycle, cycle[:1] + cycle[:0:-1])
    return tuple(g.taxa.taxa[i] for i in cycle)


def _ptolemaic_pass(g: UGraph) -> tuple:
    """(hole, cliques) from one LexBFS pass: some chordless cycle of length
    >= 4 as a vertex tuple, else None; and the set of `g`'s maximal cliques
    of two or more taxa as taxon masks when `g` is ptolemaic, else None.

    `g` is chordal iff the reversed LexBFS visit order is a perfect
    elimination ordering.  When it is not, take the first vertex x that
    fails, its latest earlier-visited neighbor u, and its earliest
    earlier-visited neighbor w not adjacent to u (Tarjan-Yannakakis 1984).
    A shortest w-u path with its inner vertices outside x's closed
    neighborhood has no chord and meets x only at its ends, so with x it
    closes a hole.  The hole is listed from its lowest taxon position
    towards the lower of that vertex's two cycle neighbors.
    `MissingWitnessError` would mean no such path exists.
    """
    adj = g.adj
    order = _lexbfs(adj)
    pos = {v: i for i, v in enumerate(order)}
    # The earlier-visited neighbors of each vertex x, minus the latest of
    # them, u, must all be adjacent to u.  Then x and its earlier-visited
    # neighbors form a clique, and that of u is maximal unless it is x's
    # earlier-visited neighbors (Blair-Peyton 1993).
    cliques, before = set(), 0
    for x in order:
        earlier = adj[x] & before
        before |= 1 << x
        if not earlier:
            continue
        u = max(_members(earlier), key=pos.__getitem__)
        missed = earlier & ~adj[u] & ~(1 << u)
        if missed:
            return _hole(g, x, u, min(_members(missed), key=pos.__getitem__)), None
        cliques.discard(earlier)
        cliques.add(earlier | 1 << x)
    for p, q in combinations(cliques, 2):
        sep = p & q
        if sep and _reach(adj, p & ~sep, ~sep) & q:
            return None, None
    return None, cliques


def contains_gem(g: UGraph) -> Optional[tuple[str, ...]]:
    """First five vertices (canonical order) inducing a gem, else None.

    A gem is a four-vertex path plus an apex adjacent to all four path
    vertices.  Five vertices induce one exactly when their induced degrees
    are 2, 2, 3, 3, 4: the degree-4 vertex is the apex, and three edges on
    the other four with degrees 1, 1, 2, 2 force a path.

    This scans every 5-subset, O(n^5), and serves only to name a witness
    once `is_ptolemaic` has rejected a chordal graph; the decision itself
    never calls it.
    """
    adj = g.adj
    for sub in combinations(range(len(adj)), 5):
        mask = sum(1 << i for i in sub)
        if sorted((adj[i] & mask).bit_count() for i in sub) == [2, 2, 3, 3, 4]:
            return tuple(g.taxa.taxa[i] for i in sub)
    return None


def is_ptolemaic(g: UGraph) -> bool:
    """True iff `g` is chordal and contains no induced gem.

    Decided in polynomial time through Howorka's characterization (1981): a
    graph is ptolemaic iff for every two maximal cliques P, Q that meet,
    P & Q separates P - Q from Q - P.  The LexBFS pass that checks the
    elimination ordering also reads off the at most n maximal cliques, and
    each meeting pair gets one bitmask BFS in the graph minus P & Q.  The
    gem scan `contains_gem` and the four-point distance oracle
    `oracle.ptolemy_inequality_holds` are references and witness finders,
    not part of this decision.
    """
    return _ptolemaic_pass(g)[1] is not None


def _witness_or_cliques(g: UGraph) -> tuple:
    # ptolemaic_witness(g), and g's maximal cliques when that is None
    hole, cliques = _ptolemaic_pass(g)
    if hole is not None:
        return ("hole", hole), None
    if cliques is not None:
        return None, cliques
    gem = contains_gem(g)
    if gem is None:
        raise MissingWitnessError("chordal graph is not ptolemaic, yet has no induced gem")
    return ("gem", gem), None


def ptolemaic_witness(g: UGraph) -> Optional[tuple[str, tuple[str, ...]]]:
    """None when `g` is ptolemaic, else ("hole", vertices) for a chordless
    cycle or, when `g` is chordal, ("gem", vertices) for an induced gem.

    The hole comes from the LexBFS pass that decides, as `_ptolemaic_pass`
    lists it; the gem scan runs only when that pass has rejected a chordal
    graph.  Raises `MissingWitnessError` when neither finds anything, which
    would mean the recognizer and the witness finders disagree.
    """
    return _witness_or_cliques(g)[0]


def induced_subgraph(g: UGraph, subset: Iterable[str]) -> UGraph:
    """Subgraph induced on `subset`, keeping the ambient taxon order."""
    chosen = 0
    for t in subset:
        chosen |= 1 << g.taxa.index(t)
    if not chosen:
        raise EmptySubsetError("induced subgraph needs a non-empty subset")
    keep = _members(chosen)
    taxa = TaxonSet(tuple(g.taxa.taxa[i] for i in keep))
    adj = tuple(sum(1 << k for k, j in enumerate(keep) if g.adj[i] >> j & 1) for i in keep)
    return UGraph(taxa, adj)
