"""Undirected graphs on a fixed, ordered taxon set.

The taxon order fixed at construction is used for every deterministic
tie-break: canonical edge tuples, witness ordering, serialization.
"""
from __future__ import annotations

from collections import deque
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


def _components(adj) -> list:
    """The components of the graph with neighbour bitmask rows `adj`, as
    bitmasks, listed by lowest member."""
    left = (1 << len(adj)) - 1
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


def _elimination_adjacency(g: UGraph) -> Optional[list]:
    """Adjacency bitmasks indexed by LexBFS visit position, or None when the
    reversed visit order is not a perfect elimination ordering, which is
    exactly when `g` is not chordal."""
    order = _lexbfs(g.adj)
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    padj = [sum(1 << pos[w] for w in _members(g.adj[v])) for v in order]
    # The earlier-visited neighbors of each vertex, minus the latest of
    # them, must all be adjacent to that latest one.
    for i, nbrs in enumerate(padj):
        earlier = nbrs & ((1 << i) - 1)
        if earlier:
            u = earlier.bit_length() - 1
            if (earlier ^ (1 << u)) & ~padj[u]:
                return None
    return padj


def is_chordal(g: UGraph) -> bool:
    """True iff every cycle of length four or more has a chord.

    Runs lexicographic BFS and verifies that the reversed visit order is a
    perfect elimination ordering: for each vertex, its earlier-visited
    neighbors minus the latest of them must all be adjacent to that latest one.
    """
    return _elimination_adjacency(g) is not None


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
    P & Q separates P - Q from Q - P.  One LexBFS yields a perfect
    elimination ordering (else the graph is not chordal), the at most n
    maximal cliques are read off it, and each meeting pair gets one bitmask
    BFS in the graph minus P & Q.  The gem scan `contains_gem` and the
    four-point distance oracle `oracle.ptolemy_inequality_holds` are
    references and witness finders, not part of this decision.
    """
    padj = _elimination_adjacency(g)
    if padj is None:
        return False
    # Each maximal clique is {v} plus v's earlier-visited neighbors for its
    # last-visited member v; keep the candidates no larger one contains.
    candidates = sorted(
        (padj[i] & ((1 << i) - 1) | (1 << i) for i in range(len(padj))),
        key=int.bit_count,
        reverse=True,
    )
    cliques = []
    for c in candidates:
        if all(c & k != c for k in cliques):
            cliques.append(c)
    everything = (1 << len(padj)) - 1
    for p, q in combinations(cliques, 2):
        sep = p & q
        if sep and _reach(padj, p & ~sep, everything & ~sep) & q:
            return False
    return True


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


def find_induced_hole(g: UGraph) -> Optional[tuple[str, ...]]:
    """Some chordless cycle of length >= 4 as a vertex tuple, else None.

    For every vertex v with two non-adjacent neighbors a, b, a shortest a-b
    path avoiding the rest of v's closed neighborhood closes a chordless
    cycle through v; no such path anywhere means the graph is chordal.
    """
    taxa, adj = g.taxa.taxa, g.adj
    everything = (1 << len(adj)) - 1
    for v, row in enumerate(adj):
        allowed = everything & ~(row | 1 << v)
        for a, b in combinations(_members(row), 2):
            if adj[a] >> b & 1:
                continue
            # breadth first from a, neighbours in position order
            prev = {a: None}
            seen = 1 << a
            queue = deque([a])
            while queue and b not in prev:
                w = queue.popleft()
                fresh = adj[w] & (allowed | 1 << b) & ~seen
                seen |= fresh
                for u in _members(fresh):
                    prev[u] = w
                    queue.append(u)
            if b in prev:
                path = [b]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return (taxa[v], *(taxa[i] for i in reversed(path)))
    return None


def ptolemaic_witness(g: UGraph) -> Optional[tuple[str, tuple[str, ...]]]:
    """None when `g` is ptolemaic, else ("hole", vertices) for a chordless
    cycle or, when `g` is chordal, ("gem", vertices) for an induced gem.

    The polynomial `is_ptolemaic` decides; the witness searches run only
    after it rejects.  Raises `MissingWitnessError` when neither finds
    anything, which would mean the recognizer and the witness finders
    disagree.
    """
    if is_ptolemaic(g):
        return None
    hole = find_induced_hole(g)
    if hole is not None:
        return ("hole", hole)
    gem = contains_gem(g)
    if gem is None:
        raise MissingWitnessError("chordal graph is not ptolemaic, yet has no induced gem")
    return ("gem", gem)
