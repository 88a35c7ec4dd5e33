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
    DisconnectedGraphError,
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


@dataclass(frozen=True)
class UGraph:
    """Simple undirected graph whose vertices are the taxa."""

    taxa: TaxonSet
    edges: frozenset = field(default=frozenset())
    _adj: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        canonical = set()
        for edge in self.edges:
            a, b = edge
            canonical.add(self.taxa.pair(a, b))
        object.__setattr__(self, "edges", frozenset(canonical))
        adj = {t: set() for t in self.taxa}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "_adj", {t: frozenset(ns) for t, ns in adj.items()})

    @classmethod
    def build(cls, taxa: Iterable[str], edges: Iterable[tuple[str, str]]) -> "UGraph":
        return cls(TaxonSet.of(taxa), frozenset(tuple(e) for e in edges))

    def neighbors(self, taxon: str) -> frozenset:
        try:
            return self._adj[taxon]
        except KeyError:
            raise UnknownTaxonError(taxon) from None

    def has_edge(self, a: str, b: str) -> bool:
        return b in self.neighbors(a)

    def degree(self, taxon: str) -> int:
        return len(self.neighbors(taxon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges, key=lambda e: (self.taxa.index(e[0]), self.taxa.index(e[1])))


def is_connected(g: UGraph) -> bool:
    """True iff `g` is connected; a one-vertex graph counts as connected."""
    start = g.taxa.taxa[0]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(g.taxa)


def connected_components(g: UGraph) -> list[tuple[str, ...]]:
    """Components as taxon tuples, each sorted, listed by first member."""
    seen = set()
    comps = []
    for start in g.taxa:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(g.taxa.sorted(comp))
    return comps


def bfs_distances(g: UGraph, source: str) -> dict:
    """Hop distances from `source`; unreachable vertices are absent."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _adjacency_bits(g: UGraph) -> list[int]:
    # neighbors of the i-th taxon as a bitmask over taxon positions
    masks = [0] * len(g.taxa)
    for a, b in g.edges:
        i, j = g.taxa.index(a), g.taxa.index(b)
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def _members(mask: int) -> list:
    """Positions of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    adj = _adjacency_bits(g)
    order = _lexbfs(adj)
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    padj = [sum(1 << pos[w] for w in range(len(adj)) if adj[v] >> w & 1) for v in order]
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
    vertices.  The path is recognized through its degree sequence: three
    edges on four vertices with degrees 1,1,2,2 force a path.

    This scans every 5-subset, O(n^5), and serves only to name a witness
    once `is_ptolemaic` has rejected a chordal graph; the decision itself
    never calls it.
    """
    for sub in combinations(g.taxa.taxa, 5):
        for apex in sub:
            rest = [v for v in sub if v != apex]
            if not all(g.has_edge(apex, w) for w in rest):
                continue
            inner = [(a, b) for a, b in combinations(rest, 2) if g.has_edge(a, b)]
            if len(inner) != 3:
                continue
            deg = {v: 0 for v in rest}
            for a, b in inner:
                deg[a] += 1
                deg[b] += 1
            if sorted(deg.values()) == [1, 1, 2, 2]:
                return sub
    return None


def is_ptolemaic(g: UGraph) -> bool:
    """True iff `g` is chordal and contains no induced gem.

    Decided in polynomial time through Howorka's characterization (1981): a
    graph is ptolemaic iff for every two maximal cliques P, Q that meet,
    P & Q separates P - Q from Q - P.  One LexBFS yields a perfect
    elimination ordering (else the graph is not chordal), the at most n
    maximal cliques are read off it, and each meeting pair gets one bitmask
    BFS in the graph minus P & Q.  The gem scan `contains_gem` and the
    four-point distance oracle `ptolemy_inequality_holds` are references
    and witness finders, not part of this decision.
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
        if not sep:
            continue
        allowed, goal = everything & ~sep, q & ~sep
        seen = frontier = p & ~sep
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= padj[low.bit_length() - 1]
                frontier ^= low
            if reach & goal:
                return False
            frontier = reach & allowed & ~seen
            seen |= frontier
    return True


def ptolemy_inequality_holds(g: UGraph) -> bool:
    """Distance oracle: d(x,y)d(z,u) + d(x,u)d(y,z) >= d(x,z)d(y,u) for all
    ordered vertex 4-tuples, with d the hop metric.

    Tuples with a repeated vertex satisfy the inequality identically, and over
    the orderings of four distinct vertices the system reduces to: the largest
    of the three pair products is at most the sum of the other two.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("the four-point inequality needs a connected graph")
    verts = g.taxa.taxa
    dist = {v: bfs_distances(g, v) for v in verts}
    for a, b, c, e in combinations(verts, 4):
        p1 = dist[a][b] * dist[c][e]
        p2 = dist[a][c] * dist[b][e]
        p3 = dist[a][e] * dist[b][c]
        if 2 * max(p1, p2, p3) > p1 + p2 + p3:
            return False
    return True


def induced_subgraph(g: UGraph, subset: Iterable[str]) -> UGraph:
    """Subgraph induced on `subset`, keeping the ambient taxon order."""
    chosen = set(subset)
    if not chosen:
        raise EmptySubsetError("induced subgraph needs a non-empty subset")
    for t in chosen:
        if t not in g.taxa:
            raise UnknownTaxonError(t)
    taxa = TaxonSet.of(t for t in g.taxa if t in chosen)
    edges = frozenset(e for e in g.edges if e[0] in chosen and e[1] in chosen)
    return UGraph(taxa, edges)


def find_induced_hole(g: UGraph) -> Optional[tuple[str, ...]]:
    """Some chordless cycle of length >= 4 as a vertex tuple, else None.

    For every vertex v with two non-adjacent neighbors a, b, a shortest a-b
    path avoiding the rest of v's closed neighborhood closes a chordless
    cycle through v; no such path anywhere means the graph is chordal.
    """
    for v in g.taxa:
        nbrs = g.taxa.sorted(g.neighbors(v))
        for a, b in combinations(nbrs, 2):
            if g.has_edge(a, b):
                continue
            banned = (set(g.neighbors(v)) | {v}) - {a, b}
            prev = {a: None}
            queue = deque([a])
            while queue:
                w = queue.popleft()
                if w == b:
                    break
                for u in g.taxa.sorted(g.neighbors(w)):
                    if u not in prev and u not in banned:
                        prev[u] = w
                        queue.append(u)
            if b in prev:
                path = [b]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                path.reverse()
                return (v, *path)
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
