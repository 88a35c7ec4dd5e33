"""Clique families over a taxon set: maximal cliques, covers, closures,
and the containment (Hasse) digraph of a family.

Families keep a canonical member order (size, then taxon positions), which
fixes witness output and serialization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import NoEdgesError, TooLargeError
from .graphs import TaxonSet, UGraph, _adjacency_bits

ECC_EDGE_CAP = 24


@dataclass(frozen=True)
class CliqueFamily:
    """Finite family of distinct non-empty taxon subsets, canonically ordered."""

    over: TaxonSet
    sets: tuple = ()

    def __post_init__(self):
        members = [frozenset(s) for s in self.sets]
        for s in members:
            if not s:
                raise ValueError("family members must be non-empty")
            for t in s:
                if t not in self.over:
                    raise ValueError(f"unknown taxon {t!r} in family member")
        if len(set(members)) != len(members):
            raise ValueError("family members must be distinct")
        ordered = sorted(members, key=lambda s: self._key(s))
        object.__setattr__(self, "sets", tuple(ordered))

    def _key(self, s: frozenset) -> tuple:
        return (len(s), tuple(sorted(self.over.index(t) for t in s)))

    @classmethod
    def build(cls, over: TaxonSet, sets: Iterable[Iterable[str]]) -> "CliqueFamily":
        return cls(over, tuple(frozenset(s) for s in sets))

    def member_sorted(self, s: frozenset) -> tuple[str, ...]:
        return self.over.sorted(s)

    def as_sets(self) -> frozenset:
        return frozenset(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, s) -> bool:
        return frozenset(s) in self.as_sets()


@dataclass(frozen=True)
class CoverDigraph:
    """Strict-containment cover relation on a family: arc (A, B) iff B is a
    proper subset of A with nothing from the family strictly between."""

    family: CliqueFamily
    arcs: tuple = ()  # sorted pairs of indices into family.sets


def _mask_to_set(mask: int, taxa: TaxonSet) -> frozenset:
    return frozenset(taxa.taxa[i] for i in range(len(taxa)) if mask >> i & 1)


def maximal_cliques(g: UGraph) -> CliqueFamily:
    """All inclusion-maximal cliques with at least two vertices.

    Bron-Kerbosch with a greedy pivot, on adjacency bitmasks, driven by an
    explicit stack of (clique, candidates, excluded) states so that deep
    cliques need no recursion.  Vertices with no neighbors contribute
    nothing: cliques here always have size >= 2.
    """
    adj = _adjacency_bits(g)
    n = len(g.taxa)
    found = []
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x and r.bit_count() >= 2:
                found.append(r)
            continue
        cand = p | x
        pivot = max(
            (i for i in range(n) if cand >> i & 1),
            key=lambda i: (p & adj[i]).bit_count(),
        )
        rest = p & ~adj[pivot]
        while rest:
            bit = rest & -rest
            i = bit.bit_length() - 1
            stack.append((r | bit, p & adj[i], x & adj[i]))
            p &= ~bit
            x |= bit
            rest ^= bit
    return CliqueFamily.build(g.taxa, [_mask_to_set(m, g.taxa) for m in found])


def is_clique(g: UGraph, vertices: Iterable[str]) -> bool:
    vs = list(vertices)
    return all(g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1:])


def is_edge_clique_cover(g: UGraph, family: CliqueFamily) -> bool:
    """True iff every member is a clique of size >= 2 and every edge of `g`
    lies inside some member."""
    for s in family:
        if len(s) < 2 or not is_clique(g, s):
            return False
    covered = set()
    for s in family:
        members = sorted(s, key=g.taxa.index)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                covered.add((a, b))
    return all(e in covered for e in g.edges)


def ecc_min(g: UGraph) -> tuple[int, CliqueFamily]:
    """Exact minimum edge clique cover size, with one witness cover.

    Any cover stays a cover after each member is grown to a maximal clique,
    so the search branches over maximal cliques only: iterative deepening,
    always splitting on the first uncovered edge in canonical order.  Hard
    cap on the edge count keeps the search at desk scale.
    """
    edges = g.sorted_edges()
    if not edges:
        raise NoEdgesError("minimum cover needs at least one edge")
    if len(edges) > ECC_EDGE_CAP:
        raise TooLargeError(f"minimum cover search capped at {ECC_EDGE_CAP} edges")
    cliques = maximal_cliques(g).sets
    edge_index = {e: i for i, e in enumerate(edges)}
    clique_edge_mask = []
    for s in cliques:
        members = g.taxa.sorted(s)
        mask = 0
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                mask |= 1 << edge_index[(a, b)]
        clique_edge_mask.append(mask)
    full = (1 << len(edges)) - 1
    by_edge = [
        [ci for ci, m in enumerate(clique_edge_mask) if m >> ei & 1]
        for ei in range(len(edges))
    ]

    def search(covered: int, chosen: tuple, depth_left: int) -> Optional[tuple]:
        if covered == full:
            return chosen
        if depth_left == 0:
            return None
        first = next(ei for ei in range(len(edges)) if not covered >> ei & 1)
        for ci in by_edge[first]:
            if ci in chosen:
                continue
            got = search(covered | clique_edge_mask[ci], chosen + (ci,), depth_left - 1)
            if got is not None:
                return got
        return None

    for k in range(1, len(cliques) + 1):
        witness = search(0, (), k)
        if witness is not None:
            return k, CliqueFamily.build(g.taxa, [cliques[ci] for ci in witness])
    raise AssertionError("maximal cliques always cover all edges")


def intersection_closure(family: CliqueFamily) -> CliqueFamily:
    """Closure of the family under non-empty pairwise intersection.

    Iterating pairwise intersections to a fixpoint yields every non-empty
    intersection of a subfamily.
    """
    if len(family) == 0:
        raise ValueError("closure needs a non-empty family")
    closed = set(family.sets)
    frontier = list(closed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(closed):
                c = a & b
                if c and c not in closed:
                    closed.add(c)
                    fresh.append(c)
        frontier = fresh
    return CliqueFamily.build(family.over, closed)


def cover_digraph(family: CliqueFamily) -> CoverDigraph:
    sets = family.sets
    arcs = []
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i == j or not b < a:
                continue
            if any(b < c < a for c in sets):
                continue
            arcs.append((i, j))
    return CoverDigraph(family, tuple(sorted(arcs)))


def underlying_acyclic(h: CoverDigraph) -> bool:
    """True iff the digraph, read as an undirected graph, is a forest."""
    parent = list(range(len(h.family)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in h.arcs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True
