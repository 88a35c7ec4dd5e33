"""Clique families over a taxon set: maximal cliques, covers, closures,
and the containment (Hasse) digraph of a family.

A family's members are taxon bitmasks, bit i standing for `over.taxa[i]`,
kept in a canonical order (size, then taxon positions) that fixes witness
output and serialization.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import NoEdgesError, TooLargeError
from .graphs import TaxonSet, UGraph, _components, _members

ECC_EDGE_CAP = 24


@dataclass(frozen=True)
class CliqueFamily:
    """Finite family of distinct non-empty taxon subsets, canonically ordered.

    `masks` holds the members as taxon bitmasks; `sets` holds the same
    members, in the same order, as frozensets of taxon names.
    """

    over: TaxonSet
    masks: tuple = ()
    sets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.masks, key=lambda m: (m.bit_count(), _members(m))))
        object.__setattr__(self, "masks", ordered)
        taxa = self.over.taxa
        object.__setattr__(
            self, "sets", tuple(frozenset(taxa[i] for i in _members(m)) for m in ordered)
        )

    @classmethod
    def build(cls, over: TaxonSet, sets: Iterable[Iterable[str]]) -> "CliqueFamily":
        masks = []
        for s in sets:
            mask = 0
            for t in s:
                if t not in over:
                    raise ValueError(f"unknown taxon {t!r} in family member")
                mask |= 1 << over.index(t)
            if not mask:
                raise ValueError("family members must be non-empty")
            masks.append(mask)
        if len(set(masks)) != len(masks):
            raise ValueError("family members must be distinct")
        return cls(over, tuple(masks))

    def member_sorted(self, s: frozenset) -> tuple[str, ...]:
        return self.over.sorted(s)

    def as_sets(self) -> frozenset:
        return frozenset(self.sets)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.sets)


@dataclass(frozen=True)
class CoverDigraph:
    """Strict-containment cover relation on a family: arc (A, B) iff B is a
    proper subset of A with nothing from the family strictly between."""

    family: CliqueFamily
    arcs: tuple = ()  # sorted pairs of indices into family.sets


def _is_clique_mask(adj: list, mask: int) -> bool:
    """Whether the taxa of `mask` are pairwise adjacent in `adj`."""
    return all(adj[i] & mask == mask ^ (1 << i) for i in _members(mask))


def maximal_cliques(g: UGraph) -> CliqueFamily:
    """All inclusion-maximal cliques with at least two vertices.

    Bron-Kerbosch with a greedy pivot, on adjacency bitmasks, driven by an
    explicit stack of (clique, candidates, excluded) states so that deep
    cliques need no recursion.  Vertices with no neighbors contribute
    nothing: cliques here always have size >= 2.
    """
    adj = g.adj
    n = len(adj)
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
    return CliqueFamily(g.taxa, tuple(found))


def is_edge_clique_cover(g: UGraph, family: CliqueFamily) -> bool:
    """True iff every member is a clique of size >= 2 and every edge of `g`
    lies inside some member."""
    adj = g.adj
    covered = [0] * len(adj)
    for m in family.masks:
        if m.bit_count() < 2 or not _is_clique_mask(adj, m):
            return False
        for i in _members(m):
            covered[i] |= m
    return all(not row & ~cov for row, cov in zip(adj, covered))


def ecc_min(g: UGraph) -> tuple[int, CliqueFamily]:
    """Exact minimum edge clique cover size, with one witness cover.

    Any cover stays a cover after each member is grown to a maximal clique,
    so the search branches over maximal cliques only: iterative deepening,
    always splitting on the first uncovered edge in canonical order.  Hard
    cap on the edge count keeps the search at desk scale.
    """
    ends = [1 << i | 1 << j for i, row in enumerate(g.adj) for j in _members(row) if j > i]
    if not ends:
        raise NoEdgesError("minimum cover needs at least one edge")
    if len(ends) > ECC_EDGE_CAP:
        raise TooLargeError(f"minimum cover search capped at {ECC_EDGE_CAP} edges")
    cliques = maximal_cliques(g).masks
    clique_edge_mask = [
        sum(1 << k for k, e in enumerate(ends) if m & e == e) for m in cliques
    ]
    full = (1 << len(ends)) - 1
    by_edge = [
        [ci for ci, m in enumerate(clique_edge_mask) if m >> ei & 1]
        for ei in range(len(ends))
    ]

    def search(covered: int, chosen: tuple, depth_left: int) -> Optional[tuple]:
        if covered == full:
            return chosen
        if depth_left == 0:
            return None
        first = next(ei for ei in range(len(ends)) if not covered >> ei & 1)
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
            return k, CliqueFamily(g.taxa, tuple(cliques[ci] for ci in witness))
    raise AssertionError("maximal cliques always cover all edges")


def intersection_closure(family: CliqueFamily) -> CliqueFamily:
    """Closure of the family under non-empty pairwise intersection.

    One pass over the members suffices: once the intersections of every
    subfamily of the earlier members are held, a new member m adds exactly
    m itself and its intersections with those, and these need no further
    pass among themselves, since m & a & b = (m & a) & (m & b).
    """
    if len(family) == 0:
        raise ValueError("closure needs a non-empty family")
    closed = set()
    for m in family.masks:
        closed |= {m & c for c in closed}
        closed.add(m)
    closed.discard(0)
    return CliqueFamily(family.over, tuple(closed))


def cover_digraph(family: CliqueFamily) -> CoverDigraph:
    """The containment order of `family`, reduced to its cover arcs.

    Everything is a bitset over member indices.  `holds[t]` marks the
    members containing taxon t, so the members meeting the taxa outside
    member i are the union of their `holds`, and every other member but i
    itself is a strict subset of i.  Member i then covers its strict
    subsets minus those lying below another of them.
    """
    masks = family.masks
    everyone = (1 << len(masks)) - 1
    all_taxa = (1 << len(family.over)) - 1
    holds = [0] * len(family.over)
    for k, m in enumerate(masks):
        for t in _members(m):
            holds[t] |= 1 << k
    below = []
    for i, m in enumerate(masks):
        meet_outside = 1 << i
        for t in _members(all_taxa & ~m):
            meet_outside |= holds[t]
        below.append(everyone & ~meet_outside)
    arcs = []
    for i, sub in enumerate(below):
        deeper = 0
        for j in _members(sub):
            deeper |= below[j]
        arcs.extend((i, j) for j in _members(sub & ~deeper))
    return CoverDigraph(family, tuple(arcs))


def underlying_acyclic(h: CoverDigraph) -> bool:
    """True iff the digraph, read as an undirected graph, is a forest: a
    graph is one iff it has as many edges as vertices minus components."""
    adj = [0] * len(h.family)
    for a, b in h.arcs:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return len(h.arcs) == len(adj) - len(_components(adj))
