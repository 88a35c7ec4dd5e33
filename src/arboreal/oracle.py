"""Brute-force references and seeded random generators for the test suite.

Everything in this module favours obviousness over speed and is written
without reusing the clever parts of the library, so the two can check each
other.  Generators are deterministic functions of their parameters.
"""
from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations, count, product
from math import factorial
from string import ascii_lowercase
from typing import Iterable, Iterator, Optional

from .errors import (
    DisconnectedGraphError,
    GenerationExhaustedError,
    InvalidNetworkError,
    NotArborealError,
    TooLargeError,
)
from .graphs import (
    TaxonSet,
    UGraph,
    connected_components,
    is_connected,
    ptolemaic_witness,
)
from .networks import Network, is_arboreal, validate_network
from .symbolic import (
    A4,
    DELTA,
    NOT_CONNECTED,
    NOT_PTOLEMAIC,
    PI,
    LabelledNetwork,
    SymbolicMap,
    Violation,
    evaluate_map,
    graph_of_map,
)

MAX_TRIES = 1000


def _alphabet(k: int) -> list:
    if k <= 26:
        return list(ascii_lowercase[:k])
    return [f"s{i}" for i in range(k)]


def _taxon_names(n: int) -> list:
    # zero-padded so lexicographic order agrees with numeric order
    return [f"t{i:02d}" for i in range(1, n + 1)]


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random generators.

    `hybrid_bias` doubles as the gap probability for random symbolic maps;
    both measure how far an instance strays from a clean single tree.
    """

    leaf_range: tuple = (3, 8)
    root_range: tuple = (1, 3)
    symbol_count: int = 2
    hybrid_bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.leaf_range
        if not 2 <= lo <= hi:
            raise ValueError("leaf_range must satisfy 2 <= lo <= hi")
        rlo, rhi = self.root_range
        if not 1 <= rlo <= rhi:
            raise ValueError("root_range must satisfy 1 <= lo <= hi")
        if self.symbol_count < 1:
            raise ValueError("symbol_count must be positive")
        if not 0.0 <= self.hybrid_bias <= 1.0:
            raise ValueError("hybrid_bias must lie in [0, 1]")


# -- random networks ----------------------------------------------------------


def _random_partition(rng: random.Random, items: list, k: int) -> list:
    """Split `items` into `k` non-empty blocks, uniformly over split points."""
    pool = items[:]
    rng.shuffle(pool)
    cuts = sorted(rng.sample(range(1, len(pool)), k - 1))
    return [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]


def _grow_tree(rng, leaves: list, fresh, arcs: list):
    """Random rooted tree over `leaves`; returns the root key.

    Every internal vertex gets at least two children, so the result is a
    valid single-rooted network once leaves are named.
    """
    if len(leaves) == 1:
        return ("leaf", leaves[0])
    node = ("n", next(fresh))
    for block in _random_partition(rng, leaves, rng.randint(2, len(leaves))):
        arcs.append((node, _grow_tree(rng, block, fresh, arcs)))
    return node


def _build_arboreal(rng: random.Random, p: GenParams) -> Network:
    n = rng.randint(*p.leaf_range)
    r = rng.randint(*p.root_range)
    # every extra root brings at least one fresh leaf, the first needs two
    r = min(r, max(1, n - 1))
    names = _taxon_names(n)
    pool = names[:]
    rng.shuffle(pool)
    sizes = [2] + [1] * (r - 1)
    for _ in range(n - sum(sizes)):
        sizes[rng.randrange(r)] += 1
    blocks, at = [], 0
    for s in sizes:
        blocks.append(pool[at:at + s])
        at += s

    arcs = []
    fresh = count()
    _grow_tree(rng, blocks[0], fresh, arcs)
    for block in blocks[1:]:
        # a new root hangs its own fresh subtree and sends exactly one arc
        # into what was already there (never into its own subtree), keeping
        # the underlying graph a tree
        existing = sorted(arcs)
        indeg = Counter(v for _, v in existing)
        outdeg = Counter(u for u, _ in existing)
        targets = sorted(v for v in set(indeg) if outdeg[v] >= 1)
        root = ("n", next(fresh))
        sub = _grow_tree(rng, block, fresh, arcs)
        if targets and rng.random() < 0.5:
            arcs.append((root, rng.choice(targets)))
        else:
            u, w = rng.choice(existing)
            mid = ("n", next(fresh))
            arcs.remove((u, w))
            arcs.extend([(u, mid), (mid, w), (root, mid)])
        arcs.append((root, sub))

    keys = sorted({x for a in arcs for x in a})
    order = [k for k in keys if k[0] == "n"] + [k for k in keys if k[0] == "leaf"]
    ids = {k: i for i, k in enumerate(order)}
    net = validate_network(
        [(ids[u], ids[v]) for u, v in arcs],
        {ids[("leaf", t)]: t for t in names},
        num_vertices=len(order),
        taxa=TaxonSet.of(names),
    )
    if not is_arboreal(net):
        raise ValueError("the grown network is not arboreal")
    return net


def _arboreal_with_retries(rng: random.Random, p: GenParams) -> Network:
    for _ in range(MAX_TRIES):
        try:
            return _build_arboreal(rng, p)
        except (ValueError, InvalidNetworkError):
            continue
    raise GenerationExhaustedError(f"no arboreal network within {MAX_TRIES} tries")


def random_arboreal_network(p: GenParams) -> Network:
    """Seeded random network whose underlying graph is a tree."""
    return _arboreal_with_retries(random.Random(p.seed), p)


def random_network(p: GenParams) -> Network:
    """Arboreal base plus extra hybrid arcs, each kept with `hybrid_bias`.

    An extra arc may only point at a vertex that already has a parent and
    may not close a directed cycle, so the result is always a valid network;
    bias 0 returns the base itself.
    """
    rng = random.Random(p.seed)
    base = _arboreal_with_retries(rng, p)
    if p.hybrid_bias <= 0.0:
        return base
    arcs = list(base.arcs)
    have = set(arcs)
    for u in base.vertices():
        if base.is_leaf(u):
            continue
        for v in base.vertices():
            if v == u or base.is_leaf(v) or base.indeg(v) == 0:
                continue
            if (u, v) in have or rng.random() >= p.hybrid_bias:
                continue
            if _reaches(arcs, v, u):
                continue
            arcs.append((u, v))
            have.add((u, v))
    return validate_network(
        sorted(arcs),
        dict(base.leaves),
        num_vertices=base.num_vertices,
        taxa=base.taxa,
    )


def _reaches(arcs: list, src: int, dst: int) -> bool:
    kids = {}
    for a, b in arcs:
        kids.setdefault(a, []).append(b)
    seen, stack = {src}, [src]
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        for w in kids.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def random_labelled_network(p: GenParams) -> LabelledNetwork:
    """Random arboreal network with branching vertices labelled uniformly."""
    rng = random.Random(p.seed)
    net = _arboreal_with_retries(rng, p)
    symbols = _alphabet(p.symbol_count)
    labels = {v: rng.choice(symbols) for v in net.vertices() if net.outdeg(v) >= 2}
    return LabelledNetwork.build(net, labels)


def random_symbolic_map(p: GenParams) -> SymbolicMap:
    """Pairs drawn independently: gap with `hybrid_bias`, else uniform symbol."""
    rng = random.Random(p.seed)
    taxa = TaxonSet.of(_taxon_names(rng.randint(*p.leaf_range)))
    symbols = _alphabet(p.symbol_count)
    entries = tuple(
        None if rng.random() < p.hybrid_bias else rng.choice(symbols)
        for _ in taxa.pairs()
    )
    return SymbolicMap(taxa, entries, tuple(symbols))


def random_connected_graph(n: int, seed: int, edge_prob: float = 0.5) -> UGraph:
    """Rejection-sampled connected graph on n vertices."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(seed)
    names = _taxon_names(n)
    for _ in range(MAX_TRIES):
        edges = [e for e in combinations(names, 2) if rng.random() < edge_prob]
        g = UGraph.build(names, edges)
        if is_connected(g):
            return g
    raise GenerationExhaustedError(f"no connected graph within {MAX_TRIES} tries")


# -- exhaustive enumerators ---------------------------------------------------


def enumerate_connected_graphs(n: int) -> Iterator[UGraph]:
    """All labelled connected graphs on n vertices, by edge-subset sweep.

    Connectivity is decided here by union-find, not by the library BFS, so
    the two notions can be played against each other.  Counts for n = 1..6:
    1, 1, 4, 38, 728, 26704.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > 6:
        raise TooLargeError("graph sweep capped at 6 vertices")
    names = list(ascii_lowercase[:n])
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        chosen = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in chosen:
            parent[find(a)] = find(b)
        if len({find(i) for i in range(n)}) == 1:
            yield UGraph.build(names, [(names[a], names[b]) for a, b in chosen])


def _set_partitions(items: tuple) -> Iterator[list]:
    """Every partition of `items` into non-empty blocks, each exactly once."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _tree_shapes(leaves: tuple) -> Iterator:
    """Rooted trees over `leaves` with all internal outdegrees >= 2, as
    nested ("leaf", x) / ("node", children) tuples."""
    if len(leaves) == 1:
        yield ("leaf", leaves[0])
        return
    for blocks in _set_partitions(leaves):
        if len(blocks) < 2:
            continue
        for kids in product(*[list(_tree_shapes(tuple(b))) for b in blocks]):
            yield ("node", tuple(kids))


def enumerate_labelled_trees(taxa, symbols) -> Iterator[LabelledNetwork]:
    """Every labelled single-rooted tree over `taxa`: all shapes times all
    assignments of `symbols` to internal vertices."""
    ts = taxa if isinstance(taxa, TaxonSet) else TaxonSet.of(taxa)
    syms = tuple(symbols)
    if len(ts) > 4 or len(syms) > 3:
        raise TooLargeError("tree sweep capped at 4 taxa and 3 symbols")
    if len(ts) < 2 or not syms:
        raise ValueError("need at least two taxa and one symbol")
    for shape in _tree_shapes(ts.taxa):
        arcs, leaf_names, internal = [], {}, []
        fresh = count()

        def walk(node) -> int:
            vid = next(fresh)
            kind, payload = node
            if kind == "leaf":
                leaf_names[vid] = payload
            else:
                internal.append(vid)
                for child in payload:
                    arcs.append((vid, walk(child)))
            return vid

        walk(shape)
        net = validate_network(
            arcs, leaf_names, num_vertices=next(fresh), taxa=ts
        )
        for labelling in product(syms, repeat=len(internal)):
            yield LabelledNetwork.build(net, dict(zip(internal, labelling)))


def _integer_partitions(m: int, cap: Optional[int] = None) -> Iterator[tuple]:
    if m == 0:
        yield ()
        return
    cap = m if cap is None else min(cap, m)
    for head in range(cap, 0, -1):
        for tail in _integer_partitions(m - head, head):
            yield (head,) + tail


def count_tree_shapes(n: int) -> int:
    """Number of rooted tree shapes on n labelled leaves, internal
    outdegrees >= 2, by a multinomial recurrence over child-block sizes.
    Gives 1, 1, 4, 26 for n = 1..4."""
    if n < 1:
        raise ValueError("need at least one leaf")
    memo = {1: 1}

    def at(m: int) -> int:
        if m not in memo:
            total = 0
            for part in _integer_partitions(m):
                if len(part) < 2:
                    continue
                ways = factorial(m)
                for s in part:
                    ways //= factorial(s)
                for mult in Counter(part).values():
                    ways //= factorial(mult)
                for s in part:
                    ways *= at(s)
                total += ways
            memo[m] = total
        return memo[m]

    return at(n)


# -- brute-force references ---------------------------------------------------


def brute_force_minimal_common_ancestors(net: Network, x: str, y: str) -> frozenset:
    """Minimal common ancestors of two leaves, with reachability recomputed
    here by plain stack walks over the arc list."""
    pars, kids = {}, {}
    for u, v in net.arcs:
        pars.setdefault(v, []).append(u)
        kids.setdefault(u, []).append(v)

    def above(v0: int) -> set:
        seen, stack = {v0}, [v0]
        while stack:
            v = stack.pop()
            for p in pars.get(v, ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    common = above(net.leaf_vertex(x)) & above(net.leaf_vertex(y))
    return frozenset(
        v for v in common if not any(c in common for c in kids.get(v, ()))
    )


def brute_is_chordal(g: UGraph) -> bool:
    """No subset induces a chordless cycle of length four or more.

    A subset induces such a cycle iff every induced degree is exactly two
    and the induced graph is connected.
    """
    verts = g.taxa.taxa
    if len(verts) > 10:
        raise TooLargeError("chordality sweep capped at 10 vertices")
    for size in range(4, len(verts) + 1):
        for sub in combinations(verts, size):
            inside = set(sub)
            if any(len(g.neighbors(v) & inside) != 2 for v in sub):
                continue
            seen, stack = {sub[0]}, [sub[0]]
            while stack:
                v = stack.pop()
                for w in g.neighbors(v) & inside:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == size:
                return False
    return True


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


def hole_by_pair_search(g: UGraph) -> Optional[tuple[str, ...]]:
    """Some chordless cycle of length >= 4 as a vertex tuple, else None.

    For every vertex v with two non-adjacent neighbors a, b, a shortest a-b
    path avoiding the rest of v's closed neighborhood closes a chordless
    cycle through v; no such path anywhere means the graph is chordal.
    """
    for v in g.taxa:
        around = g.neighbors(v) | {v}
        for a, b in combinations(g.taxa.sorted(g.neighbors(v)), 2):
            if g.has_edge(a, b):
                continue
            # breadth first from a, neighbours in taxon order
            prev = {a: None}
            queue = deque([a])
            while queue and b not in prev:
                w = queue.popleft()
                for x in g.taxa.sorted(g.neighbors(w)):
                    if x not in prev and (x == b or x not in around):
                        prev[x] = w
                        queue.append(x)
            if b in prev:
                path = [b]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return (v, *reversed(path))
    return None


def gem_by_subset_scan(g: UGraph) -> Optional[tuple[str, ...]]:
    """First five vertices (canonical order) inducing a gem, else None.

    A gem is a four-vertex path plus an apex adjacent to all four path
    vertices.  Five vertices induce one exactly when their induced degrees
    are 2, 2, 3, 3, 4: the degree-4 vertex is the apex, and three edges on
    the other four with degrees 1, 1, 2, 2 force a path.  This scans every
    5-subset, O(n^5).
    """
    adj = g.adj
    for sub in combinations(range(len(adj)), 5):
        mask = sum(1 << i for i in sub)
        if sorted((adj[i] & mask).bit_count() for i in sub) == [2, 2, 3, 3, 4]:
            return tuple(g.taxa.taxa[i] for i in sub)
    return None


def is_ptolemaic_by_gem(g: UGraph) -> bool:
    """Forbidden-subgraph reference: no hole by the pair search and no
    induced gem by the O(n^5) scan of every 5-subset."""
    return hole_by_pair_search(g) is None and gem_by_subset_scan(g) is None


def brute_maximal_cliques(g: UGraph) -> frozenset:
    """All inclusion-maximal cliques of size >= 2, by subset sweep."""
    verts = g.taxa.taxa
    if len(verts) > 12:
        raise TooLargeError("clique sweep capped at 12 vertices")
    out = set()
    for size in range(2, len(verts) + 1):
        for sub in combinations(verts, size):
            if not all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                continue
            if any(
                all(g.has_edge(v, u) for u in sub)
                for v in verts
                if v not in sub
            ):
                continue
            out.add(frozenset(sub))
    return frozenset(out)


def brute_transitive_reduction(sets: Iterable[frozenset]) -> frozenset:
    """Cover pairs (a, b) of a family ordered by strict inclusion: b < a
    with nothing strictly between."""
    fam = [frozenset(s) for s in sets]
    return frozenset(
        (a, b)
        for a in fam
        for b in fam
        if b < a and not any(b < c < a for c in fam)
    )


def subset_intersection_closure(sets: Iterable[frozenset]) -> frozenset:
    """Non-empty intersections over every non-empty subfamily, directly.

    A depth-first walk visits each subfamily once, as an increasing run of
    member positions, carrying the meet of the run as a bitmask over the
    elements; no subfamily is skipped, whatever its meet.
    """
    fam = [frozenset(s) for s in sets]
    if len(fam) > 20:
        raise TooLargeError("closure sweep capped at 20 members")
    elements = list(frozenset().union(*fam))
    bits = [sum(1 << i for i, x in enumerate(elements) if x in s) for s in fam]
    meets = set()
    stack = [((1 << len(elements)) - 1, 0)]  # (meet of a run, next position)
    while stack:
        meet, start = stack.pop()
        for j in range(start, len(bits)):
            m = meet & bits[j]
            meets.add(m)
            if j + 1 < len(bits):
                stack.append((m, j + 1))
    meets.discard(0)
    return frozenset(
        frozenset(x for i, x in enumerate(elements) if m >> i & 1) for m in meets
    )


def _cliques_of_size_two_plus(g: UGraph) -> list:
    verts = g.taxa.taxa
    out = []
    for size in range(2, len(verts) + 1):
        for sub in combinations(verts, size):
            if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                out.append(frozenset(sub))
    return out


def _edge_bits(g: UGraph, s: frozenset, index: dict) -> int:
    members = g.taxa.sorted(s)
    bits = 0
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            bits |= 1 << index[(a, b)]
    return bits


def enumerate_edge_clique_covers(g: UGraph, max_size: int) -> frozenset:
    """Every edge clique cover of at most `max_size` members, as a frozenset
    of families.  Branches on the first uncovered edge, so each cover is
    reached; a set collapses the different discovery orders."""
    if len(g.taxa) > 8:
        raise TooLargeError("cover sweep capped at 8 vertices")
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    cliques = _cliques_of_size_two_plus(g)
    masks = [_edge_bits(g, s, index) for s in cliques]
    by_edge = [
        [ci for ci, m in enumerate(masks) if m >> ei & 1]
        for ei in range(len(edges))
    ]
    full = (1 << len(edges)) - 1
    found = set()

    def dig(covered: int, chosen: tuple):
        if covered == full:
            found.add(frozenset(cliques[ci] for ci in chosen))
            return
        if len(chosen) == max_size:
            return
        first = next(ei for ei in range(len(edges)) if not covered >> ei & 1)
        for ci in by_edge[first]:
            if ci in chosen:
                continue
            dig(covered | masks[ci], chosen + (ci,))

    dig(0, ())
    return frozenset(found)


def enumerate_antichain_covers(g: UGraph) -> frozenset:
    """Every edge clique cover none of whose members contains another."""
    if len(g.taxa) > 8:
        raise TooLargeError("cover sweep capped at 8 vertices")
    edges = g.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    cliques = _cliques_of_size_two_plus(g)
    masks = [_edge_bits(g, s, index) for s in cliques]
    by_edge = [
        [ci for ci, m in enumerate(masks) if m >> ei & 1]
        for ei in range(len(edges))
    ]
    full = (1 << len(edges)) - 1
    found = set()

    def dig(covered: int, chosen: tuple):
        if covered == full:
            found.add(frozenset(cliques[ci] for ci in chosen))
            return
        first = next(ei for ei in range(len(edges)) if not covered >> ei & 1)
        for ci in by_edge[first]:
            if any(
                cliques[ci] <= cliques[cj] or cliques[cj] <= cliques[ci]
                for cj in chosen
            ):
                continue
            dig(covered | masks[ci], chosen + (ci,))

    dig(0, ())
    return frozenset(found)


def delta_by_triple_scan(d: SymbolicMap) -> Optional[tuple]:
    """First triple (canonical order) carrying three distinct symbols and no
    gap, else None."""
    for x, y, z in combinations(d.taxa.taxa, 3):
        vals = {d.value(x, y), d.value(x, z), d.value(y, z)}
        if None not in vals and len(vals) == 3:
            return (x, y, z)
    return None


def pi_by_quad_scan(d: SymbolicMap) -> Optional[tuple]:
    """Witness (x, y, z, u) with d(x,y)=d(y,z)=d(z,u) != d(z,x)=d(x,u)=d(u,y)
    and no gap, from the first quadruple (canonical order), else None.

    In a gap-free quadruple split 3/3 between two symbols, the pattern holds
    exactly when one symbol class forms a path on the four taxa (three edges
    with two endpoints); the other class is then its complement, which is
    again a path crossing the first.
    """
    for quad in combinations(d.taxa.taxa, 4):
        classes: dict = {}
        for a, b in combinations(quad, 2):
            classes.setdefault(d.value(a, b), []).append((a, b))
        if None in classes or len(classes) != 2:
            continue
        pairs = classes[min(classes)]
        if len(pairs) != 3:
            continue
        adj = {t: [] for t in quad}
        for a, b in pairs:
            adj[a].append(b)
            adj[b].append(a)
        ends = sorted(t for t in quad if len(adj[t]) == 1)
        if len(ends) != 2:
            continue  # a triangle plus an isolated taxon, or a star
        x = ends[0]
        y = adj[x][0]
        z = next(t for t in adj[y] if t != x)
        u = next(t for t in adj[z] if t != y)
        return (x, y, z, u)
    return None


def a4_by_quad_scan(d: SymbolicMap) -> Optional[tuple]:
    """Witness (x, y, z, u) whose only gap pair is {z, u} while x and y
    disagree on z or on u, from the first quadruple (canonical order), else
    None."""
    for quad in combinations(d.taxa.taxa, 4):
        gaps = [(a, b) for a, b in combinations(quad, 2) if d.value(a, b) is None]
        if len(gaps) != 1:
            continue
        z, u = gaps[0]
        x, y = (t for t in quad if t != z and t != u)
        if d.value(x, z) != d.value(y, z) or d.value(x, u) != d.value(y, u):
            return (x, y, z, u)
    return None


def verdict_by_scans(d: SymbolicMap) -> Optional[Violation]:
    """The first explainability condition `d` fails, decided by the scans
    alone, or None: connectivity, then the ptolemaic witness, then this
    module's delta, pi and a4 scans, in that order.

    This is the reference for `symbolic.explain`, which decides by building
    a network and scans only to name a witness; nothing here builds or
    evaluates one.
    """
    g = graph_of_map(d)
    comps = connected_components(g)
    if len(comps) > 1:
        return Violation(NOT_CONNECTED, comps[0], f"support graph has {len(comps)} components")
    witness = ptolemaic_witness(g)
    if witness is not None:
        kind, vertices = witness
        shape = "chordless cycle" if kind == "hole" else "induced gem"
        return Violation(NOT_PTOLEMAIC, vertices, f"{shape} in the support graph")
    triple = delta_by_triple_scan(d)
    if triple is not None:
        return Violation(DELTA, triple, "three distinct symbols on one triple")
    quad = pi_by_quad_scan(d)
    if quad is not None:
        return Violation(PI, quad, "two symbols crossing on a quadruple")
    quad = a4_by_quad_scan(d)
    if quad is not None:
        return Violation(A4, quad, "gap pair with disagreeing co-neighbors")
    return None


# -- planted violations -------------------------------------------------------

PLANT_KINDS = ("hole", "gem", "delta", "pi", "a4")
# hole plants need a support graph of diameter >= 3, gem and a4 plants need
# gaps; delta plants need three symbols, the others use two so that no delta
# can arise
_PLANT_ROOTS = {"hole": (4, 8), "gem": (2, 6), "delta": (1, 6), "pi": (1, 6), "a4": (2, 6)}


def _quad_pattern(value, quad: tuple) -> Optional[str]:
    """"pi" or "a4" when the four taxa show that pattern under `value`,
    else None."""
    pairs = list(combinations(quad, 2))
    vals = [value(a, b) for a, b in pairs]
    gaps = [p for p, v in zip(pairs, vals) if v is None]
    if len(gaps) == 1:
        z, u = gaps[0]
        x, y = (t for t in quad if t not in (z, u))
        return "a4" if value(x, z) != value(y, z) or value(x, u) != value(y, u) else None
    if gaps or len(set(vals)) != 2:
        return None
    degree = Counter(t for p, v in zip(pairs, vals) if v == vals[0] for t in p)
    return "pi" if sorted(degree.values()) == [1, 1, 2, 2] else None


def _plant(rng: random.Random, d: SymbolicMap, kind: str) -> Optional[SymbolicMap]:
    """`d` with one pair changed so that it fails the condition `kind` and
    none that `explain` tests earlier, or None when no pair does.

    `d` is explainable, so every new hole, gem, delta, pi or a4 pattern
    contains the changed pair {x, y}, and each test below looks only there.
    A gap pair at support distance >= 3 closes a hole.  A gap pair at
    distance 2 whose common neighbors W separate x from y keeps the support
    chordal, and it closes a gem when some w in W sees a path a-x-y-b.
    """
    g = graph_of_map(d)
    taxa = d.taxa.taxa
    symbols = sorted({v for v in d.entries if v is not None})
    pairs = list(d.taxa.pairs())
    rng.shuffle(pairs)
    for x, y in pairs:
        old = d.value(x, y)
        others = [t for t in taxa if t not in (x, y)]
        if kind in ("hole", "gem"):
            if old is not None:
                continue
            dist = bfs_distances(g, x).get(y)
            if kind == "hole" and dist is not None and dist >= 3:
                return _changed(d, x, y, rng.choice(symbols))
            if kind == "gem" and dist == 2:
                common = g.neighbors(x) & g.neighbors(y)
                reached, stack = {x}, [x]
                while stack:
                    fresh = g.neighbors(stack.pop()) - common - reached
                    reached |= fresh
                    stack.extend(fresh)
                if y in reached:
                    continue
                for w in sorted(common):
                    ends_x = (g.neighbors(w) & g.neighbors(x)) - g.neighbors(y) - {y}
                    ends_y = (g.neighbors(w) & g.neighbors(y)) - g.neighbors(x) - {x}
                    if any(not g.has_edge(a, b) for a in ends_x for b in ends_y):
                        return _changed(d, x, y, rng.choice(symbols))
            continue
        if old is None:
            continue
        if kind == "a4":
            # a taxon u that only one of x and y sees, and a taxon that sees
            # x, y and u, make an a4 pattern of any new value of d(x, y)
            seen_x, seen_y = g.neighbors(x), g.neighbors(y)
            if not any(seen_x & seen_y & g.neighbors(u) for u in (seen_x ^ seen_y) - {x, y}):
                continue
        for new in symbols:
            if new == old:
                continue
            e = _changed(d, x, y, new)
            delta = any(
                len({new, e.value(x, z), e.value(y, z)} - {None}) == 3 for z in others
            )
            if kind == "delta":
                if delta:
                    return e
                continue
            if delta:
                continue
            quads = [(x, y, z, u) for z, u in combinations(others, 2)]
            pi = any(_quad_pattern(e.value, q) == "pi" for q in quads)
            if kind == "pi" and pi:
                return e
            if kind == "a4" and not pi and any(_quad_pattern(e.value, q) == "a4" for q in quads):
                return e
    return None


def _changed(d: SymbolicMap, x: str, y: str, value) -> SymbolicMap:
    entries = list(d.entries)
    entries[list(d.taxa.pairs()).index(d.taxa.pair(x, y))] = value
    return SymbolicMap(d.taxa, tuple(entries))


def planted_map(n: int, kind: str, seed: int) -> SymbolicMap:
    """A map of `n` taxa that fails the explainability condition `kind` (one
    of `PLANT_KINDS`) and none that `explain` tests before it: the map of a
    seeded `random_labelled_network` draw with one pair changed."""
    if kind not in _PLANT_ROOTS:
        raise ValueError(f"kind must be one of {PLANT_KINDS}, got {kind!r}")
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        p = GenParams(
            leaf_range=(n, n),
            root_range=_PLANT_ROOTS[kind],
            symbol_count=3 if kind == "delta" else 2,
            seed=rng.randrange(1 << 30),
        )
        planted = _plant(rng, evaluate_map(random_labelled_network(p)), kind)
        if planted is not None:
            return planted
    raise GenerationExhaustedError(f"no {kind} plant within {MAX_TRIES} draws")


# -- inverse collapses --------------------------------------------------------


def random_uncollapse(ln: LabelledNetwork, seed: int) -> Optional[LabelledNetwork]:
    """Stretch a labelled network without changing the map it induces.

    Two moves, each the inverse of one collapse step: push some children of
    a branching vertex down into a fresh equally-labelled child, or pull the
    parents of a branching hybrid up into a fresh outdegree-1 vertex.  Both
    leave the induced map fixed and make the result non-discriminating.
    Returns None when neither move applies anywhere.
    """
    net = ln.net
    if not is_arboreal(net):
        raise NotArborealError("inverse collapses are defined on trees only")
    rng = random.Random(seed)
    nxt = net.num_vertices
    kids = {v: list(net.children(v)) for v in net.vertices()}
    pars = {v: list(net.parents(v)) for v in net.vertices()}
    labels = {v: s for v, s in ln.labels}

    moves = 0
    for _ in range(rng.randint(1, 3)):
        wide = sorted(v for v in kids if len(kids[v]) >= 3)
        deep = sorted(
            v for v in kids if len(pars[v]) >= 2 and len(kids[v]) >= 2
        )
        if not wide and not deep:
            break
        if wide and (not deep or rng.random() < 0.5):
            w = rng.choice(wide)
            block = rng.sample(sorted(kids[w]), rng.randint(2, len(kids[w]) - 1))
            v = nxt
            nxt += 1
            kids[v] = list(block)
            pars[v] = [w]
            kids[w] = [c for c in kids[w] if c not in block] + [v]
            for c in block:
                pars[c] = [q for q in pars[c] if q != w] + [v]
            labels[v] = labels[w]
        else:
            h = rng.choice(deep)
            lifted = rng.sample(sorted(pars[h]), rng.randint(2, len(pars[h])))
            u = nxt
            nxt += 1
            pars[u] = list(lifted)
            kids[u] = [h]
            pars[h] = [q for q in pars[h] if q not in lifted] + [u]
            for q in lifted:
                kids[q] = [c for c in kids[q] if c != h] + [u]
        moves += 1

    if moves == 0:
        return None
    arcs = sorted((u, v) for u in kids for v in kids[u])
    grown = validate_network(
        arcs,
        dict(net.leaves),
        num_vertices=nxt,
        taxa=net.taxa,
    )
    return LabelledNetwork.build(grown, labels)
