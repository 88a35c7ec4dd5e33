"""Seeded generators for the benchmark's inputs.

Everything here is plain Python on plain values: a network is a `Net` of
integer vertices, and documents are the JSON-ready dicts the `arboreal` CLI
reads.  Nothing imports the program under test, so a change to the program
cannot change the inputs, and one seed always yields the same documents.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

SYMBOLS = ("a", "b", "c")


@dataclass
class Net:
    """A network on vertices 0..n-1; `taxon` names the sinks, `labels` the
    vertices of outdegree two or more (empty when unlabelled)."""

    n: int
    arcs: list
    taxon: dict
    labels: dict = field(default_factory=dict)

    def kids(self) -> list:
        out = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return out

    def pars(self) -> list:
        out = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[v].append(u)
        return out


def taxon_names(n: int) -> list:
    return [f"t{i:03d}" for i in range(1, n + 1)]


# -- shapes -------------------------------------------------------------------


def _grow(rng: random.Random, leaves: list, shape: str, new_vertex, arcs: list):
    """Hang a tree over `leaves` (every internal vertex branching) and return
    its top.  Iterative, so deep shapes never touch the recursion limit.

    `random` splits each group into 2..k random blocks; `caterpillar` peels
    one leaf per level; `deep` peels a small block per level, so ancestry
    runs long but the side branches are little trees themselves.
    """
    top = new_vertex(leaves[0] if len(leaves) == 1 else None)
    work = [(top, leaves)]
    while work:
        node, group = work.pop()
        if len(group) == 1:
            continue
        if shape == "caterpillar":
            blocks = [group[:1], group[1:]]
        elif shape == "deep":
            cut = min(len(group) - 1, rng.randint(1, 6))
            blocks = [group[:cut], group[cut:]]
        else:
            pool = group[:]
            rng.shuffle(pool)
            k = rng.randint(2, min(len(pool), 4))
            cuts = sorted(rng.sample(range(1, len(pool)), k - 1))
            blocks = [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]
        for block in blocks:
            child = new_vertex(block[0] if len(block) == 1 else None)
            arcs.append((node, child))
            work.append((child, block))
    return top


def arboreal_network(rng: random.Random, n: int, roots: int, shape: str = "random") -> Net:
    """Random network on `n` taxa with `roots` roots whose underlying graph is
    a tree.

    The first root carries a tree over at least two taxa.  Every further root
    carries its own tree and sends one arc into what exists: onto an inner
    vertex that already has a parent (a hybrid), or onto a new vertex that
    subdivides an existing arc.  Each root adds one component and one joining
    arc, so the underlying graph stays a tree.
    """
    roots = max(1, min(roots, n - 1))
    names = taxon_names(n)
    pool = names[:]
    rng.shuffle(pool)
    if shape == "random":
        sizes = [2] + [1] * (roots - 1)
        for _ in range(n - sum(sizes)):
            sizes[rng.randrange(roots)] += 1
    else:
        # deep shapes keep all but a few taxa under the first root, so
        # ancestry runs long; the later roots hang little trees into it
        small = 1 if shape == "caterpillar" else 2
        sizes = [n - small * (roots - 1)] + [small] * (roots - 1)
    arcs: list = []
    taxon: dict = {}
    count = [0]

    def new_vertex(leaf):
        v = count[0]
        count[0] += 1
        if leaf is not None:
            taxon[v] = leaf
        return v

    at = 0
    for i, size in enumerate(sizes):
        block = pool[at:at + size]
        at += size
        if i == 0:
            _grow(rng, block, shape, new_vertex, arcs)
            continue
        has_parent = {v for _, v in arcs}
        inner = sorted(v for v in has_parent if v not in taxon)
        root = new_vertex(None)
        if inner and rng.random() < 0.5:
            target = rng.choice(inner)
        else:
            u, w = arcs.pop(rng.randrange(len(arcs)))
            target = new_vertex(None)
            arcs += [(u, target), (target, w)]
        arcs.append((root, target))
        arcs.append((root, _grow(rng, block, shape, new_vertex, arcs)))
    return Net(count[0], arcs, taxon)


def label(rng: random.Random, net: Net, symbols: int, repeat: float = 0.0) -> Net:
    """Label every vertex of outdegree >= 2 with one of the first `symbols`
    symbols; with probability `repeat` a vertex copies the label of a
    labelled parent, which makes the second folding rule fire."""
    kids, pars = net.kids(), net.pars()
    alphabet = SYMBOLS[:symbols]
    labels: dict = {}
    for v in topological(net):
        if len(kids[v]) < 2:
            continue
        above = [labels[p] for p in pars[v] if p in labels]
        if above and rng.random() < repeat:
            labels[v] = rng.choice(above)
        else:
            labels[v] = rng.choice(alphabet)
    net.labels = labels
    return net


def stretch(rng: random.Random, net: Net, share: float) -> Net:
    """Split a `share` of the hybrids that branch into a hybrid of outdegree
    one over a fresh copy that takes its children and its label, so that the
    first folding rule fires there."""
    kids, pars = net.kids(), net.pars()
    arcs = list(net.arcs)
    labels = dict(net.labels)
    n = net.n
    for v in range(net.n):
        if len(pars[v]) >= 2 and len(kids[v]) >= 2 and rng.random() < share:
            copy = n
            n += 1
            arcs = [(copy if u == v else u, w) for u, w in arcs]
            arcs.append((v, copy))
            labels[copy] = labels.pop(v)
    return Net(n, arcs, dict(net.taxon), labels)


def topological(net: Net) -> list:
    kids, pars = net.kids(), net.pars()
    pending = [len(p) for p in pars]
    order = [v for v in range(net.n) if not pending[v]]
    for v in order:
        for c in kids[v]:
            pending[c] -= 1
            if not pending[c]:
                order.append(c)
    return order


def shuffled(rng: random.Random, net: Net) -> Net:
    """The same network under a random renumbering of its vertices and a
    random renaming of its taxa, so that neither carries a trace of how the
    shape was grown."""
    perm = list(range(net.n))
    rng.shuffle(perm)
    names = sorted(net.taxon.values())
    rename = dict(zip(names, rng.sample(names, len(names))))
    return Net(
        net.n,
        sorted((perm[u], perm[v]) for u, v in net.arcs),
        {perm[v]: rename[t] for v, t in net.taxon.items()},
        {perm[v]: s for v, s in net.labels.items()},
    )


def with_hybrid_arcs(rng: random.Random, net: Net, extra: int) -> Net:
    """Add up to `extra` arcs between inner vertices, each onto a vertex that
    already has a parent and never closing a directed cycle, so the result
    is a valid network whose underlying graph is no longer a tree."""
    arcs = list(net.arcs)
    have = set(arcs)
    pars = net.pars()
    inner = [v for v in range(net.n) if v not in net.taxon]
    targets = [v for v in inner if pars[v]]
    for _ in range(extra * 4):
        if extra == 0 or not targets:
            break
        u, v = rng.choice(inner), rng.choice(targets)
        if u == v or (u, v) in have or _reaches(arcs, v, u, net.n):
            continue
        arcs.append((u, v))
        have.add((u, v))
        extra -= 1
    return Net(net.n, arcs, dict(net.taxon))


def _reaches(arcs: list, src: int, dst: int, n: int) -> bool:
    kids = [[] for _ in range(n)]
    for a, b in arcs:
        kids[a].append(b)
    seen, stack = {src}, [src]
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        for w in kids[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def random_graph(rng: random.Random, n: int, p: float) -> tuple:
    """G(n, p) on `n` taxa, made connected by joining each later component to
    a random earlier vertex.  Returns (taxa, edge set of sorted pairs)."""
    names = taxon_names(n)
    edges = {e for e in combinations(names, 2) if rng.random() < p}
    adj = {t: set() for t in names}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set = set()
    for t in names:
        if t in seen:
            continue
        comp = {t}
        stack = [t]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        if seen:
            other = rng.choice(sorted(seen))
            edges.add(tuple(sorted((t, other))))
        seen |= comp
    return names, edges


# -- documents ----------------------------------------------------------------


def network_doc(net: Net) -> dict:
    doc = {
        "vertices": net.n,
        "arcs": [list(a) for a in sorted(net.arcs)],
        "leaves": {str(v): t for v, t in sorted(net.taxon.items())},
    }
    if net.labels:
        doc["labels"] = {str(v): s for v, s in sorted(net.labels.items())}
    return doc


def map_doc(taxa: list, values: dict, symbols) -> dict:
    """`values` maps frozenset pairs to a symbol or None (the gap)."""
    return {
        "taxa": list(taxa),
        "symbols": sorted(symbols),
        "values": [[a, b, values[frozenset((a, b))]] for a, b in combinations(taxa, 2)],
    }


def graph_doc(taxa: list, edges) -> dict:
    return {"taxa": list(taxa), "edges": [list(e) for e in sorted(edges)]}
