"""Independent reference computations and the output checks built on them.

Nothing here imports the program under test.  Documents are read as plain
JSON values and every property is recomputed from its definition, so a
fault in the program cannot hide itself by also bending the check.
"""
from __future__ import annotations

from collections import deque
from itertools import combinations

from gen import Net


class CheckFailed(Exception):
    """An output does not have a property the method guarantees."""


def need(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


# -- networks -----------------------------------------------------------------


def read_network(doc, labelled: bool) -> Net:
    """Parse a network document and check the shape rules: acyclic,
    connected, roots branch, sinks have one parent, nothing passes straight
    through, the sinks are named bijectively, and (when `labelled`) exactly
    the vertices of outdegree >= 2 carry a symbol."""
    need(isinstance(doc, dict), "network document is not an object")
    n = doc.get("vertices")
    need(isinstance(n, int) and n > 0, "bad vertex count")
    arcs = [tuple(a) for a in doc.get("arcs", ())]
    need(all(len(a) == 2 and all(isinstance(x, int) and 0 <= x < n for x in a) for a in arcs),
         "arc endpoint out of range")
    need(len(set(arcs)) == len(arcs) and all(u != v for u, v in arcs), "repeated arc or loop")
    taxon = {int(v): t for v, t in doc.get("leaves", {}).items()}
    net = Net(n, arcs, taxon)
    kids, pars = net.kids(), net.pars()

    pending = [len(p) for p in pars]
    order = [v for v in range(n) if not pending[v]]
    for v in order:
        for c in kids[v]:
            pending[c] -= 1
            if not pending[c]:
                order.append(c)
    need(len(order) == n, "directed cycle")
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in kids[v] + pars[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    need(len(seen) == n, "underlying graph disconnected")
    for v in range(n):
        need(pars[v] or len(kids[v]) >= 2, f"root {v} does not branch")
        need(kids[v] or len(pars[v]) == 1, f"sink {v} has {len(pars[v])} parents")
        need(not (len(kids[v]) == 1 and len(pars[v]) == 1), f"vertex {v} passes through")
    need(set(taxon) == {v for v in range(n) if not kids[v]}, "leaf naming is not the sinks")
    need(len(set(taxon.values())) == len(taxon), "taxon named twice")
    if labelled:
        labels = {int(v): s for v, s in doc.get("labels", {}).items()}
        need(set(labels) == {v for v in range(n) if len(kids[v]) >= 2},
             "labels are not exactly on the branching vertices")
        need(all(isinstance(s, str) and s for s in labels.values()), "empty label")
        net.labels = labels
    return net


def is_tree(net: Net) -> bool:
    """Underlying graph a tree; `net` is connected, so an edge count decides."""
    return len(net.arcs) == net.n - 1


def lca_values(net: Net) -> dict:
    """The map a labelled arboreal network induces, as {frozenset pair: value}.

    Two taxa share an ancestor exactly when the unique path between them in
    the underlying tree climbs first and then descends; its turning vertex is
    then the unique least common ancestor.  So one walk from every leaf that
    never climbs after descending finds every value; leaves it cannot reach
    get the gap (None).
    """
    need(is_tree(net), "underlying graph is not a tree")
    kids, pars = net.kids(), net.pars()
    taxa = sorted(net.taxon.values())
    values = {frozenset(p): None for p in combinations(taxa, 2)}
    for leaf, x in net.taxon.items():
        # (vertex, came_from, turning vertex or None while still climbing)
        stack = [(leaf, None, None)]
        while stack:
            v, back, turn = stack.pop()
            if v != leaf and v in net.taxon:
                values[frozenset((x, net.taxon[v]))] = net.labels[turn]
                continue
            if turn is None:
                stack.extend((p, v, None) for p in pars[v] if p != back)
            for c in kids[v]:
                if c != back:
                    stack.append((c, v, v if turn is None else turn))
    return values


def shared_ancestry_edges(net: Net) -> set:
    """Pairs of taxa with a common ancestor, from ancestor bitmasks."""
    pars = net.pars()
    anc = [0] * net.n
    pending = [len(p) for p in pars]
    kids = net.kids()
    order = [v for v in range(net.n) if not pending[v]]
    for v in order:
        anc[v] |= 1 << v
        for c in kids[v]:
            anc[c] |= anc[v]
            pending[c] -= 1
            if not pending[c]:
                order.append(c)
    leaves = sorted(net.taxon.items(), key=lambda vt: vt[1])
    return {
        (x, y)
        for (u, x), (w, y) in combinations(leaves, 2)
        if anc[u] & anc[w]
    }


def root_clusters(net: Net) -> list:
    """Taxon set below each root."""
    kids, pars = net.kids(), net.pars()
    out = []
    for r in range(net.n):
        if pars[r]:
            continue
        below, stack = {r}, [r]
        while stack:
            for c in kids[stack.pop()]:
                if c not in below:
                    below.add(c)
                    stack.append(c)
        out.append(frozenset(net.taxon[v] for v in below if v in net.taxon))
    return out


def discriminating_fault(net: Net):
    """None if neither folding rule applies, else a description of an arc
    one of them would fold."""
    kids, pars = net.kids(), net.pars()
    for u, v in net.arcs:
        if v in net.taxon:
            continue
        if len(kids[u]) == 1:
            return f"arc {u}->{v} leaves a vertex of outdegree one"
        if len(pars[v]) == 1 and net.labels[u] == net.labels[v]:
            return f"arc {u}->{v} repeats label {net.labels[u]!r}"
    return None


# -- graphs -------------------------------------------------------------------


def adjacency(taxa, edges) -> dict:
    adj = {t: set() for t in taxa}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def maximal_cliques(adj: dict) -> set:
    """Maximal cliques of size >= 2 by Bron-Kerbosch with Tomita's pivot,
    written with an explicit stack over Python sets."""
    found = set()
    stack = [(frozenset(), set(adj), set())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            if len(r) >= 2:
                found.add(r)
            continue
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            stack.append((r | {v}, p & adj[v], x & adj[v]))
            p = p - {v}
            x = x | {v}
    return found


def is_chordal(adj: dict) -> bool:
    """Maximum cardinality search, then the perfect-elimination test."""
    weight = {v: 0 for v in adj}
    order = []
    left = set(adj)
    while left:
        v = max(sorted(left), key=lambda w: weight[w])
        left.discard(v)
        order.append(v)
        for w in adj[v]:
            if w in left:
                weight[w] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [w for w in adj[v] if pos[w] < pos[v]]
        if earlier:
            last = max(earlier, key=pos.get)
            if any(w != last and w not in adj[last] for w in earlier):
                return False
    return True


def distances_from(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_gem(adj: dict, five) -> bool:
    """Five taxa inducing a four-vertex path plus an apex joined to all four."""
    if len(set(five)) != 5:
        return False
    for apex in five:
        rest = [v for v in five if v != apex]
        if not all(v in adj[apex] for v in rest):
            continue
        inner = [(a, b) for a, b in combinations(rest, 2) if b in adj[a]]
        deg = sorted(sum(v in e for e in inner) for v in rest)
        if len(inner) == 3 and deg == [1, 1, 2, 2]:
            return True
    return False


def is_hole(adj: dict, cycle) -> bool:
    """A chordless cycle of length >= 4, listed in cycle order."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or any(v not in adj for v in cycle):
        return False
    for i, j in combinations(range(k), 2):
        consecutive = j - i == 1 or (i == 0 and j == k - 1)
        if (cycle[j] in adj[cycle[i]]) != consecutive:
            return False
    return True


# -- symbolic maps and their violations ---------------------------------------


def read_map(doc) -> tuple:
    """(taxa, {frozenset pair: value}) from a map document."""
    need(isinstance(doc, dict), "map document is not an object")
    taxa = list(doc["taxa"])
    values = {frozenset(p): None for p in combinations(taxa, 2)}
    for a, b, v in doc["values"]:
        values[frozenset((a, b))] = v
    return taxa, values


def is_delta(d: dict, w) -> bool:
    if len(w) != 3 or len(set(w)) != 3:
        return False
    x, y, z = w
    vals = {d[frozenset((x, y))], d[frozenset((x, z))], d[frozenset((y, z))]}
    return None not in vals and len(vals) == 3


def is_pi(d: dict, w) -> bool:
    """d(x,y)=d(y,z)=d(z,u) differs from d(z,x)=d(x,u)=d(u,y), no gap."""
    if len(w) != 4 or len(set(w)) != 4:
        return False
    x, y, z, u = w
    along = {d[frozenset(p)] for p in ((x, y), (y, z), (z, u))}
    cross = {d[frozenset(p)] for p in ((z, x), (x, u), (u, y))}
    return len(along) == 1 == len(cross) and None not in along | cross and along != cross


def is_a4(d: dict, w) -> bool:
    """{z,u} is the only gap pair and x, y disagree on z or on u."""
    if len(w) != 4 or len(set(w)) != 4:
        return False
    x, y, z, u = w
    if d[frozenset((z, u))] is not None:
        return False
    if any(d[frozenset(p)] is None for p in ((x, y), (x, z), (y, z), (x, u), (y, u))):
        return False
    return (d[frozenset((x, z))] != d[frozenset((y, z))]
            or d[frozenset((x, u))] != d[frozenset((y, u))])


def pi_pattern(d: dict, four):
    """The four taxa in pi order if they carry the pattern, else None: no
    gap, two values on three pairs each, one class a path (whose complement
    is then the crossing path)."""
    classes: dict = {}
    for a, b in combinations(four, 2):
        classes.setdefault(d[frozenset((a, b))], []).append((a, b))
    if None in classes or sorted(map(len, classes.values())) != [3, 3]:
        return None
    path = next(iter(classes.values()))
    nbrs = {t: [b if a == t else a for a, b in path if t in (a, b)] for t in four}
    ends = [t for t in four if len(nbrs[t]) == 1]
    if len(ends) != 2:
        return None  # a star or a triangle, not a path
    order = [ends[0], nbrs[ends[0]][0]]
    while len(order) < 4:
        order.append(next(t for t in nbrs[order[-1]] if t != order[-2]))
    return tuple(order) if is_pi(d, order) else None


def a4_pattern(d: dict, four):
    """The four taxa in a4 order (x, y, z, u) if they carry the pattern."""
    gaps = [p for p in combinations(four, 2) if d[frozenset(p)] is None]
    if len(gaps) != 1:
        return None
    z, u = gaps[0]
    x, y = (t for t in four if t not in (z, u))
    return (x, y, z, u) if is_a4(d, (x, y, z, u)) else None


def separates(taxa, d: dict, w) -> bool:
    """`w` is a non-empty proper subset with only gaps towards the rest."""
    inside = set(w)
    if not inside or len(inside) != len(w) or len(inside) >= len(taxa):
        return False
    return all(d[frozenset((a, b))] is None for a in inside for b in taxa if b not in inside)


def support(taxa, d: dict) -> dict:
    return adjacency(taxa, [tuple(p) for p, v in d.items() if v is not None])


# Each planted kind, with the verdict the `check` verb must give for it and
# the test its witness must pass.
VERDICTS = {
    "not-connected": ("not-connected", lambda taxa, d, w: separates(taxa, d, w)),
    "hole": ("not-ptolemaic", lambda taxa, d, w: is_hole(support(taxa, d), w)),
    "gem": ("not-ptolemaic", lambda taxa, d, w: is_gem(support(taxa, d), w)),
    "delta": ("delta", lambda taxa, d, w: is_delta(d, w)),
    "pi": ("pi", lambda taxa, d, w: is_pi(d, w)),
    "a4": ("a4", lambda taxa, d, w: is_a4(d, w)),
}


def check_violation(kind: str, taxa, d: dict, out: dict):
    verdict, holds = VERDICTS[kind]
    need(out.get("verdict") == verdict, f"verdict {out.get('verdict')!r}, expected {verdict!r}")
    witness = out.get("witness")
    need(isinstance(witness, list) and all(t in taxa for t in witness), "witness names unknown taxa")
    need(holds(taxa, d, witness), f"witness {witness} is no {kind}")
