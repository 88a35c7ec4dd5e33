"""Symbolic maps on taxon pairs and the labelled networks that explain them.

A symbolic map assigns to every unordered pair of taxa either a symbol from a
finite alphabet or the gap value (spelled None here).  A labelled arboreal
network explains such a map when the label of the least common ancestor of
each pair reproduces its value, the gap standing for "no common ancestor".
This module decides when a map is explainable, constructs an explanation, and
normalizes explanations into their discriminating form, which is unique up to
isomorphism and certified by a cluster bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional, Union

from .build import _hang_under_closure
from .cliques import CliqueFamily, _is_clique_mask, intersection_closure, maximal_cliques
from .errors import (
    ConstructionMismatchError,
    NotArborealError,
    NotUltrametricError,
    TooLargeError,
    UnknownVertexError,
)
from .graphs import (
    TaxonSet,
    UGraph,
    _components,
    _members,
    _witness_or_cliques,
    connected_components,
    induced_subgraph,
    is_ptolemaic,
)
from .networks import (
    Network,
    _cluster_masks,
    _contract_arcs,
    is_arboreal,
    validate_network,
)

GAP_GLYPH = "⊙"  # display spelling of the gap; reserved, never a symbol


@dataclass(frozen=True)
class SymbolicMap:
    """Total assignment of a symbol or the gap to every unordered taxon pair.

    `entries` holds one value per pair of `taxa.pairs()`, in that order, with
    None as the gap.  The alphabet is inferred from the range unless supplied,
    in which case it must cover the range.  Equality compares taxa and values
    only; the declared alphabet does not participate.
    """

    taxa: TaxonSet
    entries: tuple
    symbols: tuple = field(default=None, compare=False)
    _row: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.taxa)
        if n < 2:
            raise ValueError("a symbolic map needs at least two taxa")
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != n * (n - 1) // 2:
            raise ValueError(
                f"need {n * (n - 1) // 2} values for {n} taxa, got {len(self.entries)}"
            )
        used = set()
        for val in self.entries:
            if val is None:
                continue
            if not isinstance(val, str) or not val or val == GAP_GLYPH:
                raise ValueError("symbols are non-empty strings; the gap is spelled None")
            used.add(val)
        if self.symbols is None:
            object.__setattr__(self, "symbols", tuple(sorted(used)))
        else:
            alphabet = tuple(self.symbols)
            if len(set(alphabet)) != len(alphabet):
                raise ValueError("alphabet symbols must be distinct")
            if any(not isinstance(s, str) or not s or s == GAP_GLYPH for s in alphabet):
                raise ValueError("alphabet symbols are non-empty strings, gap excluded")
            if not used <= set(alphabet):
                raise ValueError("declared alphabet must cover every value in use")
            object.__setattr__(self, "symbols", alphabet)
        object.__setattr__(self, "_row", _pair_rows(n))

    @classmethod
    def build(cls, taxa, values: Mapping, symbols=None) -> "SymbolicMap":
        """Build from a mapping keyed by taxon pairs in either endpoint order;
        missing pairs default to the gap."""
        ts = taxa if isinstance(taxa, TaxonSet) else TaxonSet.of(taxa)
        table = {}
        for (a, b), val in values.items():
            key = ts.pair(a, b)
            if key in table and table[key] != val:
                raise ValueError(f"conflicting values for pair {key}")
            table[key] = val
        return cls(ts, tuple(table.get(p) for p in ts.pairs()), symbols)

    def value(self, a: str, b: str):
        i, j = self.taxa.index(a), self.taxa.index(b)
        if i > j:
            i, j = j, i
        elif i == j:
            raise ValueError(f"pair endpoints must differ, got {a!r} twice")
        return self.entries[self._row[i] + j]

    def items(self):
        return zip(self.taxa.pairs(), self.entries)


def _pair_rows(n: int) -> tuple:
    """Offsets into the `combinations` order of n taxa: the pair of positions
    (i, j), i < j, sits at `row[i] + j`, the closed form
    i·(2n−i−1)/2 + j−i−1."""
    return tuple(i * (2 * n - i - 1) // 2 - i - 1 for i in range(n))


def graph_of_map(d: SymbolicMap) -> UGraph:
    """Support graph on the taxa, joining the pairs whose value is not the gap."""
    n = len(d.taxa)
    adj = [0] * n
    for (i, j), v in zip(combinations(range(n), 2), d.entries):
        if v is not None:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return UGraph(d.taxa, tuple(adj))


# ---------------------------------------------------------------------------
# The four explainability conditions and their witnesses.

NOT_CONNECTED = "not-connected"
NOT_PTOLEMAIC = "not-ptolemaic"
DELTA = "delta"
PI = "pi"
A4 = "a4"


@dataclass(frozen=True)
class Violation:
    """Certificate that a map fails one of the explainability conditions."""

    kind: str
    witness: tuple
    detail: str = ""


def check_violation(d: SymbolicMap, violation: Violation) -> bool:
    """Re-check a violation certificate against the map it speaks about."""
    w = violation.witness
    if len(set(w)) != len(w) or any(t not in d.taxa for t in w):
        return False
    kind = violation.kind
    if kind == NOT_CONNECTED:
        inside = set(w)
        if not inside or len(inside) == len(d.taxa):
            return False
        return all(
            d.value(x, y) is None for x in inside for y in d.taxa if y not in inside
        )
    if kind == NOT_PTOLEMAIC:
        return not is_ptolemaic(induced_subgraph(graph_of_map(d), w))
    if kind == DELTA:
        if len(w) != 3:
            return False
        x, y, z = w
        vals = {d.value(x, y), d.value(x, z), d.value(y, z)}
        return None not in vals and len(vals) == 3
    if kind == PI:
        if len(w) != 4:
            return False
        x, y, z, u = w
        along = {d.value(x, y), d.value(y, z), d.value(z, u)}
        cross = {d.value(z, x), d.value(x, u), d.value(u, y)}
        return len(along) == 1 == len(cross) and None not in along | cross and along != cross
    if kind == A4:
        if len(w) != 4:
            return False
        x, y, z, u = w
        five = [d.value(x, y), d.value(x, z), d.value(y, z), d.value(x, u), d.value(y, u)]
        return (
            d.value(z, u) is None
            and all(v is not None for v in five)
            and (d.value(x, z) != d.value(y, z) or d.value(x, u) != d.value(y, u))
        )
    return False


def find_delta_violation(d: SymbolicMap) -> Optional[tuple]:
    """First triple (canonical order) carrying three distinct symbols and no
    gap, else None."""
    for x, y, z in combinations(d.taxa.taxa, 3):
        vals = {d.value(x, y), d.value(x, z), d.value(y, z)}
        if None not in vals and len(vals) == 3:
            return (x, y, z)
    return None


def find_pi_violation(d: SymbolicMap) -> Optional[tuple]:
    """Witness (x, y, z, u) with d(x,y)=d(y,z)=d(z,u) != d(z,x)=d(x,u)=d(u,y)
    and no gap, else None.

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


def find_a4_violation(d: SymbolicMap) -> Optional[tuple]:
    """Witness (x, y, z, u) whose only gap pair is {z, u} while x and y
    disagree on z or on u, else None."""
    for quad in combinations(d.taxa.taxa, 4):
        gaps = [(a, b) for a, b in combinations(quad, 2) if d.value(a, b) is None]
        if len(gaps) != 1:
            continue
        z, u = gaps[0]
        x, y = (t for t in quad if t != z and t != u)
        if d.value(x, z) != d.value(y, z) or d.value(x, u) != d.value(y, u):
            return (x, y, z, u)
    return None


_PTOLEMAIC_DETAIL = {
    "hole": "chordless cycle in the support graph",
    "gem": "induced gem in the support graph",
}


def check_arboreal_conditions(d: SymbolicMap) -> Optional[Violation]:
    """The verdict of `explain`: the first reason no labelled arboreal
    network can explain `d`, or None.

    A map is explainable iff its support graph is connected and ptolemaic, no
    triple carries three symbols, no quadruple crosses two symbols, and every
    almost-gap-free quadruple is consistent across its gap pair; `explain`
    decides the last three by building a network.
    """
    out = explain(d)
    return out if isinstance(out, Violation) else None


def _scanned_violation(d: SymbolicMap) -> Violation:
    # the first delta, pi or a4 witness of a map that `explain` failed to build
    triple = find_delta_violation(d)
    if triple is not None:
        return Violation(DELTA, triple, "three distinct symbols on one triple")
    quad = find_pi_violation(d)
    if quad is not None:
        return Violation(PI, quad, "two symbols crossing on a quadruple")
    quad = find_a4_violation(d)
    if quad is not None:
        return Violation(A4, quad, "gap pair with disagreeing co-neighbors")
    raise ConstructionMismatchError("the construction fails, yet no scan finds a violation")


# ---------------------------------------------------------------------------
# Labelled networks and the maps they induce.


@dataclass(frozen=True)
class LabelledNetwork:
    """A network with one symbol on every vertex of outdegree at least two."""

    net: Network
    labels: tuple  # (vertex, symbol) pairs, kept sorted by vertex
    _label_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = dict(self.labels)
        if len(table) != len(tuple(self.labels)):
            raise ValueError("duplicate label entries")
        expected = {v for v in self.net.vertices() if self.net.outdeg(v) >= 2}
        if set(table) != expected:
            raise ValueError("labels must cover exactly the vertices of outdegree >= 2")
        for sym in table.values():
            if not isinstance(sym, str) or not sym or sym == GAP_GLYPH:
                raise ValueError("labels are non-empty symbol strings, gap excluded")
        object.__setattr__(self, "labels", tuple(sorted(table.items())))
        object.__setattr__(self, "_label_of", table)

    @classmethod
    def build(cls, net: Network, labels: Mapping) -> "LabelledNetwork":
        return cls(net, tuple(labels.items()))

    @property
    def taxa(self) -> TaxonSet:
        return self.net.taxa

    def label_of(self, v: int) -> str:
        try:
            return self._label_of[v]
        except KeyError:
            raise UnknownVertexError(v) from None

    def symbol_alphabet(self) -> tuple:
        return tuple(sorted(set(self._label_of.values())))


def evaluate_map(ln: LabelledNetwork) -> SymbolicMap:
    """The map sending each pair of taxa to the label of its least common
    ancestor, with the gap where no common ancestor exists.

    The underlying graph is a tree, so two leaves with a common ancestor
    meet at the apex of the unique tree path between them, and that apex is
    their least common ancestor.  The pairs whose apex is a branching vertex
    v are exactly the pairs split between two children of v; the clusters
    of two children are disjoint, since a shared taxon would close an
    undirected cycle.  So one pass over the branching vertices writes each
    label into the pairs crossing its child clusters, and every pair with a
    common ancestor is written exactly once: the work follows the number of
    pairs, plus one taxon-bitmask union per arc for the clusters.
    """
    net = ln.net
    if not is_arboreal(net):
        raise NotArborealError("maps are read off arboreal networks only")
    masks = _cluster_masks(net)
    n = len(net.taxa)
    row = _pair_rows(n)
    entries = [None] * (n * (n - 1) // 2)
    for v, label in ln.labels:
        seen = []
        for c in net.children(v):
            below = _members(masks[c])
            for i in seen:
                for j in below:
                    if i < j:
                        entries[row[i] + j] = label
                    else:
                        entries[row[j] + i] = label
            seen += below
    return SymbolicMap(net.taxa, tuple(entries), ln.symbol_alphabet())


# ---------------------------------------------------------------------------
# Constructing explanations.


def _split_tree(value, group: tuple) -> tuple:
    """The tree that `build_ultrametric_tree` grows, over the members of
    `group` (two or more) and the symmetric `value` on their pairs, as
    (arcs, labels, members): vertex 0 is the root and the rest follow in
    preorder, `labels` maps each branching vertex to its symbol and
    `members` each leaf to its member of `group`.

    Each pair is read once, into one bitmask row per symbol over the
    positions in `group`.  A part of the group is a mask of positions, and
    its fragments for a symbol are the components of the pairs valued
    anything else, listed by first member."""
    k = len(group)
    rows: dict = {}
    for i, j in combinations(range(k), 2):
        m = value(group[i], group[j])
        if m is None:
            raise NotUltrametricError("trees explain gap-free maps only")
        if m not in rows:
            rows[m] = [0] * k
        row = rows[m]
        row[i] |= 1 << j
        row[j] |= 1 << i
    everyone = (1 << k) - 1
    others = [(m, [everyone & ~(r | 1 << i) for i, r in enumerate(rows[m])]) for m in sorted(rows)]
    arcs = []
    members = {}
    labels = {}
    counter = 0
    # (parent, part) pairs; fragments are pushed in reverse so that they
    # pop in order, numbering the vertices in preorder
    stack = [(None, everyone)]
    while stack:
        parent, part = stack.pop()
        node = counter
        counter += 1
        if parent is not None:
            arcs.append((parent, node))
        if not part & part - 1:
            members[node] = group[part.bit_length() - 1]
            continue
        for m, adj in others:
            fragments = _components(adj, part)
            if len(fragments) >= 2:
                break
        else:
            raise NotUltrametricError(f"no symbol splits {tuple(group[i] for i in _members(part))}")
        labels[node] = m
        stack.extend((node, fragment) for fragment in reversed(fragments))
    return arcs, labels, members


def build_ultrametric_tree(d: SymbolicMap) -> LabelledNetwork:
    """A labelled phylogenetic tree explaining a gap-free map.

    At each level some symbol m must split the current group: deleting the
    pairs valued m must disconnect it.  The fragments become the subtrees
    and m the label at their join, so the pairs across fragments, which all
    carry m, meet exactly there.  No splitting symbol means no tree explains
    the map.  At most one symbol splits, since the pairs across two
    fragments of one symbol keep the group connected for any other, so the
    first in sorted order is the one.
    """
    arcs, labels, members = _split_tree(d.value, d.taxa.taxa)
    net = validate_network(arcs, members, num_vertices=len(arcs) + 1, taxa=d.taxa)
    return LabelledNetwork.build(net, labels)


def explain(d: SymbolicMap) -> Union[LabelledNetwork, Violation]:
    """A labelled arboreal network explaining `d`, or the violation ruling
    one out.

    A connected ptolemaic support graph is represented by the arboreal
    network hung under its maximal cliques.  They form an antichain, so
    every vertex that is neither a root nor a leaf is a hybrid, and each
    branching vertex has hybrid and leaf children only.  Each branching
    vertex is replaced by the tree explaining the map's restriction to its
    children, valued on two children as on any pair of leaves below them.
    By the paper's theorem `d` is explainable iff the assembly reproduces
    it, and only the assembly is validated and certified: a pair has a
    value iff it has a common ancestor, so reproducing `d` also certifies
    the shared ancestry.  If not, or if a restriction has a gap or no tree,
    the delta, pi and a4 scans only name the witness, in that fixed order;
    `ConstructionMismatchError` means that none finds one.
    """
    g = graph_of_map(d)
    comps = connected_components(g)
    if len(comps) > 1:
        return Violation(NOT_CONNECTED, comps[0], f"support graph has {len(comps)} components")
    witness, cliques = _witness_or_cliques(g)
    if witness is not None:
        kind, vertices = witness
        return Violation(NOT_PTOLEMAIC, vertices, _PTOLEMAIC_DETAIL[kind])

    # g is connected and ptolemaic, so its maximal cliques hang an arboreal
    # network with one root each
    hung, leaves, _, clusters = _hang_under_closure(CliqueFamily(g.taxa, tuple(cliques)))
    kids = [[] for _ in clusters]
    for u, v in hung:
        kids[u].append(v)
    # the smallest taxon below each vertex stands for its cluster
    rep = [(m & -m).bit_length() - 1 for m in clusters]
    row = d._row

    def local_value(wa: int, wb: int):
        i, j = rep[wa], rep[wb]
        return d.entries[row[i] + j] if i < j else d.entries[row[j] + i]

    # the hung vertices keep their ids; each local tree's root is its
    # branching vertex, its leaves the children, and its inner vertices
    # take fresh ids in turn
    arcs = [(u, v) for u, v in hung if len(kids[u]) == 1]
    labels = {}
    fresh = len(clusters)
    for v, below in enumerate(kids):
        if len(below) < 2:
            continue
        try:
            tree_arcs, tree_labels, members = _split_tree(local_value, tuple(sorted(below)))
        except NotUltrametricError:
            return _scanned_violation(d)
        ids = [v]
        for node in range(1, len(tree_arcs) + 1):
            if node in members:
                ids.append(members[node])
            else:
                ids.append(fresh)
                fresh += 1
        arcs += [(ids[p], ids[c]) for p, c in tree_arcs]
        labels.update((ids[node], sym) for node, sym in tree_labels.items())

    net = validate_network(arcs, leaves, num_vertices=fresh, taxa=d.taxa)
    out = LabelledNetwork.build(net, labels)
    return out if evaluate_map(out) == d else _scanned_violation(d)


# ---------------------------------------------------------------------------
# Clique-modules.


def clique_modules(d: SymbolicMap) -> CliqueFamily:
    """Every clique-module of `d`: the singletons, plus each clique Y of the
    support graph such that no outside taxon tells two members of Y apart by
    two different non-gap values."""
    n = len(d.taxa)
    if n > 16:
        raise TooLargeError("clique-module enumeration is desk-scale, 16 taxa at most")
    verts = d.taxa.taxa
    adj = graph_of_map(d).adj
    found = []
    for mask in range(1, 1 << n):
        members = _members(mask)
        if len(members) < 2 or _is_clique_mask(adj, mask) and all(
            len({d.value(verts[i], verts[z]) for i in members} - {None}) <= 1
            for z in range(n)
            if not mask >> z & 1
        ):
            found.append(mask)
    return CliqueFamily(d.taxa, tuple(found))


def strong_clique_modules(d: SymbolicMap) -> CliqueFamily:
    """The strong non-trivial clique-modules: those of size at least two that
    meet every clique-module they span a clique with either nestedly or not
    at all."""
    masks = clique_modules(d).masks
    adj = graph_of_map(d).adj
    strong = []
    for m in masks:
        if m.bit_count() < 2:
            continue
        ok = True
        for other in masks:
            if not _is_clique_mask(adj, m | other):
                continue
            inter = m & other
            if inter and inter != m and inter != other:
                ok = False
                break
        if ok:
            strong.append(m)
    return CliqueFamily(d.taxa, tuple(strong))


# ---------------------------------------------------------------------------
# The discriminating normal form.


def _collapsible(ln: LabelledNetwork, u: int, v: int) -> bool:
    # the arc (u, v) is internal and out of an outdegree-1 vertex (rule 1),
    # or onto an indegree-1 vertex repeating the tail's label (rule 2); the
    # head is then internal with indegree 1, hence branches and is labelled
    net = ln.net
    if net.is_leaf(v):
        return False
    if net.outdeg(u) == 1:
        return True
    return net.indeg(v) == 1 and ln.label_of(u) == ln.label_of(v)


def is_discriminating(ln: LabelledNetwork) -> bool:
    """No internal arc out of an outdegree-1 vertex, and no internal arc whose
    head has indegree 1 and repeats the tail's label.

    On an arboreal network a true verdict implies the cluster criterion: the
    branching vertices are exactly those whose cluster holds two or more
    taxa.
    """
    return not any(_collapsible(ln, u, v) for u, v in ln.net.arcs)


def make_discriminating(ln: LabelledNetwork) -> LabelledNetwork:
    """Collapse arcs until the network is discriminating, preserving the map.

    Rule 1 folds an internal arc out of an outdegree-1 vertex; rule 2 folds an
    internal arc onto an indegree-1 vertex when the labels agree.  Folded one
    at a time in canonical order (rule 1 before rule 2, smallest arc first,
    the tail surviving), the rules reach the same network as one quotient by
    the arcs collapsible in the input, because no fold makes or unmakes a
    collapsible arc:

    - a merged class has outdegree 1 only while it is a chain of
      outdegree-1 hybrids, so rule 1 applies to exactly the input's arcs
      out of outdegree-1 vertices;
    - the head of a rule-2 arc keeps indegree 1;
    - all labelled members of a class carry the same label.

    So the sequential folds merge exactly the components of the arcs that
    are collapsible in the input.  Each class is named by its largest member
    that no folded arc enters, which is the vertex the canonical order
    leaves standing; the rule matters only when a hybrid has two or more
    outdegree-1 parents.  Every fold merges two adjacent vertices of the
    underlying tree, so no parallel arcs arise.  The result is checked to be
    discriminating and to induce the same map; a failure raises
    `ConstructionMismatchError`.
    """
    net = ln.net
    if not is_arboreal(net):
        raise NotArborealError("the collapse rules assume an arboreal network")
    before = evaluate_map(ln)
    fold = [(u, v) for u, v in net.arcs if _collapsible(ln, u, v)]
    new, ids = _contract_arcs(net, fold)
    out = LabelledNetwork.build(new, {ids[v]: s for v, s in ln.labels})
    if not is_discriminating(out):
        raise ConstructionMismatchError("the collapsed network is not discriminating")
    if evaluate_map(out) != before:
        raise ConstructionMismatchError("the collapsed network changed the map")
    return out


# ---------------------------------------------------------------------------
# Uniqueness certificates.


def _canonical_form(ln: LabelledNetwork, anchor: str) -> str:
    # Root the underlying tree at the anchor taxon's leaf and encode
    # bottom-up; child encodings are sorted, every edge records its arc
    # direction, leaves record their taxon and branching vertices their
    # label.  Equal strings rebuild an isomorphism leaf by leaf.
    net = ln.net
    nbrs: dict = {v: [] for v in net.vertices()}
    for u, v in net.arcs:
        nbrs[u].append((v, ">"))
        nbrs[v].append((u, "<"))

    root = net.leaf_vertex(anchor)
    parent = {root: None}
    order = [root]
    for v in order:  # breadth-first; the list grows as it is walked
        for w, _ in nbrs[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: dict = {}
    for v in reversed(order):
        head = net.taxon_of(v) if net.is_leaf(v) else ln._label_of.get(v, "")
        parts = sorted(tag + code.pop(w) for w, tag in nbrs[v] if w != parent[v])
        code[v] = "(" + head + "|" + ",".join(parts) + ")"
    return code[root]


def are_isomorphic(a: LabelledNetwork, b: LabelledNetwork) -> bool:
    """Whether a label-preserving digraph isomorphism fixing every taxon
    carries one network onto the other.

    Both underlying graphs are trees, so rooting each at the same taxon and
    comparing canonical bottom-up encodings decides the question without
    search: distinct taxa pin the leaves, and sorted child encodings make the
    forms unambiguous.
    """
    for ln in (a, b):
        if not is_arboreal(ln.net):
            raise NotArborealError("canonical forms assume arboreal networks")
    if set(a.taxa.taxa) != set(b.taxa.taxa):
        return False
    if a.net.num_vertices != b.net.num_vertices or len(a.net.arcs) != len(b.net.arcs):
        return False
    anchor = min(a.taxa.taxa)
    return _canonical_form(a, anchor) == _canonical_form(b, anchor)


def verify_phi_bijection(ln: LabelledNetwork) -> bool:
    """Whether sending each non-leaf vertex to its cluster is a bijection
    onto the closed intersections of the support graph's maximal cliques
    together with the strong non-trivial clique-modules of the induced map."""
    net = ln.net
    if not is_arboreal(net):
        raise NotArborealError("the cluster bijection assumes an arboreal network")
    d = evaluate_map(ln)
    masks = _cluster_masks(net)
    clusters = [masks[v] for v in net.vertices() if not net.is_leaf(v)]
    if len(set(clusters)) != len(clusters):
        return False
    target = set(intersection_closure(maximal_cliques(graph_of_map(d))).masks)
    target |= set(strong_clique_modules(d).masks)
    return set(clusters) == target
