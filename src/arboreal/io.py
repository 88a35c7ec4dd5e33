"""Serialization: JSON documents, a triangular text format for maps, DOT.

Documents are plain dicts/lists ready for `json.dumps`; `to_json` fixes the
rendering (two-space indent, sorted keys, trailing newline) so identical
values always produce byte-identical files.  Gaps travel as JSON null and
as "-" in the triangular format; the glyph itself is never a symbol name.
"""
from __future__ import annotations

import json
from typing import Mapping, Optional

from .cliques import CliqueFamily
from .errors import InputParseError, UnknownTaxonError
from .graphs import TaxonSet, UGraph
from .networks import Network, validate_network
from .symbolic import GAP_GLYPH, LabelledNetwork, SymbolicMap

# -- JSON documents -----------------------------------------------------------


def serialize_graph(g: UGraph) -> dict:
    return {
        "taxa": list(g.taxa.taxa),
        "edges": [list(e) for e in g.sorted_edges()],
    }


def parse_graph(doc) -> UGraph:
    _need_keys(doc, {"taxa", "edges"}, "graph")
    try:
        taxa = _list(doc["taxa"], "taxa")
        return UGraph.build(taxa, [_list(e, "each edge") for e in doc["edges"]])
    except (ValueError, TypeError, UnknownTaxonError) as err:
        raise InputParseError(f"bad graph document: {err}") from None


def serialize_network(net: Network) -> dict:
    doc = {
        "vertices": net.num_vertices,
        "arcs": [list(a) for a in net.arcs],
        "leaves": {str(v): t for v, t in net.leaves},
    }
    if net.vertex_names is not None:
        doc["names"] = list(net.vertex_names)
    return doc


def parse_network(doc) -> Network:
    _need_keys(doc, {"vertices", "arcs", "leaves"}, "network")
    try:
        leaves = {_vertex_id(v): t for v, t in doc["leaves"].items()}
        arcs = [tuple(a) for a in doc["arcs"]]
        vertices, names = doc["vertices"], doc.get("names")
        # JSON integers only: int() would round 1.7 down and read true as 1
        if type(vertices) is not int or any(type(v) is not int for a in arcs for v in a):
            raise ValueError("vertices and arc endpoints must be integers")
        # a JSON string would pass as a list of one-character names
        if names is not None and not isinstance(names, list):
            raise ValueError("names must hold one string per vertex")
        if not all(isinstance(t, str) for t in leaves.values()):
            raise ValueError("leaf taxa must be strings")
        return validate_network(arcs, leaves, num_vertices=vertices, vertex_names=names)
    except (ValueError, TypeError, AttributeError) as err:
        raise InputParseError(f"bad network document: {err}") from None


def serialize_labelled(ln: LabelledNetwork) -> dict:
    doc = serialize_network(ln.net)
    doc["labels"] = {str(v): s for v, s in ln.labels}
    return doc


def parse_labelled(doc) -> LabelledNetwork:
    _need_keys(doc, {"vertices", "arcs", "leaves", "labels"}, "labelled network")
    net = parse_network({k: v for k, v in doc.items() if k != "labels"})
    try:
        labels = {_vertex_id(v): s for v, s in doc["labels"].items()}
        return LabelledNetwork.build(net, labels)
    except (ValueError, TypeError, AttributeError) as err:
        raise InputParseError(f"bad labelled network document: {err}") from None


def serialize_map(d: SymbolicMap) -> dict:
    rows = []
    for (a, b), value in zip(d.taxa.pairs(), d.entries):
        rows.append([a, b, value])
    return {
        "taxa": list(d.taxa.taxa),
        "symbols": list(d.symbols),
        "values": rows,
    }


def parse_map(doc) -> SymbolicMap:
    _need_keys(doc, {"taxa", "values"}, "map")
    try:
        values = {}
        for row in doc["values"]:
            a, b, value = _list(row, "each value row")
            values[(a, b)] = value
        taxa = TaxonSet.of(_list(doc["taxa"], "taxa"))
        symbols = doc.get("symbols")
        if symbols is not None:
            _list(symbols, "symbols")
        return SymbolicMap.build(taxa, values, symbols=symbols)
    except InputParseError:
        raise
    except (ValueError, TypeError, UnknownTaxonError) as err:
        raise InputParseError(f"bad map document: {err}") from None


def serialize_family(family: CliqueFamily) -> list:
    return [list(family.member_sorted(s)) for s in family.sets]


def to_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InputParseError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None


def _list(value, what: str) -> list:
    # a string would pass for the list of its characters
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _vertex_id(key: str) -> int:
    # int() would also read " 1", "01", "+2" and "1_0"
    if str(int(key)) != key:
        raise ValueError(f"vertex key {key!r} is not written as a plain integer")
    return int(key)


def _need_keys(doc, keys: set, what: str):
    if not isinstance(doc, dict):
        raise InputParseError(f"a {what} document must be a JSON object")
    missing = keys - set(doc)
    if missing:
        raise InputParseError(f"{what} document lacks {sorted(missing)}")


# -- triangular text format ---------------------------------------------------


def serialize_triangular(d: SymbolicMap) -> str:
    """One row per taxon listing its values against all earlier taxa."""
    taxa = d.taxa.taxa
    lines = [" ".join(taxa)]
    for i, t in enumerate(taxa):
        cells = [d.value(s, t) or "-" for s in taxa[:i]]
        lines.append(" ".join([t] + cells))
    return "\n".join(lines) + "\n"


def parse_triangular(text: str) -> SymbolicMap:
    """Inverse of `serialize_triangular`; '#' starts a comment, blank lines
    are skipped, and errors carry 1-based line numbers."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))
    if not rows:
        raise InputParseError("line 1: no taxa header")
    (_, taxa), body = rows[0], rows[1:]
    if len(set(taxa)) != len(taxa):
        raise InputParseError(f"line {rows[0][0]}: duplicate taxon in header")
    if len(body) != len(taxa):
        raise InputParseError(
            f"expected one row per taxon ({len(taxa)}), found {len(body)}"
        )
    values = {}
    seen = []
    for lineno, cells in body:
        t, rest = cells[0], cells[1:]
        if t != taxa[len(seen)]:
            raise InputParseError(
                f"line {lineno}: row {t!r} out of order, expected {taxa[len(seen)]!r}"
            )
        if len(rest) != len(seen):
            raise InputParseError(
                f"line {lineno}: row {t!r} needs {len(seen)} values, found {len(rest)}"
            )
        for s, cell in zip(seen, rest):
            if cell == GAP_GLYPH:
                raise InputParseError(
                    f"line {lineno}: the gap is written '-', not {GAP_GLYPH!r}"
                )
            values[(s, t)] = None if cell == "-" else cell
        seen.append(t)
    try:
        return SymbolicMap.build(TaxonSet.of(taxa), values)
    except ValueError as err:
        raise InputParseError(f"bad triangular map: {err}") from None


# -- DOT ----------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: UGraph) -> str:
    lines = ["graph {"]
    for t in g.taxa.taxa:
        lines.append(f"  {_dot_quote(t)};")
    for a, b in g.sorted_edges():
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    return "\n".join(lines + ["}"]) + "\n"


def network_to_dot(net: Network, labels: Optional[Mapping] = None) -> str:
    """Directed layout: leaves boxed, hybrids diamond-shaped.  `labels`
    annotates vertices, as for a labelled network."""
    labels = dict(labels or {})

    def node_name(v: int) -> str:
        if net.is_leaf(v):
            return net.taxon_of(v)
        if net.vertex_names is not None:
            return net.vertex_names[v]
        return str(v)

    lines = ["digraph {"]
    for v in net.vertices():
        attrs = []
        text = node_name(v)
        if v in labels:
            text = f"{text} : {labels[v]}"
        attrs.append(f"label={_dot_quote(text)}")
        if net.is_leaf(v):
            attrs.append("shape=box")
        elif net.indeg(v) >= 2:
            attrs.append("shape=diamond")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in net.arcs:
        lines.append(f"  {u} -> {v};")
    return "\n".join(lines + ["}"]) + "\n"


def labelled_to_dot(ln: LabelledNetwork) -> str:
    return network_to_dot(ln.net, dict(ln.labels))
