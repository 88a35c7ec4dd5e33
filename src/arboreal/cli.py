"""Command-line front end.

One verb per invocation; documents travel as JSON (maps also in the
triangular text format, picked by sniffing the first character).  Exit
codes: 0 for an affirmative verdict or plain output, 1 for a negative
verdict with its witness on stdout, 2 for unusable input.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Optional

from .build import arboreal_representation, build_network_from_cover
from .cliques import ecc_min, maximal_cliques
from .errors import ArborealError, InputParseError
from .graphs import UGraph, ptolemaic_witness
from .io import (
    graph_to_dot,
    labelled_to_dot,
    load_json,
    network_to_dot,
    parse_graph,
    parse_labelled,
    parse_map,
    parse_network,
    parse_triangular,
    serialize_family,
    serialize_graph,
    serialize_labelled,
    serialize_map,
    serialize_network,
    to_json,
)
from .networks import shared_ancestry_graph
from .oracle import GenParams, random_labelled_network, random_symbolic_map
from .selftest import run_all
from .symbolic import (
    SymbolicMap,
    Violation,
    check_arboreal_conditions,
    evaluate_map,
    explain,
    make_discriminating,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_map(text: str) -> SymbolicMap:
    if text.lstrip().startswith("{"):
        return parse_map(load_json(text))
    return parse_triangular(text)


def _violation_doc(v: Violation) -> dict:
    doc = {"verdict": v.kind, "witness": list(v.witness)}
    if v.detail:
        doc["detail"] = v.detail
    return doc


# -- verbs --------------------------------------------------------------------


def _do_check(args) -> int:
    d = _load_map(_read(args.input))
    violation = check_arboreal_conditions(d)
    if violation is None:
        _write(args.output, to_json({"verdict": "arboreal"}))
        return 0
    _write(args.output, to_json(_violation_doc(violation)))
    return 1


def _do_explain(args) -> int:
    d = _load_map(_read(args.input))
    out = explain(d)
    if isinstance(out, Violation):
        _write(args.output, to_json(_violation_doc(out)))
        return 1
    text = labelled_to_dot(out) if args.dot else to_json(serialize_labelled(out))
    _write(args.output, text)
    return 0


def _do_normalize(args) -> int:
    ln = parse_labelled(load_json(_read(args.input)))
    nf = make_discriminating(ln)
    text = labelled_to_dot(nf) if args.dot else to_json(serialize_labelled(nf))
    _write(args.output, text)
    return 0


def _do_evaluate(args) -> int:
    ln = parse_labelled(load_json(_read(args.input)))
    _write(args.output, to_json(serialize_map(evaluate_map(ln))))
    return 0


def _do_represent(args) -> int:
    g = parse_graph(load_json(_read(args.input)))
    if args.arboreal:
        net = arboreal_representation(g)
        if net is None:
            _write(args.output, to_json(_ptolemaic_doc(g)))
            return 1
    else:
        net = build_network_from_cover(g, maximal_cliques(g))
    if args.dot:
        _write(args.output, network_to_dot(net))
        return 0
    # the build certified that the network's shared ancestry graph is g
    doc = {"network": serialize_network(net), "shared_ancestry_graph": serialize_graph(g)}
    _write(args.output, to_json(doc))
    return 0


def _do_sag(args) -> int:
    net = parse_network(load_json(_read(args.input)))
    g = shared_ancestry_graph(net)
    _write(args.output, graph_to_dot(g) if args.dot else to_json(serialize_graph(g)))
    return 0


def _ptolemaic_doc(g: UGraph) -> dict:
    witness = ptolemaic_witness(g)
    if witness is None:
        return {"ptolemaic": True}
    kind, vertices = witness
    return {"ptolemaic": False, "witness": {"kind": kind, "vertices": list(vertices)}}


def _do_ptolemaic(args) -> int:
    g = parse_graph(load_json(_read(args.input)))
    doc = _ptolemaic_doc(g)
    _write(args.output, to_json(doc))
    return 0 if doc["ptolemaic"] else 1


def _do_ecc(args) -> int:
    g = parse_graph(load_json(_read(args.input)))
    size, cover = ecc_min(g)
    _write(args.output, to_json({"size": size, "cover": serialize_family(cover)}))
    return 0


def _do_gen(args) -> int:
    instances = []
    for i in range(args.count):
        seed = args.seed + i
        p = GenParams(
            leaf_range=(3, max(3, args.max_n)),
            root_range=(1, 3),
            symbol_count=2,
            seed=seed,
        )
        ln = random_labelled_network(p)
        d = random_symbolic_map(
            GenParams(
                leaf_range=(2, max(2, args.max_n)),
                symbol_count=2,
                hybrid_bias=0.3,
                seed=seed,
            )
        )
        instances.append(
            {
                "seed": seed,
                "labelled_network": serialize_labelled(ln),
                "map": serialize_map(d),
            }
        )
    doc = {
        "seed": args.seed,
        "count": args.count,
        "max_leaves": args.max_n,
        "instances": instances,
    }
    _write(args.output, to_json(doc))
    return 0


def _do_selftest(args) -> int:
    budget_text = os.environ.get("ARBOREAL_SELFTEST_BUDGET")
    budget: Optional[float] = None
    if budget_text:
        try:
            budget = float(budget_text)
        except ValueError:
            raise InputParseError(
                f"ARBOREAL_SELFTEST_BUDGET must be seconds, got {budget_text!r}"
            ) from None
    results = run_all(budget)
    lines = [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        f" in {sum(r.elapsed for r in results):.1f}s"
    )
    _write(args.output, "\n".join(lines) + "\n")
    return 1 if failed else 0


@cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args fills a fresh namespace on every
    # call and never changes the parser, so nothing carries over.
    parser = argparse.ArgumentParser(
        prog="arboreal",
        description="Arboreal networks, ptolemaic graphs and symbolic maps.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name: str, fn, help_text: str, dot: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--input", default="-", help="input file, '-' for stdin")
        p.add_argument("--output", default="-", help="output file, '-' for stdout")
        if dot:
            p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
        return p

    add("check", _do_check, "test a symbolic map against the four conditions")
    add("explain", _do_explain, "build a labelled network explaining a map", dot=True)
    add("normalize", _do_normalize, "collapse a labelled network to its discriminating form", dot=True)
    add("evaluate", _do_evaluate, "read the symbolic map off a labelled network")
    rep = add("represent", _do_represent, "build a network whose shared ancestry graph is the input", dot=True)
    rep.add_argument(
        "--arboreal",
        action="store_true",
        help="require an arboreal representation (ptolemaic inputs only)",
    )
    add("sag", _do_sag, "shared ancestry graph of a network", dot=True)
    add("ptolemaic", _do_ptolemaic, "test a graph, with a hole or gem witness")
    add("ecc", _do_ecc, "exact minimum edge clique cover")
    gen = add("gen", _do_gen, "dump a deterministic corpus of generated instances")
    gen.add_argument("--seed", type=int, default=0, help="base seed")
    gen.add_argument("--count", type=int, default=10, help="instances to generate")
    gen.add_argument("--max-n", type=int, default=8, help="largest taxon count")
    add("selftest", _do_selftest, "run the acceptance suites")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ArborealError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
