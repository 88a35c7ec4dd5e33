#!/usr/bin/env python3
"""Walk the whole pipeline once, printing every intermediate object.

Starts from the running example (two 4-cliques glued on a pair), builds its
minimum cover and the network hung under the containment order, reads the
induced map off a labelling, and closes the loop with explain().
"""

import argparse
import random
import sys

from arboreal import (
    LabelledNetwork,
    build_network_from_cover,
    cluster,
    ecc_min,
    evaluate_map,
    explain,
    h_tilde,
    intersection_closure,
    is_arboreal,
    is_ptolemaic,
    make_discriminating,
    shared_ancestry_graph,
    verify_phi_bijection,
)
from arboreal.io import serialize_triangular
from arboreal.selftest import two_quads_graph


def show(title, body=""):
    print(f"\n== {title}")
    if body:
        print(body)


def fail(message: str):
    print(f"check failed: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="labelling seed")
    args = parser.parse_args()
    rng = random.Random(args.seed)

    g = two_quads_graph()
    show("input graph", f"taxa {list(g.taxa)}, edges {g.sorted_edges()}")
    show("ptolemaic?", str(is_ptolemaic(g)))

    k, cover = ecc_min(g)
    show(
        f"minimum edge clique cover, size {k}",
        "\n".join(" ".join(cover.member_sorted(m)) for m in cover),
    )

    closure = intersection_closure(cover)
    show(
        "intersection closure",
        "\n".join(" ".join(closure.member_sorted(m)) for m in closure),
    )

    net = build_network_from_cover(g, cover)
    show(
        "network under the containment order",
        f"{net.num_vertices} vertices, roots {net.roots}, hybrids {net.hybrids}, "
        f"surplus h~ = {h_tilde(net)}, arboreal: {is_arboreal(net)}",
    )
    for r in net.roots:
        print(f"  cluster of root {r}: {sorted(cluster(net, r))}")

    if shared_ancestry_graph(net) != g:
        fail("the network's shared ancestry graph differs from the input graph")
    show("shared ancestry graph equals the input", "checked")

    labels = {v: rng.choice("WB") for v in net.vertices() if net.outdeg(v) >= 2}
    ln = LabelledNetwork.build(net, labels)
    d = evaluate_map(ln)
    show("induced symbolic map", serialize_triangular(d).rstrip())

    out = explain(d)
    if not isinstance(out, LabelledNetwork):
        fail(f"explain rejected a map read off a network: {out}")
    if evaluate_map(out) != d:
        fail("the explanation does not reproduce the map")
    show(
        "explained back",
        f"{out.net.num_vertices} vertices, {out.net.root_count()} roots, round trip exact",
    )

    nf = make_discriminating(ln)
    if not verify_phi_bijection(nf):
        fail("the normal form's clusters are not in bijection with the clique-module chains")
    show(
        "discriminating normal form",
        f"{nf.net.num_vertices} vertices, bijection with clique-module chains checked",
    )


if __name__ == "__main__":
    main()
