#!/usr/bin/env python3
"""Census of small connected graphs and trees.

For each vertex count up to the cap: how many connected graphs there are, how
many are ptolemaic, how often the minimum edge clique cover is the maximal
cliques, and the arboreal hit rate.  Finishes with the tree-shape counts the
enumeration oracle is frozen against.
"""

import argparse
import sys
import time

from arboreal import arboreal_representation, ecc_min, is_ptolemaic, maximal_cliques
from arboreal.oracle import count_tree_shapes, enumerate_connected_graphs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6, help="largest vertex count")
    args = parser.parse_args()

    print(f"{'n':>2} {'connected':>9} {'ptolemaic':>9} {'min=maxcliques':>14} {'seconds':>8}")
    for n in range(2, args.max_n + 1):
        start = time.perf_counter()
        total = ptolemaic = tight = 0
        for g in enumerate_connected_graphs(n):
            total += 1
            if not is_ptolemaic(g):
                continue
            ptolemaic += 1
            k, _ = ecc_min(g)
            if k == len(maximal_cliques(g)):
                tight += 1
            if arboreal_representation(g) is None:
                sys.exit(f"n={n}: a ptolemaic graph got no arboreal representation")
        if tight != ptolemaic:
            sys.exit(f"n={n}: on some ptolemaic graph the maximal cliques are not a minimum cover")
        print(
            f"{n:>2} {total:>9} {ptolemaic:>9} {tight:>14} "
            f"{time.perf_counter() - start:>8.2f}"
        )

    print("\ntree shapes by leaf count:")
    for n in range(1, 9):
        print(f"  {n}: {count_tree_shapes(n)}")


if __name__ == "__main__":
    main()
