"""Shared fixtures: small graphs, one hand-built two-root tree, and the
serialized copies kept under fixtures/."""

import sys
from collections import Counter
from pathlib import Path

import pytest

from arboreal import UGraph, validate_network
from arboreal.io import load_json, parse_labelled, parse_map
from arboreal.selftest import module_demo_map, two_quads_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(functions)` wraps each function in every arboreal
    namespace that binds it, since a module that imports a function calls it
    through its own globals, and returns a Counter of calls by name."""

    def install(functions):
        counts = Counter()
        for original in functions:
            name = original.__name__

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for modname, module in list(sys.modules.items()):
                if modname.split(".")[0] == "arboreal" and vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    return install


@pytest.fixture
def two_quads():
    return two_quads_graph()


@pytest.fixture
def c4():
    return UGraph.build("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("z", "w")])


@pytest.fixture
def c5():
    taxa = "abcde"
    return UGraph.build(taxa, [(taxa[i], taxa[(i + 1) % 5]) for i in range(5)])


@pytest.fixture
def gem():
    # path a-b-c-d plus a hub adjacent to all four
    edges = [("a", "b"), ("b", "c"), ("c", "d")] + [("e", v) for v in "abcd"]
    return UGraph.build("abcde", edges)


@pytest.fixture
def module_map():
    return module_demo_map()


@pytest.fixture
def seven_taxa():
    return parse_labelled(load_json(fixture_text("seven_taxa_network.json")))


@pytest.fixture
def seven_map():
    return parse_map(load_json(fixture_text("seven_taxa_map.json")))


@pytest.fixture
def crown():
    # single root over three inner vertices joined through three hybrids;
    # each hybrid pair shares exactly one inner parent, so no tree
    arcs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5),
            (1, 6), (3, 6), (4, 7), (5, 8), (6, 9)]
    return validate_network(arcs, {7: "1", 8: "2", 9: "3"}, num_vertices=10)
