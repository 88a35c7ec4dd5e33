"""JSON and triangular-text round trips, parse errors, and DOT rendering."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arboreal import InputParseError
from arboreal.io import (
    graph_to_dot,
    labelled_to_dot,
    load_json,
    network_to_dot,
    parse_graph,
    parse_labelled,
    parse_map,
    parse_network,
    parse_triangular,
    serialize_graph,
    serialize_labelled,
    serialize_map,
    serialize_network,
    serialize_triangular,
    to_json,
)
from arboreal.oracle import (
    GenParams,
    random_arboreal_network,
    random_labelled_network,
    random_symbolic_map,
)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def test_graph_round_trip(two_quads):
    doc = serialize_graph(two_quads)
    assert doc["taxa"] == list("123456")
    assert ["3", "4"] in doc["edges"]
    assert parse_graph(doc) == two_quads
    assert parse_graph(load_json(to_json(doc))) == two_quads


def test_graph_fixture_files(two_quads, c4):
    assert parse_graph(load_json(fixture_text("two_quads.json"))) == two_quads
    assert parse_graph(load_json(fixture_text("c4.json"))) == c4


def test_network_round_trip(seven_taxa):
    net = seven_taxa.net
    doc = serialize_network(net)
    assert doc["vertices"] == 12
    back = parse_network(doc)
    assert back.arcs == net.arcs and back.leaves == net.leaves
    ldoc = serialize_labelled(seven_taxa)
    assert parse_labelled(ldoc) == seven_taxa


def test_map_round_trip(seven_map):
    doc = serialize_map(seven_map)
    assert doc["symbols"] == ["B", "W"]
    assert parse_map(doc) == seven_map
    # gaps ride along as nulls
    assert any(row[2] is None for row in doc["values"])


def test_json_text_is_stable(seven_map):
    text = to_json(serialize_map(seven_map))
    assert text == to_json(serialize_map(parse_map(load_json(text))))
    assert text.endswith("\n")
    assert json.loads(text)["taxa"] == [str(i) for i in range(1, 8)]


def test_load_json_reports_position():
    with pytest.raises(InputParseError) as err:
        load_json('{"taxa": [}')
    assert "line 1" in str(err.value)


def test_parsers_reject_missing_keys():
    with pytest.raises(InputParseError):
        parse_graph({"taxa": ["a", "b"]})
    with pytest.raises(InputParseError):
        parse_map({"taxa": ["a", "b"]})
    with pytest.raises(InputParseError):
        parse_network({"arcs": []})


def test_triangular_round_trip(seven_map):
    text = serialize_triangular(seven_map)
    lines = text.strip().splitlines()
    assert lines[0].split() == [str(i) for i in range(1, 8)]
    assert parse_triangular(text) == seven_map


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_triangular_survives_any_generated_map(seed):
    d = random_symbolic_map(GenParams(leaf_range=(2, 9), hybrid_bias=0.3, seed=seed))
    assert parse_triangular(serialize_triangular(d)) == d


def test_triangular_accepts_comments_and_blank_lines():
    text = "# distances\na b c\na\nb X\n\nc X X\n"
    d = parse_triangular(text)
    assert d.value("a", "b") == "X"
    assert d.entries.count(None) == 0


def test_triangular_parse_errors_carry_line_numbers():
    with pytest.raises(InputParseError) as err:
        parse_triangular("a b\na\nb X X\n")
    assert "line 3" in str(err.value)
    with pytest.raises(InputParseError) as err:
        parse_triangular("a b\na\nz X\n")
    assert "line 3" in str(err.value)
    with pytest.raises(InputParseError):
        parse_triangular("a b\nb X\n")  # one row missing
    with pytest.raises(InputParseError):
        parse_triangular("")
    with pytest.raises(InputParseError) as err:
        parse_triangular("a b\na\nb ⊙\n")
    assert "'-'" in str(err.value)


def test_triangular_fixture_matches_json_fixture(seven_map):
    assert parse_triangular(fixture_text("seven_taxa_map.tri")) == seven_map


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_network_json_round_trip_random(seed):
    p = GenParams(leaf_range=(3, 9), root_range=(1, 3), seed=seed)
    net = random_arboreal_network(p)
    back = parse_network(load_json(to_json(serialize_network(net))))
    assert back.arcs == net.arcs and back.leaves == net.leaves
    ln = random_labelled_network(p)
    assert parse_labelled(load_json(to_json(serialize_labelled(ln)))) == ln


def test_graph_dot_output(two_quads):
    dot = graph_to_dot(two_quads)
    assert dot.startswith("graph ")
    assert '"3" -- "4"' in dot


def test_network_dot_marks_the_special_vertices(seven_taxa):
    dot = network_to_dot(seven_taxa.net)
    assert dot.startswith("digraph ")
    assert dot.count("shape=box") == 7
    assert dot.count("shape=diamond") == 1
    labelled = labelled_to_dot(seven_taxa)
    assert " : W" in labelled and " : B" in labelled
