"""The command line: verbs, exit codes, and the JSON it emits."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arboreal.cli import main
from arboreal import SymbolicMap, TaxonSet, UGraph, graphs
from arboreal.io import load_json, parse_labelled, parse_map, serialize_graph, serialize_map, to_json
from arboreal.selftest import CriterionResult

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fix(name):
    return str(FIXTURES / name)


def test_check_accepts_the_fixture_map(capsys):
    code, out, err = run(capsys, "check", "--input", fix("seven_taxa_map.json"))
    assert code == 0
    assert json.loads(out)["verdict"] == "arboreal"
    assert err == ""


def test_check_reports_violations_with_witness(capsys, tmp_path):
    bad = tmp_path / "pi.json"
    values = {("w", "x"): "A", ("x", "y"): "A", ("y", "z"): "A",
              ("w", "y"): "B", ("w", "z"): "B", ("x", "z"): "B"}
    from arboreal import SymbolicMap, TaxonSet

    bad.write_text(to_json(serialize_map(SymbolicMap.build(TaxonSet.of("wxyz"), values))))
    code, out, _ = run(capsys, "check", "--input", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "pi"
    assert sorted(doc["witness"]) == ["w", "x", "y", "z"]


def test_check_reads_triangular_too(capsys):
    code, out, _ = run(capsys, "check", "--input", fix("seven_taxa_map.tri"))
    assert code == 0 and json.loads(out)["verdict"] == "arboreal"


def test_explain_then_evaluate_round_trips(capsys, tmp_path):
    explained = tmp_path / "ln.json"
    code, _, _ = run(
        capsys, "explain", "--input", fix("seven_taxa_map.json"), "--output", str(explained)
    )
    assert code == 0
    ln = parse_labelled(load_json(explained.read_text()))
    code, out, _ = run(capsys, "evaluate", "--input", str(explained))
    assert code == 0
    d = parse_map(load_json(out))
    assert d == parse_map(load_json(Path(fix("seven_taxa_map.json")).read_text()))
    assert {v for v, _ in ln.labels}


def test_explain_refuses_bad_maps(capsys, tmp_path):
    bad = tmp_path / "c4.json"
    values = {("w", "x"): "A", ("x", "y"): "A", ("y", "z"): "A", ("w", "z"): "A"}
    from arboreal import SymbolicMap, TaxonSet

    bad.write_text(to_json(serialize_map(SymbolicMap.build(TaxonSet.of("wxyz"), values))))
    code, out, _ = run(capsys, "explain", "--input", str(bad))
    assert code == 1
    assert json.loads(out)["verdict"] == "not-ptolemaic"


def test_normalize_is_idempotent(capsys):
    code, once, _ = run(capsys, "normalize", "--input", fix("seven_taxa_network.json"))
    assert code == 0
    twice_in = Path(fix("seven_taxa_network.json"))
    assert parse_labelled(load_json(once)) == parse_labelled(load_json(twice_in.read_text()))


def test_represent_builds_a_network(capsys):
    code, out, _ = run(capsys, "represent", "--input", fix("two_quads.json"))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"network", "shared_ancestry_graph"}
    assert doc["shared_ancestry_graph"]["taxa"] == list("123456")


def test_represent_arboreal_flags_non_ptolemaic_graphs(capsys, count_calls):
    counts = count_calls([graphs._lexbfs])
    code, out, _ = run(capsys, "represent", "--arboreal", "--input", fix("c4.json"))
    assert code == 1
    # the LexBFS pass that rejects the graph also names the hole
    assert counts == {"_lexbfs": 1}
    doc = json.loads(out)
    assert doc["ptolemaic"] is False
    assert doc["witness"]["kind"] == "hole"
    assert sorted(doc["witness"]["vertices"]) == ["w", "x", "y", "z"]


def test_represent_arboreal_succeeds_on_the_quads(capsys):
    code, out, _ = run(capsys, "represent", "--arboreal", "--input", fix("two_quads.json"))
    assert code == 0
    assert "network" in json.loads(out)


def test_represent_orders_members_by_name_not_by_position(capsys, tmp_path):
    # the taxa are listed out of name order: the closure members become
    # vertices in the order of their member names, each read in taxon order
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({
        "taxa": ["d", "b", "e", "a", "c"],
        "edges": [["d", "b"], ["d", "e"], ["b", "e"], ["b", "a"], ["e", "a"],
                  ["a", "c"], ["e", "c"]],
    }))
    code, out, _ = run(capsys, "represent", "--dot", "--input", str(graph))
    assert (code, out) == (0, """digraph {
  0 [label="be", shape=diamond];
  1 [label="bea"];
  2 [label="dbe"];
  3 [label="e", shape=diamond];
  4 [label="ea", shape=diamond];
  5 [label="eac"];
  6 [label="a", shape=box];
  7 [label="b", shape=box];
  8 [label="c", shape=box];
  9 [label="d", shape=box];
  10 [label="e", shape=box];
  0 -> 3;
  0 -> 7;
  1 -> 0;
  1 -> 4;
  2 -> 0;
  2 -> 9;
  3 -> 10;
  4 -> 3;
  4 -> 6;
  5 -> 4;
  5 -> 8;
}
""")
    code, out, _ = run(capsys, "represent", "--input", str(graph))
    net = json.loads(out)["network"]
    assert net["names"] == ["be", "bea", "dbe", "e", "ea", "eac", "a", "b", "c", "d", "e'"]
    assert net["leaves"] == {"6": "a", "7": "b", "8": "c", "9": "d", "10": "e"}


def test_sag_inverts_represent(capsys, tmp_path):
    rep = tmp_path / "rep.json"
    run(capsys, "represent", "--input", fix("two_quads.json"), "--output", str(rep))
    netdoc = json.loads(rep.read_text())["network"]
    netfile = tmp_path / "net.json"
    netfile.write_text(to_json(netdoc))
    code, out, _ = run(capsys, "sag", "--input", str(netfile))
    assert code == 0
    assert json.loads(out) == json.loads(Path(fix("two_quads.json")).read_text())


def test_ptolemaic_verdicts(capsys):
    code, out, _ = run(capsys, "ptolemaic", "--input", fix("two_quads.json"))
    assert code == 0 and json.loads(out)["ptolemaic"] is True
    code, out, _ = run(capsys, "ptolemaic", "--input", fix("c4.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["ptolemaic"] is False
    assert doc["witness"]["kind"] == "hole"


def test_ecc_reports_size_and_cover(capsys):
    code, out, _ = run(capsys, "ecc", "--input", fix("two_quads.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 2
    assert sorted(doc["cover"]) == [["1", "2", "3", "4"], ["3", "4", "5", "6"]]


def test_dot_output_is_graphviz(capsys):
    code, out, _ = run(capsys, "explain", "--input", fix("seven_taxa_map.json"), "--dot")
    assert code == 0
    assert out.startswith("digraph ")


def test_gen_is_deterministic(capsys):
    code, one, _ = run(capsys, "gen", "--seed", "5", "--count", "2", "--max-n", "6")
    assert code == 0
    code, two, _ = run(capsys, "gen", "--seed", "5", "--count", "2", "--max-n", "6")
    assert one == two
    doc = json.loads(one)
    assert doc["seed"] == 5 and len(doc["instances"]) == 2
    inst = doc["instances"][0]
    assert {"labelled_network", "map"} <= set(inst)


def test_selftest_formats_one_line_per_criterion(capsys, monkeypatch):
    fakes = [
        CriterionResult("always-green", True, "ok", 0.01),
        CriterionResult("always-red", False, "boom", 0.02),
    ]
    monkeypatch.setattr("arboreal.selftest.run_all", lambda budget=None: fakes)
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS always-green")
    assert lines[1].startswith("FAIL always-red")
    assert "1/2" in lines[-1]


@pytest.mark.parametrize("budget", ["soon", "nan", "-1"])
def test_selftest_rejects_a_bad_budget(capsys, monkeypatch, budget):
    monkeypatch.setattr("arboreal.selftest.run_all", lambda budget=None: pytest.fail("ran"))
    monkeypatch.setenv("ARBOREAL_SELFTEST_BUDGET", budget)
    code, out, err = run(capsys, "selftest")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("verb, what, doc", [
    ("check", "map", {"taxa": ["a", "b"], "values": [["a", "z", "X"]]}),
    ("ptolemaic", "graph", {"taxa": ["a", "b", "c"], "edges": [["a", "z"]]}),
])
def test_an_unknown_taxon_is_named(capsys, tmp_path, verb, what, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, verb, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: bad {what} document: unknown taxon 'z'\n"


CHERRY = {"vertices": 3, "arcs": [[0, 1], [0, 2]], "leaves": {"1": "a", "2": "b"}}
LABELLED_CHERRY = {**CHERRY, "labels": {"0": "A"}}


@pytest.mark.parametrize("verb, doc, message", [
    ("sag", {**CHERRY, "arcs": [[0, 1.7], [0, 2]]},
     "bad network document: vertices and arc endpoints must be integers"),
    ("sag", {**CHERRY, "arcs": [[0, True], [0, 2]]},
     "bad network document: vertices and arc endpoints must be integers"),
    ("sag", {**CHERRY, "vertices": 3.5},
     "bad network document: vertices and arc endpoints must be integers"),
    ("sag", {**CHERRY, "names": ["x", "y"]},
     "bad network document: names must hold one string per vertex"),
    ("sag", {**CHERRY, "names": ["x", "y", 3]},
     "bad network document: names must hold one string per vertex"),
    ("check", {"taxa": "ab", "values": [["a", "b", "A"]]},
     "bad map document: taxa must be a list"),
    ("ptolemaic", {"taxa": "ab", "edges": [["a", "b"]]},
     "bad graph document: taxa must be a list"),
    ("sag", {**CHERRY, "leaves": {"1": 7, "2": "b"}},
     "bad network document: leaf taxa must be strings"),
    ("sag", {**CHERRY, "leaves": {"1": ["a"], "2": "b"}},
     "bad network document: leaf taxa must be strings"),
    ("sag", {**CHERRY, "leaves": {" 1": "a", "2": "b"}},
     "bad network document: vertex key ' 1' is not written as a plain integer"),
    ("sag", {**CHERRY, "leaves": {"01": "a", "2": "b"}},
     "bad network document: vertex key '01' is not written as a plain integer"),
    ("sag", {**CHERRY, "leaves": {"1": "a", "+2": "b"}},
     "bad network document: vertex key '+2' is not written as a plain integer"),
    ("sag", {**CHERRY, "leaves": {"0_1": "a", "2": "b"}},
     "bad network document: vertex key '0_1' is not written as a plain integer"),
    ("evaluate", {**LABELLED_CHERRY, "labels": {" 0": "A"}},
     "bad labelled network document: vertex key ' 0' is not written as a plain integer"),
    ("evaluate", {**LABELLED_CHERRY, "labels": {"00": "A"}},
     "bad labelled network document: vertex key '00' is not written as a plain integer"),
    ("evaluate", {**LABELLED_CHERRY, "labels": {"+0": "A"}},
     "bad labelled network document: vertex key '+0' is not written as a plain integer"),
    ("evaluate", {**LABELLED_CHERRY, "labels": {"0_0": "A"}},
     "bad labelled network document: vertex key '0_0' is not written as a plain integer"),
    ("evaluate", {**LABELLED_CHERRY, "labels": {"0": True}},
     "bad labelled network document: labels are non-empty symbol strings, gap excluded"),
    ("check", {"taxa": ["a", "b"], "symbols": "AB", "values": [["a", "b", "A"]]},
     "bad map document: symbols must be a list"),
    ("check", {"taxa": ["a", "b"], "values": ["abA"]},
     "bad map document: each value row must be a list"),
    ("ptolemaic", {"taxa": ["a", "b"], "edges": ["ab"]},
     "bad graph document: each edge must be a list"),
    ("sag", {**CHERRY, "names": "xyz"},
     "bad network document: names must hold one string per vertex"),
    ("sag", {**CHERRY, "names": ["x"], "leaves": {"1": 7, "2": "b"}},
     "bad network document: leaf taxa must be strings"),
    ("check", {"taxa": ["a", "b"], "values": {}},
     "bad map document: values must be a list"),
    ("ptolemaic", {"taxa": ["a", "b"], "edges": {}},
     "bad graph document: edges must be a list"),
    ("sag", {**CHERRY, "arcs": {}},
     "bad network document: arcs must be a list"),
])
def test_a_document_is_read_as_written(capsys, tmp_path, verb, doc, message):
    # no field is coerced: a float, a boolean, a short name list, a string
    # or an object for a list, a non-string taxon or label, or a vertex key
    # not written as a plain integer is refused rather than read as
    # something else
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, verb, "--input", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_input_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "check", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run(capsys, "check", "--input", str(bad))
    assert code == 2
    assert "line 1" in err


def test_consecutive_calls_share_no_argument_values(capsys, tmp_path):
    code, out, _ = run(capsys, "represent", "--arboreal", "--input", fix("c4.json"))
    assert code == 1 and json.loads(out)["ptolemaic"] is False
    code, out, _ = run(capsys, "represent", "--input", fix("c4.json"))
    assert code == 0 and set(json.loads(out)) == {"network", "shared_ancestry_graph"}

    dot = tmp_path / "out.dot"
    code, out, _ = run(
        capsys, "explain", "--dot", "--input", fix("seven_taxa_map.json"), "--output", str(dot)
    )
    assert code == 0 and out == "" and dot.read_text().startswith("digraph ")
    code, out, _ = run(capsys, "explain", "--input", fix("seven_taxa_map.json"))
    assert code == 0 and "labels" in json.loads(out)

    code, out, _ = run(capsys, "gen", "--seed", "5", "--count", "1", "--max-n", "4")
    assert code == 0
    code, out, _ = run(capsys, "gen", "--max-n", "4")
    doc = json.loads(out)
    assert (doc["seed"], doc["count"]) == (0, 10)


GEM_EDGES = [("a", "b"), ("b", "c"), ("c", "d")] + [("e", v) for v in "abcd"]


def test_a_missing_gem_witness_is_an_error(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("arboreal.graphs.contains_gem", lambda g: None)
    graph = tmp_path / "gem.json"
    graph.write_text(to_json(serialize_graph(UGraph.build("abcde", GEM_EDGES))))
    gem_map = tmp_path / "gem_map.json"
    d = SymbolicMap.build(TaxonSet.of("abcde"), {e: "A" for e in GEM_EDGES})
    gem_map.write_text(to_json(serialize_map(d)))
    for argv in (("ptolemaic", "--input", str(graph)), ("check", "--input", str(gem_map))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def cli_process(*args, hash_seed=None):
    # the CLI as its own interpreter: (exit code, stdout, stderr)
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(FIXTURES.parent / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


MAP_FIXTURES = ["module_demo_map.json", "seven_taxa_map.json", "seven_taxa_map.tri"]
GRAPH_FIXTURES = ["c4.json", "two_quads.json"]


@pytest.mark.parametrize("argv", [
    *[[*verb, name] for name in MAP_FIXTURES
      for verb in (["check"], ["explain"], ["explain", "--dot"])],
    *[[*verb, "seven_taxa_network.json"]
      for verb in (["evaluate"], ["normalize"], ["normalize", "--dot"], ["sag"])],
    *[[*verb, name] for name in GRAPH_FIXTURES
      for verb in (["represent"], ["represent", "--arboreal"], ["ptolemaic"], ["ecc"])],
], ids=" ".join)
def test_optimized_interpreter_gives_the_same_output(argv):
    # python -O strips asserts, so no verdict or output may rest on one
    *verb, name = argv
    call = ["-m", "arboreal.cli", *verb, "--input", fix(name)]
    assert cli_process("-O", *call) == cli_process(*call)


def test_the_first_bad_edge_is_named_whatever_the_hash_seed(tmp_path):
    # edges are checked in document order, not in the order of a set
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(
        {"taxa": ["a", "b", "c"], "edges": [["a", "a"], ["a", "z"], ["b", "b", "c"]]}
    ))
    for seed in range(8):
        got = cli_process("-m", "arboreal.cli", "represent", "--input", str(path), hash_seed=seed)
        assert got == (
            2, "", "error: bad graph document: pair endpoints must differ, got 'a' twice\n"
        ), seed
