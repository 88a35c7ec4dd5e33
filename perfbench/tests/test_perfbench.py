"""Tests for the benchmark: every workload end to end on small inputs, the
result line against BENCHMARK.json, and each output check against
corrupted outputs.  Run with `python3 -m pytest perfbench/tests`.

Where a corruption might by chance leave an output correct, the program's
own functions decide whether it matters, and the benchmark's check must
agree with them; at least one corruption per case must be caught.
"""
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import combinations, islice
from pathlib import Path

import pytest

import gen
import run
import workloads
from arboreal import cli
from arboreal.cliques import maximal_cliques
from arboreal.io import parse_graph, parse_labelled, parse_map, parse_network
from arboreal.networks import shared_ancestry_graph
from arboreal.symbolic import Violation, check_violation, evaluate_map, is_discriminating
from reference import CheckFailed

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SMALL = {
    "explain-accept": lambda seed: workloads.explain_accept(seed, ((8, 2), (12, 1))),
    "check-reject": lambda seed: workloads.check_reject(seed, ((12, 1),)),
    "represent-cover": lambda seed: workloads.represent_cover(
        seed, ((20, 0.3), (24, 0.5)), ((20, 4, 3),)),
    "networks-deep": lambda seed: workloads.networks_deep(
        seed, ((20, "caterpillar", 2), (30, "deep", 3))),
}


def outputs(requests):
    out = []
    for r in requests:
        code, text, err, _ = run.attempt(cli.main, r)
        assert code == r.exit_code, err
        out.append(text)
    return out


def rejects(check, text) -> bool:
    try:
        check(text)
    except CheckFailed:
        return True
    return False


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_a_round_passes_every_check(workload):
    result = run.measure(cli.main, SMALL[workload](3), seconds=0, min_requests=1)
    assert result["rounds"] == 1
    assert result["failures"] == []
    assert result["wrong"] == 0


def test_a_wrong_output_found_in_the_forked_check_counts_as_failed():
    requests = SMALL["explain-accept"](3)

    def refuse(text):
        raise CheckFailed("refused")

    broken = [dataclasses.replace(requests[0], check=refuse)] + requests[1:]
    result = run.measure(cli.main, broken, seconds=0, min_requests=1)
    assert result["wrong"] == 1
    assert len(result["failures"]) == 1 and "refused" in result["failures"][0]


def test_a_forked_copy_that_fails_is_reported():
    assert run.in_child(lambda: {"a": [1, None]}) == {"a": [1, None]}
    with pytest.raises(run.ChildFailed):
        run.in_child(lambda: 1 / 0)


def test_inputs_depend_only_on_the_seed():
    for name, make in workloads.WORKLOADS.items():
        a, b, c = make(5), make(5), make(6)
        assert [r.text for r in a] == [r.text for r in b], name
        assert [r.text for r in a] != [r.text for r in c], name
        assert sorted((r.verb, r.size, r.tag) for r in a) == sorted((r.verb, r.size, r.tag) for r in c)


def test_each_workload_is_the_union_of_its_request_sets():
    parts = {"maps": (workloads.explain_accept, workloads.check_reject),
             "networks": (workloads.represent_cover, workloads.networks_deep)}
    assert set(parts) == set(workloads.WORKLOADS)
    for name, (a, b) in parts.items():
        texts = sorted(r.text for r in workloads.WORKLOADS[name](2))
        assert texts == sorted(r.text for r in a(2) + b(2)), name


def test_check_reject_plants_every_kind_once_per_slot():
    kinds = [r.tag for r in workloads.check_reject(1, ((12, 1), (14, 2)))]
    assert sorted(kinds) == sorted(workloads.KINDS * 3)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace, monkeypatch, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "WORKLOADS", {**workloads.WORKLOADS, "check-reject": SMALL["check-reject"]})
    monkeypatch.setattr(run, "MIN_REQUESTS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(["--workload", "check-reject", "--seed", "2", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.KINDS)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["graphs.contains_gem.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "maps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout


# -- each check rejects a corrupted output -------------------------------------


def test_evaluation_check_rejects_a_flipped_value():
    request = next(r for r in SMALL["networks-deep"](4) if r.verb == "evaluate")
    (text,) = outputs([request])
    request.check(text)
    doc = json.loads(text)
    flips = 0
    for row in doc["values"]:
        old = row[2]
        for new in [None, *doc["symbols"]]:
            if new == old:
                continue
            row[2] = new
            assert rejects(request.check, json.dumps(doc)), (row, old)
            flips += 1
        row[2] = old
    assert flips > 0


def test_verdict_check_rejects_a_swapped_taxon():
    requests = SMALL["check-reject"](4)
    for request, text in zip(requests, outputs(requests)):
        request.check(text)
        d = parse_map(json.loads(request.text))
        doc = json.loads(text)
        caught = 0
        for i in range(len(doc["witness"])):
            for t in d.taxa.taxa:
                if t in doc["witness"]:
                    continue
                bad = dict(doc, witness=doc["witness"][:i] + [t] + doc["witness"][i + 1:])
                if rejects(request.check, json.dumps(bad)):
                    caught += 1
                else:
                    assert check_violation(d, Violation(bad["verdict"], tuple(bad["witness"])))
        assert caught > 0, doc


def moved_arcs(doc):
    """Copies of a network document with one arc's head moved onto another
    leaf's place under a different tail, keeping the document well formed."""
    arcs = [tuple(a) for a in doc["arcs"]]
    tails = sorted({u for u, _ in arcs})
    for k, (u, v) in enumerate(arcs):
        for w in tails:
            if w != u and (w, v) not in arcs and w != v:
                yield dict(doc, arcs=[list(a) for a in arcs[:k] + [(w, v)] + arcs[k + 1:]])


def well_formed_network(doc, parse):
    try:
        return parse(doc)
    except Exception:
        return None


def test_explanation_check_rejects_a_moved_arc():
    request = SMALL["explain-accept"](5)[2]
    (text,) = outputs([request])
    request.check(text)
    d = parse_map(json.loads(request.text))
    caught = 0
    for bad in islice(moved_arcs(json.loads(text)), 400):
        ln = well_formed_network(bad, parse_labelled)
        if ln is None or evaluate_map(ln) != d:
            assert rejects(request.check, json.dumps(bad))
            caught += 1
    assert caught > 0


def test_representation_check_rejects_a_moved_arc():
    request = min(SMALL["represent-cover"](5), key=lambda r: len(r.text))
    (text,) = outputs([request])
    request.check(text)
    g = parse_graph(json.loads(request.text))
    cliques = set(maximal_cliques(g).sets)
    doc = json.loads(text)
    caught = 0
    for bad in islice(moved_arcs(doc["network"]), 400):
        net = well_formed_network(bad, parse_network)
        if net is not None:
            clusters = {frozenset(net.taxon_of(w) for w in net.descendants(r) if net.is_leaf(w))
                        for r in net.roots}
        if net is None or shared_ancestry_graph(net) != g or clusters != cliques:
            assert rejects(request.check, json.dumps(dict(doc, network=bad)))
            caught += 1
    assert caught > 0


def test_normal_form_check_rejects_a_foldable_arc():
    request = next(r for r in SMALL["networks-deep"](6) if r.verb == "normalize")
    (text,) = outputs([request])
    request.check(text)
    doc = json.loads(text)
    kids = {}
    for u, v in doc["arcs"]:
        kids.setdefault(u, []).append(v)
    # split a vertex with three or more children: a fresh copy with the same
    # label takes two of them, leaving an arc the second rule would fold
    u = next(u for u, vs in sorted(kids.items()) if len(vs) >= 3)
    copy = doc["vertices"]
    moved = kids[u][:2]
    arcs = [a for a in doc["arcs"] if not (a[0] == u and a[1] in moved)]
    arcs += [[u, copy]] + [[copy, v] for v in moved]
    bad = dict(doc, vertices=copy + 1, arcs=arcs,
               labels={**doc["labels"], str(copy): doc["labels"][str(u)]})
    ln = parse_labelled(bad)
    assert not is_discriminating(ln)
    assert evaluate_map(ln) == evaluate_map(parse_labelled(doc))
    assert rejects(request.check, json.dumps(bad))


def test_not_connected_verdict_is_verified():
    taxa = ["a", "b", "c", "d"]
    d = {frozenset(p): None for p in combinations(taxa, 2)}
    d[frozenset("ab")] = d[frozenset("cd")] = "x"
    text = json.dumps(gen.map_doc(taxa, d, ["x"]))
    request = workloads.Request("check", text, 1, workloads._check_verdict("not-connected", taxa, d), 4, "")
    (out,) = outputs([request])
    request.check(out)
    doc = json.loads(out)
    assert doc["witness"] == ["a", "b"]
    assert rejects(request.check, json.dumps(dict(doc, witness=["a", "c"])))
