"""The example scripts run to completion against the installed package, and
stop with exit code 1 when one of their checks fails."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arboreal import LabelledNetwork, validate_network

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [["scripts/demo_pipeline.py"], ["scripts/survey_small_graphs.py", "--max-n", "5"]],
    ids=["demo_pipeline", "survey_small_graphs"],
)
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def run_demo_with(monkeypatch, name, stub):
    spec = importlib.util.spec_from_file_location("demo_pipeline", ROOT / "scripts/demo_pipeline.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, name, stub)
    monkeypatch.setattr(sys, "argv", ["demo_pipeline.py"])
    with pytest.raises(SystemExit) as exit_:
        demo.main()
    return exit_.value.code


def test_demo_pipeline_exits_1_on_a_failed_check(monkeypatch, capsys):
    assert run_demo_with(monkeypatch, "shared_ancestry_graph", lambda net: None) == 1
    assert "shared ancestry graph differs" in capsys.readouterr().err


def _cherry_explanation(d):
    net = validate_network([(0, 1), (0, 2)], {1: "a", 2: "b"})
    return LabelledNetwork.build(net, {0: "A"})


@pytest.mark.parametrize("name, stub, message", [
    ("explain", _cherry_explanation, "does not reproduce the map"),
    ("verify_phi_bijection", lambda nf: False, "not in bijection"),
], ids=["round_trip", "phi_bijection"])
def test_demo_pipeline_exits_1_when_a_printed_check_fails(monkeypatch, capsys, name, stub, message):
    assert run_demo_with(monkeypatch, name, stub) == 1
    assert message in capsys.readouterr().err
