"""The example scripts run to completion against the installed package, and
stop with exit code 1 when one of their checks fails."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_demo_pipeline_exits_1_on_a_failed_check(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("demo_pipeline", ROOT / "scripts/demo_pipeline.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "shared_ancestry_graph", lambda net: None)
    monkeypatch.setattr(sys, "argv", ["demo_pipeline.py"])
    with pytest.raises(SystemExit) as exit_:
        demo.main()
    assert exit_.value.code == 1
    assert "shared ancestry graph differs" in capsys.readouterr().err
