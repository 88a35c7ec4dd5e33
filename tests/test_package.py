"""The package's public names, and what its source may not rely on."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import arboreal
from arboreal import errors

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_binds_no_module():
    assert arboreal.__all__
    modules = [name for name in arboreal.__all__ if isinstance(getattr(arboreal, name), ModuleType)]
    assert modules == []


def test_no_guard_relies_on_assert():
    # `python -O` strips assert statements, so library and script code must
    # raise its errors explicitly
    sources = sorted((ROOT / "src" / "arboreal").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_error_class_is_raised():
    # an error class outlives its purpose once no code raises it
    raised = set()
    for path in sorted((ROOT / "src" / "arboreal").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ArborealError)
    }
    assert len(classes) > 1
    assert sorted(classes - {"ArborealError"} - raised) == []


def test_the_cli_imports_the_selftest_suites_only_when_asked():
    # a fresh `import arboreal.cli` is the start-up cost of every command
    probe = "import sys, arboreal.cli; print('arboreal.selftest' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"
