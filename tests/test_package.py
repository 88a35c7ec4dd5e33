"""The package's public names, and what its source may not rely on."""

import ast
from pathlib import Path
from types import ModuleType

import arboreal

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
