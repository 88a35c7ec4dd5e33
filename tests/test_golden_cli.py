"""Every fixture under every input-reading verb and flag combination gives
exactly the stdout, stderr and exit code recorded in tests/golden/.

Input errors (exit 2) are recorded too.  The record pins the vertex
numbering of `explain`, `normalize` and `represent` output byte for byte.
Regenerate it, only for an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import sys
from itertools import product
from pathlib import Path

from arboreal.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden" / "cli_fixtures.json"

# each verb that reads --input, with the boolean flags it accepts
VERB_FLAGS = {
    "check": (),
    "explain": ("--dot",),
    "normalize": ("--dot",),
    "evaluate": (),
    "represent": ("--arboreal", "--dot"),
    "sag": ("--dot",),
    "ptolemaic": (),
    "ecc": (),
}


def _requests():
    for fixture in sorted(p.name for p in FIXTURES.iterdir()):
        for verb, flags in VERB_FLAGS.items():
            for chosen in product((False, True), repeat=len(flags)):
                yield [verb, *(f for f, on in zip(flags, chosen) if on), "--input", fixture]


def _run(argv: list) -> dict:
    *head, fixture = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*head, str(FIXTURES / fixture)])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record() -> dict:
    return {" ".join(argv): _run(argv) for argv in _requests()}


def test_fixture_outputs_match_the_golden_record():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _record()
    assert sorted(got) == sorted(expected)
    differing = [key for key in got if got[key] != expected[key]]
    assert not differing, differing


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(_record(), indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    sys.exit(0)
