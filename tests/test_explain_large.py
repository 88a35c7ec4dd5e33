"""`explain` at sizes the small fixtures never reach: exact output bytes on
three maps of 60-100 taxa, and round trips at 400 taxa.

The maps are read off seeded `random_labelled_network` draws with 2-4 roots
and 3 symbols.  The golden record keeps each input in triangular text next
to the exact `explain` stdout.  Regenerate it, only for an intended output
change, with

    PYTHONPATH=src python tests/test_explain_large.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from arboreal import LabelledNetwork, are_isomorphic, evaluate_map, explain, make_discriminating
from arboreal.cli import main
from arboreal.io import serialize_triangular
from arboreal.oracle import GenParams, random_labelled_network

GOLDEN = Path(__file__).resolve().parent / "golden" / "explain_large.json"

# (taxa, roots, seed) of each pinned map
CASES = [(60, 2, 11), (80, 3, 12), (100, 4, 13)]


def _source(n: int, roots: int, seed: int) -> LabelledNetwork:
    return random_labelled_network(
        GenParams(leaf_range=(n, n), root_range=(roots, roots), symbol_count=3, seed=seed)
    )


def _explain_cli(text: str, tmp: Path) -> tuple:
    path = tmp / "map.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["explain", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def _record(tmp: Path) -> dict:
    record = {}
    for n, roots, seed in CASES:
        text = serialize_triangular(evaluate_map(_source(n, roots, seed)))
        code, stdout, stderr = _explain_cli(text, tmp)
        if code != 0 or stderr:
            raise SystemExit(f"explain rejected the map of case {(n, roots, seed)}: {stderr}")
        record[_key(n, roots, seed)] = {"input": text, "stdout": stdout}
    return record


def _key(n: int, roots: int, seed: int) -> str:
    return f"n={n} roots={roots} seed={seed}"


@pytest.mark.parametrize("n, roots, seed", CASES)
def test_explain_prints_the_recorded_bytes(n, roots, seed, tmp_path):
    case = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(n, roots, seed)]
    assert _explain_cli(case["input"], tmp_path) == (0, case["stdout"], "")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_explain_round_trips_at_400_taxa(seed):
    source = _source(400, 3, seed)
    d = evaluate_map(source)
    out = explain(d)
    assert isinstance(out, LabelledNetwork)
    assert evaluate_map(out) == d
    assert are_isomorphic(make_discriminating(out), make_discriminating(source))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(
            json.dumps(_record(Path(tmp)), indent=1, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    sys.exit(0)
