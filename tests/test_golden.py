"""`isocert paper-examples` and `isocert test` against recorded golden references.

tests/data/paper_examples.json is the command's output, recorded with
`PYTHONPATH=src python -m isocert.cli paper-examples --out tests/data/paper_examples.json`.
tests/data/test_reports.json maps one `isocert test` command line per display
(restricted, exp-power, power-beta) to the JSON report it prints, rows and
details included.  Re-record either only when a change is meant to move the
paper's numbers, and say so in CHANGES.md.  Strings, booleans and nulls
(verdicts, flags, labels) must match exactly; numbers must match to 1e-9
relative, except the empirical constants C_hat / B_hat (and their enriched
variants), which are held to 1e-6.
"""

import json
import math
import shlex
from pathlib import Path

import pytest

from isocert.cli import main

GOLDEN = Path(__file__).parent / "data" / "paper_examples.json"
TEST_REPORTS = json.loads((Path(__file__).parent / "data" / "test_reports.json").read_text(encoding="utf-8"))
RTOL = 1e-9
RTOL_CONSTANTS = 1e-6


def _tolerance(key):
    return RTOL_CONSTANTS if key.startswith(("C_hat", "B_hat")) else RTOL


def _mismatches(got, want, path="", key=""):
    """Every place where got departs from want, as readable strings."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{path}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}", k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]", key)]
    numeric = isinstance(want, (int, float)) and not isinstance(want, bool)
    if numeric and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=_tolerance(key), abs_tol=0.0):
            return []
    elif got == want and type(got) is type(want):
        return []
    return [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "paper_examples.json"
    assert main(["paper-examples", "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_paper_examples_match_golden_reference(fresh):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _mismatches(fresh, want) == []


@pytest.mark.parametrize("command", list(TEST_REPORTS), ids=lambda c: c.split("--display ")[1].split()[0])
def test_test_reports_match_golden_reference(command, tmp_path):
    out = tmp_path / "report.json"
    assert main(shlex.split(command) + ["--out", str(out)]) == 0
    assert _mismatches(json.loads(out.read_text(encoding="utf-8")), TEST_REPORTS[command]) == []


def test_comparison_catches_moved_numbers_and_labels():
    want = {"verdict": "FINITE", "integral_estimate": 0.5, "C_hat": 2.0, "flags": []}
    assert _mismatches(dict(want), want) == []
    assert _mismatches({**want, "integral_estimate": 0.5 * (1 + 1e-8)}, want)
    assert _mismatches({**want, "C_hat": 2.0 * (1 + 1e-7)}, want) == []
    assert _mismatches({**want, "C_hat": 2.0 * (1 + 1e-5)}, want)
    assert _mismatches({**want, "verdict": "INCONCLUSIVE"}, want)
    assert _mismatches({**want, "flags": ["cost_extrapolated_beyond_grid"]}, want)
    assert _mismatches({**want, "integral_estimate": None}, want)
