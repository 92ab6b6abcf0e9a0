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

tests/data/library_reports.json pins the library entry points that no
subcommand reaches: one fixed input per name in LIBRARY_CASES, its report
through dataclasses.asdict with each array summarised by _summary.  It was
recorded with

    PYTHONPATH=src:tests python -c "import json, test_golden; print(json.dumps(test_golden.library_reports(), indent=1))" \
        > tests/data/library_reports.json

and is held to the same tolerances.
"""

import dataclasses
import functools
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from isocert.checker import verify_growth_condition
from isocert.cli import main
from isocert.convex import CostFunction, check_condition_H, double_conjugate
from isocert.entropy import F_tau, lemma32_bound_check, log_entropy
from isocert.measure1d import (
    SampledFunction,
    bobkov_bound_check,
    bobkov_goetze,
    builtin_measure,
    cheeger_constant,
    kolmogorov_distance,
    lemma41_ratio,
    rearrange,
)
from isocert.tester import TestFamily, lemma_3_3_check, lemma_3_4_check

from conftest import exp_member

GOLDEN = Path(__file__).parent / "data" / "paper_examples.json"
TEST_REPORTS = json.loads((Path(__file__).parent / "data" / "test_reports.json").read_text(encoding="utf-8"))
LIBRARY_REPORTS = Path(__file__).parent / "data" / "library_reports.json"
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


@functools.cache
def _mu(name):
    if name == "gauss":
        return builtin_measure("gauss", n=4096)
    return builtin_measure("exp_power", alpha=1.5, n=4096)


def _wave(mu):
    return SampledFunction.from_callable(mu, lambda x: 1.0 + np.sin(2.0 * x) ** 2 + 0.1 * x * x, name="wave")


_G = np.linspace(0.0, 20.0, 801)
_SAMPLED_COST = (_G, _G**2 / 2 + _G**4 / 4)

LIBRARY_CASES = {
    "check_condition_H closed form": lambda: check_condition_H(CostFunction.closed_form(1.0, 1.5), (1.0, 2.0, 3.0)),
    "check_condition_H sampled": lambda: check_condition_H(CostFunction.from_samples(*_SAMPLED_COST), (1.0, 2.0, 3.0)),
    "double_conjugate closed form": lambda: double_conjugate(
        CostFunction.closed_form(1.0, 1.5), primal_grid=np.linspace(0.0, 10.0, 2000)
    ),
    "double_conjugate sampled": lambda: double_conjugate(CostFunction.from_samples(*_SAMPLED_COST)),
    "double_conjugate pair": lambda: double_conjugate(_SAMPLED_COST),
    "lemma32_bound_check log": lambda: lemma32_bound_check(log_entropy(), 0.25),
    "lemma32_bound_check F_tau(0.5)": lambda: lemma32_bound_check(F_tau(0.5), 0.5),
    "lemma_3_3_check gauss": lambda: lemma_3_3_check(_mu("gauss"), log_entropy(), exp_member(_mu("gauss"), 1.0), exp_member(_mu("gauss"), 0.5)),
    "lemma_3_3_check exp_power:1.5": lambda: lemma_3_3_check(
        _mu("exp_power"), F_tau(0.5), _wave(_mu("exp_power")), exp_member(_mu("exp_power"), 1.0)
    ),
    "lemma_3_4_check gauss": lambda: lemma_3_4_check(_mu("gauss"), log_entropy(), 2.0, TestFamily("exponential", (0.5, 1.0))),
    "lemma_3_4_check exp_power:1.5": lambda: lemma_3_4_check(
        _mu("exp_power"), F_tau(0.5), 4.0, TestFamily("bump", (0.5, 2.0))
    ),
    "lemma41_ratio gauss": lambda: lemma41_ratio(_mu("gauss")),
    "lemma41_ratio exp_power:1.5": lambda: lemma41_ratio(_mu("exp_power"), r_range=(0.5, 17.0), n=600),
    "window_sup gauss": lambda: lemma41_ratio(_mu("gauss"), r_range=(0.5, 6.0), n=800).window_sup(3.0, 5.0),
    "verify_growth_condition gauss": lambda: verify_growth_condition(_mu("gauss"), lambda r: 0.25 * r * r, alpha=2.0),
    "verify_growth_condition gauss, phi log": lambda: verify_growth_condition(
        _mu("gauss"), lambda r: 0.25 * r * r, phi=log_entropy(), alpha=2.0
    ),
    "verify_growth_condition exp_power:1.5, phi log": lambda: verify_growth_condition(
        _mu("exp_power"), lambda r: 0.3 * r**1.5, phi=log_entropy(), alpha=1.5
    ),
    "cheeger_constant gauss": lambda: cheeger_constant(_mu("gauss")),
    "cheeger_constant exp_power:1.5": lambda: cheeger_constant(_mu("exp_power")),
    "bobkov_goetze gauss": lambda: bobkov_goetze(_mu("gauss")),
    "bobkov_goetze exp_power:1.5": lambda: bobkov_goetze(_mu("exp_power")),
    "bobkov_bound_check gauss": lambda: bobkov_bound_check(_mu("gauss"), np.linspace(0.01, 0.5, 50)),
    "bobkov_bound_check exp_power:1.5": lambda: bobkov_bound_check(_mu("exp_power"), np.geomspace(1e-12, 0.5, 60)),
    "rearrange gauss": lambda: rearrange(_mu("gauss"), _wave(_mu("gauss"))),
    "kolmogorov_distance gauss": lambda: kolmogorov_distance(_mu("gauss"), _wave(_mu("gauss")), rearrange(_mu("gauss"), _wave(_mu("gauss")))),
}


def _summary(a):
    """An array as its size and the count, exact sum, min and max of its finite entries."""
    a = np.asarray(a, dtype=float).ravel()
    fin = a[np.isfinite(a)]
    if not fin.size:
        return {"size": a.size, "finite": 0, "fsum": 0.0, "min": None, "max": None}
    return {"size": a.size, "finite": fin.size, "fsum": math.fsum(fin), "min": float(fin.min()), "max": float(fin.max())}


def _plain(value):
    """value with dataclasses as dicts, tuples as lists and arrays as _summary."""
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _summary(value)
    return value


def library_reports():
    return {name: _plain(case()) for name, case in LIBRARY_CASES.items()}


@pytest.mark.parametrize("name", list(LIBRARY_CASES))
def test_library_reports_match_golden_reference(name):
    want = json.loads(LIBRARY_REPORTS.read_text(encoding="utf-8"))[name]
    assert _mismatches(_plain(LIBRARY_CASES[name]()), want) == []


def test_library_reference_covers_every_case():
    assert list(json.loads(LIBRARY_REPORTS.read_text(encoding="utf-8"))) == list(LIBRARY_CASES)
