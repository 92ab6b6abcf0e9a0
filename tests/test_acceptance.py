"""Acceptance checks: twelve top-level properties of the toolkit, one test each.

Each test states its tolerance inline and is independent of the others; run
with `pytest tests/test_acceptance.py -v` for one pass/fail line per property.
"""

import time

import numpy as np
import pytest

from isocert.checker import ConditionSpec, check_condition, check_exp_power
from isocert.cli import main
from isocert.convex import CostFunction, dual_cost, eval_cost, legendre_transform
from isocert.entropy import EntropyFunction, lemma32_bound_check, log_entropy, log_Phi
from isocert.measure1d import (
    bobkov_bound_check,
    builtin_measure,
    kolmogorov_distance,
    lemma41_ratio,
    rearrange,
)
from isocert.tester import (
    TestFamily,
    entropy_functional,
    modified_energy,
    verify_theorem_2_1,
    verify_theorem_4_4,
)

NINE_PAIRS = [(A, a) for A in (0.5, 1.0, 2.0) for a in (1.5, 2.0, 3.0)]


def test_01_numeric_conjugates_match_closed_form_duals():
    xs = np.linspace(0.0, 10.0, 2000)
    t0 = time.perf_counter()
    worst = 0.0
    for A, alpha in NINE_PAIRS:
        cost = CostFunction.closed_form(A, alpha)
        numeric = legendre_transform(cost, xs).values
        exact = eval_cost(dual_cost(cost), xs)
        rel = np.max(np.abs(numeric - exact) / (1.0 + np.abs(exact)))
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 1.0


def test_02_double_conjugation_recovers_the_cost():
    from isocert.convex import double_conjugate

    xs = np.linspace(0.0, 10.0, 2000)
    interior = slice(1, -1)
    for A, alpha in NINE_PAIRS:
        cost = CostFunction.closed_form(A, alpha)
        values = eval_cost(cost, xs)
        back, _ = double_conjugate(cost, primal_grid=xs)
        err = np.max(np.abs(back.values[interior] - values[interior]))
        assert err <= 1e-6 * (1.0 + float(np.max(np.abs(values))))


def test_03_conjugate_of_log_entropy_is_the_exponential():
    x = np.linspace(0.0, 5.0, 512)
    values = np.exp(log_Phi(log_entropy(), x))
    rel = np.max(np.abs(values - np.exp(x)) / np.exp(x))
    assert rel <= 1e-5


def test_04_flattened_entropy_stays_below_the_power_envelope():
    from isocert.entropy import F_tau

    for F in (log_entropy(), F_tau(0.5)):
        for delta in (0.1, 0.25, 0.5):
            rep = lemma32_bound_check(F, delta, y_range=(1.0, 1e6))
            assert rep.T is not None and 1.0 <= rep.T <= 1e6
            assert rep.min_margin >= 0.0


def test_05_gaussian_log_sobolev_saturation():
    mu = builtin_measure("gauss", n=4001, support=(-12.0, 12.0), grid_kind="uniform")
    F = log_entropy()
    quad = CostFunction.closed_form(1.0, 2.0)
    from isocert.measure1d import SampledFunction

    for lam in (0.25, 0.5, 1.0):
        t0 = time.perf_counter()
        f = SampledFunction.from_callable(
            mu,
            lambda x, l=lam: np.exp(0.5 * l * x),
            dfn=lambda x, l=lam: 0.5 * l * np.exp(0.5 * l * x),
            log_deriv_fn=lambda x, l=lam: np.full_like(x, 0.5 * l),
        )
        # f^2 c*(|f'|/f) integrates to half the gradient energy for this cost
        ratio = entropy_functional(mu, f, F) / (4.0 * modified_energy(mu, f, quad))
        elapsed = time.perf_counter() - t0
        assert ratio == pytest.approx(1.0, abs=1e-3)
        assert elapsed < 1.0


def iterated_log_entropy():
    """Concave increasing F with F(1) = 0 growing like log^2(log y)."""
    knot = float(np.exp(np.e))  # log(log knot) = 1

    def fn(y):
        y = np.asarray(y, dtype=float)
        tail = np.log(np.log(np.maximum(y, knot))) ** 2 + 1.0
        glue = 2.0 + (2.0 / np.e) * np.log(np.minimum(y, knot) / knot)
        return np.where(y >= knot, tail, glue)

    return EntropyFunction(fn=fn, name="log2log")


def test_06_integrability_verdict_table():
    F = log_entropy()

    t0 = time.perf_counter()
    rep = check_condition(ConditionSpec(builtin_measure("gauss"), F, delta=0.5, K=2.0))
    assert rep.verdict == "FINITE"
    assert time.perf_counter() - t0 < 5.0

    exp_mu = builtin_measure("exp")
    for delta in (0.25, 1.0, 2.0):
        t0 = time.perf_counter()
        rep = check_condition(ConditionSpec(exp_mu, F, delta=delta, K=2.0))
        assert rep.verdict == "DIVERGENT_LIKELY"
        assert time.perf_counter() - t0 < 5.0

    t0 = time.perf_counter()
    rep = check_condition(
        ConditionSpec(builtin_measure("loglog"), iterated_log_entropy(), delta=0.25, K=4.0)
    )
    assert rep.verdict == "FINITE"
    assert rep.tail_p < 1.0  # fitted integrand exponent
    assert time.perf_counter() - t0 < 5.0

    t0 = time.perf_counter()
    pair = check_exp_power(builtin_measure("exp_power", alpha=1.5), 1.5, 1.0)  # energy cost exponent 3, dual exponent 3/2
    assert pair.run_cost.verdict == "FINITE"
    assert pair.run_quadratic.verdict == "FINITE"
    assert time.perf_counter() - t0 < 5.0


def test_07_profile_ratio_windows_stabilize():
    for alpha in (1.0, 1.5, 2.0):
        mu = builtin_measure("exp_power", alpha=alpha)
        rep = lemma41_ratio(mu, r_range=(0.5, 17.0), n=1200)
        sups = [rep.window_sup(R, 2.0 * R) for R in (2.0, 4.0, 8.0)]
        for a, b in zip(sups, sups[1:]):
            # 1e-4 slack absorbs tail-discretization jitter when the true
            # ratio is exactly constant (alpha = 1); a window past the
            # trusted tail reports 0.0 and counts as stabilized
            assert b <= a + 1e-4
    gauss = builtin_measure("gauss")
    value = lemma41_ratio(gauss, r_range=(0.5, 6.0), n=800).window_sup(3.0, 5.0)
    assert 0.35 <= value <= 0.7


def test_08_halfline_isoperimetric_lower_bound_margins():
    t = np.linspace(0.01, 0.5, 50)
    for name in ("gauss", "exp"):
        rep = bobkov_bound_check(builtin_measure(name), t)
        assert float(np.min(rep.margins)) >= -1e-8


def test_09_rearrangement_preserves_the_law():
    mu = builtin_measure("gauss")
    cell = float(np.max(mu.node_mass))
    members = TestFamily("random_smooth", tuple(range(20)), seed=0).members(mu)
    assert len(members) == 20
    for sf in members:
        assert kolmogorov_distance(mu, sf, rearrange(mu, sf)) <= cell


def test_10_variance_bound_on_the_restricted_term():
    mu = builtin_measure("gauss")
    F = log_entropy()
    cost = CostFunction.closed_form(1.0, 2.0)
    fam = TestFamily("exponential", (0.25, 0.5, 1.0))
    for K in (2.0, 4.0):
        rep = verify_theorem_2_1(mu, F, cost, K, fam)
        for row in rep.details["step1"]:
            assert row["ok"]
            assert row["bound"] - row["I1"] >= 0.0


def test_11_power_entropy_constant_is_stable():
    mu = builtin_measure("exp_power", alpha=1.5)
    fam = TestFamily("stretched_exp", (0.25, 0.5, 1.0), exponent=0.7, smoothing=0.05)
    rep = verify_theorem_4_4(mu, 1.5, fam)
    assert np.isfinite(rep.C_hat) and rep.C_hat > 0.0
    assert rep.details["stable"]
    assert rep.details["C_hat_enriched"] == pytest.approx(rep.C_hat, rel=0.10)


def test_12_reference_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["paper-examples", "--out", str(a)]) == 0
    assert main(["paper-examples", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
