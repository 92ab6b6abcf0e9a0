"""Integrability verdicts and growth-condition fitting."""

from dataclasses import asdict

import numpy as np
import pytest

import isocert.checker as checker
from isocert.checker import (
    ConditionSpec,
    check_condition,
    check_exp_power,
    verify_growth_condition,
)
from isocert.convex import CostFunction
from isocert.entropy import EntropyFunction, F_tau
from isocert.measure1d import builtin_measure


class TestVerdicts:
    def test_gaussian_quadratic_small_delta_is_finite(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic"))
        assert rep.verdict == "FINITE"
        assert rep.tail_p < 1.0
        assert rep.integral_estimate == pytest.approx(1.0345, rel=1e-3)

    @pytest.mark.parametrize("delta", [0.25, 0.5, 2.0])
    def test_exponential_measure_always_diverges(self, exp_measure, F_log, delta):
        rep = check_condition(ConditionSpec(exp_measure, F_log, delta=delta, K=2.0, form="quadratic"))
        assert rep.verdict == "DIVERGENT_LIKELY"

    def test_log_log_potential_is_finite(self, loglog, F_log):
        rep = check_condition(ConditionSpec(loglog, F_log, delta=0.25, K=4.0, form="quadratic"))
        assert rep.verdict == "FINITE"
        assert rep.tail_p < 1.0

    def test_exp_power_pair_of_runs(self, exp_power_15):
        rep = check_exp_power(exp_power_15, 1.5, 1.0)
        assert rep.run_cost.verdict == "FINITE"
        assert rep.run_quadratic.verdict == "FINITE"
        assert rep.q_star == pytest.approx(1.5)
        assert rep.beta == pytest.approx(3.0)

    def test_exp_power_reports_run_each_distinct_condition_once(self, monkeypatch):
        mu = builtin_measure("exp_power", alpha=1.5, n=4096)
        singles = [check_exp_power(mu, 1.5, tau) for tau in (1.0, 2.0 / 3.0)]
        passes = []
        report = checker._condition_report

        def counted(spec, n_per_decade):
            passes.append(spec.form)
            return report(spec, n_per_decade)

        monkeypatch.setattr(checker, "_condition_report", counted)
        shared = checker._exp_power_reports(mu, 1.5, (1.0, 2.0 / 3.0, 1.0))
        assert sorted(passes) == ["general", "general", "quadratic"]
        assert shared == [singles[0], singles[1], singles[0]]
        assert shared[0].run_quadratic is shared[1].run_quadratic
        assert shared[0].run_cost is shared[2].run_cost

    def test_verdict_flips_at_large_delta(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=3.0, K=2.0, form="quadratic"))
        assert rep.verdict == "DIVERGENT_LIKELY"
        assert rep.tail_p >= 1.0


class TestQuadratureBehavior:
    def test_integral_decreases_with_K(self, gauss, F_log):
        vals = [
            check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=K, form="quadratic")).integral_estimate
            for K in (2.0, 4.0, 8.0)
        ]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_refining_t_min_does_not_flip_finite(self, gauss, F_log):
        a = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic", t_min=1e-12))
        b = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic", t_min=1e-14))
        assert a.verdict == "FINITE" and b.verdict == "FINITE"
        assert b.integral_estimate == pytest.approx(a.integral_estimate, rel=1e-3)

    def test_decade_rows_cover_the_range(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic"))
        assert rep.decades[0]["t_hi"] == pytest.approx(0.5)
        assert rep.decades[-1]["t_lo"] == pytest.approx(1e-12, rel=1e-6)
        total = sum(row["partial_sum"] for row in rep.decades)
        assert total == pytest.approx(rep.integral_estimate, rel=1e-12)

    def test_doubling_panel_count_is_stable(self, gauss, F_log):
        spec = ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic")
        a = check_condition(spec, n_per_decade=256)
        b = check_condition(spec, n_per_decade=512)
        assert b.integral_estimate == pytest.approx(a.integral_estimate, rel=1e-6)


class TestSpecValidation:
    def test_K_must_exceed_one(self, gauss, F_log):
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, K=1.0)

    def test_one_dimensional_variant_needs_larger_K(self, gauss, F_log):
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, K=2.0, form="one_d_quadratic")
        ConditionSpec(gauss, F_log, K=2.5, form="one_d_quadratic")  # accepted

    def test_general_form_needs_a_cost(self, gauss, F_log):
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, form="general")

    def test_t_min_range(self, gauss, F_log):
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, t_min=0.9)
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, t_min=1e-16)

    def test_assumption_gate_rejects_convex_profile(self, gauss):
        bad = EntropyFunction(fn=lambda y: y * y - 1.0)
        with pytest.raises(ValueError):
            check_condition(ConditionSpec(gauss, bad, form="quadratic"))

    def test_superlinearity_gate(self, gauss, F_log):
        xs = np.linspace(0.0, 10.0, 200)
        linear = CostFunction.from_samples(xs, 2.0 * xs)
        spec = ConditionSpec(gauss, F_log, cost=linear, form="general")
        with pytest.raises(ValueError):
            check_condition(spec)

    def test_exp_power_parameter_validation(self, exp_power_15):
        with pytest.raises(ValueError):
            check_exp_power(exp_power_15, 2.5, 1.0)
        with pytest.raises(ValueError):
            check_exp_power(exp_power_15, 1.5, 0.5)  # below 2(1 - 1/alpha) = 2/3


    @pytest.mark.parametrize("n", [0, 1, 3, 5, -2])
    def test_simpson_panel_count_must_be_even_and_at_least_two(self, gauss, F_log, n):
        with pytest.raises(ValueError, match="n_per_decade"):
            check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic"), n_per_decade=n)

    def test_smallest_even_panel_count_runs(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic"), n_per_decade=2)
        assert rep.integral_estimate > 0


class TestTruncationDowngrade:
    def test_short_cost_grid_downgrades_finite_to_inconclusive(self, gauss, F_log):
        # quadratic samples that stop short of the needed argument range
        xs = np.linspace(0.0, 2.0, 200)
        short = CostFunction.from_samples(xs, 0.5 * xs * xs)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=short, delta=0.5, K=2.0, form="general"))
        assert "cost_extrapolated_beyond_grid" in rep.flags
        assert rep.verdict == "INCONCLUSIVE"

    def test_long_grid_keeps_finite(self, gauss, F_log):
        xs = np.linspace(0.0, 100.0, 4097)
        full = CostFunction.from_samples(xs, 0.5 * xs * xs)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=full, delta=0.5, K=2.0, form="general"))
        assert rep.flags == ()
        assert rep.verdict == "FINITE"


class TestSerialization:
    def test_report_json_keys(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, form="quadratic"))
        d = asdict(rep)
        for key in ("verdict", "integral_estimate", "log10_integral_estimate", "delta",
                    "K", "tail_p", "decades", "flags", "form", "t_min", "measure",
                    "entropy", "cost"):
            assert key in d
        assert d["measure"] == "gauss" and d["entropy"] == "log"
        assert d["cost"] == "quadratic"

    def test_closed_form_cost_is_labelled_by_its_parameters(self, gauss, F_log):
        cost = CostFunction.closed_form(1.0, 2.0)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=cost, delta=0.5, K=2.0, form="general"))
        assert rep.cost == "c_{1,2}"
        assert asdict(rep)["cost"] == "c_{1,2}"

    def test_sampled_cost_is_labelled_sampled(self, gauss, F_log):
        xs = np.linspace(0.0, 100.0, 4097)
        cost = CostFunction.from_samples(xs, 0.5 * xs * xs)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=cost, delta=0.5, K=2.0, form="general"))
        assert rep.cost == "sampled"

    def test_exp_power_cost_run_names_its_dual_exponent(self):
        rep = check_exp_power(builtin_measure("exp_power", alpha=1.5, n=4096), 1.5, 1.0)
        assert rep.run_cost.cost == "c_{1,1.5}"


class TestGrowthCondition:
    def test_gaussian_quarter_rate(self, gauss):
        rep = verify_growth_condition(gauss, lambda r: 0.25 * r * r, alpha=2.0)
        assert rep.C == pytest.approx(0.5, rel=1e-9)
        assert rep.bounded

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_power_rate_constant(self, exp_power_15, eps):
        rep = verify_growth_condition(exp_power_15, lambda r: eps * r ** 1.5, alpha=1.5)
        assert rep.C == pytest.approx(eps ** (2.0 / 3.0), rel=1e-9)
        assert rep.bounded

    def test_slow_growth_is_unbounded(self, gauss):
        rep = verify_growth_condition(gauss, lambda r: np.log1p(r), alpha=2.0)
        assert not rep.bounded

    def test_non_integrable_rate_rejected(self, exp_measure):
        with pytest.raises(ValueError):
            verify_growth_condition(exp_measure, lambda r: r * r, alpha=2.0)

    def test_decreasing_rate_rejected(self, gauss):
        with pytest.raises(ValueError):
            verify_growth_condition(gauss, lambda r: -r, alpha=2.0)

    def test_report_fields(self, gauss):
        rep = verify_growth_condition(gauss, lambda r: 0.25 * r * r, alpha=2.0)
        d = asdict(rep)
        assert set(d) == {"C", "bounded", "log_normalizer", "sup_ratio", "r_lo", "r_hi", "n_used"}
        assert d["n_used"] > 0


class TestEntropyFamilies:
    def test_flattened_profiles_converge_for_large_delta(self, gauss):
        # flattening the profile weakens the integrand enough for delta past
        # the quadratic threshold
        rep = check_condition(ConditionSpec(gauss, F_tau(0.5), delta=4.0, K=2.0, form="quadratic"))
        assert rep.verdict == "FINITE"
        assert rep.tail_p < 1.0
