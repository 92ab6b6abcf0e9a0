"""Entropy/energy functionals, test families, and the inequality drivers."""

import dataclasses

import numpy as np
import pytest

from isocert.convex import CostFunction
from isocert.entropy import EntropyFunction, F_tau
from isocert.expr import parse_potential
from isocert.measure1d import SampledFunction, build_measure, builtin_measure
from isocert.tester import (
    TestFamily,
    entropy_functional,
    lemma_3_3_check,
    lemma_3_4_check,
    median_energy,
    median_of,
    modified_energy,
    variance,
    verify_theorem_1_1,
    verify_theorem_2_1,
    verify_theorem_4_4,
)

from conftest import exp_member


class TestFunctionals:
    def test_entropy_oracle_gaussian_exponential(self, gauss, F_log):
        # Ent of e^x under the standard normal: e^{1/2}/2
        ent = entropy_functional(gauss, exp_member(gauss, 1.0), F_log)
        assert ent == pytest.approx(0.8243606353500641, rel=1e-5)

    def test_modified_energy_oracle(self, gauss):
        # f = e^{x/4}: int f^2 c*(1/4) dmu = e^{1/8} (1/4)^2/2 = e^{1/8}/32
        me = modified_energy(gauss, exp_member(gauss, 0.5), CostFunction.closed_form(1.0, 2.0))
        assert me == pytest.approx(0.035410889158338323, rel=1e-6)

    def test_variance_oracle(self, gauss):
        v = variance(gauss, exp_member(gauss, 1.0))
        assert v == pytest.approx(0.3646958540123868, rel=1e-5)

    def test_median_of_monotone_function(self, gauss):
        assert median_of(gauss, exp_member(gauss, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_median_of_two_level_function(self, gauss):
        # mu(f > 1) = 1/2 exactly, so the smallest t with mu(f > t) <= 1/2 is 1
        f = SampledFunction.from_callable(gauss, lambda x: np.where(x > 0, 3.0, 1.0))
        assert median_of(gauss, f) == pytest.approx(1.0)

    def test_median_energy_of_identity(self, gauss):
        f = SampledFunction.from_callable(gauss, lambda x: x, dfn=lambda x: np.ones_like(x))
        assert median_energy(gauss, f) == pytest.approx(1.0, rel=1e-4)

    def test_constants_vanish_everywhere(self, gauss, F_log):
        c = SampledFunction.from_callable(gauss, lambda x: np.full_like(x, 2.0),
                                          dfn=lambda x: np.zeros_like(x))
        assert entropy_functional(gauss, c, F_log) == pytest.approx(0.0, abs=1e-12)
        assert modified_energy(gauss, c, CostFunction.closed_form(1.0, 2.0)) == pytest.approx(0.0, abs=1e-12)
        assert variance(gauss, c) == pytest.approx(0.0, abs=1e-12)
        assert median_energy(gauss, c) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_is_nonnegative(self, gauss, F_log, F_half):
        for sf in TestFamily("random_smooth", tuple(range(4)), seed=1).members(gauss):
            assert entropy_functional(gauss, sf, F_log) >= -1e-12
            assert entropy_functional(gauss, sf, F_half) >= -1e-12

    def test_entropy_scales_quadratically(self, gauss, F_log):
        f1 = exp_member(gauss, 0.5)
        f2 = SampledFunction(grid=f1.grid, values=2.0 * f1.values, dvalues=2.0 * f1.dvalues,
                             log_deriv=f1.log_deriv)
        a = entropy_functional(gauss, f1, F_log)
        b = entropy_functional(gauss, f2, F_log)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_grid_refinement_stability(self, F_log):
        coarse = builtin_measure("gauss", n=16384)
        fine = builtin_measure("gauss", n=32768)
        for mu_case in (coarse, fine):
            pass
        e1 = entropy_functional(coarse, exp_member(coarse, 1.0), F_log)
        e2 = entropy_functional(fine, exp_member(fine, 1.0), F_log)
        assert abs(e2 / e1 - 1.0) < 1e-3
        m1 = modified_energy(coarse, exp_member(coarse, 0.5), CostFunction.closed_form(1.0, 2.0))
        m2 = modified_energy(fine, exp_member(fine, 0.5), CostFunction.closed_form(1.0, 2.0))
        assert abs(m2 / m1 - 1.0) < 1e-3


class TestFamilies:
    def test_exponential_member_values(self, gauss):
        sf = TestFamily("exponential", (0.5,)).members(gauss)[0]
        assert np.allclose(sf.values, np.exp(0.25 * gauss.grid), rtol=1e-14)
        assert sf.log_deriv is not None

    def test_members_are_sorted_by_parameter(self, gauss):
        fam = TestFamily("exponential", (1.0, 0.25, 0.5))
        names = [sf.name for sf in fam.members(gauss)]
        assert names == ["exponential(0.25)", "exponential(0.5)", "exponential(1)"]

    def test_bump_has_positive_floor(self, gauss):
        sf = TestFamily("bump", (0.7,), floor=1e-4).members(gauss)[0]
        assert float(np.min(sf.values)) >= 1e-4

    def test_shifted_linear_clips_at_zero(self, gauss):
        sf = TestFamily("shifted_linear", (0.5,), floor=1e-5).members(gauss)[0]
        left = gauss.grid < -2.0 - 1e-9
        assert np.allclose(sf.values[left], 1e-5)
        assert np.allclose(sf.dvalues[left], 0.0)

    def test_stretched_member_is_smooth_at_origin(self, gauss):
        sf = TestFamily("stretched_exp", (0.5,), exponent=0.7, smoothing=0.05).members(gauss)[0]
        assert np.all(np.isfinite(sf.dvalues))
        i0 = int(np.argmin(np.abs(gauss.grid)))
        assert abs(sf.dvalues[i0]) < 1.0

    def test_random_smooth_is_seed_deterministic(self, gauss):
        a = TestFamily("random_smooth", (0, 1), seed=0).members(gauss)
        b = TestFamily("random_smooth", (0, 1), seed=0).members(gauss)
        c = TestFamily("random_smooth", (0, 1), seed=7).members(gauss)
        assert np.array_equal(a[0].values, b[0].values)
        assert not np.array_equal(a[0].values, c[0].values)

    def test_user_family_wraps_callables(self, gauss):
        fam = TestFamily("user", ("lin",), user_fns=((lambda x: 2.0 + np.tanh(x),
                                                      lambda x: 1.0 / np.cosh(x) ** 2),))
        sf = fam.members(gauss)[0]
        assert sf.name == "user(lin)"
        assert np.allclose(sf.values, 2.0 + np.tanh(gauss.grid))

    def test_overflowing_member_is_rejected(self, gauss):
        with pytest.raises(ValueError):
            TestFamily("exponential", (500.0,)).members(gauss)

    def test_enriched_numeric_family_inserts_midpoints(self):
        fam = TestFamily("exponential", (0.25, 0.5, 1.0))
        assert fam.enriched()._ordered_params() == (0.25, 0.375, 0.5, 0.75, 1.0)

    def test_enriched_random_family_doubles(self):
        fam = TestFamily("random_smooth", (0, 1, 2), seed=0)
        assert fam.enriched()._ordered_params() == tuple(range(6))

    def test_validation(self):
        with pytest.raises(ValueError):
            TestFamily("nope", (1.0,))
        with pytest.raises(ValueError):
            TestFamily("exponential", ())
        with pytest.raises(ValueError):
            TestFamily("user", ())
        with pytest.raises(ValueError):
            TestFamily("exponential", (1.0,), floor=-1.0)

    @pytest.mark.parametrize(
        "family",
        [
            TestFamily("exponential", (-1.0, 0.5, 2.0)),
            TestFamily("bump", (0.5, 1.0, 2.0)),
            TestFamily("shifted_linear", (-0.1, 0.1)),  # kinks at x = -+10, off the grid
            TestFamily("random_smooth", (0, 1, 1234567)),
            TestFamily("stretched_exp", (0.25, 0.5, 1.0), smoothing=0.5),
        ],
        ids=lambda fam: fam.kind,
    )
    def test_each_kind_has_consistent_derivative_tables(self, family):
        mu = builtin_measure("gauss", n=4001, support=(-6.0, 6.0), grid_kind="uniform")
        members = family.members(mu)
        if family.kind in ("exponential", "random_smooth", "stretched_exp"):
            for sf in members:
                assert np.array_equal(sf.log_deriv * sf.values, sf.dvalues), sf.name
        else:
            assert all(sf.log_deriv is None for sf in members)
        for sf in members:
            fd = np.gradient(sf.values, mu.grid)[1:-1]
            assert np.max(np.abs(fd - sf.dvalues[1:-1])) <= 5e-5 * np.max(np.abs(sf.dvalues)), sf.name
        if family.kind == "random_smooth":
            assert [sf.name for sf in members] == ["random_smooth(0)", "random_smooth(1)", "random_smooth(1234567)"]

    @pytest.mark.parametrize("labels,n_fns", [(("a", "b", "c"), 1), (("a",), 3)])
    def test_user_labels_must_match_user_fns(self, labels, n_fns):
        f = lambda x: 1.0 + 0.0 * x
        with pytest.raises(ValueError, match="labels for"):
            TestFamily("user", labels, user_fns=(f,) * n_fns)
        assert len(TestFamily("user", labels[:n_fns] * n_fns, user_fns=(f,) * n_fns).params) == n_fns


class TestEntropyEnergyRatio:
    def test_gaussian_ratio_is_four_with_unit_quadratic_cost(self, gauss, F_log):
        # Ent = (lam^2/2) e^{lam^2/2}; energy = e^{lam^2/2} lam^2/8; ratio 4
        fam = TestFamily("exponential", (0.25, 0.5, 1.0))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        assert rep.C_hat == pytest.approx(4.0, rel=1e-4)
        for row in rep.rows:
            assert row.ratio == pytest.approx(4.0, rel=1e-4)
            assert row.saturation  # these members saturate the classical bound

    @pytest.mark.parametrize("K", [2.0, 4.0])
    def test_restricted_entropy_bound_margins(self, gauss, F_log, K):
        fam = TestFamily("exponential", (0.25, 0.5, 1.0))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), K, fam)
        want = (4.0 * (K + 1.0) ** 2 + 2.0) + (np.sqrt(K) + 1.0) ** 2
        assert rep.details["step1_constant"] == pytest.approx(want, rel=1e-12)
        for row in rep.details["step1"]:
            assert row["ok"]
            assert row["bound"] - row["I1"] >= -1e-9 * max(1.0, row["bound"])

    def test_additive_constants_reported_finite(self, gauss, F_log):
        fam = TestFamily("exponential", (0.25, 0.5, 1.0))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        assert np.isfinite(rep.B_hat) and rep.B_hat >= 0.0
        assert np.isfinite(rep.details["B16_hat"]) and rep.details["B16_hat"] >= 0.0

    @pytest.mark.parametrize("shift", [0.0, 1.0, 10.0])
    def test_centered_form_survives_constant_shifts(self, gauss, F_log, shift):
        fn = lambda x, s=shift: np.exp(0.3 * x) + s
        dfn = lambda x: 0.3 * np.exp(0.3 * x)
        fam = TestFamily("user", (f"s{shift:g}",), user_fns=((fn, dfn),))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        assert np.isfinite(rep.details["B16_hat"])
        assert rep.details["B16_hat"] >= 0.0

    def test_constant_member_contributes_nothing(self, gauss, F_log):
        fam = TestFamily("user", ("const",),
                         user_fns=((lambda x: np.full_like(x, 3.0), lambda x: np.zeros_like(x)),))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        assert rep.C_hat == 0.0
        assert rep.rows[0].entropy_F == pytest.approx(0.0, abs=1e-12)

    def test_parameter_column_is_the_exact_family_parameter(self, gauss, F_log):
        fam = TestFamily("exponential", (0.5, 0.1234567))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        assert rep.rows[0].name == "exponential(0.123457)"
        assert [row.parameter for row in rep.rows] == [0.1234567, 0.5]
        assert rep.to_csv_text().split("\n")[1].split(",")[1] == "0.1234567"
        user = TestFamily("user", ("const",), user_fns=(lambda x: np.full_like(x, 3.0),))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, user)
        assert np.isnan(rep.rows[0].parameter)

    def test_K_validation(self, gauss, F_log):
        with pytest.raises(ValueError):
            verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 1.0,
                               TestFamily("exponential", (0.5,)))


class TestEntropyCostInequality:
    def test_gaussian_endpoint_constant_is_two(self):
        rep = verify_theorem_1_1(builtin_measure("exp_power", alpha=2.0), 2.0, 1.0, 1.0, TestFamily("exponential", (0.25, 0.5, 1.0)))
        assert rep.C_hat == pytest.approx(2.0, rel=1e-4)
        assert rep.details["stable"]
        ratios = [row.ratio for row in rep.rows]
        assert max(ratios) - min(ratios) < 1e-4  # rate-independent saturation

    def test_cost_exponent_reported(self, exp_power_15):
        rep = verify_theorem_1_1(exp_power_15, 1.5, 1.0, 1.0, TestFamily("exponential", (0.5,)))
        assert rep.details["q"] == pytest.approx(3.0)
        assert np.isfinite(rep.C_hat) and rep.C_hat > 0

    def test_lower_endpoint_exponent_is_quadratic(self, exp_power_15):
        rep = verify_theorem_1_1(exp_power_15, 1.5, 2.0 / 3.0, 1.0, TestFamily("exponential", (0.5,)))
        assert rep.details["q"] == pytest.approx(2.0)
        assert np.isfinite(rep.C_hat)

    def test_parameter_validation(self, exp_power_15):
        fam = TestFamily("exponential", (0.5,))
        with pytest.raises(ValueError):
            verify_theorem_1_1(exp_power_15, 2.5, 1.0, 1.0, fam)
        with pytest.raises(ValueError):
            verify_theorem_1_1(exp_power_15, 1.0, 1.0, 1.0, fam)
        with pytest.raises(ValueError):
            verify_theorem_1_1(exp_power_15, 1.5, 0.5, 1.0, fam)  # tau below 2(1 - 1/alpha)
        with pytest.raises(ValueError):
            verify_theorem_1_1(exp_power_15, 2.0, 1.0, -1.0, fam)


class TestPowerEntropyInequality:
    def test_constant_finite_and_stable(self, exp_power_15):
        fam = TestFamily("stretched_exp", (0.25, 0.5, 1.0), exponent=0.7, smoothing=0.05)
        rep = verify_theorem_4_4(exp_power_15, 1.5, fam)
        assert np.isfinite(rep.C_hat) and rep.C_hat > 0
        assert rep.details["beta"] == pytest.approx(3.0)
        assert rep.details["stable"]
        for row in rep.rows:
            assert row.entropy_F >= -1e-10

    def test_ratio_is_scale_invariant(self, exp_power_15):
        s = lambda x: np.sqrt(x * x + 0.05 ** 2)
        f = lambda x: np.exp(0.5 * s(x) ** 0.7)
        df = lambda x: f(x) * 0.5 * 0.7 * s(x) ** (0.7 - 2.0) * x
        fam = TestFamily("user", ("one", "two"),
                         user_fns=((f, df), (lambda x: 2.0 * f(x), lambda x: 2.0 * df(x))))
        rep = verify_theorem_4_4(exp_power_15, 1.5, fam)
        assert rep.rows[0].ratio == pytest.approx(rep.rows[1].ratio, rel=1e-9)

    def test_requires_log_concave_and_valid_alpha(self, exp_power_15, gauss):
        fam = TestFamily("stretched_exp", (0.25,))
        bumpy = dataclasses.replace(gauss, log_concave=False)
        with pytest.raises(ValueError):
            verify_theorem_4_4(bumpy, 1.5, fam)
        with pytest.raises(ValueError):
            verify_theorem_4_4(exp_power_15, 1.0, fam)

    def test_rounding_of_a_constant_is_no_evidence(self, gauss):
        # Ent |f|^3 of f = 1000 is a rounding residue (2.2e-7 against
        # int |f|^3 = 1e9); read as an entropy it gave C_hat = inf
        fam = TestFamily("user", ("const",), user_fns=(_constant(1000.0),))
        rep = verify_theorem_4_4(gauss, 1.5, fam)
        assert rep.rows[0].entropy_F == 0.0
        assert np.isnan(rep.rows[0].ratio)
        assert rep.C_hat == 0.0

    def test_insufficient_decay_is_rejected(self):
        mu = builtin_measure("exp_power", alpha=1.1, n=4096)
        fam = TestFamily("stretched_exp", (0.25,))
        with pytest.raises(ValueError):
            verify_theorem_4_4(mu, 2.0, fam)


def _constant(c):
    return (lambda x: np.full_like(x, c), lambda x: np.zeros_like(x))


class TestRatioEngine:
    # constant members have zero energy and an entropy that is a rounding
    # residue <= 0 on this measure: no evidence, so a NaN ratio that C_hat skips
    @pytest.mark.parametrize("display", ["2.1", "1.1", "4.4"])
    def test_row_ratios_never_exceed_C_hat(self, exp_power_15, F_log, display):
        grow = (lambda x: np.exp(0.25 * x), lambda x: 0.25 * np.exp(0.25 * x))
        level = 3.0 if display == "4.4" else 11.0
        fam = TestFamily("user", ("const", "exp"), user_fns=(_constant(level), grow))
        if display == "2.1":
            rep = verify_theorem_2_1(exp_power_15, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        elif display == "1.1":
            rep = verify_theorem_1_1(exp_power_15, 1.5, 0.9, 1.0, fam)
        else:
            rep = verify_theorem_4_4(exp_power_15, 1.5, fam)
        const, moving = rep.rows
        assert const.modified_energy == 0.0 and const.entropy_F <= 0.0
        assert np.isnan(const.ratio)
        assert np.isfinite(moving.ratio) and moving.ratio > 0
        assert all(row.ratio <= rep.C_hat for row in rep.rows if not np.isnan(row.ratio))
        assert rep.C_hat == moving.ratio


    def test_member_outside_L2_is_refused_by_name(self, F_log):
        # e^{x/2} squared outgrows the density e^{-sqrt|x|}
        mu = build_measure(parse_potential("abs(x)^0.5"))
        fam = TestFamily("exponential", (0.5,))
        with pytest.raises(ValueError, match=r"exponential\(0\.5\) is not in L\^2"):
            verify_theorem_2_1(mu, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)


class TestTwoFunctionComparison:
    def test_cross_entropy_bound_holds(self, gauss, F_log):
        f = exp_member(gauss, 1.0)
        g = SampledFunction.from_callable(
            gauss,
            lambda x: np.exp(0.3 * x) * (1.0 + 0.2 * np.sin(x)),
            dfn=lambda x: np.exp(0.3 * x) * (0.3 * (1.0 + 0.2 * np.sin(x)) + 0.2 * np.cos(x)),
        )
        rep = lemma_3_3_check(gauss, F_log, f, g)
        assert rep.ok
        assert rep.lhs <= rep.rhs + 1e-9
        assert rep.C <= 1.0 + 1e-9  # for F = log the constant is 2 E sqrt(h) - 1

    def test_constant_second_function(self, gauss, F_log):
        f = exp_member(gauss, 0.5)
        g = SampledFunction.from_callable(gauss, lambda x: np.full_like(x, 5.0),
                                          dfn=lambda x: np.zeros_like(x))
        rep = lemma_3_3_check(gauss, F_log, f, g)
        assert rep.ok
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.C == pytest.approx(1.0, rel=1e-9)

    def test_flattened_profile_also_holds(self, gauss, F_half):
        f = exp_member(gauss, 1.0)
        for k in range(3):
            g = TestFamily("random_smooth", (k,), seed=5).members(gauss)[0]
            rep = lemma_3_3_check(gauss, F_half, f, g)
            assert rep.ok


class TestRestrictedDecomposition:
    def test_margins_and_minimal_constant(self, gauss, F_log):
        fam = TestFamily("exponential", (0.25, 0.5, 1.0))
        rep = lemma_3_4_check(gauss, F_log, 2.0, fam)
        assert rep.display1_ok
        assert np.isfinite(rep.B_hat) and rep.B_hat >= 0.0
        want_C = (4.0 * 9.0 + 2.0) + (np.sqrt(2.0) + 1.0) ** 2
        assert rep.C_used == pytest.approx(want_C, rel=1e-12)
        for row in rep.rows:
            assert row["margin1"] >= -1e-9
            assert row["display1_ok"]

    def test_bounded_member_has_empty_restriction(self, gauss, F_log):
        fn = lambda x: 2.0 + 0.1 * np.sin(x)
        dfn = lambda x: 0.1 * np.cos(x)
        fam = TestFamily("user", ("wave",), user_fns=((fn, dfn),))
        rep = lemma_3_4_check(gauss, F_log, 2.0, fam)
        row = rep.rows[0]
        assert row["restricted"] == pytest.approx(0.0, abs=1e-12)
        assert row["plus_term"] == pytest.approx(0.0, abs=1e-12)

    def test_profile_assumption_gate(self, gauss):
        bad = EntropyFunction(fn=lambda y: y * y - 1.0)
        with pytest.raises(ValueError):
            lemma_3_4_check(gauss, bad, 2.0, TestFamily("exponential", (0.5,)))


class TestReportShapes:
    def test_csv_layout(self, gauss, F_log):
        fam = TestFamily("exponential", (0.25, 0.5))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        text = rep.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == ("name,parameter,entropy_F,classical_entropy,variance,"
                            "grad_energy,modified_energy,median_energy,ratio,saturation")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "exponential(0.25)"
        assert first[-1] in ("true", "false")
        assert float(first[2]) > 0

    def test_json_layout(self, gauss, F_log):
        fam = TestFamily("exponential", (0.25,))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        d = dataclasses.asdict(rep)
        assert set(d) == {"family", "C_hat", "B_hat", "rows", "details"}
        assert d["rows"][0]["name"] == "exponential(0.25)"
        assert isinstance(d["rows"][0]["saturation"], bool)
