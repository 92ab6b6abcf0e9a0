"""Entropy/energy functionals, test families, and the inequality drivers."""

import dataclasses
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from isocert.convex import CostFunction, eval_cost
from isocert.entropy import EntropyFunction, F_tau
from isocert.expr import parse_potential
from isocert.measure1d import SampledFunction, build_measure, builtin_measure, kolmogorov_distance, rearrange
import isocert.cli as cli
import isocert.entropy as entropy
import isocert.measure1d as measure1d
import isocert.tester as tester
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

    @pytest.mark.parametrize("p", [-1.0, 0.0, np.nan])
    def test_cost_energy_refuses_an_exponent_that_is_not_positive(self, gauss, p):
        with pytest.raises(ValueError, match="gradient exponent must be positive"):
            tester.cost_energy(gauss, exp_member(gauss, 0.5), p)

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

    @pytest.mark.parametrize("kind", sorted(tester._MEMBERS))
    def test_each_kind_declares_the_settings_it_reads(self, gauss, kind):
        # the command line passes a kind only the settings its row declares
        member, label, shared, reads = tester._MEMBERS[kind]
        family, read = TestFamily(kind, (label(1),)), set()

        class Recorder:
            def __getattr__(self, name):
                read.add(name)
                return getattr(family, name)

        member(Recorder(), gauss, label(1), None if shared is None else shared(Recorder(), gauss))
        assert read == set(reads)

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

    def test_user_labels_keep_the_form_they_were_given_in(self, gauss):
        # only a kind's float labels are written %g; a user label is its own name
        fns = (lambda x: 2.0 + np.tanh(x), lambda x: 3.0 + np.tanh(x))
        fam = TestFamily("user", (0.1 + 0.2, 7), user_fns=fns)
        assert [sf.name for sf in fam.members(gauss)] == ["user(0.30000000000000004)", "user(7)"]
        assert fam._ordered_params() == (0.30000000000000004, 7)

    @pytest.mark.parametrize("kind, settings, fragment", [
        ("exponential", {"params": (0.5, float("inf"))}, "exponential label inf is not finite"),
        ("stretched_exp", {"params": (float("nan"),)}, "stretched_exp label nan is not finite"),
        ("random_smooth", {"params": (0, 0.7)}, "random_smooth label 0.7 is not a non-negative integer"),
        ("random_smooth", {"params": (-1,)}, "random_smooth label -1 is not a non-negative integer"),
        ("random_smooth", {"seed": -3}, "seed must be nonnegative, got -3"),
        ("stretched_exp", {"smoothing": 0.0}, "smoothing must be positive and finite, got 0.0"),
        ("stretched_exp", {"smoothing": float("inf")}, "smoothing must be positive and finite, got inf"),
        ("bump", {"floor": float("nan")}, "floor must be finite, got nan"),
        ("random_smooth", {"scale": float("inf")}, "scale must be finite, got inf"),
        ("stretched_exp", {"exponent": float("-inf")}, "exponent must be finite, got -inf"),
    ])
    def test_settings_outside_the_kind_are_refused_by_value(self, kind, settings, fragment):
        with pytest.raises(ValueError, match=f"^{re.escape(fragment)}$"):
            TestFamily(kind, **{"params": (0, 1), **settings})

    def test_integral_float_labels_are_int_labels(self, gauss):
        # the command line reads every label as a float
        a = TestFamily("random_smooth", (2.0, 0.0), seed=1)
        assert a._ordered_params() == (2, 0)
        assert a.enriched()._ordered_params() == (2, 0, 3, 4)
        b = TestFamily("random_smooth", (2, 0), seed=1)
        assert [sf.name for sf in a.members(gauss)] == [sf.name for sf in b.members(gauss)] == ["random_smooth(2)", "random_smooth(0)"]

    def test_overflowing_member_is_rejected(self, gauss):
        with pytest.raises(ValueError):
            TestFamily("exponential", (500.0,)).members(gauss)

    def test_enriched_numeric_family_inserts_midpoints(self):
        fam = TestFamily("exponential", (0.25, 0.5, 1.0))
        assert fam.enriched()._ordered_params() == (0.25, 0.375, 0.5, 0.75, 1.0)

    def test_enriched_random_family_doubles(self):
        fam = TestFamily("random_smooth", (0, 1, 2), seed=0)
        assert fam.enriched()._ordered_params() == tuple(range(6))

    def test_enriched_random_family_keeps_the_given_labels(self):
        # the stability check compares the given members with fresh ones, not other members
        fam = TestFamily("random_smooth", (5, 9), seed=0)
        assert fam.enriched()._ordered_params() == (5, 9, 10, 11)

    def test_random_member_tables_follow_the_closed_form(self, gauss):
        # g = sum_j (a_j cos(j w x) + b_j sin(j w x)) / j^2 from the seeded draws
        sf = TestFamily("random_smooth", (3,), seed=2, scale=0.4).members(gauss)[0]
        x = gauss.grid
        w = np.pi / max(abs(gauss.truncation[0]), abs(gauss.truncation[1]))
        rng = np.random.default_rng([2, 3])
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        g = sum((a[j - 1] * np.cos(j * w * x) + b[j - 1] * np.sin(j * w * x)) / j**2 for j in range(1, 7))
        gp = sum((b[j - 1] * np.cos(j * w * x) - a[j - 1] * np.sin(j * w * x)) * w / j for j in range(1, 7))
        assert np.allclose(sf.values, np.exp(0.4 * g), rtol=1e-12)
        assert np.allclose(sf.log_deriv, 0.4 * gp, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("measure", ["gauss", "exp_measure", "loglog", "exp_power_15"])
    def test_trig_basis_rows_match_cos_and_sin(self, request, measure):
        # rows j >= 2 come from angle addition; each stays within 1e-14 of a direct evaluation
        mu = request.getfixturevalue(measure)
        omega, C, S = tester._trig_basis(None, mu)
        assert C.shape == S.shape == (6, mu.grid.size)
        assert C.flags.c_contiguous and S.flags.c_contiguous
        for j in range(1, 7):
            assert np.max(np.abs(C[j - 1] - np.cos(j * omega * mu.grid))) <= 1e-14, j
            assert np.max(np.abs(S[j - 1] - np.sin(j * omega * mu.grid))) <= 1e-14, j

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
        assert cli._report_table(rep).split("\n")[1].split(",")[1] == "0.1234567"
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

    def test_insufficient_decay_is_rejected(self):
        mu = builtin_measure("exp_power", alpha=1.1, n=4096)
        fam = TestFamily("stretched_exp", (0.25,))
        with pytest.raises(ValueError):
            verify_theorem_4_4(mu, 2.0, fam)

    # (measure, its tail exponent p): V grows like |x|^p (loglog like |x| log|x|,
    # which no |x|^alpha with alpha > 1 stays below), so int e^{eps |x|^alpha - V}
    # is finite for some eps > 0 exactly when alpha <= p: 13 of these 36 pairs
    @pytest.mark.parametrize("name, p", [("exp", 1.0), ("loglog", 1.0)] + [
        (f"exp_power:{p:g}", p) for p in (1.1, 1.2, 1.4, 1.5, 1.6, 1.8, 2.0)
    ])
    def test_eps_is_verified_past_the_cuts(self, name, p):
        kind, _, a = name.partition(":")
        mu = builtin_measure(kind, alpha=float(a) if a else None, n=4096)
        fam = TestFamily("stretched_exp", (0.25,))
        for alpha in (1.2, 1.5, 1.8, 2.0):
            if alpha <= p:
                assert verify_theorem_4_4(mu, alpha, fam).details["eps_used"] == 0.05, alpha
            else:  # e^{eps |x|^alpha - V} is still tiny at the cut (about e^-28 on exp), but its integral is infinite
                with pytest.raises(ValueError, match=r"could not verify int e\^\{eps\|x\|\^alpha\} dmu finite on the grid and past"):
                    verify_theorem_4_4(mu, alpha, fam)

    @pytest.mark.parametrize("support, eps", [((-30.0, 30.0), 0.05), ((-5.0, 5.0), 0.05), ((0.0, np.inf), None)])
    def test_only_a_cut_end_is_walked(self, support, eps):
        # on a finite support the grid is the whole measure, as before the walk; a cut end is walked
        mu = builtin_measure("exp", n=4096, support=support)
        fam = TestFamily("stretched_exp", (0.25,))
        assert mu.cut_ends == tuple(np.isinf(support))
        if eps is None:
            with pytest.raises(ValueError, match="past its cuts"):
                verify_theorem_4_4(mu, 1.5, fam)
        else:
            assert verify_theorem_4_4(mu, 1.5, fam).details["eps_used"] == eps

    @pytest.mark.parametrize("name, support", [("exp", (-30.0, 30.0)), ("gauss", (0.0, np.inf)), ("gauss", (-np.inf, 1.0))])
    def test_a_support_end_is_not_edge_tested(self, name, support):
        # e^{eps x^2} only grows towards a support end, yet on a finite
        # support its integral is finite for every eps; on exp it is
        # infinite on the line and finite on [-30, 30]
        mu = builtin_measure(name, n=4096, support=support)
        fam = TestFamily("stretched_exp", (0.25,))
        assert verify_theorem_4_4(mu, 2.0, fam).details["eps_used"] == 0.05

    @pytest.mark.parametrize("V", ["x^2/2-0.3*x^3/(1+x^2)", "x^2/2+x^4/4"])
    def test_the_walk_stops_where_the_potential_overflows(self, V):
        # x^3 overflows to -inf near 1e103 in the first, x^4 to +inf near 1e77 in the second
        P = parse_potential(V)
        mu = build_measure(lambda x: np.asarray(P(x), dtype=float), n=4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_theorem_4_4(mu, 1.5, TestFamily("exponential", (0.5,))).details["eps_used"] == 0.05

    def test_sign_changing_member_gets_the_classical_entropy_of_its_modulus(self, F_log):
        mu = builtin_measure("exp_power", alpha=1.5, n=4096)
        fam = TestFamily("user", ("tanh",), user_fns=((lambda x: np.tanh(x) + 0.5, lambda x: 1.0 - np.tanh(x) ** 2),))
        sf = fam.members(mu)[0]
        assert np.any(sf.values < 0)
        rep = verify_theorem_4_4(mu, 1.5, fam)
        modulus = SampledFunction(grid=mu.grid, values=np.abs(sf.values), dvalues=np.sign(sf.values) * sf.dvalues)
        assert _bits(rep.rows[0].classical_entropy) == _bits(entropy_functional(mu, modulus, F_log))
        # displays 2.1 and 1.1 are stated for f >= 0 and keep refusing the member
        with pytest.raises(ValueError, match="requires f"):
            verify_theorem_2_1(mu, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        with pytest.raises(ValueError, match="requires f"):
            verify_theorem_1_1(mu, 1.5, 0.9, 1.0, fam)


def _constant(c):
    return (lambda x: np.full_like(x, c), lambda x: np.zeros_like(x))


class TestRatioEngine:
    # a constant member's entropy is a rounding residue over a zero energy or
    # variance, so it reads as 0: no evidence, a NaN ratio and no infinite
    # constant.  Read as an entropy, the residue (4.2e-16 for f = 1.37 on 2.1
    # and 1.1, 2.2e-7 against int |f|^3 = 1e9 for f = 1000 on 4.4, 2.7e-15
    # for f = 3.5 on lemma 3.4) gave C_hat = inf, B16_hat = 8.5e15 on 2.1 and
    # B_hat = inf on lemma 3.4
    @pytest.mark.parametrize("entry", ["2.1", "1.1", "4.4", "lemma_3_4"])
    def test_rounding_of_a_constant_is_no_evidence(self, gauss, F_log, entry):
        flat = TestFamily("shifted_linear", (0.0,), floor=0.37)
        if entry == "lemma_3_4":
            rep = lemma_3_4_check(builtin_measure("exp", n=4096), F_log, 2.0, dataclasses.replace(flat, floor=2.5))
            assert rep.rows[0]["full"] == 0.0 and rep.B_hat == 0.0
            return
        if entry == "2.1":
            rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, flat)
            assert rep.B_hat == 0.0 and rep.details["B16_hat"] == 0.0
        elif entry == "1.1":
            rep = verify_theorem_1_1(builtin_measure("exp_power", alpha=1.8, n=4096), 1.8, 0.9, 1.0, flat)
        else:
            rep = verify_theorem_4_4(gauss, 1.5, TestFamily("user", ("const",), user_fns=(_constant(1000.0),)))
        row = rep.rows[0]
        assert row.entropy_F == 0.0 and row.modified_energy == 0.0
        assert np.isnan(row.ratio)
        assert rep.C_hat == 0.0

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


    # every entry point refuses the member before a functional overflows (so
    # before numpy warns): on abs(x)^0.5, e^{x/2} squared outgrows the density
    # e^{-sqrt|x|}; on gauss, e^{50x} squared overflows on the grid
    @pytest.mark.parametrize("entry", ["2.1", "1.1", "4.4", "lemma_3_3_f", "lemma_3_3_g", "lemma_3_4"])
    def test_member_outside_L2_is_refused_by_name(self, F_log, entry):
        mu = builtin_measure("gauss", n=4096)
        steep = TestFamily("exponential", (100.0,))
        calls = {
            "2.1": lambda: verify_theorem_2_1(
                build_measure(parse_potential("abs(x)^0.5")), F_log, CostFunction.closed_form(1.0, 2.0), 2.0,
                TestFamily("exponential", (0.5,)),
            ),
            "1.1": lambda: verify_theorem_1_1(mu, 1.5, 0.9, 1.0, steep),
            "4.4": lambda: verify_theorem_4_4(mu, 1.5, steep),
            "lemma_3_3_f": lambda: lemma_3_3_check(mu, F_log, exp_member(mu, 100.0), exp_member(mu, 1.0)),
            "lemma_3_3_g": lambda: lemma_3_3_check(mu, F_log, exp_member(mu, 1.0), exp_member(mu, 100.0)),
            "lemma_3_4": lambda: lemma_3_4_check(mu, F_log, 2.0, steep),
        }
        name = {"2.1": r"exponential\(0\.5\)", "lemma_3_3_f": r"exp\(100\)", "lemma_3_3_g": r"exp\(100\)"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=name.get(entry, r"exponential\(100\)") + r" is not in L\^2"):
                calls[entry]()

    # the supplied derivative is 3x the true one everywhere (taken as given it
    # reported C_hat 0.363 against 3.268 for the true derivative) or only on
    # (-1.4, 0.4), about 58% of the mass, between the nodes a sampled check
    # would visit (C_hat 0.442)
    @pytest.mark.parametrize("wrong_on", [(-np.inf, np.inf), (-1.4, 0.4)], ids=["everywhere", "on_a_region"])
    def test_inconsistent_user_derivative_is_refused_by_name(self, F_log, wrong_on):
        mu = builtin_measure("gauss", n=4096)
        lo, hi = wrong_on
        dfn = lambda x: np.where((x > lo) & (x < hi), 3.0, 1.0) * (1.0 - np.tanh(x) ** 2)
        fam = TestFamily("user", ("tanh",), user_fns=((lambda x: 2.0 + np.tanh(x), dfn),))
        with pytest.raises(ValueError, match=r"user\(tanh\) has a derivative that disagrees"):
            verify_theorem_2_1(mu, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)

    def test_non_finite_energy_term_is_refused_by_name(self, F_log):
        # f and f' are in L^2 on the grid, but f^2 c*(|f'|/f) = f^2 (37.5)^11 / 11
        # (cost exponent 1.1, dual exponent 11) overflows
        mu = builtin_measure("gauss", n=4096)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match=r"member exponential\(75\) has a non-finite energy term \(inf\)"):
                verify_theorem_2_1(mu, F_log, CostFunction.closed_form(1.0, 1.1), 2.0, TestFamily("exponential", (75.0,)))


_ENRICHED_FAMILIES = [
    TestFamily("exponential", (0.25, 0.5, 1.0)),
    TestFamily("exponential", (0.5, 0.5, 1.0)),  # a repeated parameter
    TestFamily("bump", (0.5, 1.0, 2.0)),
    TestFamily("shifted_linear", (0.1, 0.2, 0.4)),
    TestFamily("random_smooth", (0, 1, 2), seed=3),
    TestFamily("stretched_exp", (0.25, 0.5, 1.0)),
    TestFamily("user", ("flat", "exp"), user_fns=(_constant(2.0), (lambda x: np.exp(0.25 * x), lambda x: 0.25 * np.exp(0.25 * x)))),
]


def _verify(display, mu, family):
    if display == "2.1":
        return verify_theorem_2_1(mu, F_tau(0.75), CostFunction.closed_form(1.0, 3.0), 2.0, family)
    if display == "2.1-log":
        return verify_theorem_2_1(mu, tester.log_entropy(), CostFunction.closed_form(1.0, 2.0), 2.0, family)
    if display == "1.1":
        return verify_theorem_1_1(mu, 1.5, 0.9, 1.0, family)
    return verify_theorem_4_4(mu, 1.5, family)


class TestMemberEvaluation:
    @pytest.mark.parametrize("display", ["1.1", "4.4"])
    @pytest.mark.parametrize("family", _ENRICHED_FAMILIES, ids=lambda fam: f"{fam.kind}{fam.params}")
    def test_enriched_constant_is_C_hat_of_the_enriched_family(self, exp_power_15, display, family):
        rep = _verify(display, exp_power_15, family)
        assert rep.details["C_hat_enriched"] == _verify(display, exp_power_15, family.enriched()).C_hat

    def test_random_smooth_members_match_their_single_label_families(self, gauss):
        fam = TestFamily("random_smooth", (0, 3, 1234567), seed=4, scale=0.4)
        for sf, label in zip(fam.members(gauss), fam.params):
            alone = dataclasses.replace(fam, params=(label,)).members(gauss)[0]
            for table in ("values", "dvalues", "log_deriv"):
                assert np.array_equal(getattr(sf, table), getattr(alone, table)), (label, table)

    @pytest.mark.parametrize("display", ["1.1", "4.4"])
    @pytest.mark.parametrize("kind, params, distinct", [
        ("exponential", (0.25, 0.5, 1.0), 5),  # 3 given, 2 midpoints
        ("random_smooth", (0, 1, 2), 6),  # 3 given, 3 fresh labels
        ("stretched_exp", (0.25, 0.5, 1.0), 5),  # 3 given, 2 midpoints
    ])
    def test_each_distinct_member_is_evaluated_once(self, exp_power_15, monkeypatch, display, kind, params, distinct):
        evaluated, tables, calls = [], [], []
        (member, label, shared, reads), members = tester._MEMBERS[kind], TestFamily.members

        def counted_member(fam, mu, p, table):
            evaluated.append(p)
            return member(fam, mu, p, table)

        def counted_table(fam, mu):
            tables.append(fam)
            return shared(fam, mu)

        monkeypatch.setitem(tester._MEMBERS, kind, (counted_member, label, None if shared is None else counted_table, reads))
        monkeypatch.setattr(TestFamily, "members", lambda fam, mu, **kw: calls.append(fam) or members(fam, mu, **kw))
        _verify(display, exp_power_15, TestFamily(kind, params))
        assert len(evaluated) == len(set(evaluated)) == distinct
        # one members() call, and at most one table, for the family and its enrichment
        assert len(calls) == 1
        assert len(tables) == (0 if shared is None else 1)


_KEPT_FAMILIES = [
    TestFamily("exponential", (0.25, 0.5, 1.0)),
    TestFamily("bump", (0.5, 1.0, 2.0)),
    TestFamily("shifted_linear", (0.1, 0.2, 0.4)),
    TestFamily("random_smooth", (0, 1, 2), seed=3),
    TestFamily("stretched_exp", (0.25, 0.5, 1.0)),
]
# the functions that compute columns, and the two that display 4.4's column reads
_COLUMN_FUNCTIONS = ("_admitted", "_classical_entropy", "_median_energy", "_variance", "cost_energy", "_entropy")


def _columns(mu):
    """{key: columns} of the family members mu keeps, least recently used
    first: their keys start with a _MEMBERS row, a tuple."""
    return {key: columns for key, columns in mu.kept.items() if isinstance(key[0], tuple)}


def _eps(mu):
    """{alpha: eps} of display 4.4's sweeps that mu keeps, least recently used first."""
    return {key[1]: eps for key, eps in mu.kept.items() if key[0] is tester._integrability_eps}


class TestKeptColumns:
    """A family member's measure-only columns are kept with the measure."""

    @staticmethod
    def _fresh():
        return builtin_measure("exp_power", alpha=1.5, n=4096)

    @staticmethod
    def _count(monkeypatch):
        calls = dict.fromkeys(_COLUMN_FUNCTIONS, 0)
        for name in _COLUMN_FUNCTIONS:
            fn = getattr(tester, name)
            monkeypatch.setattr(tester, name, lambda *a, _n=name, _f=fn: calls.__setitem__(_n, calls[_n] + 1) or _f(*a))
        return calls

    @pytest.mark.parametrize("display", ["2.1", "2.1-log", "1.1", "4.4"])
    @pytest.mark.parametrize("family", _KEPT_FAMILIES, ids=lambda fam: fam.kind)
    def test_warm_rows_are_the_cold_rows(self, display, family, monkeypatch):
        mu = self._fresh()
        cold = cli._dump_json(_verify(display, mu, family))
        # the family and, on 1.1 and 4.4, the members its enrichment adds
        members = len(family.enriched().params if display in ("1.1", "4.4") else family.params)
        assert len(_columns(mu)) == members
        calls = self._count(monkeypatch)
        for _ in range(2):
            assert cli._dump_json(_verify(display, mu, family)) == cold
        # warm requests read every column; 2.1 and 1.1 compute their F-entropy per request
        assert calls == {**dict.fromkeys(_COLUMN_FUNCTIONS, 0), "_entropy": 0 if display == "4.4" else 2 * members}
        assert cli._dump_json(_verify(display, self._fresh(), family)) == cold

    @pytest.mark.parametrize("family", _KEPT_FAMILIES, ids=lambda fam: fam.kind)
    def test_a_changed_alpha_misses_the_power_column(self, family, monkeypatch):
        mu = self._fresh()
        verify_theorem_4_4(mu, 1.5, family)
        members = len(family.enriched().params)
        calls = self._count(monkeypatch)
        # beta = 5 against beta = 3: every member is admitted and its column computed anew
        want = cli._dump_json(verify_theorem_4_4(self._fresh(), 1.25, family))
        calls.update(dict.fromkeys(calls, 0))
        assert cli._dump_json(verify_theorem_4_4(mu, 1.25, family)) == want
        assert calls["_admitted"] == calls["cost_energy"] == members
        assert len(_columns(mu)) == 2 * members
        calls.update(dict.fromkeys(calls, 0))
        verify_theorem_4_4(mu, 1.5, family)
        assert set(calls.values()) == {0}

    @staticmethod
    def _spy_builders(monkeypatch, kind, calls):
        """Count the member builder, shared-table builder and eps sweep calls
        (into calls) through kind's _MEMBERS row, set before any request so
        that every key of the test holds the counting row."""
        member, label, shared, reads = tester._MEMBERS[kind]

        def counted_member(fam, mu, p, table):
            calls["member"] += 1
            return member(fam, mu, p, table)

        def counted_table(fam, mu):
            calls["table"] += 1
            return shared(fam, mu)

        def counted_eps(mu, alpha, _sweep=tester._integrability_eps):
            calls["eps"] += 1
            return _sweep(mu, alpha)

        monkeypatch.setitem(tester._MEMBERS, kind, (counted_member, label, None if shared is None else counted_table, reads))
        monkeypatch.setattr(tester, "_integrability_eps", counted_eps)

    @pytest.mark.parametrize("family", _KEPT_FAMILIES, ids=lambda fam: fam.kind)
    def test_a_warm_power_request_builds_no_table_and_no_sweep(self, family, monkeypatch):
        calls = dict.fromkeys(("member", "table", "eps"), 0)
        self._spy_builders(monkeypatch, family.kind, calls)
        mu = self._fresh()
        cold = cli._dump_json(verify_theorem_4_4(mu, 1.5, family))
        shared = tester._MEMBERS[family.kind][2] is not None
        assert calls == {"member": len(family.enriched().params), "table": int(shared), "eps": 1}
        calls.update(dict.fromkeys(calls, 0))
        for _ in range(2):
            assert cli._dump_json(verify_theorem_4_4(mu, 1.5, family)) == cold
        assert calls == {"member": 0, "table": 0, "eps": 0}
        assert list(_eps(mu)) == [1.5] and all("power_terms" in c for c in _columns(mu).values())

    @pytest.mark.parametrize("display", ["2.1", "1.1"])
    @pytest.mark.parametrize("family", _KEPT_FAMILIES, ids=lambda fam: fam.kind)
    def test_warm_tables_are_the_cold_tables(self, display, family, monkeypatch):
        calls = dict.fromkeys(("member", "table", "eps"), 0)
        self._spy_builders(monkeypatch, family.kind, calls)
        got, members = [], TestFamily.members
        monkeypatch.setattr(TestFamily, "members", lambda fam, mu, **kw: got.append(members(fam, mu, **kw)) or got[-1])
        shared = tester._MEMBERS[family.kind][2] is not None
        mu = self._fresh()

        def tables():
            calls.update(dict.fromkeys(calls, 0))
            report = cli._dump_json(_verify(display, mu, family))
            (out,) = got
            got.clear()
            # the display read every member's tables, each built once, the shared table once for the call
            assert calls == {"member": len(out), "table": int(shared), "eps": 0}
            return report, [tuple(_table_bytes(t) for t in (m.values, m.dvalues, m.log_deriv)) for m in out]

        cold = tables()
        assert tables() == cold and tables() == cold
        assert len(_columns(mu)) == len(cold[1])

    @pytest.mark.parametrize("family", _KEPT_FAMILIES[:1] + _KEPT_FAMILIES[-1:], ids=lambda fam: fam.kind)
    def test_a_warm_member_is_rearranged_and_compared_as_the_cold_one(self, family, monkeypatch):
        calls = dict.fromkeys(("member", "table", "eps"), 0)
        self._spy_builders(monkeypatch, family.kind, calls)
        mu = self._fresh()
        cold = family.members(mu)
        calls.update(dict.fromkeys(calls, 0))
        warm = family.members(mu)
        assert calls["member"] == 0
        assert rearrange(mu, warm[0]).values.tobytes() == rearrange(mu, cold[0]).values.tobytes()
        assert calls["member"] == 1
        assert kolmogorov_distance(mu, warm[1], warm[2]) == kolmogorov_distance(mu, cold[1], cold[2])
        assert calls["member"] == 3

    def test_a_changed_alpha_misses_the_kept_eps(self, monkeypatch):
        family = _KEPT_FAMILIES[0]
        alphas = (1.5, 1.25, 1.5, 1.25, 1.2, 1.5)
        want = {alpha: verify_theorem_4_4(self._fresh(), alpha, family).details["eps_used"] for alpha in alphas}
        calls = dict.fromkeys(("member", "table", "eps"), 0)
        self._spy_builders(monkeypatch, family.kind, calls)
        mu = self._fresh()
        for alpha, sweeps in zip(alphas, (1, 2, 2, 2, 3, 3)):
            assert verify_theorem_4_4(mu, alpha, family).details["eps_used"] == want[alpha]
            assert calls["eps"] == sweeps, alpha
        # kept for every alpha, the least recently used first
        assert list(_eps(mu)) == [1.25, 1.2, 1.5]

    @pytest.mark.parametrize("order", [("4.4", "2.1", "1.1"), ("2.1", "1.1", "4.4")], ids=["4.4-first", "4.4-last"])
    @pytest.mark.parametrize("family", _KEPT_FAMILIES, ids=lambda fam: fam.kind)
    def test_alpha_2_shares_its_members_with_the_power_2_displays(self, family, order):
        # beta = 2 is the power 2.1 and 1.1 admit at, so all three displays read one key per member
        def verify(display, mu):
            if display == "4.4":
                return verify_theorem_4_4(mu, 2.0, family)
            return _verify(display, mu, family)

        fresh = lambda: builtin_measure("gauss", n=4096)
        want = {display: cli._dump_json(verify(display, fresh())) for display in order}
        mu = fresh()
        for _ in range(2):
            assert {display: cli._dump_json(verify(display, mu)) for display in order} == want
        assert len(_columns(mu)) == len(family.enriched().params)
        assert all({"m2", "grad", "power_terms", "moments"} <= set(c) for c in _columns(mu).values())

    @pytest.mark.parametrize("entry", ["overflow", "L2", "power", "eps"])
    def test_a_refused_member_is_refused_on_every_request_and_never_kept(self, entry):
        mu = builtin_measure("gauss", n=4096)
        if entry == "eps":
            # e^{eps |x|^1.5 - |x|} is not integrable; the members are kept (at power 3) before the refusal
            mu, fam = builtin_measure("exp", n=4096), TestFamily("exponential", (0.25, 0.5))
            fam.members(mu, power=3.0)
            request, match = (lambda: verify_theorem_4_4(mu, 1.5, fam)), r"could not verify int e\^\{eps\|x\|\^alpha\}"
        elif entry == "power":
            # in L^2 (kept at power 2 by 2.1), but e^{30 x} cubed overflows at the grid's end
            fam = TestFamily("exponential", (60.0,))
            verify_theorem_2_1(mu, tester.log_entropy(), CostFunction.closed_form(1.0, 2.0), 2.0, fam)
            request, match = (lambda: verify_theorem_4_4(mu, 1.5, fam)), r"exponential\(60\) is not in L\^3"
        elif entry == "L2":
            mu = build_measure(parse_potential("abs(x)^0.5"), n=4096)
            fam = TestFamily("exponential", (0.5,))
            request, match = (lambda: fam.members(mu)), r"exponential\(0\.5\) is not in L\^2"
        else:
            fam = TestFamily("exponential", (400.0,))
            request, match = (lambda: fam.members(mu)), r"exponential\(400\) overflows"
        kept = _columns(mu)
        for _ in range(3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=match):
                    request()
            assert _columns(mu) == kept
            assert entry != "eps" or _eps(mu) == {}

    def test_user_families_are_never_kept(self):
        mu = self._fresh()
        fam = _ENRICHED_FAMILIES[-1]
        for display in ("2.1", "1.1", "4.4"):
            _verify(display, mu, fam)
        lemma_3_4_check(mu, tester.log_entropy(), 2.0, fam)
        assert _columns(mu) == {}

    @pytest.mark.parametrize("family, change", [
        (TestFamily("bump", (0.5, 1.0)), {"floor": 1e-3}),
        (TestFamily("shifted_linear", (0.1, 0.4)), {"floor": 1e-3}),
        (TestFamily("random_smooth", (0, 1)), {"seed": 1}),
        (TestFamily("random_smooth", (0, 1)), {"scale": 0.25}),
        (TestFamily("stretched_exp", (0.25, 0.5)), {"exponent": 0.9}),
        (TestFamily("stretched_exp", (0.25, 0.5)), {"smoothing": 0.1}),
    ], ids=lambda c: c.kind if isinstance(c, TestFamily) else next(iter(c)))
    def test_a_changed_setting_or_power_misses(self, family, change, monkeypatch):
        mu = self._fresh()
        family.members(mu)
        calls = self._count(monkeypatch)
        changed = dataclasses.replace(family, **change)
        for fam, power in ((changed, 2.0), (family, 3.0)):
            got = fam.members(mu, power=power)
            want = fam.members(self._fresh(), power=power)
            assert [_bits(m.m2) for m in got] == [_bits(m.m2) for m in want]
        assert calls["_admitted"] == 2 * 2 * len(family.params)
        assert len(_columns(mu)) == 3 * len(family.params)

    def test_a_setting_the_kind_does_not_read_hits(self, monkeypatch):
        mu = self._fresh()
        TestFamily("exponential", (0.5, 1.0)).members(mu)
        calls = self._count(monkeypatch)
        TestFamily("exponential", (0.5, 1.0), floor=0.25, seed=9, scale=2.0, exponent=1.5, smoothing=1.0).members(mu)
        assert calls["_admitted"] == 0 and len(_columns(mu)) == 2

    @pytest.mark.parametrize("kind", ["exponential", "stretched_exp"])
    def test_a_swapped_member_row_misses(self, kind, monkeypatch):
        # exponential swaps its member function, stretched_exp its table function (the member function stays)
        mu = self._fresh()
        fam = TestFamily(kind, (0.5, 1.0))
        m2 = [m.m2 for m in fam.members(mu)]
        member, label, shared, reads = tester._MEMBERS[kind]

        def doubled(fam, mu, lam, table):
            vals, dvals, log_deriv = member(fam, mu, lam, table)
            return 2.0 * vals, 2.0 * dvals, log_deriv

        def doubled_table(fam, mu):
            P, D = shared(fam, mu)
            return 2.0 * P, 2.0 * D

        row = (doubled, label, shared, reads) if shared is None else (member, label, doubled_table, reads)
        with monkeypatch.context() as m:
            m.setitem(tester._MEMBERS, kind, row)
            swapped, want = ([x.m2 for x in fam.members(nu)] for nu in (mu, self._fresh()))
        assert swapped == want and all(a != b for a, b in zip(swapped, m2))
        calls = self._count(monkeypatch)
        assert [x.m2 for x in fam.members(mu)] == m2 and calls["_admitted"] == 0
        assert len(_columns(mu)) == 4

    def test_threads_sharing_a_measure_get_cold_reports(self, monkeypatch):
        families = [TestFamily("exponential", (lam, 2.0 * lam)) for lam in (0.25, 0.5, 1.0)] + _KEPT_FAMILIES[1:3]
        want = [cli._dump_json(_verify("1.1", self._fresh(), fam)) for fam in families]
        monkeypatch.setattr(measure1d, "_KEPT_PER_MEASURE", 4)  # fewer than the members asked for, so threads also evict
        mu, bad = self._fresh(), []

        def work(k):
            try:
                for i in range(12):
                    j = (k + i) % len(families)
                    if cli._dump_json(_verify("1.1", mu, families[j])) != want[j]:
                        bad.append(j)
            except Exception as exc:  # a lost eviction raises here
                bad.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert bad == [] and len(mu.kept) <= 4

    def test_a_measure_keeps_its_last_members(self, monkeypatch):
        monkeypatch.setattr(measure1d, "_KEPT_PER_MEASURE", 3)
        mu = self._fresh()
        assert len(mu.kept) == 0
        labels = (0.5, 0.25, 1.0, 2.0, 0.75)
        for lam in labels:
            TestFamily("exponential", (lam,)).members(mu)
        assert [key[-1] for key in _columns(mu)] == list(labels[-3:])
        TestFamily("exponential", (1.0,)).members(mu)  # a hit refreshes the oldest
        TestFamily("exponential", (3.0,)).members(mu)
        assert [key[-1] for key in _columns(mu)] == [0.75, 1.0, 3.0]
        assert all(set(c) == {"m2", "grad"} for c in _columns(mu).values())
        assert len(self._fresh().kept) == 0


def _reference_value_masses(mu, v):
    """median_of's value table as it was built before one stable sort replaced np.unique (the oracle)."""
    u, inv = np.unique(v, return_inverse=True)
    w = np.zeros(u.size)
    np.add.at(w, inv, mu.node_mass)
    return u, w


def _reference_median_of(mu, f):
    """median_of as written before it shared one stable sort (the oracle)."""
    u, w = _reference_value_masses(mu, f.values)
    suffix = np.concatenate((np.cumsum(w[::-1])[::-1][1:], [0.0]))
    return float(u[int(np.argmax(suffix <= 0.5))])


def _reference_restricted_integral(mu, integrand, marker):
    """_restricted_integral as written before it split the cells by kind (kept as the oracle)."""
    x = mu.grid
    p = integrand * mu.density
    p0, p1 = p[:-1], p[1:]
    m0, m1 = marker[:-1], marker[1:]
    dx = np.diff(x)

    a = np.zeros_like(dx)
    b = np.ones_like(dx)
    denom = m0 - m1
    safe = np.where(denom == 0.0, 1.0, denom)
    theta = np.clip(m0 / safe, 0.0, 1.0)
    outside = (m0 < 0.0) & (m1 < 0.0)
    b = np.where(outside, 0.0, b)
    dec = (m0 >= 0.0) & (m1 < 0.0)
    b = np.where(dec, theta, b)
    inc = (m0 < 0.0) & (m1 >= 0.0)
    a = np.where(inc, theta, a)

    width = b - a
    contrib = dx * (width * p0 + 0.5 * (b * b - a * a) * (p1 - p0))
    return float(np.sum(contrib))


def _reference_closed_form_cost(A, a, x):
    """eval_cost's closed form as written before it took the power branch only above A (the oracle)."""
    inner = 0.5 * x * x
    with np.errstate(over="ignore"):
        outer = A ** (2.0 - a) * x**a / a + A * A * (a - 2.0) / (2.0 * a)
    return np.where(x <= A, inner, outer)


def _reference_flatten(p, tau):
    """entropy._flatten as written before it took the power branch only above 1 (the oracle)."""
    upper = np.expm1(tau * np.log(np.maximum(p, 1.0))) / tau + 1.0
    return np.where(p <= 1.0, p, upper)


def _reference_stretched_exp(fam, mu, lam):
    """A stretched_exp member as written before its lam-free powers were shared (the oracle)."""
    x = mu.grid
    p = fam.exponent
    base = x * x + fam.smoothing**2
    log_deriv = lam * (p * x * base ** (0.5 * p - 1.0))
    vals = np.exp(lam * base ** (0.5 * p))
    return vals, log_deriv * vals, log_deriv


def _table_bytes(t):
    """A member table's bytes, with None (no log-derivative table) as itself."""
    return None if t is None else t.tobytes()


def _bits(x):
    """The bytes of a float, so that equality also tells -0.0 from 0.0 and matches NaN."""
    return np.float64(x).tobytes()


_MEDIAN_CASES = [
    ("exp", TestFamily("shifted_linear", (0.1, 0.2, 0.4))),  # 3,215 to 4,309 nodes tie at the floor
    ("gauss", TestFamily("bump", (0.5, 1.0, 2.0))),
    ("gauss", TestFamily("user", ("const",), user_fns=(_constant(2.0),))),
    ("gauss", TestFamily("random_smooth", (0, 1), seed=3)),
    ("exp_power", TestFamily("exponential", (-1.0, 0.5))),
    ("exp", TestFamily("shifted_linear", (0.5,), floor=0.25)),  # nondecreasing, tied at the floor
    ("exp", TestFamily("shifted_linear", (-0.5,))),  # nonincreasing, tied at the floor
    ("exp", TestFamily("exponential", (-0.5,))),  # strictly decreasing
]


def _median_measure(name):
    return builtin_measure(name, alpha=1.5) if name == "exp_power" else builtin_measure(name)


def _mid(x, i):
    return 0.5 * (x[i] + x[i + 1])


# marker(x) on a measure grid x
_MARKERS = {
    "zero_at_nodes": lambda x: np.where(np.abs(x) < 1.0, 0.0, x),
    "zero_at_one_node": lambda x: x - x[x.size // 3],
    "all_negative": lambda x: -1.0 - x * x,
    "all_positive": lambda x: 1.0 + x * x,
    "crossing_in_the_first_cell": lambda x: x - _mid(x, 0),
    "crossing_in_the_last_cell": lambda x: _mid(x, -2) - x,
    "oscillating": lambda x: np.sin(5.0 * x),
    "crossing_in_every_cell": lambda x: np.where(np.arange(x.size) % 2 == 0, 1.0, -3.0) * (1.0 + x * x),
    "with_a_nan": lambda x: np.where(x == x[x.size // 2 + 7], np.nan, np.cos(x)),
}


def _reference_dump_json(obj) -> str:
    """cli._dump_json as written before it picked a writer once per type (the oracle)."""
    out = []
    _reference_emit(obj, out)
    return "".join(out)


def _reference_emit(obj, out) -> None:
    if isinstance(obj, float):
        out.append(cli._format_float(obj))
    elif isinstance(obj, str):
        out.append(cli._json_string(obj))
    elif isinstance(obj, dict):
        _reference_emit_items(((cli._json_string(str(k)), v) for k, v in obj.items()), out)
    elif isinstance(obj, (list, tuple, np.ndarray)):
        sep = "["
        for value in obj:
            out.append(sep)
            _reference_emit(value, out)
            sep = ","
        out.append("]" if sep == "," else "[]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, np.floating):
        out.append(cli._format_float(float(obj)))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _reference_emit_items((('"' + f.name + '"', getattr(obj, f.name)) for f in dataclasses.fields(obj)), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_emit_items(items, out) -> None:
    sep = "{"
    for key, value in items:
        out.append(sep + key + ":")
        _reference_emit(value, out)
        sep = ","
    out.append("}" if sep == "," else "{}")


def _catalogue_reports(workload, monkeypatch, tmp_path):
    """The objects cli._dump_json writes for every request of a perfbench catalogue."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "mix.py"
    spec = importlib.util.spec_from_file_location("perfbench_mix", path)
    mix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mix)
    reports, dump = [], cli._dump_json
    monkeypatch.setattr(cli, "_dump_json", lambda obj: reports.append(obj) or dump(obj))
    for argv in mix.catalogue(workload):
        cli.main(list(argv) + ["--out", str(tmp_path / "report.json")])
    return reports


class _Float(float):
    pass


_COST_GRID = np.linspace(0.0, 100.0, 4097)  # the grid of an `expr:` cost


@dataclasses.dataclass
class _Empty:
    pass


class TestSharedTables:
    """The tester's one-pass helpers give the same bits as the code they replaced."""

    @pytest.mark.parametrize("measure, family", _MEDIAN_CASES, ids=lambda c: getattr(c, "kind", c))
    def test_median_matches_the_reference(self, measure, family):
        mu = _median_measure(measure)
        for sf in family.members(mu):
            # the masses themselves, since a mass off in its last bit rarely moves the median
            for got, want in zip(tester._value_masses(mu, sf.values), _reference_value_masses(mu, sf.values)):
                assert got.tobytes() == want.tobytes(), sf.name
            assert _bits(median_of(mu, sf)) == _bits(_reference_median_of(mu, sf)), sf.name
            assert _bits(median_energy(mu, sf)) == _bits(float(mu.integrate((sf.values - _reference_median_of(mu, sf)) ** 2)))

    def test_median_cases_take_every_path(self):
        """Sorted or not, with ties or without: each of _value_masses's four paths is pinned above."""
        paths = set()
        for measure, family in _MEDIAN_CASES:
            for sf in family.members(_median_measure(measure)):
                v = sf.values
                paths.add((bool(np.all(v[1:] >= v[:-1])), bool(np.unique(v).size < v.size)))
        assert paths == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("A, alpha", [(1.0, 3.0), (0.5, 1.5), (2.0, 2.0), (1.0, 1.2)])
    def test_closed_form_cost_matches_the_reference(self, A, alpha):
        c = CostFunction.closed_form(A, alpha)
        x = np.concatenate(([0.0, A, np.nextafter(A, np.inf), 1e300, np.inf], np.linspace(0.0, 4.0 * A, 101)))
        with np.errstate(over="ignore"):  # (1e300)^2 / 2
            want = _reference_closed_form_cost(A, alpha, x)
            assert eval_cost(c, x).tobytes() == want.tobytes()
            got, flag = eval_cost(c, x, return_flag=True)
            assert got.tobytes() == want.tobytes()
            assert flag.shape == x.shape and not flag.any()
            for xi, wi in zip(x, want):
                assert _bits(eval_cost(c, xi)) == _bits(wi)
                assert eval_cost(c, xi, return_flag=True) == (wi, False)

    @pytest.mark.parametrize("tau", [1.0, 0.5, 1e-3])
    def test_flatten_matches_the_reference(self, tau):
        p = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 2.0, np.e, 1e300, np.inf, np.nan])
        want = _reference_flatten(p, tau)
        assert entropy._flatten(p, tau).tobytes() == want.tobytes()
        for pi, wi in zip(p, want):
            assert _bits(entropy._flatten(pi, tau)) == _bits(wi)

    @pytest.mark.parametrize("marker", list(_MARKERS))
    def test_restricted_integral_matches_the_reference(self, gauss, marker):
        x = gauss.grid
        m = _MARKERS[marker](x)
        # integrands of both signs, and one whose infinite node makes a dropped cell NaN
        inf_node = np.where(x == x[x.size // 4], np.inf, 1.0)
        for integrand in (np.exp(-0.5 * x), np.sin(3.0 * x) * np.exp(0.2 * x), -np.ones_like(x), inf_node):
            for mk in (m, -m):
                with np.errstate(invalid="ignore"):
                    got = tester._restricted_integral(gauss, integrand, mk)
                    want = _reference_restricted_integral(gauss, integrand, mk)
                assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("K", [2.0, 4.0])
    def test_restricted_integral_of_members_matches_the_reference(self, gauss, F_log, K):
        for fam in (TestFamily("exponential", (0.25, 1.0, 3.0)), TestFamily("bump", (0.5, 2.0)), TestFamily("random_smooth", (0, 1))):
            for sf in fam.members(gauss):
                v = sf.values
                m2 = gauss.integrate(v * v)
                integrand = v * v * tester._level_entropy(F_log, v, v * v, m2)
                want = _reference_restricted_integral(gauss, integrand, v * v - K * m2)
                assert _bits(tester._restricted_integral(gauss, integrand, v * v - K * m2)) == _bits(want), sf.name

    @pytest.mark.parametrize("measure", ["exp_power:1.5", "expr:x^2/2+abs(x-1)^3/3"])
    @pytest.mark.parametrize("family", [
        TestFamily("stretched_exp", (0.25, 0.5, 1.0)),
        TestFamily("stretched_exp", (-0.5, 0.1, 2.0), exponent=1.3, smoothing=0.2),
    ], ids=lambda fam: f"p{fam.exponent:g}")
    def test_stretched_members_match_the_reference(self, measure, family, monkeypatch):
        if measure.startswith("expr:"):
            mu = build_measure(parse_potential(measure[5:]), name=measure)
            assert not np.array_equal(mu.grid, -mu.grid[::-1])  # the grid is not symmetric
        else:
            mu = builtin_measure("exp_power", alpha=1.5)
        member, label, shared, reads = tester._MEMBERS["stretched_exp"]
        tables = []
        monkeypatch.setitem(tester._MEMBERS, "stretched_exp", (member, label, lambda fam, mu: tables.append(shared(fam, mu)) or tables[-1], reads))
        # the family's members and its enrichment's midpoints, which read one table
        enriched = family.enriched()
        assert len(enriched.params) == 5
        members = enriched.members(mu)
        for sf, lam in zip(members, enriched._ordered_params()):
            want = _reference_stretched_exp(family, mu, lam)
            for name, ref in zip(("values", "dvalues", "log_deriv"), want):
                assert getattr(sf, name).tobytes() == ref.tobytes(), (sf.name, name)
        assert len(members) == 5 and len(tables) == 1
        assert all(not part.flags.writeable for part in tables[0])

    @pytest.mark.parametrize("display", ["2.1", "2.1-log", "1.1", "4.4"])
    @pytest.mark.parametrize("family", [
        TestFamily("exponential", (0.25, 1.0)),
        TestFamily("shifted_linear", (0.1, 0.4)),
        TestFamily("bump", (0.5, 2.0)),
        TestFamily("random_smooth", (0, 1), seed=2),
        TestFamily("user", ("const", "tanh"), user_fns=(_constant(2.0), (lambda x: 2.0 + np.tanh(x), lambda x: 1.0 - np.tanh(x) ** 2))),
    ], ids=lambda fam: fam.kind)
    def test_rows_equal_the_public_functionals(self, exp_power_15, F_log, display, family, monkeypatch):
        mu = exp_power_15
        if display == "2.1":
            F, cost = F_tau(0.75), CostFunction.closed_form(1.0, 3.0)
            rep = verify_theorem_2_1(mu, F, cost, 2.0, family)
        elif display == "2.1-log":
            # the profile log_entropy() returns: its entropy side is the classical column
            F, cost = tester.log_entropy(), CostFunction.closed_form(1.0, 3.0)
            with monkeypatch.context() as m:
                m.setattr(tester, "_classical_entropy", None)
                rep = verify_theorem_2_1(mu, F, cost, 2.0, family)
        elif display == "1.1":
            F, cost = F_tau(0.9), tester.dual_cost(CostFunction.closed_form(1.0, 1.5 * 0.9 / 0.5))
            rep = verify_theorem_1_1(mu, 1.5, 0.9, 1.0, family)
        else:
            rep = verify_theorem_4_4(mu, 1.5, family)
        for row, sf, label in zip(rep.rows, family.members(mu), family._ordered_params()):
            want = {
                "name": sf.name,
                "classical_entropy": entropy_functional(mu, sf, F_log),
                "grad_energy": tester.cost_energy(mu, sf, 2.0),
                "median_energy": median_energy(mu, sf),
            }
            if display == "4.4":
                want["modified_energy"] = tester.cost_energy(mu, sf, 3.0)
            else:
                want["entropy_F"] = entropy_functional(mu, sf, F)
                want["variance"] = variance(mu, sf)
                want["modified_energy"] = modified_energy(mu, sf, cost)
                want["ratio"] = tester._ratio(want["entropy_F"], want["modified_energy"])
            for key, value in want.items():
                got = getattr(row, key)
                assert got == value if key == "name" else _bits(got) == _bits(value), (sf.name, key)
            assert _bits(row.parameter) == _bits(tester._parameter(label))
            classical, grad = want["classical_entropy"], want["grad_energy"]
            assert row.saturation == bool(grad > 0 and abs(classical / (2.0 * grad) - 1.0) <= tester._SATURATION_TOL)


    @pytest.mark.parametrize("cost", [
        CostFunction.closed_form(1.0, 2.0),
        CostFunction.closed_form(1.0, 3.0),  # lam/2 = 0.25 and 2: c*'s quadratic and power branches
        CostFunction.from_samples(_COST_GRID, _COST_GRID**2 / 2 + _COST_GRID**3 / 3),
    ], ids=["quadratic", "c:1:3", "sampled"])
    def test_exponential_log_derivative_is_one_value(self, exp_power_15, cost):
        mu = exp_power_15
        family = TestFamily("exponential", (0.5, 4.0))
        for sf, lam in zip(family.members(mu), family._ordered_params()):
            assert sf.log_deriv.shape == (1,)
            # the table it replaced
            full = SampledFunction(mu.grid, sf.values, sf.dvalues, log_deriv=np.full_like(mu.grid, 0.5 * lam), name=sf.name)
            sq = sf.values * sf.values
            got, want = tester._modified_integrand(sf, sq, cost), tester._modified_integrand(full, sq, cost)
            assert got.shape == mu.grid.shape and got.tobytes() == want.tobytes(), sf.name
            assert _bits(modified_energy(mu, sf, cost)) == _bits(modified_energy(mu, full, cost)), sf.name

    @pytest.mark.parametrize("workload", ["certify", "paper-examples"])
    def test_json_writer_matches_the_reference_on_the_catalogue(self, workload, monkeypatch, tmp_path):
        reports = _catalogue_reports(workload, monkeypatch, tmp_path)
        assert len(reports) >= (54 if workload == "certify" else 1)
        for report in reports + reports:  # the second pass reads the kept writers and keys
            assert cli._dump_json(report) == _reference_dump_json(report)

    def test_json_writer_matches_the_reference_on_edge_values(self):
        values = [
            np.float64(0.1), np.float64(-0.0), np.int64(-7), np.float32(0.1), np.arange(3), np.array([[0.5, -0.0], [np.inf, np.nan]]),
            -0.0, 0.0, float("inf"), float("-inf"), float("nan"), _Float(2.5), _Float("nan"), {}, [], (), _Empty(),
            True, False, None, 3, "a\"b\\c\n\x01", {1: "int key", None: 2, 2.5: [1, {}]}, {True: 1}, {"k": {"k": [None]}},
        ]
        for value in values + [values]:
            assert cli._dump_json(value) == _reference_dump_json(value), repr(value)
        for bad in (np.bool_(True), object(), _Empty, {"x": {1, 2}}):
            messages = []
            for dump in (cli._dump_json, _reference_dump_json):
                with pytest.raises(TypeError) as refused:
                    dump(bad)
                messages.append(str(refused.value))
            assert messages[0] == messages[1], repr(bad)

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

    @pytest.mark.parametrize("lam, zero", [(44.0, True), (42.0, False)])  # g = e^{lam x / 2}
    def test_underflowing_level_of_g_is_refused(self, F_log, lam, zero):
        """Levels of 0 gave lhs -inf, subnormal ones rhs +inf; both said ok, with numpy warnings."""
        mu = builtin_measure("gauss", n=4096)
        f, g = exp_member(mu, 1.0), exp_member(mu, lam)
        h = g.values * g.values / mu.integrate(g.values * g.values)
        assert np.any(h == 0) == zero
        lost = int(np.count_nonzero((g.values > 0) & (h < np.finfo(float).tiny)))
        assert lost > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"underflows \(below 2.225e-308\) at {lost} node\(s\) where g > 0"):
                lemma_3_3_check(mu, F_log, f, g)

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


class TestUnderflowingLevels:
    """Where f^2 / mu(f^2) underflows to 0 the level entropy is 0, not F(0) = -inf."""

    def test_steep_member_keeps_finite_margins(self, F_log):
        mu = builtin_measure("gauss", n=4096)
        fam = TestFamily("exponential", (50.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_theorem_2_1(mu, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
            lemma = lemma_3_4_check(mu, F_log, 2.0, fam)
        step = rep.details["step1"][0]
        assert np.isfinite(step["I1"]) and np.isfinite(step["margin"]) and step["ok"]
        row = lemma.rows[0]
        assert all(np.isfinite(row[k]) for k in ("full", "restricted", "plus_term", "margin1", "B_member"))
        assert row["display1_ok"] and lemma.display1_ok


class TestReportShapes:
    def test_csv_layout(self, gauss, F_log):
        fam = TestFamily("exponential", (0.25, 0.5))
        rep = verify_theorem_2_1(gauss, F_log, CostFunction.closed_form(1.0, 2.0), 2.0, fam)
        text = cli._report_table(rep)
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
