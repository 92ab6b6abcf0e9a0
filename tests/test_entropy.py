"""Entropy profiles, their flattenings, and the variational Phi transform."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import isocert.entropy as entropy
from isocert.checker import ConditionSpec, check_condition, check_exp_power
from isocert.entropy import (
    EntropyFunction,
    F_tau,
    check_assumptions,
    lemma32_bound_check,
    log_Phi,
    log_entropy,
)
from isocert.expr import parse_potential


class TestLogEntropy:
    def test_basic_values(self, F_log):
        assert F_log(1.0) == 0.0
        assert F_log(np.e) == pytest.approx(1.0, rel=1e-15)
        assert F_log.derivative(2.0) == pytest.approx(0.5, rel=1e-12)

    def test_log_form_evaluation_reaches_huge_arguments(self, F_log):
        assert F_log.at_log(1500.0) == 1500.0

    def test_at_log_overflow_without_log_form(self):
        fplain = EntropyFunction(fn=lambda y: np.log(y))
        assert fplain.at_log(10.0) == pytest.approx(10.0)
        with pytest.raises(OverflowError):
            fplain.at_log(800.0)

    def test_derivative_fallback_is_central_difference(self):
        fplain = EntropyFunction(fn=lambda y: np.log(y))
        assert fplain.derivative(3.0) == pytest.approx(1.0 / 3.0, rel=1e-6)


class TestFlattenedProfile:
    def test_threshold_is_where_base_reaches_one(self, F_half):
        assert F_half.x0 == pytest.approx(np.e, rel=1e-12)

    def test_value_above_threshold_by_hand(self, F_half):
        # ((log e^4)^{1/2} - 1) / (1/2) + 1 = 2(2 - 1) + 1 = 3
        assert float(F_half(np.e ** 4.0)) == pytest.approx(3.0, rel=1e-14)

    def test_matches_base_below_threshold(self, F_half, F_log):
        y = np.array([0.1, 0.5, 1.0, 2.0, np.e])
        assert np.allclose(F_half(y), F_log(y), rtol=1e-14)

    def test_continuous_and_smooth_at_threshold(self, F_half):
        h = 1e-8
        x0 = F_half.x0
        jump = float(F_half(x0 + h) - F_half(x0 - h))
        assert jump == pytest.approx(0.0, abs=1e-7)
        slope = float(F_half.derivative(np.array([x0 * 1.0000001]))[0])
        assert slope == pytest.approx(1.0 / x0, rel=1e-5)

    def test_tau_one_is_the_base_profile(self, F_log):
        F1 = F_tau(1.0)
        y = np.geomspace(0.01, 1e6, 50)
        assert np.allclose(F1(y), F_log(y), rtol=1e-12)

    def test_concave_increasing_with_zero_at_one(self, F_half):
        rep = check_assumptions(F_half)
        assert rep.a1 and rep.a2

    def test_threshold_of_a_base_without_x0_is_its_root(self):
        # phi(y) = 2 log y reaches 1 at y = e^{1/2}
        phi = EntropyFunction(fn=lambda y: 2.0 * np.log(y), dfn=lambda y: 2.0 / y, name="2log")
        assert F_tau(0.5, phi).x0 == pytest.approx(np.exp(0.5), rel=1e-12, abs=0.0)

    def test_threshold_of_the_log_base_is_e(self):
        assert F_tau(0.5).x0 == float(np.e)

    def test_base_that_never_reaches_one_is_refused(self):
        bounded = EntropyFunction(fn=lambda y: 1.0 - 1.0 / y, dfn=lambda y: 1.0 / y**2, name="bounded")
        with pytest.raises(ValueError, match="does not reach 1"):
            F_tau(0.5, bounded)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            F_tau(0.0)
        with pytest.raises(ValueError):
            F_tau(1.5)
        with pytest.raises(ValueError):
            F_tau(0.5)(np.array([-1.0]))

    def test_log_form_agrees_with_direct_form(self, F_half):
        u = np.array([-2.0, 0.0, 1.0, 5.0, 40.0])
        assert np.allclose(F_half.at_log(u), F_half(np.exp(u)), rtol=1e-12)

    @pytest.mark.parametrize("tau", [1e-6, 1e-3])
    def test_small_tau_matches_mpmath(self, tau):
        # (p^tau - 1)/tau loses about eps/tau; expm1(tau log p)/tau does not
        mpmath = pytest.importorskip("mpmath")
        u = np.array([1.5, 10.0, 300.0, 1e5])  # log y = u > 1: the flattened branch
        with mpmath.workdps(40):
            want = np.array([float(mpmath.expm1(tau * mpmath.log(v)) / tau + 1) for v in u])
        F = F_tau(tau)
        for got in (F.at_log(u), F(np.exp(u[:3])), F_tau(tau, log_entropy())(np.exp(u[:3]))):
            assert np.allclose(got, want[: got.size], rtol=1e-14, atol=0.0)


class TestConcavePerturbation:
    def test_composition_flattens_the_exponent(self, F_log):
        # psi_{tau, beta}, the identity up to 1 and
        # beta/2 ((1 + tau (x - 1))^{2/(tau beta)} - 1) + 1 above it, turns
        # the tau-flattening into the 2/beta-flattening
        tau, beta = 0.5, 4.0
        Ft = F_tau(tau)
        Fb = F_tau(2.0 / beta)
        y = np.geomspace(1.0, 1e8, 200)
        x = Ft(y)
        composed = np.where(x <= 1.0, x, 0.5 * beta * ((1.0 + tau * (x - 1.0)) ** (2.0 / (tau * beta)) - 1.0) + 1.0)
        assert np.allclose(composed, Fb(y), rtol=1e-12)


class TestPhiTransform:
    def test_log_profile_gives_exponential(self, F_log):
        x = np.linspace(0.0, 5.0, 101)
        values = np.exp(log_Phi(F_log, x))
        rel = np.abs(values - np.exp(x)) / np.exp(x)
        assert float(np.max(rel)) < 1e-5

    def test_log_space_evaluation_is_exact_for_log(self, F_log):
        x = np.array([-30.0, -5.0, -0.5, 0.0, 1.0, 40.0, 300.0])
        out = log_Phi(F_log, x)
        assert np.allclose(out, x, rtol=0, atol=3e-13 * (1 + np.abs(x).max()))

    def test_monotone_in_argument(self, F_half):
        x = np.linspace(-3.0, 20.0, 40)
        out = log_Phi(F_half, x)
        assert np.all(np.diff(out) >= -1e-10)

    def test_tangent_floor(self, F_half):
        # Phi(x) >= 1 + x always (take the unit test point y = 1)
        x = np.array([-0.9, -0.5, 0.3, 2.0])
        assert np.all(log_Phi(F_half, x) >= np.log1p(x) - 1e-12)

    def test_flattened_profile_transform_grows_faster_than_exp(self, F_half):
        # flattening the profile enlarges the transform
        x = np.array([1.0, 3.0, 10.0])
        assert np.all(log_Phi(F_half, x) >= x - 1e-9)


def _oracle_log_Phi(G, dG, x):
    """log Phi(x) from scipy's brentq on the stationarity residual
    G(u) + G'(u) - (x + 1), evaluated as u* + log G'(u*) (= the objective
    u + log(x + 1 - G(u)) at the root) and floored at log1p(x)."""
    r = lambda u: G(u) + dG(u) - (x + 1.0)
    lo, hi = -1.0, 1.0
    while r(lo) > 0:
        lo *= 2.0
    while r(hi) < 0:
        hi *= 2.0
    u = brentq(r, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=400)
    value = u + np.log(dG(u))
    return max(value, np.log1p(x)) if x > -1 else value


def _assert_close(got, want):
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)


def _root_power(p, tau):
    """(p^tau - 1)/tau + 1 above p = 1, p below, and its p-slope."""
    if p <= 1.0:
        return p, 1.0
    return np.expm1(tau * np.log(p)) / tau + 1.0, p ** (tau - 1.0)


class TestLogPhiOracle:
    """log_Phi against an independent root finder (scipy brentq) on the
    stationarity condition x + 1 - G(u) = G'(u), G(u) = F(e^u)."""

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-50.0, 1e4))
    def test_log_is_exact(self, x):
        xs = np.array([x, -x, 0.5 * x])
        assert np.array_equal(log_Phi(log_entropy(), xs), xs)
        assert log_Phi(log_entropy(), x) == x

    @settings(max_examples=60, deadline=None)
    @given(tau=st.floats(1e-6, 1.0), x=st.floats(-20.0, 300.0))
    def test_F_tau_over_log(self, tau, x):
        G = lambda u: _root_power(u, tau)[0]
        dG = lambda u: _root_power(u, tau)[1]
        _assert_close(log_Phi(F_tau(tau), x), _oracle_log_Phi(G, dG, x))

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(0.05, 1.0), x=st.floats(-2.5, 300.0))
    @example(tau=0.25, x=1.5)  # the maximiser sits on x0, where G'' jumps
    def test_F_tau_over_a_non_log_base(self, tau, x):
        # base phi(y) = 2 (sqrt(y) - 1), with phi(e^u) = 2 (e^{u/2} - 1)
        phi = EntropyFunction(
            fn=lambda y: 2.0 * (np.sqrt(y) - 1.0),
            dfn=lambda y: 1.0 / np.sqrt(y),
            fn_log=lambda u: 2.0 * np.expm1(0.5 * np.asarray(u, dtype=float)),
            name="sqrt",
        )
        F = F_tau(tau, phi)
        assert F.log_phi is None
        G = lambda u: _root_power(2.0 * np.expm1(0.5 * u), tau)[0]
        dG = lambda u: _root_power(2.0 * np.expm1(0.5 * u), tau)[1] * np.exp(0.5 * u)
        _assert_close(log_Phi(F, x), _oracle_log_Phi(G, dG, x))

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(0.5, 1.0), x=st.floats(-2.5, 50.0))
    @example(tau=0.5, x=1.0)
    def test_F_tau_over_a_base_without_a_log_form(self, tau, x):
        # F_tau over a base without a log form has none either: F(e^u) is
        # fn(e^u), which refuses u > 700, so the stationarity table stops below e^700
        phi = EntropyFunction(fn=lambda y: 2.0 * np.log(y), dfn=lambda y: 2.0 / y, name="2log")
        F = F_tau(tau, phi)
        assert F.log_phi is None and F.fn_log is None
        G = lambda u: _root_power(2.0 * u, tau)[0]
        dG = lambda u: 2.0 * _root_power(2.0 * u, tau)[1]
        _assert_close(log_Phi(F, x), _oracle_log_Phi(G, dG, x))
        assert 690.0 < F.stationarity_table[1][-1] < 700.0

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-2.5, 300.0) | st.floats(0.3, 4e12))
    @example(x=0.3)
    @example(x=4e12)
    def test_expr_entropy(self, x):
        expr = parse_potential("2*(x^0.5-1)")
        F = EntropyFunction(fn=lambda y: np.asarray(expr(y), dtype=float), name="expr")
        G = lambda u: 2.0 * np.expm1(0.5 * u)
        dG = lambda u: np.exp(0.5 * u)
        _assert_close(log_Phi(F, x), _oracle_log_Phi(G, dG, x))

    @staticmethod
    def _slow_profile():
        """F_tau over phi(y) = log(y)/10 at a small tau, with its G and G'.
        Near x = 264 the maximiser's G'(u*) falls below the rounding of x, so
        x + 1 - G(u*) cancels to 0."""
        tau = 0.10238929596641477
        phi = EntropyFunction(
            fn=lambda y: np.log(y) / 10.0,
            dfn=lambda y: 0.1 / np.asarray(y, dtype=float),
            fn_log=lambda u: np.asarray(u, dtype=float) / 10.0,
            name="log/10",
        )
        G = lambda u: _root_power(u / 10.0, tau)[0]
        dG = lambda u: _root_power(u / 10.0, tau)[1] / 10.0
        return F_tau(tau, phi), G, dG

    @pytest.mark.parametrize("x", [100.0, 264.5, 288.8])
    def test_F_tau_over_a_slow_base_past_the_rounding_of_x(self, x):
        F, G, dG = self._slow_profile()
        assert F.log_phi is None
        _assert_close(log_Phi(F, x), _oracle_log_Phi(G, dG, x))

    def test_F_tau_over_a_slow_base_is_nondecreasing(self):
        F, _, _ = self._slow_profile()
        assert np.all(np.diff(log_Phi(F, np.linspace(0.0, 300.0, 3001))) >= 0)

    def test_vector_matches_scalar_calls(self, F_half):
        x = np.linspace(-5.0, 80.0, 37)
        assert np.array_equal(log_Phi(F_half, x), np.array([log_Phi(F_half, v) for v in x]))

    def test_fast_growing_expr_entropy_takes_few_coarse_passes(self, monkeypatch):
        # each root starts inside a bracket of the profile's stationarity table
        F = EntropyFunction(fn=parse_potential("2*(x^0.5-1)"), name="expr:2*(x^0.5-1)")
        passes = []
        solve = entropy._increasing_root
        monkeypatch.setattr(
            entropy, "_increasing_root", lambda resid, *a: solve(lambda u, x: passes.append(u.size) or resid(u, x), *a)
        )
        log_Phi(F, np.geomspace(0.3, 4e12, 2000))
        assert 1 <= len(passes) <= 4

    def test_stationarity_table_is_increasing_and_kept(self):
        F = EntropyFunction(fn=parse_potential("2*(x^0.5-1)"), name="expr:2*(x^0.5-1)")
        H, u = F.stationarity_table
        assert F.stationarity_table is F.stationarity_table
        assert np.all(np.diff(H) > 0) and np.all(np.diff(u) > 0)
        assert u[0] == -50.0 and u[-1] < entropy._U_EVAL and H.size > 1900

    def test_missing_log_form_is_a_value_error(self):
        fplain = EntropyFunction(fn=lambda y: np.log(y), name="plainlog")
        assert log_Phi(fplain, 300.0) == pytest.approx(300.0, rel=1e-12)
        with pytest.raises(ValueError, match="log-form"):
            log_Phi(fplain, np.array([1.0, 2000.0]))

    def test_F_tau_over_a_base_without_a_log_form_refuses_a_root_past_e700(self):
        # G(u) = 2 sqrt(2u) - 1 above u = 1/2 reaches 1001 only near u = 1.25e5
        phi = EntropyFunction(fn=lambda y: 2.0 * np.log(y), dfn=lambda y: 2.0 / y, name="2log")
        with pytest.raises(ValueError, match="log-form"):
            log_Phi(F_tau(0.5, phi), 1000.0)

    def test_root_below_the_search_range_is_a_value_error(self):
        # the maximiser of expr:log(x) at x is u* = x, below -699.9 here:
        # e^u underflows there, so the value -800 is out of reach
        F = EntropyFunction(fn=parse_potential("log(x)"), name="expr:log(x)")
        assert log_Phi(F, -600.0) == pytest.approx(-600.0, rel=1e-12)
        with pytest.raises(ValueError, match="below"):
            log_Phi(F, -800.0)

    def test_profile_without_a_finite_residual_is_a_value_error(self):
        F = EntropyFunction(fn=lambda y: np.full_like(y, np.nan), name="nan")
        with pytest.raises(ValueError, match="nowhere finite"):
            log_Phi(F, 1.0)

    @staticmethod
    def _spy_brackets(monkeypatch):
        """Wrap _increasing_root so that it records each call's finite
        bracket and fails on a residual evaluated outside it."""
        solve = entropy._increasing_root
        brackets = []

        def spy(resid, x, u, tol, lo, hi):
            assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
            bracket = dict(zip(x.tolist(), zip(lo.tolist(), hi.tolist())))
            brackets.append(bracket)

            def checked(ua, xa):
                for v, level in zip(ua.tolist(), xa.tolist()):
                    assert bracket[level][0] <= v <= bracket[level][1], (level, v, bracket[level])
                return resid(ua, xa)

            return solve(checked, x, u, tol, lo, hi)

        monkeypatch.setattr(entropy, "_increasing_root", spy)
        return brackets

    def test_levels_outside_the_table_match_the_oracle_inside_their_bracket(self, monkeypatch):
        # F = log without its exact log_phi: G(u) = u and the table spans
        # u in [-50, 1e5], so x = -1e6 and -300 lie below it, 2e5 and 1e9 above
        F = EntropyFunction(fn=lambda y: np.log(y), fn_log=lambda u: np.asarray(u, dtype=float), name="log")
        x = np.array([-1e6, -300.0, -60.0, 0.5, 3e4, 2e5, 1e9])
        H = F.stationarity_table[0]
        assert np.any(x + 1.0 < H[0]) and np.any(x + 1.0 > H[-1])
        brackets = self._spy_brackets(monkeypatch)
        got = log_Phi(F, x)
        assert len(brackets) == 1
        for g, level in zip(got, x):
            _assert_close(g, _oracle_log_Phi(lambda u: u, lambda u: 1.0, level))

    @pytest.mark.parametrize("x", [300.0, 350.0, 420.0])  # u* from 5e15 to 1e17, below 2^64
    def test_F_tau_over_a_slow_base_above_the_table(self, x, monkeypatch):
        F, G, dG = self._slow_profile()
        assert x + 1.0 > F.stationarity_table[0][-1]
        self._spy_brackets(monkeypatch)
        _assert_close(log_Phi(F, x), _oracle_log_Phi(G, dG, x))

    def test_F_tau_over_log_at_and_past_the_largest_double(self):
        # at tau = 1e-3 the root for x = 1033 lies near 1e308 and the one
        # for x = 1034 past the largest double, where Phi overflows
        got = log_Phi(F_tau(1e-3), np.array([2.0, 700.0, 1033.0, 1034.0]))
        assert np.all(np.isfinite(got[:3])) and got[3] == np.inf

    def test_root_solver_stays_inside_its_bracket(self):
        # atan(u - x) flattens far from its root, so Newton steps from the
        # bracket ends overshoot it; rtsafe bisects instead
        x = np.array([-3.0, 0.0, 0.5, 7.0])
        seen = []

        def resid(u, xa):
            seen.append(u.copy())
            return np.arctan(u - xa), 1.0 / (1.0 + (u - xa) ** 2)

        lo, hi = np.full(4, -10.0), np.full(4, 40.0)
        u = entropy._increasing_root(resid, x, np.array([-10.0, 40.0, 30.0, -9.0]), 1e-14, lo, hi)
        assert np.allclose(u, x, rtol=0.0, atol=1e-13)
        assert all(np.all((ua >= -10.0) & (ua <= 40.0)) for ua in seen)


def _mp_log_Phi_F_tau(mpmath, tau, x):
    """log Phi(x) of F_tau over log at 60 digits: the stationarity condition
    (e^{tau v} - 1)/tau + e^{(tau - 1) v} = x in v = log u, solved by
    mpmath's Anderson-Bjorck bracketing on [0, log1p(tau x)/tau], then
    e^v + (tau - 1) v."""
    with mpmath.workdps(60):
        t, X = mpmath.mpf(tau), mpmath.mpf(x)
        f = lambda v: mpmath.expm1(t * v) / t + mpmath.exp((t - 1) * v) - X  # noqa: E731
        v = mpmath.findroot(f, (mpmath.mpf(0), mpmath.log1p(t * X) / t), solver="anderson", verify=False)
        assert abs(f(v)) <= mpmath.mpf(10) ** -40 * X, (tau, x)
        return float(mpmath.exp(v) + (t - 1) * v)


class TestFTauOverLog:
    """The exact route of F_tau over log: Newton in z = u^tau - 1 from the
    right of the root (entropy._F_tau_log_phi)."""

    TAUS = (1e-6, 1e-3, 0.1, 0.5, 2.0 / 3.0, 0.75, 0.9, 1.0)

    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_mpmath_up_to_the_overflow_edge(self, tau):
        # x from 1 + 1e-12 to where u* nears e^709; the error measured here
        # is at most 1.2 eps log(Phi), the rounding of log u* in e^{log u*}
        mpmath = pytest.importorskip("mpmath")
        edge = float(np.expm1(tau * 709.0) / tau)
        x = np.concatenate((1.0 + np.geomspace(1e-12, 1.0, 12), np.geomspace(2.0, edge, 24)))
        got = log_Phi(F_tau(tau), x)
        want = np.array([_mp_log_Phi_F_tau(mpmath, tau, v) for v in x])
        tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.log(want))
        assert np.all(np.abs(got - want) <= tol * want), np.max(np.abs(got - want) / want)

    @pytest.mark.parametrize("dx", [1e-12, 1e-9])
    def test_tiny_tau_just_above_one(self, dx):
        # z* is near sqrt(2 tau^2 dx) there, where u^tau itself keeps few digits
        mpmath = pytest.importorskip("mpmath")
        x = 1.0 + dx
        got = log_Phi(F_tau(1e-6), x)
        assert abs(got - _mp_log_Phi_F_tau(mpmath, 1e-6, x)) <= 4.0 * np.finfo(float).eps * got

    def test_overflow_edge_infinities_and_nan(self):
        F = F_tau(1e-3)
        got = F.log_phi(np.array([1033.0, 1034.0, np.inf, -np.inf, np.nan, 1.0, 0.5]))
        assert 700.0 < np.log(got[0]) < 709.8 and got[1] == got[2] == np.inf
        assert got[3] == -np.inf and np.isnan(got[4]) and got[5] == 1.0 and got[6] == 0.5

    def test_each_entry_is_its_own_solve(self):
        # values do not depend on the other entries of the array
        for tau in (1e-6, 1e-3, 0.5, 2.0 / 3.0):
            x = np.array([1.0 + 1e-12, 1.0 + 1e-9, 1.5, 3.0, 1e3, 1034.0, np.inf, np.nan, 1e8, 1.0 + 1e-7])
            F = F_tau(tau)
            assert np.array_equal(F.log_phi(x), np.concatenate([F.log_phi(x[i : i + 1]) for i in range(x.size)]), equal_nan=True)

    def test_paper_examples_arrays_take_at_most_four_passes(self, exp_power_15, monkeypatch):
        # the three F_tau conditions of paper-examples (taus 1 and 2/3, two
        # of them sharing the endpoint run)
        monkeypatch.setattr(entropy, "_NEWTON_PASSES", 4)
        check_exp_power(exp_power_15, 1.5, (1.0, 2.0 / 3.0))

    def test_an_entry_still_moving_at_the_pass_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(entropy, "_NEWTON_PASSES", 2)
        with pytest.raises(ValueError, match="did not converge"):
            log_Phi(F_tau(0.5), np.array([2.0, 1.0 + 1e-3, 50.0]))


class TestAssumptionChecks:
    def test_log_passes_all(self, F_log):
        rep = check_assumptions(F_log)
        assert rep.a1 and rep.a2 and rep.a3 and rep.a4
        assert rep.delta > 0
        assert rep.y0 is not None
        assert rep.f_at_1 == pytest.approx(0.0, abs=1e-12)

    def test_flattened_passes_all(self, F_half):
        rep = check_assumptions(F_half)
        assert rep.a1 and rep.a2 and rep.a3 and rep.a4

    def test_convex_profile_fails_concavity(self):
        bad = EntropyFunction(fn=lambda y: y * y - 1.0)
        rep = check_assumptions(bad)
        assert not rep.a1
        assert not (rep.a1 and rep.a2 and rep.a3 and rep.a4)

    def test_shifted_profile_fails_normalization(self):
        shifted = EntropyFunction(fn=lambda y: np.log(y) + 0.5)
        assert not check_assumptions(shifted).a1


class TestSharedProfiles:
    """Profiles are immutable: the builtin ones are shared, and each keeps
    its own A1-A4 report."""

    def test_builtin_profiles_are_shared_per_argument(self):
        assert log_entropy() is log_entropy()
        assert F_tau(0.75) is F_tau(0.75)
        assert F_tau(1) is F_tau(1.0)
        assert F_tau(0.75) is not F_tau(0.5)
        assert F_tau(0.75).name == "F_tau(log,0.75)" and F_tau(0.5).name == "F_tau(log,0.5)"

    def test_a_profile_over_another_base_is_built_anew(self):
        phi = EntropyFunction(fn=lambda y: np.log(y), fn_log=lambda u: u, name="mylog", x0=float(np.e))
        assert F_tau(0.5, phi) is not F_tau(0.5, phi)

    def test_refused_tau_is_refused_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="tau must lie in"):
                F_tau(1.5)
        assert entropy._F_tau_over_log.cache_info().currsize == 0

    @staticmethod
    def _count_samples(monkeypatch):
        calls = []
        sample = entropy._sample_assumptions

        def counted(F, n):
            calls.append((F.name, n))
            return sample(F, n)

        monkeypatch.setattr(entropy, "_sample_assumptions", counted)
        return calls

    def test_assumptions_are_sampled_once_per_profile(self, monkeypatch):
        calls = self._count_samples(monkeypatch)
        F = EntropyFunction(fn=lambda y: np.log(y), name="plainlog")
        first = check_assumptions(F)
        assert check_assumptions(F) is first and F.assumptions is first
        assert calls == [("plainlog", 4096)]
        other = EntropyFunction(fn=lambda y: np.log(y), name="plainlog")
        assert check_assumptions(other) is not first
        assert calls == [("plainlog", 4096), ("plainlog", 4096)]
        assert check_assumptions(F) is first

    def test_report_equals_a_fresh_sample(self):
        for F in (log_entropy(), F_tau(0.5), EntropyFunction(fn=lambda y: y * y - 1.0)):
            assert check_assumptions(F) == entropy._sample_assumptions(F, 4096)

    def test_failing_profile_is_refused_on_every_call(self, gauss, monkeypatch):
        calls = self._count_samples(monkeypatch)
        spec = ConditionSpec(gauss, EntropyFunction(fn=lambda y: y * y - 1.0, name="convex"))
        for _ in range(3):
            with pytest.raises(ValueError, match="A1-A2"):
                check_condition(spec, n_per_decade=16)
        assert calls == [("convex", 4096)]

    def test_kept_report_is_read_only(self):
        bad = EntropyFunction(fn=lambda y: y * y - 1.0)
        rep = check_assumptions(bad)
        assert "a1_concave" in rep.witnesses
        with pytest.raises(TypeError):
            rep.witnesses["a1_concave"] = 0.0
        with pytest.raises(TypeError):
            rep.witnesses["new"] = 1.0
        with pytest.raises(AttributeError):
            rep.a1 = True
        assert check_assumptions(bad).witnesses == rep.witnesses


class TestGrowthMargin:
    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5])
    def test_log_profile_margin_nonnegative(self, F_log, delta):
        rep = lemma32_bound_check(F_log, delta)
        assert rep.status == "ok"
        assert rep.T == pytest.approx(1.0)
        assert rep.min_margin >= 0.0

    def test_flattened_profile_margin_nonnegative(self, F_half):
        rep = lemma32_bound_check(F_half, 0.25)
        assert rep.status == "ok" and rep.min_margin >= 0.0

    def test_delta_validation(self, F_log):
        with pytest.raises(ValueError):
            lemma32_bound_check(F_log, 0.6)
        with pytest.raises(ValueError):
            lemma32_bound_check(F_log, 0.0)

    def test_sweep_must_start_at_nonnegative_values(self, F_log):
        with pytest.raises(ValueError):
            lemma32_bound_check(F_log, 0.25, y_range=(0.5, 1e6))

    @settings(max_examples=40, deadline=None)
    @given(y=st.floats(1.0, 1e6), delta=st.floats(0.01, 0.5))
    def test_pointwise_bound_random_samples(self, y, delta):
        F = log_entropy()
        lp = float(log_Phi(F, np.array([delta * np.log(y)]))[0])
        assert lp <= 2.0 * delta * np.log(y) + 1e-9
