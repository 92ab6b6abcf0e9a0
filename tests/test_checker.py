"""Integrability verdicts and growth-condition fitting."""

import gc
import re
import sys
import threading
import weakref
from dataclasses import asdict, replace

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
from isocert.entropy import EntropyFunction, F_tau, log_entropy
from isocert.expr import parse_potential
from isocert.measure1d import build_measure, builtin_measure, tilde_profile


class TestVerdicts:
    def test_gaussian_quadratic_small_delta_is_finite(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0))
        assert rep.verdict == "FINITE"
        assert rep.tail_p < 1.0
        assert rep.integral_estimate == pytest.approx(1.0345, rel=1e-3)

    @pytest.mark.parametrize("delta", [0.25, 0.5, 2.0])
    def test_exponential_measure_always_diverges(self, exp_measure, F_log, delta):
        rep = check_condition(ConditionSpec(exp_measure, F_log, delta=delta, K=2.0))
        assert rep.verdict == "DIVERGENT_LIKELY"

    def test_log_log_potential_is_finite(self, loglog, F_log):
        rep = check_condition(ConditionSpec(loglog, F_log, delta=0.25, K=4.0))
        assert rep.verdict == "FINITE"
        assert rep.tail_p < 1.0

    def test_exp_power_pair_of_runs(self, exp_power_15):
        (rep,) = check_exp_power(exp_power_15, 1.5, (1.0,))
        assert rep.run_cost.verdict == "FINITE"
        assert rep.run_quadratic.verdict == "FINITE"
        assert rep.q_star == pytest.approx(1.5)
        assert rep.beta == pytest.approx(3.0)

    def test_exp_power_runs_each_distinct_condition_once(self, monkeypatch):
        mu = builtin_measure("exp_power", alpha=1.5, n=4096)
        singles = [check_exp_power(mu, 1.5, (tau,))[0] for tau in (1.0, 2.0 / 3.0)]
        passes = []
        report = checker.check_condition

        def counted(spec, n_per_decade):
            passes.append("quadratic" if spec.cost is None else "general")
            return report(spec, n_per_decade)

        monkeypatch.setattr(checker, "check_condition", counted)
        shared = checker.check_exp_power(mu, 1.5, (1.0, 2.0 / 3.0, 1.0))
        assert sorted(passes) == ["general", "general", "quadratic"]
        assert shared == [singles[0], singles[1], singles[0]]
        assert shared[0].run_quadratic is shared[1].run_quadratic
        assert shared[0].run_cost is shared[2].run_cost

    def test_verdict_flips_at_large_delta(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=3.0, K=2.0))
        assert rep.verdict == "DIVERGENT_LIKELY"
        assert rep.tail_p >= 1.0


class TestQuadratureBehavior:
    def test_integral_decreases_with_K(self, gauss, F_log):
        vals = [
            check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=K)).integral_estimate
            for K in (2.0, 4.0, 8.0)
        ]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_refining_t_min_does_not_flip_finite(self, gauss, F_log):
        a = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, t_min=1e-12))
        b = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, t_min=1e-14))
        assert a.verdict == "FINITE" and b.verdict == "FINITE"
        assert b.integral_estimate == pytest.approx(a.integral_estimate, rel=1e-3)

    def test_decade_rows_cover_the_range(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0))
        assert rep.decades[0]["t_hi"] == pytest.approx(0.5)
        assert rep.decades[-1]["t_lo"] == pytest.approx(1e-12, rel=1e-6)
        total = sum(row["partial_sum"] for row in rep.decades)
        assert total == pytest.approx(rep.integral_estimate, rel=1e-12)

    def test_last_decade_ends_at_the_power_of_ten_at_or_below_t_min(self, gauss, F_log):
        for t_min, t_lo in ((0.3, 0.1), (0.01, 0.01), (2e-5, 1e-5)):
            rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0, t_min=t_min))
            assert rep.t_min == t_min
            assert rep.decades[-1]["t_lo"] == pytest.approx(t_lo, rel=1e-12)

    def test_doubling_panel_count_is_stable(self, gauss, F_log):
        spec = ConditionSpec(gauss, F_log, delta=0.5, K=2.0)
        a = check_condition(spec, n_per_decade=256)
        b = check_condition(spec, n_per_decade=512)
        assert b.integral_estimate == pytest.approx(a.integral_estimate, rel=1e-6)


class TestSpecValidation:
    def test_K_must_exceed_one(self, gauss, F_log):
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, K=1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("inf"), float("nan")])
    def test_delta_must_be_positive_and_finite(self, gauss, F_log, delta):
        with pytest.raises(ValueError, match=f"^delta must be positive and finite, got {delta}$"):
            ConditionSpec(gauss, F_log, delta=delta)

    @pytest.mark.parametrize("cost", ["c:1:3", 2.0, lambda r: r * r])
    def test_cost_that_is_not_a_cost_function_is_refused(self, gauss, F_log, cost):
        with pytest.raises(ValueError, match="CostFunction"):
            ConditionSpec(gauss, F_log, cost=cost)

    def test_t_min_range(self, gauss, F_log):
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, t_min=0.9)
        with pytest.raises(ValueError):
            ConditionSpec(gauss, F_log, t_min=1e-16)

    def test_assumption_gate_rejects_convex_profile(self, gauss):
        bad = EntropyFunction(fn=lambda y: y * y - 1.0)
        with pytest.raises(ValueError):
            check_condition(ConditionSpec(gauss, bad))

    def test_superlinearity_gate(self, gauss, F_log):
        xs = np.linspace(0.0, 10.0, 200)
        linear = CostFunction.from_samples(xs, 2.0 * xs)
        spec = ConditionSpec(gauss, F_log, cost=linear)
        with pytest.raises(ValueError):
            check_condition(spec)

    def test_exp_power_parameter_validation(self, exp_power_15):
        with pytest.raises(ValueError):
            check_exp_power(exp_power_15, 2.5, (1.0,))
        with pytest.raises(ValueError):
            check_exp_power(exp_power_15, 1.5, (0.5,))  # below 2(1 - 1/alpha) = 2/3


    @pytest.mark.parametrize("n", [0, 1, 3, 5, -2])
    def test_simpson_panel_count_must_be_even_and_at_least_two(self, gauss, F_log, n):
        with pytest.raises(ValueError, match="n_per_decade"):
            check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0), n_per_decade=n)

    def test_smallest_even_panel_count_runs(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0), n_per_decade=2)
        assert rep.integral_estimate > 0


class TestTruncationDowngrade:
    def test_short_cost_grid_downgrades_finite_to_inconclusive(self, gauss, F_log):
        # quadratic samples that stop short of the needed argument range
        xs = np.linspace(0.0, 2.0, 200)
        short = CostFunction.from_samples(xs, 0.5 * xs * xs)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=short, delta=0.5, K=2.0))
        assert "cost_extrapolated_beyond_grid" in rep.flags
        assert rep.verdict == "INCONCLUSIVE"

    def test_long_grid_keeps_finite(self, gauss, F_log):
        xs = np.linspace(0.0, 100.0, 4097)
        full = CostFunction.from_samples(xs, 0.5 * xs * xs)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=full, delta=0.5, K=2.0))
        assert rep.flags == ()
        assert rep.verdict == "FINITE"


class TestZeroProfile:
    @pytest.mark.parametrize("cost", [
        None,
        CostFunction.closed_form(1.0, 3.0),
        CostFunction.from_samples(np.linspace(0.0, 2.0, 200), 0.5 * np.linspace(0.0, 2.0, 200) ** 2),  # extrapolated too
    ], ids=["quadratic", "c_1_3", "short_samples"])
    def test_a_zero_of_the_profile_is_divergent(self, F_log, cost, monkeypatch):
        def one_zero(mu, t):
            prof = tilde_profile(mu, t)
            values = prof.tilde_I.copy()
            values[len(values) // 2] = 0.0
            return replace(prof, tilde_I=values)

        monkeypatch.setattr(checker, "tilde_profile", one_zero)
        mu = builtin_measure("gauss", n=4096)  # its own node profiles, not the shared fixture's
        rep = check_condition(ConditionSpec(mu, F_log, cost=cost, delta=0.5, K=2.0))  # a RuntimeWarning fails the test
        assert rep.verdict == "DIVERGENT_LIKELY"
        assert "profile_zero_divergent_integrand" in rep.flags
        assert rep.integral_estimate is None  # the sum overflows


_SWEEP_DELTAS = np.logspace(-2.0, 2.0, 21)
_VERDICT_CODES = {"FINITE": "F", "INCONCLUSIVE": "I", "DIVERGENT_LIKELY": "D"}


def _finite_threshold(mu, F):
    """The largest delta (to about 1e-15 relative) at which the quadratic
    condition of mu and F at K = 2 is FINITE, by bisection on [0.01, 100]."""
    finite = lambda delta: check_condition(ConditionSpec(mu, F, delta=delta, K=2.0)).verdict == "FINITE"
    lo, hi = 0.01, 100.0
    assert finite(lo) and not finite(hi)
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if finite(mid) else (lo, mid)
    return lo


class TestVerdictRelations:
    """Relations today's verdicts hold, which a change of the verdict rule
    must keep or name.  They pin the checker, not the theory: for the
    Gaussian and the log entropy the quadratic condition converges for
    delta < 2, while the checker's FINITE threshold is 1.852."""

    @pytest.mark.parametrize("name", ["gauss", "exp", "exp_power", "loglog"])
    def test_verdicts_are_monotone_in_delta_and_agree_at_K_2_and_4(self, name):
        mu = builtin_measure(name, alpha=1.5 if name == "exp_power" else None, n=4096)
        for F in (log_entropy(), F_tau(0.5)):
            for cost in (None, CostFunction.closed_form(1.0, 3.0)):
                words = {
                    K: "".join(
                        _VERDICT_CODES[check_condition(ConditionSpec(mu, F, cost=cost, delta=d, K=K)).verdict]
                        for d in _SWEEP_DELTAS
                    )
                    for K in (2.0, 4.0)
                }
                assert re.fullmatch("F*I?D*", words[2.0]), (F.name, cost, words[2.0])
                assert words[4.0] == words[2.0], (F.name, cost)

    def test_gaussian_threshold(self, gauss, F_log):
        # measured 1.8520216; 1e-5 is about 6 times the grid effect seen under translation
        assert _finite_threshold(gauss, F_log) == pytest.approx(1.85202, rel=1e-5)

    @pytest.mark.parametrize("potential", ["(x-3)^2/2", "(x+40)^2/2"])
    def test_translation_keeps_the_threshold(self, gauss, F_log, potential):
        # measured 1.72e-6 relative for both shifts (the grids differ); 1e-5 is a margin of about 6
        moved = build_measure(parse_potential(potential), name=potential)
        assert _finite_threshold(moved, F_log) == pytest.approx(_finite_threshold(gauss, F_log), rel=1e-5)

    def test_variance_four_divides_the_threshold_by_four(self, gauss, F_log):
        # r = t F(1/t) / tilde_I(t) scales with sigma, so delta r^2 is unchanged at delta / sigma^2;
        # measured 3.3e-15 relative (1.3e-13 with a coarser bisection); 1e-12 is a margin of about 8
        wide = build_measure(parse_potential("x^2/8"), name="x^2/8")
        assert 4.0 * _finite_threshold(wide, F_log) == pytest.approx(_finite_threshold(gauss, F_log), rel=1e-12)


class TestSerialization:
    def test_report_json_keys(self, gauss, F_log):
        rep = check_condition(ConditionSpec(gauss, F_log, delta=0.5, K=2.0))
        d = asdict(rep)
        for key in ("verdict", "integral_estimate", "log10_integral_estimate", "delta",
                    "K", "tail_p", "decades", "flags", "form", "t_min", "measure",
                    "entropy", "cost"):
            assert key in d
        assert d["measure"] == "gauss" and d["entropy"] == "log"
        assert d["cost"] == "quadratic"

    def test_closed_form_cost_is_labelled_by_its_parameters(self, gauss, F_log):
        cost = CostFunction.closed_form(1.0, 2.0)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=cost, delta=0.5, K=2.0))
        assert rep.cost == "c_{1,2}"
        assert asdict(rep)["cost"] == "c_{1,2}"

    def test_sampled_cost_is_labelled_sampled(self, gauss, F_log):
        xs = np.linspace(0.0, 100.0, 4097)
        cost = CostFunction.from_samples(xs, 0.5 * xs * xs)
        rep = check_condition(ConditionSpec(gauss, F_log, cost=cost, delta=0.5, K=2.0))
        assert rep.cost == "sampled"

    def test_exp_power_cost_run_names_its_dual_exponent(self):
        (rep,) = check_exp_power(builtin_measure("exp_power", alpha=1.5, n=4096), 1.5, (1.0,))
        assert rep.run_cost.cost == "c_{1,1.5}"


def _folded_nodes(K, t_min, n_per_decade):
    """The one-sided masses min(t, 1-t) at the checker's quadrature nodes."""
    edges = checker._decade_edges(K, t_min)
    t = np.exp(-np.linspace(edges[:-1], edges[1:], n_per_decade + 1, axis=1).ravel())
    return np.minimum(t, 1.0 - t)


class TestNodeProfileCache:
    """The tilde profile at the quadrature nodes is kept with the measure, per node layout."""

    @staticmethod
    def _check(mu, K, F, n_per_decade=256):
        return check_condition(ConditionSpec(mu, F, delta=0.5, K=K), n_per_decade)

    def test_repeated_and_interleaved_calls_equal_cold_calls(self, F_log, monkeypatch):
        names = ("gauss", "loglog")
        mus = [builtin_measure(name, n=4096) for name in names]
        profiles = []
        monkeypatch.setattr(checker, "tilde_profile", lambda mu, t: profiles.append(mu) or tilde_profile(mu, t))
        order = [(0, 2.0), (1, 4.0), (0, 4.0), (1, 2.0)] * 2
        warm = [asdict(self._check(mus[i], K, F_log)) for i, K in order]
        # one profile per measure and layout, however often it is asked for
        assert len(profiles) == 4 and all(len(mu.node_profiles) == 2 for mu in mus)
        cold = [asdict(self._check(builtin_measure(names[i], n=4096), K, F_log)) for i, K in order]
        assert warm == cold

    def test_kept_table_is_read_only(self, F_log):
        mu = builtin_measure("gauss", n=4096)
        self._check(mu, 2.0, F_log)
        (table,) = mu.node_profiles.values()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_a_measure_keeps_its_last_layouts(self, F_log):
        mu = builtin_measure("gauss", n=4096)
        layouts = [(2.0, 1e-12, n) for n in (2, 4, 8, 16, 32)]
        for K, _, n in layouts:
            self._check(mu, K, F_log, n)
        assert list(mu.node_profiles) == layouts[-checker._KEPT_LAYOUTS:]

    def test_threads_sharing_a_measure_get_cold_reports(self, F_log):
        mu = builtin_measure("gauss", n=4096)
        layouts = (2, 4, 6, 8, 10, 12)  # more than a measure keeps, so threads also evict
        want = {n: asdict(self._check(builtin_measure("gauss", n=4096), 2.0, F_log, n)) for n in layouts}
        bad = []

        def work(k):
            try:
                for i in range(24):
                    n = layouts[(k + i) % len(layouts)]
                    if asdict(self._check(mu, 2.0, F_log, n)) != want[n]:
                        bad.append(n)
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
        assert bad == [] and len(mu.node_profiles) <= checker._KEPT_LAYOUTS

    def test_dropped_measure_is_freed(self, F_log):
        mu = builtin_measure("gauss", n=4096)
        self._check(mu, 2.0, F_log)
        ref = weakref.ref(mu)
        del mu
        gc.collect()
        assert ref() is None

    def test_new_measure_never_reads_a_freed_measures_table(self, F_log):
        names = ("gauss", "exp")
        expected = {name: asdict(self._check(builtin_measure(name, n=4096), 2.0, F_log)) for name in names}
        nodes = _folded_nodes(2.0, 1e-12, 256)
        for i in range(6):  # each measure dropped before the next is built, so ids may repeat
            name = names[i % 2]
            mu = builtin_measure(name, n=4096)
            assert mu.node_profiles == {}
            assert asdict(self._check(mu, 2.0, F_log)) == expected[name]
            assert mu.node_profiles[(2.0, 1e-12, 256)].tobytes() == tilde_profile(mu, nodes).tilde_I.tobytes()
            del mu
            gc.collect()


class TestNodeLayoutCache:
    """The quadrature tables of a node layout (K, t_min, n_per_decade) are
    built once and kept, read-only, for the last 8 layouts; reports are not kept."""

    def test_interleaved_layouts_give_cold_reports(self, F_log):
        mu = builtin_measure("gauss", n=4096)
        order = [(2.0, 16), (4.0, 256), (2.0, 256), (4.0, 16)] * 2
        warm = [asdict(check_condition(ConditionSpec(mu, F_log, delta=0.5, K=K), n)) for K, n in order]
        info = checker._layout.cache_info()
        assert (info.misses, info.hits) == (4, 4)
        cold = []
        for K, n in order:
            checker._layout.cache_clear()
            spec = ConditionSpec(builtin_measure("gauss", n=4096), F_log, delta=0.5, K=K)
            cold.append(asdict(check_condition(spec, n)))
        assert warm == cold

    def test_kept_tables_are_read_only(self):
        tables = checker._layout(2.0, 1e-12, 16)
        assert len(tables) == 5 and not any(table.flags.writeable for table in tables)
        with pytest.raises(ValueError):
            tables[0][0, 0] = 1.0

    def test_at_most_eight_layouts_are_kept(self, F_log):
        mu = builtin_measure("gauss", n=4096)
        for n in range(2, 22, 2):
            check_condition(ConditionSpec(mu, F_log, delta=0.5, K=2.0), n)
        info = checker._layout.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (8, 8, 10)


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
        rep = check_condition(ConditionSpec(gauss, F_tau(0.5), delta=4.0, K=2.0))
        assert rep.verdict == "FINITE"
        assert rep.tail_p < 1.0
