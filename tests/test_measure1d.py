"""Tabulated one-dimensional measures and their isoperimetric profiles."""

import dataclasses
import functools
import gc
import importlib
import pkgutil
import threading
import weakref

import numpy as np
import pytest

import isocert
import isocert.cli as cli
from isocert import measure1d
from isocert.entropy import log_entropy
from isocert.expr import parse_potential
from isocert.measure1d import (
    I_F_profile,
    Kept,
    SampledFunction,
    bobkov_bound_check,
    bobkov_goetze,
    build_measure,
    builtin_measure,
    cheeger_constant,
    kolmogorov_distance,
    lemma41_ratio,
    rearrange,
    tilde_profile,
)
from isocert.tester import TestFamily

SQRT_2PI = 2.5066282746310002


_LOG_CONCAVE_CASES = [
    *(("x^2/2", s, True) for s in ((0.0, 5.0), (-5.0, 5.0), (-2.0, 5.0), (0.0, np.inf), (-np.inf, np.inf))),
    ("abs(x)", (-3.0, 3.0), True),
    ("x^2/2+x^4/4", (-1.0, 3.0), True),
    *((t, (-np.inf, np.inf), True) for t in ("abs(x)*log(1+x^2)", "x^2/2+x^4/4", "abs(x-1)+abs(x+1)", "(x-3)^2/2+0.1*x^4")),
    ("-abs(x)+x^2", (-np.inf, np.inf), False),
    ("-abs(x)+x^2", (-3.0, 3.0), False),
    ("x^4-4*x^2", (-np.inf, np.inf), False),
    ("x^4/4-x^2", (-2.0, 2.0), False),
    ("x^2/2+2*exp(-x^2)", (-np.inf, np.inf), False),
    ("(x^2-4)^2/4", (-5.0, 5.0), False),
]


class TestConstruction:
    def test_gaussian_normalizer(self, gauss):
        assert gauss.Z == pytest.approx(SQRT_2PI, rel=1e-6)

    def test_node_masses_sum_to_one(self, gauss, exp_measure, loglog):
        for mu in (gauss, exp_measure, loglog):
            assert float(np.sum(mu.node_mass)) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_density_and_median(self, gauss):
        assert gauss.density_at(0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-6)
        assert gauss.median == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_quantiles_match_reference(self, gauss):
        # reference values from the standard normal inverse CDF
        want = {0.1: -1.2815515655446004, 0.25: -0.67448975019608171,
                0.75: 0.67448975019608171, 0.9: 1.2815515655446004}
        for p, q in want.items():
            assert gauss.quantile(p) == pytest.approx(q, abs=5e-6)

    def test_two_sided_exponential(self, exp_measure):
        assert exp_measure.Z == pytest.approx(2.0, rel=1e-6)
        assert exp_measure.quantile(0.25) == pytest.approx(np.log(0.5), abs=1e-6)

    def test_squared_potential_normalizer(self):
        mu = build_measure(lambda x: x * x, name="halfwidth-gauss")
        assert mu.Z == pytest.approx(np.sqrt(np.pi), rel=1e-6)

    def test_potential_expression_matches_builtin(self, gauss):
        mu = build_measure(lambda x: 0.5 * x * x)
        assert mu.density_at(1.3) == pytest.approx(gauss.density_at(1.3), rel=1e-9)

    def test_cdf_tail_complement(self, gauss):
        x = np.array([-2.0, 0.0, 1.5])
        assert np.allclose(gauss.cdf_at(x) + gauss.tail_at(x), 1.0, atol=1e-10)

    def test_builtin_validation(self):
        with pytest.raises(ValueError):
            builtin_measure("nope")
        with pytest.raises(ValueError):
            builtin_measure("exp_power", alpha=2.5)
        with pytest.raises(ValueError):
            builtin_measure("gauss", n=16)

    def test_accumulate_is_the_plain_trapezoid_rule(self):
        rng = np.random.default_rng(11)
        grid = np.cumsum(rng.uniform(1e-3, 1.0, 1001))
        w = rng.uniform(0.0, 2.0, grid.size)
        cells = 0.5 * (w[:-1] + w[1:]) * np.diff(grid)
        total = float(np.sum(cells))
        cells = cells / total
        cdf, tail, nm, z = measure1d._accumulate(grid, w, node_mass=True)
        assert z == total
        assert np.array_equal(cdf, np.concatenate(([0.0], np.cumsum(cells)[:-1], [1.0])))
        assert np.array_equal(tail, np.concatenate(([1.0], np.cumsum(cells[::-1])[::-1][1:], [0.0])))
        assert np.array_equal(nm, 0.5 * np.concatenate(([cells[0]], cells[:-1] + cells[1:], [cells[-1]])))
        cdf_prov, tail_prov, nm_prov, z_prov = measure1d._accumulate(grid, w)
        assert nm_prov is None and z_prov == z
        assert np.array_equal(cdf_prov, cdf) and np.array_equal(tail_prov, tail)

    def test_uniform_grid_kind(self, gauss_wide_uniform):
        g = gauss_wide_uniform
        assert g.n == 4001
        d = np.diff(g.grid)
        assert np.allclose(d, d[0], rtol=1e-9)
        assert float(np.sum(g.node_mass)) == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_tail_is_refused(self):
        # (1 + x^2)^{-3/4} is not normalizable; no truncation is accepted
        with pytest.raises(ValueError):
            build_measure(lambda x: 0.75 * np.log1p(x * x))

    @pytest.mark.parametrize("n", [4096, 16384])
    @pytest.mark.parametrize("text, support, want", _LOG_CONCAVE_CASES, ids=[f"{t} on {s}" for t, s, _ in _LOG_CONCAVE_CASES])
    def test_log_concave_detection(self, text, support, want, n):
        # at a finite end the hybrid grid puts knots about 1e-12 apart, where the rounding of V moves a chord slope
        mu = build_measure(parse_potential(text), support=support, n=n)
        assert mu.log_concave is want


# -- the scalar truncation search measure1d used before its array rounds ----------

_GOLD = (np.sqrt(5.0) - 1.0) / 2.0


def _at(V, x):
    return float(V(np.array([x]))[0])


def _reference_peak(V, lo, hi):
    """The same probes, then 80 one-point golden-section steps."""
    a = lo if np.isfinite(lo) else -1e6
    b = hi if np.isfinite(hi) else 1e6
    probes = [np.linspace(max(a, -100.0), min(b, 100.0), 2001)]
    if b > 100.0:
        probes.append(np.geomspace(100.0, b, 200))
    if a < -100.0:
        probes.append(-np.geomspace(100.0, -a, 200))
    xs = np.unique(np.clip(np.concatenate(probes), a, b))
    i = int(np.argmin(V(xs)))
    lo_b, hi_b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    c, d = hi_b - _GOLD * (hi_b - lo_b), lo_b + _GOLD * (hi_b - lo_b)
    fc, fd = _at(V, c), _at(V, d)
    for _ in range(80):
        if fc <= fd:
            hi_b, d, fd = d, c, fc
            c = hi_b - _GOLD * (hi_b - lo_b)
            fc = _at(V, c)
        else:
            lo_b, c, fc = c, d, fd
            d = lo_b + _GOLD * (hi_b - lo_b)
            fd = _at(V, d)
    x0 = 0.5 * (lo_b + hi_b)
    return x0, _at(V, x0)


def _reference_cut(V, x0, v0, direction):
    """The same doubling walk, then 60 one-point bisection steps."""
    step, prev = 1.0, x0
    for _ in range(60):
        x = x0 + direction * step
        if abs(x) > 1e12:
            raise ValueError("tail of exp(-V) decays too slowly")
        if _at(V, x) - v0 >= measure1d._LOG_TRUNC:
            lo, hi = prev, x
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _at(V, mid) - v0 >= measure1d._LOG_TRUNC:
                    hi = mid
                else:
                    lo = mid
            return hi
        prev = x
        step *= 2.0
    raise ValueError("the measure looks non-normalizable")


def _reference_truncation(V, support):
    """Cuts of the infinite sides, with the tail check build_measure runs."""
    a, b = support
    x0, v0 = _reference_peak(V, a, b)
    cuts = []
    for side, direction in ((a, -1.0), (b, 1.0)):
        if np.isfinite(side):
            cuts.append(side)
            continue
        cut = _reference_cut(V, x0, v0, direction)
        measure1d._tail_decay_check(V, x0, cut)
        cuts.append(cut)
    return tuple(cuts)


_FULL_LINE = (-np.inf, np.inf)
_TRUNCATION_CASES = [
    *((name, lambda name=name: builtin_measure(name).potential_fn, _FULL_LINE) for name in ("gauss", "exp", "loglog")),
    *(
        (f"exp_power:{a:g}", lambda a=a: builtin_measure("exp_power", alpha=a).potential_fn, _FULL_LINE)
        for a in (1.4, 1.5, 1.8)
    ),
    *(
        (f"expr:{t}", lambda t=t: parse_potential(t), _FULL_LINE)
        for t in ("abs(x)*log(1+x^2)", "x^2/2+x^4/4", "abs(x-1)+abs(x+1)", "(x-3)^2/2+0.1*x^4")
    ),
    ("expr:x on 0:inf", lambda: parse_potential("x"), (0.0, np.inf)),
]


class TestTruncationSearch:
    @pytest.mark.parametrize("name,potential,support", _TRUNCATION_CASES, ids=[c[0] for c in _TRUNCATION_CASES])
    def test_cuts_match_the_scalar_search(self, name, potential, support):
        V = potential()
        want = _reference_truncation(measure1d._vec(V), support)
        got = build_measure(V, support=support).truncation
        assert np.all(np.abs(np.subtract(got, want)) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("text,message", [
        ("0.75*log(1+x^2)", "decays too slowly"),
        ("x^2/100+50*exp(-100*(x-58)^2)", "not decaying"),  # a spike the walk steps over
    ])
    def test_refusals_match_the_scalar_search(self, text, message):
        V = parse_potential(text)
        with pytest.raises(ValueError, match=message):
            _reference_truncation(V, _FULL_LINE)
        with pytest.raises(ValueError, match=message):
            build_measure(V)

    def test_bounded_potential_is_refused(self):
        # e^{-V} tends to e^{-42}: the fitted tail |x|^-0.575 is not integrable
        with pytest.raises(ValueError, match="not integrable"):
            build_measure(parse_potential("42*abs(x)/(1+abs(x))"))

    def test_walk_that_never_crosses_is_non_normalizable(self):
        # only a start the walk cannot leave (NaN) exhausts the reference's 60
        # doublings; the array walk reads a NaN probe as out of reach
        V = measure1d._vec(lambda x: 0.5 * x * x)
        for cut, message in ((_reference_cut, "non-normalizable"), (measure1d._march_cut, "decays too slowly")):
            with pytest.raises(ValueError, match=message):
                cut(V, np.nan, 0.0, 1.0)

    @pytest.mark.parametrize("text", ["abs(x)*log(1+x^2)", "x^2/2+x^4/4"])
    def test_expr_build_makes_few_potential_calls(self, text):
        expr = parse_potential(text)
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return expr(x)

        build_measure(counted)
        assert len(calls) <= 40


class TestBallMasses:
    def test_zero_radius_keeps_full_outside_mass(self, gauss):
        assert gauss.mass_outside(0.0) == 1.0

    def test_outside_mass_decreases(self, gauss):
        r = np.linspace(0.0, 6.0, 50)
        m = gauss.mass_outside(r)
        assert np.all(np.diff(m) <= 1e-15)

    def test_two_sided_exponential_closed_form(self, exp_measure):
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(exp_measure.mass_outside(r), np.exp(-r), rtol=1e-5)

    def test_radius_inverts_outside_mass(self, gauss):
        t = np.array([0.3, 0.1, 0.01])
        r = gauss.radius_of_outside_mass(t)
        assert np.allclose(gauss.mass_outside(r), t, rtol=1e-3)

    def test_negative_radius_rejected(self, gauss):
        with pytest.raises(ValueError):
            gauss.mass_outside(-0.5)


class TestHalfLineProfile:
    def test_gaussian_mid_value(self, gauss):
        prof = tilde_profile(gauss, np.array([0.5]))
        assert prof.tilde_I[0] == pytest.approx(1.0 / SQRT_2PI, rel=1e-6)

    def test_gaussian_tail_value_matches_reference(self, gauss):
        # density at the 0.1 quantile of the standard normal
        prof = tilde_profile(gauss, np.array([0.1]))
        assert prof.tilde_I[0] == pytest.approx(0.17549833193248685, rel=1e-5)

    def test_exponential_profile_is_linear(self, exp_measure):
        t = np.linspace(0.01, 0.5, 30)
        prof = tilde_profile(exp_measure, t)
        assert np.allclose(prof.tilde_I, t, rtol=1e-4)

    def test_domain_validation(self, gauss):
        with pytest.raises(ValueError):
            tilde_profile(gauss, np.array([0.0]))
        with pytest.raises(ValueError):
            tilde_profile(gauss, np.array([0.6]))

    def test_quantile_pairs_bracket_the_mass(self, gauss):
        t = np.array([0.2, 0.05])
        prof = tilde_profile(gauss, t)
        assert np.allclose(prof.u_t, -prof.v_t, atol=1e-8)
        assert np.allclose(gauss.cdf_at(prof.u_t), t, atol=1e-9)


class TestCheeger:
    def test_gaussian_constant(self, gauss):
        assert cheeger_constant(gauss) == pytest.approx(np.sqrt(np.pi / 2.0), rel=1e-5)

    def test_exponential_constant(self, exp_measure):
        assert cheeger_constant(exp_measure) == pytest.approx(1.0, rel=1e-3)


class TestBallProfile:
    def test_zero_radius_value_vanishes(self, gauss, F_log):
        prof = I_F_profile(gauss, F_log, np.array([0.0]))
        assert prof.s_values[0] == 1.0
        assert prof.values[0] == 0.0
        assert not prof.zero_flag[0]

    def test_gaussian_values_by_hand(self, gauss, F_log):
        # s log(1/s) / tilde_I(min(s, 1-s)) with s the two-sided normal tail mass
        prof = I_F_profile(gauss, F_log, np.array([1.0]))
        s = prof.s_values[0]
        want = s * np.log(1.0 / s) / tilde_profile(gauss, np.array([min(s, 1 - s)])).tilde_I[0]
        assert prof.values[0] == pytest.approx(want, rel=1e-12)
        assert prof.values[0] == pytest.approx(1.0221, rel=1e-3)

    def test_radii_past_support_flagged_zero(self, gauss, F_log):
        prof = I_F_profile(gauss, F_log, np.array([50.0]))
        assert prof.zero_flag[0]
        assert prof.values[0] == 0.0

    def test_profile_normalization_required(self, gauss):
        from isocert.entropy import EntropyFunction

        with pytest.raises(ValueError):
            I_F_profile(gauss, EntropyFunction(fn=lambda y: np.log(y) + 1.0), np.array([1.0]))


class TestTailRatio:
    def test_exponential_ratio_is_one(self):
        mu = builtin_measure("exp_power", alpha=1.0)
        rep = lemma41_ratio(mu, r_range=(2.0, 10.0), n=300)
        good = rep.ratios[np.isfinite(rep.ratios)]
        assert np.allclose(good, 1.0, atol=1e-4)

    def test_window_sup_and_half_mass_radius(self, gauss):
        rep = lemma41_ratio(gauss)
        assert rep.R_half == pytest.approx(0.67448975, rel=1e-4)
        assert rep.window_sup(3.0, 5.0) <= rep.sup + 1e-15

    def test_requires_log_concave(self, gauss):
        import dataclasses

        bumpy = dataclasses.replace(gauss, log_concave=False)
        with pytest.raises(ValueError):
            lemma41_ratio(bumpy)


class TestHalfLineBound:
    def test_gaussian_margins_positive(self, gauss):
        rep = bobkov_bound_check(gauss, np.linspace(0.01, 0.5, 50))
        assert rep.min_margin >= -1e-8

    def test_exponential_margins_positive(self, exp_measure):
        rep = bobkov_bound_check(exp_measure, np.linspace(0.01, 0.5, 50))
        assert rep.min_margin >= -1e-8

    def test_rejects_bad_domain(self, gauss):
        with pytest.raises(ValueError):
            bobkov_bound_check(gauss, np.array([0.7]))


class TestRearrangement:
    def test_law_is_preserved_within_one_cell(self, gauss):
        fam = TestFamily("random_smooth", tuple(range(5)), seed=0)
        cell = float(np.max(gauss.node_mass))
        for sf in fam.members(gauss):
            d = kolmogorov_distance(gauss, sf, rearrange(gauss, sf))
            assert d <= cell

    def test_result_increases_in_radius(self, gauss):
        sf = TestFamily("random_smooth", (3,), seed=0).members(gauss)[0]
        rf = rearrange(gauss, sf)
        right = gauss.grid >= 0
        assert np.all(np.diff(rf.values[right]) >= -1e-12)
        left = gauss.grid <= 0
        assert np.all(np.diff(rf.values[left]) <= 1e-12)

    def test_monotone_radial_input_is_fixed_point(self, gauss):
        vals = np.abs(gauss.grid)
        rf = rearrange(gauss, vals)
        assert kolmogorov_distance(gauss, vals, rf) <= float(np.max(gauss.node_mass))

    def test_negative_values_rejected(self, gauss):
        with pytest.raises(ValueError):
            rearrange(gauss, gauss.grid)

    def test_distance_between_identical_functions_is_zero(self, gauss):
        sf = TestFamily("random_smooth", (0,), seed=0).members(gauss)[0]
        assert kolmogorov_distance(gauss, sf, sf) == 0.0


class TestSampledFunction:
    def test_derivative_cross_check_flags_wrong_slope(self, gauss):
        sf = SampledFunction.from_callable(
            gauss, lambda x: np.exp(0.5 * x), dfn=lambda x: 2.0 * np.exp(0.5 * x)
        )
        assert sf.deriv_consistent is False
        good = SampledFunction.from_callable(
            gauss, lambda x: np.exp(0.5 * x), dfn=lambda x: 0.5 * np.exp(0.5 * x)
        )
        assert good.deriv_consistent is True

    def test_integrate_constant(self, gauss):
        one = np.ones_like(gauss.grid)
        assert gauss.integrate(one) == pytest.approx(1.0, abs=1e-12)


class TestTwoSidedCriterion:
    def test_gaussian_both_sides_finite(self, gauss):
        rep = bobkov_goetze(gauss)
        assert rep.left_value is not None and np.isfinite(rep.left_value)
        assert rep.right_value is not None and np.isfinite(rep.right_value)
        # symmetric measure: the two sides agree
        assert rep.left_value == pytest.approx(rep.right_value, rel=1e-6)


def _reference_bg_side(mu, side):
    """The two-branch Bobkov--Goetze side that the mirrored _bg_side replaced."""
    grid, cdf, tail = mu.grid, mu.cdf, mu.tail
    m = mu.median
    n = grid.size
    j = int(np.searchsorted(grid, m))
    node_is_m = j < n and grid[j] == m
    log_inv_rho = (mu.potential_values - mu.v_min) + mu.log_norm
    with np.errstate(divide="ignore"):
        cell = np.logaddexp(log_inv_rho[:-1], log_inv_rho[1:]) - np.log(2.0) + np.log(np.diff(grid))
    sliver = -np.inf
    if not node_is_m:
        lr_m = float((mu.potential_at(np.array([m]))[0] - mu.v_min) + mu.log_norm)
        if side == "left":
            width = m - grid[j - 1]
            sliver = np.logaddexp(log_inv_rho[j - 1], lr_m) - np.log(2.0) + np.log(max(width, 1e-300))
        else:
            width = grid[j] - m
            sliver = np.logaddexp(lr_m, log_inv_rho[j]) - np.log(2.0) + np.log(max(width, 1e-300))
    if side == "left":
        idx = np.arange(0, j)
        if idx.size == 0:
            return 0.0, m, "FINITE"
        if node_is_m:
            log_I = np.logaddexp.accumulate(cell[:j][::-1])[::-1]
        else:
            full = cell[: j - 1]
            acc = np.logaddexp.accumulate(full[::-1])[::-1] if full.size else np.zeros(0)
            log_I = np.logaddexp(np.concatenate((acc, [-np.inf])), sliver)
        mass, xs = cdf[idx], grid[idx]
        boundary_first = True
    else:
        jr = j + 1 if node_is_m else j
        idx = np.arange(jr, n)
        if idx.size == 0:
            return 0.0, m, "FINITE"
        if node_is_m:
            log_I = np.logaddexp.accumulate(cell[j:])
        else:
            acc = np.concatenate(([-np.inf], np.logaddexp.accumulate(cell[j:])))
            log_I = np.logaddexp(acc, sliver)
        mass, xs = tail[idx], grid[idx]
        boundary_first = False
    good = mass >= measure1d.TRUST_TAIL
    if not np.any(good):
        return 0.0, m, "FINITE"
    mass, xs, log_I = mass[good], xs[good], log_I[good]
    with np.errstate(divide="ignore"):
        logG = np.log(mass) + np.log(-np.log(mass)) + log_I
    G = np.exp(logG)
    i_star = int(np.argmax(G))
    value, arg = float(G[i_star]), float(xs[i_star])
    edge = mass <= 1e-12
    status = "FINITE"
    if np.count_nonzero(edge) >= 3:
        Ge = G[edge]
        g_boundary, g_inner = (Ge[0], Ge[-1]) if boundary_first else (Ge[-1], Ge[0])
        if g_boundary >= 0.98 * value and g_boundary > g_inner * 1.02:
            status = "DIVERGENT"
    return value, arg, status


def _expr_measure(text, support=(-np.inf, np.inf), n=4096):
    V = parse_potential(text)
    return build_measure(lambda x: np.asarray(V(x), dtype=float), support=support, n=n, name=text)


def _median_on_node(mu, i=None):
    """mu with its median moved onto a grid node (the node nearest 0 by
    default), so that the median-on-a-node branch of the accumulation runs."""
    i = int(np.argmin(np.abs(mu.grid))) if i is None else i
    return dataclasses.replace(mu, median=float(mu.grid[i]))


_BG_CASES = {
    "gauss": lambda: builtin_measure("gauss", n=4096),
    "gauss, median on a node": lambda: _median_on_node(builtin_measure("gauss", n=4096)),
    "gauss, median on the first node": lambda: _median_on_node(builtin_measure("gauss", n=4096), 0),
    "gauss, median on the last node": lambda: _median_on_node(builtin_measure("gauss", n=4096), -1),
    "exp": lambda: builtin_measure("exp", n=4096),
    "loglog": lambda: builtin_measure("loglog", n=4096),
    "exp_power:1.5": lambda: builtin_measure("exp_power", alpha=1.5, n=4096),
    "gauss on -1:2": lambda: builtin_measure("gauss", n=4096, support=(-1.0, 2.0)),
    "gauss, uniform grid": lambda: builtin_measure("gauss", n=2000, support=(-8.0, 8.5), grid_kind="uniform"),
    "(x-3)^2/2+0.1x^4": lambda: _expr_measure("(x-3)^2/2+0.1*x^4"),
    "x on 0:inf": lambda: _expr_measure("x", support=(0.0, np.inf)),
    "x^2/2+x^3/10+x^4/8": lambda: _expr_measure("x^2/2+x^3/10+x^4/8"),
}


class TestBobkovGoetze:
    @pytest.mark.parametrize("name", list(_BG_CASES))
    def test_mirrored_left_side_matches_the_two_branch_reference(self, name):
        mu = _BG_CASES[name]()
        rep = bobkov_goetze(mu)
        assert (rep.left_value, rep.left_arg, rep.left_status) == _reference_bg_side(mu, "left")
        assert (rep.right_value, rep.right_arg, rep.right_status) == _reference_bg_side(mu, "right")

    def test_cases_cover_both_median_layouts_empty_sides_and_a_divergent_side(self):
        on_node = {name for name, build in _BG_CASES.items() if (lambda mu: mu.median in mu.grid)(build())}
        assert on_node == {"gauss, median on a node", "gauss, median on the first node", "gauss, median on the last node"}
        first = _BG_CASES["gauss, median on the first node"]()
        rep = bobkov_goetze(first)
        assert (rep.left_value, rep.left_arg) == (0.0, first.median)
        assert bobkov_goetze(_BG_CASES["gauss, median on the last node"]()).right_value == 0.0
        rep = bobkov_goetze(_BG_CASES["exp"]())
        assert rep.left_status == rep.right_status == "DIVERGENT"


class TestKept:
    """measure1d.Kept, the one bounded get-or-build table of the package."""

    @staticmethod
    def _filled(bound=3, **kw):
        kept = Kept(bound, **kw)
        for key, value in (("a", 1), ("b", 2), ("c", 3)):
            assert kept.get(key, lambda value=value: value) == value
        return kept

    def test_the_least_recently_used_goes_first(self):
        kept = self._filled()
        assert kept.get("a", pytest.fail) == 1  # a hit builds nothing and refreshes a
        assert kept.get("d", lambda: 4) == 4
        assert kept.items() == [("c", 3), ("a", 1), ("d", 4)]

    def test_a_build_that_raises_keeps_nothing(self):
        kept = self._filled()
        with pytest.raises(ZeroDivisionError):
            kept.get("d", lambda: 1 / 0)
        assert kept.items() == [("a", 1), ("b", 2), ("c", 3)]

    def test_a_full_table_keeps_a_key_on_its_second_request(self):
        kept = self._filled(second_request=True)
        assert kept.get("d", lambda: 4) == 4
        assert kept.items() == [("a", 1), ("b", 2), ("c", 3)]  # asked once: returned, not kept
        assert kept.get("d", lambda: 5) == 5
        assert kept.items() == [("b", 2), ("c", 3), ("d", 5)]
        for k in range(13):  # the last 4 * bound keys asked once are remembered: 1 to 12
            kept.get(k, lambda: None)
        assert kept.get(0, lambda: 0) == 0 and kept.get(12, lambda: 12) == 12
        assert kept.items() == [("c", 3), ("d", 5), (12, 12)]

    def test_a_key_built_during_its_own_build_keeps_the_first_value(self):
        kept = self._filled()

        def outer():
            assert kept.get("d", lambda: 4) == 4  # kept first, evicting a
            return 5

        assert kept.get("d", outer) == 4
        assert kept.items() == [("b", 2), ("c", 3), ("d", 4)]

    def test_threads_missing_one_key_keep_the_first_value(self):
        kept = self._filled()
        both_building = threading.Barrier(2)
        got = {}

        def build(value):
            both_building.wait(timeout=30)
            return value

        def work(k):
            got[k] = kept.get("d", lambda: build(4 + k))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        first = kept.items()[-1]
        assert got[0] == got[1] == first[1] and first[0] == "d"
        assert kept.items() == [("b", 2), ("c", 3), first]

    def test_a_measures_table_is_registered_and_freed_with_it(self):
        mu = builtin_measure("gauss", n=4096)
        assert isinstance(mu.kept, Kept) and mu.kept in measure1d._ALL_KEPT
        assert mu.kept.bound == measure1d._KEPT_PER_MEASURE
        ref = weakref.ref(mu.kept)
        del mu
        gc.collect()
        assert ref() is None

    def test_every_per_process_table_is_an_lru_cache_or_a_registered_kept(self, tmp_path):
        def module_objects():
            for info in pkgutil.iter_modules(isocert.__path__):
                module = importlib.import_module(f"isocert.{info.name}")
                for name, obj in vars(module).items():
                    if getattr(obj, "__module__", module.__name__) == module.__name__ or isinstance(obj, Kept):
                        yield f"{info.name}.{name}", obj

        def sizes():
            return {name: len(obj) for name, obj in module_objects() if isinstance(obj, (dict, list, set))}

        before = sizes()
        requests = (
            ["conjugate", "--cost", "expr:x^3/3"],
            ["profile", "--measure", "expr:x^2/2", "--t-grid", "0.1:0.5:3"],
            ["check", "--entropy", "expr:2*(x^0.5-1)", "--n", "4096", "--n-per-decade", "16"],
            ["certify", "--n", "4096", "--n-per-decade", "16"],
            ["test", "--display", "exp-power", "--params", "0.5", "--n", "4096"],
            ["paper-examples", "--n", "4096", "--n-per-decade", "16"],
        )
        for i, argv in enumerate(requests):
            assert cli.main(argv + ["--out", str(tmp_path / f"{i}.out")]) in (0, 3, 4)
        # the JSON writer's memos over types and key strings, which hold no numbers
        grown = {name for name, size in sizes().items() if size != before.get(name)}
        assert grown <= {"cli._HANDLERS", "cli._KEYS"}
        assert all(isinstance(obj, functools._lru_cache_wrapper) for _, obj in module_objects() if hasattr(obj, "cache_clear"))
        kept = [obj for _, obj in module_objects() if isinstance(obj, Kept)]
        mu = cli._measure("gauss", None, None, 4096)
        kept += [getattr(mu, f.name) for f in dataclasses.fields(mu) if not f.init]
        assert len(kept) == 2 and all(isinstance(table, Kept) and table in measure1d._ALL_KEPT for table in kept)
