"""Numerical certification of entropy-cost integrability conditions.

The core object is the improper integral over small one-sided masses t,

    int_0^{1/K} Phi(delta * c[ t F(1/t) / I(t) ]) dt,

with Phi the conjugate of y F(y) - y (evaluated continuously in log space, so
no table truncation can occur), c a convex superlinear cost or the plain
square, and I the half-line isoperimetric surrogate of the measure.

Finiteness of an improper integral is numerically undecidable, so the
checker's contract is a three-way verdict driven by the tail model

    integrand(t) ~ exp(log^p(1/t)),  convergent iff p < 1,

read as tail_p = median(log H / log s) at the last 3 decade ends (H = log
Phi, s = log(1/t)), which is p + log a / log s for H ~ a s^p, not p alone:

  FINITE            tail_p < 1 AND the per-decade partial sums decrease
                    geometrically (ratio <= 0.95) over the last 3 decades;
  DIVERGENT_LIKELY  tail_p >= 1 OR the last partial sums are non-decreasing;
  INCONCLUSIVE      anything else (which no report flag marks), or a FINITE
                    that a trust flag taints.

Quadrature: substitution t = e^{-s}, composite Simpson with 256 panels per
decade; decades are anchored at absolute powers of ten so that enlarging K
only shrinks the domain.  Partial sums are accumulated in log space and a
decade whose sum overflows float range reports log10_partial_sum only.

A profile's A1-A2 gate reads the report the profile keeps
(check_assumptions), so a profile is sampled once however many conditions
use it.  The measure's tilde profile at the quadrature nodes depends only on
the measure and the node layout (K, t_min, n_per_decade), so it is computed
once per layout and kept, read-only, with the measure (_node_profile).  The
layout's own tables (the nodes, e^{-s} there, the log Simpson weights and
panel widths, e^{-s} at the decade edges) depend on nothing else, so the
module keeps them, read-only (_layout).  README's "Performance" section
gives each kept table's bound.
Reports themselves are never kept; instead check_exp_power takes several
taus at once and evaluates each distinct condition among them once.  Entry
points: check_condition, check_exp_power (at A = 1, delta = 1/4, K = 4) and
verify_growth_condition.
"""

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .convex import CostFunction, eval_cost
from .entropy import EntropyFunction, F_tau, check_assumptions, log_Phi
from .measure1d import TRUST_TAIL, Measure1D, _vec, tilde_profile

_LN10 = float(np.log(10.0))
_LOG_GEOMETRIC = float(np.log(0.95))  # the largest log ratio of geometrically decreasing partial sums


def _logsumexp(a, axis=None):
    """log sum exp(a) along axis (over all of a when None, as a float); a
    non-finite maximum is returned as it is."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.where(finite, shift + np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)), m)
    return out.item() if axis is None else np.squeeze(out, axis)


@dataclass(frozen=True)
class ConditionSpec:
    """One integrability question: measure, entropy profile, cost, scales.

    The cost alone picks the integrand: None evaluates Phi(delta * r^2), the
    quadratic condition, and a CostFunction c evaluates Phi(delta * c(r)),
    where r = t F(1/t) / tilde_I(t).  A report names the first form
    'quadratic' and the second 'general'.  The integral runs over whole
    decades anchored at powers of ten, so it stops at the power of ten at or
    below t_min, not at t_min itself: t_min = 0.3 integrates down to t = 0.1.
    """

    measure: Measure1D
    F: EntropyFunction
    cost: Optional[CostFunction] = None
    delta: float = 1.0
    K: float = 2.0
    t_min: float = 1e-12

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not self.K > 1:
            raise ValueError("K must exceed 1")
        if not TRUST_TAIL <= self.t_min < 1.0 / self.K:
            raise ValueError(f"t_min must lie in [{TRUST_TAIL:g}, 1/K)")
        if self.cost is not None and not isinstance(self.cost, CostFunction):
            raise ValueError("cost must be None (the quadratic condition) or a CostFunction")


@dataclass(frozen=True)
class ConditionReport:
    verdict: str
    integral_estimate: Optional[float]  # None when the sum overflows float range
    log10_integral_estimate: float
    delta: float
    K: float
    tail_p: float
    decades: tuple  # of dicts {t_lo, t_hi, partial_sum, log10_partial_sum}
    flags: tuple = ()
    form: str = "quadratic"
    t_min: float = 1e-12
    measure: str = ""
    entropy: str = ""
    cost: str = ""


def _decade_edges(K, t_min):
    """s-edges [ln K, k ln 10, ...] anchored at absolute powers of ten."""
    s0 = float(np.log(K))
    k0 = int(np.floor(s0 / _LN10)) + 1  # first power of ten below 1/K
    k1 = int(np.ceil(-np.log10(t_min)))
    ks = np.arange(k0, k1 + 1, dtype=float)
    edges = np.concatenate(([s0], ks * _LN10))
    return edges[edges >= s0 - 1e-12]


@functools.lru_cache(maxsize=8, typed=True)
def _layout(K, t_min, n_per_decade):
    """The quadrature tables of the node layout (K, t_min, n_per_decade), kept
    read-only: the (decades, n_per_decade + 1) nodes s
    (one row per decade), t = e^{-s} at the nodes flattened, the log Simpson
    weights log(w/3), the log panel width of each decade and e^{-edges} at the
    decade edges."""
    edges = _decade_edges(K, t_min)
    s = np.linspace(edges[:-1], edges[1:], n_per_decade + 1, axis=1)  # one row of nodes per decade
    w = np.ones(n_per_decade + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    tables = (s, np.exp(-s.ravel()), np.log(w / 3.0), np.log(np.diff(edges) / n_per_decade), np.exp(-edges))
    for table in tables:
        table.flags.writeable = False
    return tables


def _node_profile(mu, layout, t):
    """tilde_I at the quadrature nodes t of layout = (K, t_min, n_per_decade),
    the profile folded by its symmetry t <-> 1-t.  The table depends on the
    measure and the layout only, so it is computed once and kept, read-only,
    in mu.kept, and is freed with mu."""

    def build():
        table = tilde_profile(mu, np.minimum(t, 1.0 - t)).tilde_I
        table.flags.writeable = False
        return table

    return mu.kept.get((_node_profile, layout), build)


def check_condition(spec, n_per_decade=256):
    """Evaluate the condition integral and classify its tail.

    The cost must be convex superlinear with c(0) = 0 and F must pass the
    concavity/limit assumptions (A1-A2); sampled costs that get extrapolated
    beyond their chord range taint a FINITE verdict down to INCONCLUSIVE,
    since linear extrapolation underestimates a superlinear cost.
    n_per_decade is the Simpson panel count per decade: even and at least 2.
    The last decade ends at the power of ten at or below spec.t_min, which
    the report echoes as given.
    The report takes one evaluation of the profile, F and the cost on the
    quadrature nodes and one log_Phi call.
    """
    if not (n_per_decade >= 2 and n_per_decade % 2 == 0):
        raise ValueError(f"n_per_decade must be an even integer >= 2 (Simpson panels), got {n_per_decade}")
    rep = check_assumptions(spec.F)
    if not (rep.a1 and rep.a2):
        raise ValueError("entropy profile fails the concavity/limit assumptions (A1-A2)")
    if spec.cost is not None and not spec.cost.superlinearity_ok():
        raise ValueError("cost must be superlinear (c(x)/x unbounded)")

    s, t_all, log_w3, log_h, t_edges = _layout(spec.K, spec.t_min, n_per_decade)
    s_all = s.ravel()
    ratio = t_all * spec.F.at_log(s_all)  # t * F(1/t)
    I_all = _node_profile(spec.measure, (spec.K, spec.t_min, n_per_decade), t_all)
    flags = []
    if np.any(I_all <= 0):
        flags.append("profile_zero_divergent_integrand")
        I_all = np.maximum(I_all, 1e-300)
    ratio = ratio / I_all

    if spec.cost is not None:
        carg, trunc = eval_cost(spec.cost, ratio, return_flag=True)
        if np.any(trunc):
            flags.append("cost_extrapolated_beyond_grid")
        x = spec.delta * carg
    else:
        with np.errstate(over="ignore"):  # past the largest double r^2 is inf, and so is Phi of it
            x = spec.delta * ratio * ratio
    # the generic log_Phi route takes 1-D arguments only
    log_phi = log_Phi(spec.F, x).reshape(s.shape)

    # Simpson weights per decade; Jacobian dt = e^{-s} ds
    log_partials = _logsumexp(log_phi - s + log_w3 + log_h[:, None], axis=-1)
    with np.errstate(over="ignore"):
        partials = np.exp(log_partials)
    return _classify(spec, log_phi[:, -1][-3:], s[:, -1][-3:], log_partials, partials, t_edges, flags)


def _classify(spec, H, S, log_partials, partials, t_edges, flags):
    """The report of spec: H is log Phi and S is s at the last three decade
    ends, log_partials and partials are the per-decade sums."""
    edges = t_edges.tolist()
    decades = tuple(
        {
            "t_lo": edges[i + 1],
            "t_hi": edges[i],
            "partial_sum": ps if math.isfinite(ps) else None,
            "log10_partial_sum": lp / _LN10,
        }
        for i, (lp, ps) in enumerate(zip(log_partials.tolist(), partials.tolist()))
    )
    log_total = _logsumexp(log_partials)
    with np.errstate(over="ignore"):
        total = float(np.exp(log_total))

    # tail model exp(log^p(1/t)): p from log(Phi-exponent) / log(s) at the last edges (s > 1 there)
    p_vals = [math.log(h) / math.log(s) if h > 1.0 else 0.0 for h, s in zip(H.tolist(), S.tolist())]
    tail_p = float(statistics.median(p_vals))  # 1-3 values: the middle one or the mean of two

    last = log_partials[-3:].tolist()
    steps = [b - a for a, b in zip(last, last[1:])]
    geometric = len(last) == 3 and all(d <= _LOG_GEOMETRIC for d in steps)
    nondecreasing = len(last) >= 2 and all(d >= -1e-12 for d in steps)

    if tail_p >= 1.0 or nondecreasing:
        verdict = "DIVERGENT_LIKELY"
    elif tail_p < 1.0 and geometric:
        verdict = "FINITE"
    else:
        verdict = "INCONCLUSIVE"
    # a zero of the profile makes the integrand infinite; an extrapolated cost only taints FINITE
    if "profile_zero_divergent_integrand" in flags:
        verdict = "DIVERGENT_LIKELY"
    elif verdict == "FINITE" and "cost_extrapolated_beyond_grid" in flags:
        verdict = "INCONCLUSIVE"

    return ConditionReport(
        verdict=verdict,
        integral_estimate=total if np.isfinite(total) else None,
        log10_integral_estimate=log_total / _LN10,
        delta=spec.delta,
        K=spec.K,
        tail_p=tail_p,
        decades=decades,
        flags=tuple(flags),
        form="quadratic" if spec.cost is None else "general",
        t_min=spec.t_min,
        measure=spec.measure.name,
        entropy=spec.F.name,
        cost="quadratic" if spec.cost is None else spec.cost.label,
    )


@dataclass(frozen=True)
class ExpPowerReport:
    alpha: float
    tau: float
    A: float
    q_star: float  # cost exponent of the dual pairing used in the first run
    beta: float
    run_cost: ConditionReport  # (F_tau, cost c_{A, q*})
    run_quadratic: ConditionReport  # (F_{2/beta}, quadratic)


def exp_power_range(alpha, tau):
    """Check 1 < alpha <= 2 and 2(1 - 1/alpha) <= tau <= 1 (with a 1e-12 slack
    on tau), raising ValueError otherwise; returns the lower end of tau."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (1, 2]")
    lo = 2.0 * (1.0 - 1.0 / alpha)
    if not lo - 1e-12 <= tau <= 1.0 + 1e-12:
        raise ValueError(f"tau must lie in [{lo:g}, 1]")
    return lo


def check_exp_power(mu, alpha, taus, n_per_decade=256):
    """Both finiteness checks behind the exp-power entropy inequality, one
    report per tau in taus.

    For the measure mu = e^{-|x|^alpha}: first the pair (F_tau, cost c_{1, q*})
    with q* = tau*alpha/(alpha(tau-1)+1) — the conjugate exponent of the
    energy cost c_{1, alpha*tau/(alpha-1)} named by the inequality — then the
    endpoint pair (F_{2/beta}, quadratic) with beta = alpha/(alpha-1) fixed,
    both at delta = 1/4 and K = 4.  Each tau must satisfy
    2(1 - 1/alpha) <= tau <= 1 (see exp_power_range).  Each distinct
    condition is evaluated once: the endpoint pair does not depend on tau,
    so every report shares one run_quadratic, and a repeated tau shares its
    run_cost.  n_per_decade is check_condition's.
    """
    taus = [min(max(tau, exp_power_range(alpha, tau)), 1.0) for tau in taus]
    beta = alpha / (alpha - 1.0)
    q_stars = {tau: tau * alpha / (alpha * (tau - 1.0) + 1.0) for tau in taus}
    A, delta, K = 1.0, 0.25, 4.0  # as documented above
    cost_specs = {
        tau: ConditionSpec(measure=mu, F=F_tau(tau), cost=CostFunction.closed_form(A, q), delta=delta, K=K)
        for tau, q in q_stars.items()
    }
    endpoint = ConditionSpec(measure=mu, F=F_tau(2.0 / beta), delta=delta, K=K)
    run_cost = {tau: check_condition(spec, n_per_decade) for tau, spec in cost_specs.items()}
    run_quadratic = check_condition(endpoint, n_per_decade)
    return [
        ExpPowerReport(
            alpha=float(alpha),
            tau=float(tau),
            A=A,
            q_star=float(q_stars[tau]),
            beta=float(beta),
            run_cost=run_cost[tau],
            run_quadratic=run_quadratic,
        )
        for tau in taus
    ]


@dataclass(frozen=True)
class GrowthReport:
    C: float  # inf over sampled r of g(r) / (r phi^{1-1/alpha}(e^{g(r)}))
    bounded: bool  # stays bounded away from 0 toward the edge of the range
    log_normalizer: float  # log int e^{g(|x|)} dmu (additive rescaling constant)
    sup_ratio: float
    r_lo: float
    r_hi: float
    n_used: int


def verify_growth_condition(mu, g, phi=None, alpha=2.0):
    """Fitted constant in the growth condition g(r) >= C r phi^{1-1/alpha}(e^{g(r)}).

    g must be increasing and e^{g(|x|)} integrable against mu (checked: the
    mass-weighted contributions must not peak at the truncation boundary).
    The additive constant normalizing int e^g dmu to 1 is computed and
    reported, but the ratio uses g as given — the worked examples' algebra
    (e.g. g = eps r^2 on the Gaussian giving C = sqrt(eps)) is stated for the
    raw function.  phi=None means phi = log, evaluated overflow-free as
    phi(e^g) = g.  600 radii are sampled, from the half-mass radius to the edge.
    """
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    gv = _vec(g)
    # integrability of e^{g(|x|)} dmu on the truncated support
    contrib = gv(np.abs(mu.grid)) + np.log(np.maximum(mu.node_mass, 1e-300))
    i_peak = int(np.argmax(contrib))
    n_edge = max(8, mu.grid.size // 100)
    if i_peak < n_edge or i_peak >= mu.grid.size - n_edge:
        raise ValueError("exp(g(|x|)) dmu peaks at the truncation boundary; not integrable")
    c0 = _logsumexp(contrib)

    R_half = float(mu.radius_of_outside_mass(0.5))
    r_hi = 0.999 * max(abs(mu.truncation[0]), abs(mu.truncation[1]))
    if not R_half < r_hi:
        raise ValueError("no radii between the half-mass radius and the support edge")
    r = np.linspace(R_half, r_hi, 600)
    gr = gv(r)
    if np.any(np.diff(gr) < -1e-12 * (1.0 + np.max(np.abs(gr)))):
        raise ValueError("g must be increasing on the sampled radii")
    expo = 1.0 - 1.0 / alpha
    if phi is None:
        phival = gr  # log(e^{g}) without forming e^{g}
    else:
        with np.errstate(over="ignore"):
            phival = np.asarray(phi(np.exp(np.minimum(gr, 700.0))), dtype=float)
    ok = phival > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, gr / (r * np.maximum(phival, 1e-300) ** expo), np.nan)
    good = np.isfinite(ratio)
    if not np.any(good):
        raise ValueError("phi(e^{g(r)}) is nonpositive on the whole sampled range")
    C = float(np.nanmin(ratio))
    sup = float(np.nanmax(ratio))
    # bounded away from zero: the infimum over the outermost window must hold
    # its own against the overall supremum
    w_lo = max(np.sqrt(R_half * r_hi), r_hi / 100.0)
    wmask = good & (r >= w_lo)
    inf_edge = float(np.nanmin(ratio[wmask])) if np.any(wmask) else 0.0
    bounded = bool(inf_edge >= 0.25 * sup and inf_edge > 0)
    return GrowthReport(
        C=C,
        bounded=bounded,
        log_normalizer=c0,
        sup_ratio=sup,
        r_lo=float(R_half),
        r_hi=float(r_hi),
        n_used=int(np.count_nonzero(good)),
    )
