"""Entropy profiles F and their convex conjugate machinery.

An admissible profile is concave, increasing, with F(1) = 0; the checks below
sample the four standard assumptions:

  A1) F concave, increasing, F(1) = 0
  A2) y F(y) -> 0 as y -> 0 and F(y) -> infinity
  A3) y F(y) convex on [0, 1 + Delta] for some Delta > 0
  A4) y F'(y) <= 1 and nonincreasing on [y0, infinity) for some y0 >= 1

The generalized family flattens a base profile phi above the point x0 where
phi reaches 1:

    F_tau(x) = phi(x)                          for 0 < x <= x0
    F_tau(x) = (1/tau) (phi(x)^tau - 1) + 1    for x >= x0.

Phi = (y F(y) - y)^* drives every integrability condition.  log_Phi
evaluates it in log space, with no conjugate table and so no slope range:
with y = e^u and G(u) = F(e^u), log Phi(x) = max_u u + log(x + 1 - G(u)),
whose maximiser solves the stationarity condition x + 1 - G(u) = G'(u).
The route depends on what the EntropyFunction carries:

  log_phi (exact)    F = log gives log Phi(x) = x; F_tau over log solves
                     the condition by Newton in z = u^tau - 1, where it is
                     increasing and convex, so no bracket is needed;
  otherwise          rtsafe (Newton safeguarded by bisection) on the
                     stationarity residual, with derivatives from
                     central differences of G, stopped on a residual check,
                     then a few Newton steps with 100 times finer
                     differences, which keep a C^1 kink of F (F_tau's x0)
                     accurate.  The profile's stationarity table brackets
                     each root: the residual is H(u) - (x + 1) with
                     H = G + G' free of x, so H tabulated once puts a level
                     between two entries, or between the table's end and
                     the end of the search range.

Profiles are immutable, so a profile is built and checked once:
log_entropy() and F_tau(tau) over log return one shared instance per
argument (the last 64 taus), and a profile keeps its check_assumptions
report and its stationarity table once sampled.
"""

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np


@dataclass(frozen=True)
class EntropyFunction:
    """An entropy profile F with optional closed-form derivative.

    fn_log evaluates F(e^u) directly from u, so that integrability sweeps can
    reach arguments like e^1500 without overflowing; builders supply it for
    the closed-form families.  log_phi, when present, is the exact log Phi
    (see log_Phi), which then skips the generic stationarity solve.
    assumptions is check_assumptions(F), sampled on first use and kept with
    the profile.
    """

    fn: Callable
    dfn: Optional[Callable] = None
    fn_log: Optional[Callable] = None
    name: str = "F"
    x0: Optional[float] = None
    log_phi: Optional[Callable] = None

    def __call__(self, y):
        return self.fn(np.asarray(y, dtype=float))

    def at_log(self, u):
        """F(e^u) evaluated from u."""
        u = np.asarray(u, dtype=float)
        if self.fn_log is not None:
            return self.fn_log(u)
        if np.any(u > 700.0):
            raise OverflowError("argument exceeds e^700 and no log-form evaluation is available")
        return self.fn(np.exp(u))

    def derivative(self, y):
        y = np.asarray(y, dtype=float)
        if self.dfn is not None:
            return self.dfn(y)
        h = 1e-6 * y
        return (self.fn(y + h) - self.fn(y - h)) / (2.0 * h)

    @functools.cached_property
    def assumptions(self):
        return _sample_assumptions(self, _ASSUMPTION_POINTS)

    @functools.cached_property
    def stationarity_table(self):
        """(H, u): H(u) = G(u) + G'(u), the stationarity residual at
        x = -1, on a fixed grid of u, kept where it is finite and above
        every earlier entry; log_Phi's generic route starts each root from
        it.  Sampled on first use and kept with the profile."""
        return _stationarity_table(self)


@functools.lru_cache(maxsize=1)
def log_entropy():
    """F = log, the classical entropy profile."""
    return EntropyFunction(
        fn=lambda y: np.log(y),
        dfn=lambda y: 1.0 / y,
        fn_log=lambda u: u,
        log_phi=lambda x: np.array(x, dtype=float),
        name="log",
        x0=float(np.e),
    )


def _flatten(p, tau):
    """p where p <= 1, else (p^tau - 1)/tau + 1 as expm1(tau log p)/tau + 1,
    which keeps full relative accuracy as tau -> 0; the power branch is
    evaluated only where it is taken (p > 1, and NaN)."""
    out = np.array(p, dtype=float)
    up = ~(out <= 1.0)
    if up.any():
        out[up] = np.expm1(tau * np.log(out[up])) / tau + 1.0
    return out


def _F_tau_log_phi(tau):
    """Exact log Phi for F_tau over log, where G(u) = F(e^u) = u up to u = 1.

    For x <= 1 (and NaN) u* = x and log Phi(x) = x.  Above, u* > 1 solves
    G + G' = x + 1; in z = u^tau - 1 and k = (1 - tau)/tau that reads
    g(z) = z/tau + (1 + z)^(-k) - x = 0, with g' >= 1 and g convex, so
    Newton from the right of the root falls onto it monotonically, with no
    bracket or bisection.  It starts at min(tau x, x - 1), right of the root
    as g(z) > z - (x - 1), and takes one step of the increasing map
    z -> tau (x - (1 + z)^(-k)) first.  z keeps full precision as tau -> 0,
    where u^tau itself would not.  Each entry stops on its own step, once
    that is within the rounding of z and of the residual (a few ulp of x
    over g'); one still moving after _NEWTON_PASSES passes raises ValueError.
    The value u* + log G'(u*) = u* + (tau - 1) log u*, log u* = log1p(z)/tau,
    is the objective at the root without the cancellation in x + 1 - G(u*),
    and +inf where u* lies past the largest double (and for x = +inf).
    """

    def log_phi(x):
        out = np.array(x, dtype=float)
        idx = np.flatnonzero((out > 1.0) & (out < np.inf))
        x = out[idx]
        k = (1.0 - tau) / tau
        z = np.minimum(tau * x, x - 1.0)
        z = tau * (x - np.exp(-k * np.log1p(z)))
        root = np.empty_like(z)
        todo = np.arange(z.size)
        for _ in range(_NEWTON_PASSES):
            p = np.exp(-k * np.log1p(z))
            slope = 1.0 / tau - k * p / (1.0 + z)
            step = (z / tau + p - x) / slope
            z = z - step
            done = np.abs(step) <= 4.0 * _EPS * (z + x / slope)
            root[todo[done]] = z[done]
            live = ~done
            todo, z, x = todo[live], z[live], x[live]
            if todo.size == 0:
                break
        else:
            raise ValueError("the stationarity condition of log Phi did not converge")
        log_u = np.log1p(root) / tau
        with np.errstate(over="ignore"):
            out[idx] = np.exp(log_u) + (tau - 1.0) * log_u
        return out

    return log_phi


def F_tau(tau, phi=None):
    """Build the F_tau profile as an EntropyFunction (base defaults to log).
    Its x0 is the base's own when set (e for log), else the root of
    phi(y) = 1 above y = 1.  Over log, one instance is shared per tau."""
    if phi is None:
        return _F_tau_over_log(float(tau))
    return _build_F_tau(tau, phi, None)


@functools.lru_cache(maxsize=64)
def _F_tau_over_log(tau):
    return _build_F_tau(tau, log_entropy(), _F_tau_log_phi(tau))


def _build_F_tau(tau, phi, log_phi):
    if not 0 < tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    x0 = phi.x0
    if x0 is None:  # phi(x0) = 1, searched from e on [1, 1e9]
        resid = lambda y, _: (phi(y) - 1.0, phi.derivative(y))  # noqa: E731
        x0 = float(_increasing_root(resid, np.zeros(1), np.array([np.e]), 0.0, 1.0, 1e9)[0])
        if not phi(np.array([x0]))[0] >= 1.0 - 1e-12:
            raise ValueError("the base profile does not reach 1 below 1e9")

    def fn(y):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise ValueError("F_tau argument must be positive")
        return _flatten(phi(y), tau)

    def dfn(y):
        y = np.asarray(y, dtype=float)
        p = phi(y)
        dp = phi.derivative(y)
        return np.where(p <= 1.0, dp, np.maximum(p, 1e-300) ** (tau - 1.0) * dp)

    # without a base log form, at_log's fallback fn(e^u) has the same values
    fn_log = None if phi.fn_log is None else (lambda u: _flatten(phi.at_log(u), tau))
    return EntropyFunction(fn=fn, dfn=dfn, fn_log=fn_log, name=f"F_tau({phi.name},{tau:g})", x0=x0, log_phi=log_phi)


_EPS = float(np.finfo(float).eps)
_ROOT_ITERATIONS = 200
_NEWTON_PASSES = 40  # F_tau over log takes at most 13 (tau = 1e-6, x - 1 near 1e-7)
_FD_STEP = 1e-4  # central-difference step in u, relative to max(1, |u|)
_FD_STEP_FINE = 1e-6  # the step of the final Newton steps (_fine_newton_steps)
_FINE_STEPS = 4
# |u| bounds of the generic search: F(e^u) without a log form is fn(e^u),
# which overflows past e^700 (699.9 keeps the stencil below it); with one,
# the search goes as far as 2^64.
_U_EVAL = 699.9
_U_LIMIT = 2.0 ** 64


def _increasing_root(resid, x, u, tol, lo, hi):
    """Zeros of increasing residuals r(u; x), one per entry of x, vectorised.

    resid(u, x) returns r and dr/du first.  The search starts at u inside
    the finite bracket [lo, hi], r(lo) <= 0 <= r(hi), and evaluates r only
    inside it.  It is rtsafe: the Newton step when it stays inside the
    bracket and at least halves the step before last, otherwise bisection.
    An entry stops once |r| <= tol or its Newton step or bracket shrinks to
    rounding level; only unfinished entries are evaluated again.
    """
    u = np.array(u, dtype=float)
    lo, hi, tol = (np.array(np.broadcast_to(a, u.shape), dtype=float) for a in (lo, hi, tol))
    step = hi - lo
    step_old = step.copy()
    todo = np.arange(u.size)
    ua, xa = u, x
    for _ in range(_ROOT_ITERATIONS):
        u[todo] = ua
        r, dr = resid(ua, xa)[:2]
        lo = np.where(r < 0, ua, lo)
        hi = np.where(r > 0, ua, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = ua - r / dr
        ulp = 4.0 * _EPS * np.maximum(1.0, np.abs(ua))
        keep = ~((np.abs(r) <= tol) | (np.abs(newton - ua) <= ulp) | (hi - lo <= ulp) | np.isnan(r))
        if not np.any(keep):
            return u
        todo, ua, xa, lo, hi, tol, newton, step, step_old = (
            a[keep] for a in (todo, ua, xa, lo, hi, tol, newton, step, step_old)
        )
        inside = (newton > lo) & (newton < hi)
        # halves taken separately: lo + hi overflows near the largest double
        nxt = np.where(inside & (np.abs(newton - ua) <= 0.5 * np.abs(step_old)), newton, 0.5 * lo + 0.5 * hi)
        step_old, step, ua = step, nxt - ua, nxt
    raise ValueError("the stationarity condition of log Phi did not converge")


def _stationarity_residual(F, step=_FD_STEP):
    """The residual r(u; x) = G(u) + G'(u) - (x + 1), G(u) = F(e^u), its
    slope G' + G'', and G', with G' and G'' from central differences in u
    (step times max(1, |u|)) over one stacked F.at_log call."""

    def resid(u, x):
        h = step * np.maximum(1.0, np.abs(u))
        up, um = u + h, u - h
        gm, g0, gp = np.split(F.at_log(np.concatenate((um, u, up))), 3)
        with np.errstate(invalid="ignore"):
            d1 = (gp - gm) / (up - um)
            d2 = (gp - 2.0 * g0 + gm) / (0.25 * (up - um) ** 2)
        return g0 + d1 - (x + 1.0), d1 + d2, d1

    return resid


def _search_bound(F):
    return _U_LIMIT if F.fn_log is not None else _U_EVAL


def _stationarity_table(F):
    """See EntropyFunction.stationarity_table.  The grid is u in [-50, 50]
    at step 1/16, then 400 geometric steps up to min(0.999 bound, 1e5),
    whose stencils stay inside the search bound.  H is exactly the coarse
    residual plus x + 1, so each adjacent pair brackets the root of every
    level between its two values; the kept entries increase strictly, as H
    does for an admissible F."""
    top = min(0.999 * _search_bound(F), 1e5)
    u = np.concatenate((np.arange(-800, 801) / 16.0, np.geomspace(50.0, top, 401)[1:]))
    with np.errstate(all="ignore"):
        H = _stationarity_residual(F)(u, np.full_like(u, -1.0))[0]
    keep = np.isfinite(H)
    keep[keep] = H[keep] > np.concatenate(([-np.inf], np.maximum.accumulate(H[keep])[:-1]))
    return H[keep], u[keep]


def _table_start(F, x):
    """(start, lo, hi) of the coarse solve from F's stationarity table:
    where x + 1 lies inside it, the two entries around it and the linear
    interpolant between them; below or above it, the table's end and
    -/+ the search bound, starting at that end."""
    H, u = F.stationarity_table
    if H.size == 0:
        raise ValueError(f"the stationarity residual of entropy {F.name} is nowhere finite, so no root is bracketed")
    bound = _search_bound(F)
    ends = np.concatenate(([-bound], u, [bound]))
    i = np.searchsorted(H, x + 1.0)
    return np.interp(x + 1.0, H, u), ends[i], ends[i + 1]


def _fine_newton_steps(F, u, x):
    """u after up to _FINE_STEPS Newton steps on the residual with
    differences 100 times finer, each taken where it matters.

    Where G'' jumps (F is only C^1, as F_tau is at x0) within the solve's
    stencil half-width h, its G' is off by O(h) and so is the root; the
    finer differences see one side of the jump; a step from the far side
    may overshoot, so it goes at most h, and the next one starts from the
    root's side.  On smooth F the solve is already within O(h^2).  A step s
    moves the value u + log(x + 1 - G(u)) by about s^2 (G' + G'') / (2 G'),
    its curvature at the root: a step shorter than 1e-3 h is taken only where
    that exceeds 1e-10 (1 + |u|), as it can where G' is tiny and the solve's
    residual tolerance leaves u far off."""
    resid = _stationarity_residual(F, _FD_STEP_FINE)
    u = u.copy()
    todo = np.arange(u.size)
    for _ in range(_FINE_STEPS):
        r, dr, d1 = resid(u[todo], x[todo])
        h = _FD_STEP * np.maximum(1.0, np.abs(u[todo]))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = r / dr
            moves = step * step * dr > 2e-10 * d1 * (1.0 + np.abs(u[todo]))
        take = (dr > 0) & ((np.abs(step) > 1e-3 * h) | moves)
        todo = todo[take]
        if todo.size == 0:
            break
        u[todo] -= np.clip(step[take], -h[take], h[take])
    return u


def log_Phi(F, x):
    """log Phi(x) = max over u of u + log(x + 1 - G(u)), G(u) = F(e^u).

    The maximiser u* solves the stationarity condition x + 1 - G(u) = G'(u);
    the residual G(u) + G'(u) - (x + 1) = (yF)'(y) - (x + 1) increases in u
    for admissible F, so the objective is unimodal.  Three routes, chosen by
    what F carries:

      log_entropy()    log_phi is exact: log Phi(x) = x;
      F_tau(tau)       log_phi: Newton in z = u^tau - 1, monotone from
                       the right of the root with no bracket or bisection,
                       each entry stopped on its own step (_F_tau_log_phi);
      anything else    vectorised Newton on the residual, safeguarded by
                       bisection, with G' and G'' from central differences
                       in u, started inside a closed bracket from F's
                       stationarity table (_table_start), stopped on a
                       residual check; then up to 4 Newton steps with 100
                       times finer differences where they are long enough to
                       matter (_fine_newton_steps); then
                       u* + log(x + 1 - G(u*)), insensitive to first-order
                       errors in u*, or u* + log G'(u*) where that remainder
                       is below the rounding of x.

    The result never drops below the y = 1 ordinate log1p(x).  The generic
    route searches |u| < 2^64 when F has fn_log, and |u| < 699.9 without it,
    since fn(e^u) overflows past e^700; a maximiser at either end of that
    range lies beyond it and raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x).astype(float)
    if F.log_phi is not None:
        out = np.asarray(F.log_phi(x), dtype=float)
    else:
        bound = _search_bound(F)
        tol = 1e-10 * (1.0 + np.abs(x))
        start, lo, hi = _table_start(F, x)
        u = _increasing_root(_stationarity_residual(F), x, start, tol, lo, hi)
        # a root at either end of the search range lies beyond it
        if np.any(u >= bound * (1.0 - 1e-9)):
            if F.fn_log is not None:
                raise ValueError("F does not reach the requested level; A2 growth violated")
            raise ValueError(
                f"Phi for entropy {F.name} needs F(e^u) beyond u = 700, but {F.name} has no log-form evaluation (fn_log)"
            )
        if np.any(u <= -bound * (1.0 - 1e-9)):
            raise ValueError(f"the maximiser of log Phi for entropy {F.name} lies below y = e^{-bound:g}, outside the search range")
        u = _fine_newton_steps(F, u, x)
        rem = x + 1.0 - F.at_log(u)
        low = rem <= _EPS * (1.0 + np.abs(x))  # all cancellation: take G'(u*), equal at the root
        if np.any(low):
            rem[low] = _stationarity_residual(F, _FD_STEP_FINE)(u[low], x[low])[2]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(rem > 0, u + np.log(rem), -np.inf)
    # the sup is never below the y = 1 ordinate, log(x + 1 - F(1)) = log1p(x),
    # which exists only for x > -1
    floor = np.where(x > -1.0, np.log1p(np.where(x > -1.0, x, 0.0)), -np.inf)
    out = np.maximum(out, floor)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class AssumptionReport:
    """Read-only, like the profile that keeps it: witnesses is a read-only
    view of the sampled violations."""

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    delta: float  # largest sampled Delta <= 9 with y F(y) convex on [0, 1+Delta]
    y0: Optional[float]  # smallest sampled threshold validating A4
    witnesses: Mapping = field(default_factory=dict)
    f_at_1: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "witnesses", MappingProxyType(dict(self.witnesses)))


_ASSUMPTION_POINTS = 4096
_F1_TOL = 1e-10  # |F(1)| up to which F(1) = 0 holds, for A1 and I_F_profile


def check_assumptions(F):
    """Sampled assumption flags; a pass means no sampled violation.  The
    report is F.assumptions, sampled once per profile."""
    return F.assumptions


def _sample_assumptions(F, n):
    wit = {}
    f1 = float(F(np.array([1.0]))[0])

    y = np.geomspace(1e-8, 1e8, n)
    vals = F(y)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(vals[np.isfinite(vals)]))))
    slopes = np.diff(vals) / np.diff(y)
    inc = slopes >= -tol
    conc = np.diff(slopes) <= tol
    a1 = abs(f1) <= _F1_TOL and bool(np.all(inc)) and bool(np.all(conc))
    if not np.all(inc):
        wit["a1_monotone"] = float(y[np.argmin(inc)])
    if not np.all(conc):
        wit["a1_concave"] = float(y[np.argmin(conc) + 1])

    ks = np.arange(1, 13)
    small = 10.0 ** (-ks.astype(float))
    m = np.abs(small * F(small))
    tail_ok = m[-1] <= 1e-8 and bool(np.all(np.diff(m[5:]) <= 1e-12))
    grow_ok = float(F(np.array([1e8]))[0]) > float(F(np.array([1e4]))[0]) + 1e-2
    a2 = bool(tail_ok and grow_ok)
    if not tail_ok:
        wit["a2_zero_limit"] = float(m[-1])
    if not grow_ok:
        wit["a2_growth"] = float(F(np.array([1e8]))[0])

    t = np.linspace(0.0, 10.0, n)
    yf = np.zeros_like(t)
    yf[1:] = t[1:] * F(t[1:])
    d2 = np.diff(yf, 2)
    tol3 = 1e-12 * (1.0 + float(np.max(np.abs(yf))))
    bad = np.nonzero(d2 < -tol3)[0]
    delta_max = 9.0 if bad.size == 0 else max(0.0, min(9.0, float(t[bad[0]] - 1.0)))
    a3 = delta_max > 0.0
    if not a3:
        wit["a3_first_violation"] = float(t[bad[0]]) if bad.size else None

    yy = np.geomspace(1.0, 1e8, n)
    w = yy * F.derivative(yy)
    tol4 = 1e-9 * (1.0 + float(np.max(np.abs(w[np.isfinite(w)]))))
    ok_level = w <= 1.0 + tol4
    ok_dec = np.concatenate((np.diff(w) <= tol4, [True]))
    good = ok_level & ok_dec
    # smallest index from which the suffix is entirely good
    suffix_good = np.logical_and.accumulate(good[::-1])[::-1]
    idx = np.nonzero(suffix_good)[0]
    y0 = float(yy[idx[0]]) if idx.size else None
    a4 = y0 is not None
    if not a4:
        wit["a4_last_violation"] = float(yy[np.nonzero(~good)[0][-1]])

    return AssumptionReport(a1=a1, a2=a2, a3=a3, a4=a4, delta=delta_max, y0=y0, witnesses=wit, f_at_1=f1)


@dataclass(frozen=True)
class Lemma32Report:
    delta: float
    T: Optional[float]  # smallest sampled y from which the margin stays nonnegative
    min_margin: float  # min over [T, y_max] of y^{2 delta} - Phi(delta F(y))
    status: str
    y_range: tuple


def lemma32_bound_check(F, delta, y_range=(1.0, 1e6)):
    """Worst-case margin of Phi(delta F(y)) <= y^{2 delta} on a 2000-point log-spaced sweep.

    Phi is evaluated continuously in log space, so no truncation can occur;
    the reported T is the empirically smallest valid sampled threshold.
    """
    if not 0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    y = np.geomspace(y_range[0], y_range[1], 2000)
    args = delta * F(y)
    if np.any(args < 0):
        raise ValueError("sweep must start where F >= 0 (y >= 1)")
    lp = log_Phi(F, args)
    margin_log = 2.0 * delta * np.log(y) - lp
    ok = margin_log >= -1e-9
    suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
    idx = np.nonzero(suffix_ok)[0]
    if idx.size == 0:
        return Lemma32Report(delta=delta, T=None, min_margin=float("-inf"), status="no_valid_threshold", y_range=y_range)
    i0 = idx[0]
    # margin in value space: y^{2 delta} (1 - exp(logPhi - 2 delta log y))
    y2d = np.exp(2.0 * delta * np.log(y[i0:]))
    m = y2d * (-np.expm1(np.minimum(lp[i0:] - 2.0 * delta * np.log(y[i0:]), 50.0)))
    # the log-space evaluation cannot resolve margins below a few ulp of
    # y^{2 delta}; negatives inside that noise floor are certified zeros
    m = np.where((m <= 0) & (m > -64 * np.finfo(float).eps * y2d), 0.0, m)
    return Lemma32Report(delta=delta, T=float(y[i0]), min_margin=float(np.min(m)), status="ok", y_range=y_range)
