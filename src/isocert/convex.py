"""Convex costs on the nonnegative half-line and discrete Legendre transforms.

The closed-form cost family is quadratic below a branch point A and a power
above it, glued so that value and first derivative agree at A:

    c(x) = x^2/2                                    for 0 <= x <= A
    c(x) = A^(2-a) x^a / a + A^2 (a-2) / (2a)       for x >= A.

Its Legendre conjugate is the member of the same family with the dual
exponent b, 1/a + 1/b = 1.  Conjugation of sampled functions uses the fact
that for convex data the maximizer of x*y - c(y) moves monotonically with x,
so the dual grid can be merged against the nondecreasing chord slopes in a
single sweep; samples that are not convex are refused.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np


def _tol_scale(values):
    # convexity checks use 1e-12 * (1 + max|values|), grid-size independent
    return 1e-12 * (1.0 + float(np.max(np.abs(values))) if len(values) else 1.0)


def _convex_slopes(grid, values):
    """The chord slopes of samples, refused unless nondecreasing (convex
    samples) up to _tol_scale(values)."""
    slopes = np.diff(values) / np.diff(grid)
    if np.any(np.diff(slopes) < -_tol_scale(values)):
        raise ValueError("cost values must be convex on the grid")
    return slopes


def conjugate_exponent(alpha):
    """Dual exponent b with 1/alpha + 1/b = 1."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return alpha / (alpha - 1.0)


@dataclass(frozen=True)
class CostFunction:
    """A convex nondecreasing cost with c(0) = 0: the closed form c_{A,alpha}
    (A and alpha set) or linear interpolation of samples (grid and values set).
    A sampled cost keeps its chord slopes (slopes), computed and checked for
    convexity once, by from_samples; legendre_transform reads them."""

    A: Optional[float] = None
    alpha: Optional[float] = None
    grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    @classmethod
    def closed_form(cls, A, alpha):
        if not A > 0:
            raise ValueError("A must be positive")
        if not alpha > 1:
            raise ValueError("alpha must exceed 1")
        with np.errstate(over="ignore"):  # the power branch's coefficient must be a positive finite double
            coef = np.float64(A) ** (2.0 - alpha)
        if not 0.0 < coef < np.inf:
            raise ValueError(f"cost c_{{{A:g},{alpha:g}}} has A^(2-alpha) = {coef:g}, not a positive finite double")
        return cls(A=float(A), alpha=float(alpha))

    @classmethod
    def from_samples(cls, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid.shape != values.shape:
            raise ValueError("need matching 1-d grid/values with at least 2 points")
        if grid[0] < 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be nonnegative and strictly increasing")
        if np.any(values < -_tol_scale(values)):
            raise ValueError("cost values must be nonnegative")
        cost = cls(grid=grid, values=values)
        cost.slopes  # refused here unless convex
        return cost

    @functools.cached_property
    def slopes(self):
        """The chord slopes of a sampled cost's samples (_convex_slopes)."""
        return _convex_slopes(self.grid, self.values)

    @property
    def is_closed_form(self):
        """Read from the data: only a sampled cost carries a grid."""
        return self.grid is None

    @property
    def label(self):
        """c_{A,alpha} with its parameters, or 'sampled'."""
        return f"c_{{{self.A:g},{self.alpha:g}}}" if self.is_closed_form else "sampled"

    def superlinearity_ok(self):
        """c(x)/x increasing at the last two evaluable points; False for a
        sampled cost whose second-to-last sample is at 0, where c(x)/x is
        not defined."""
        if self.is_closed_form:
            xs = np.array([self.A * 1e3, self.A * 2e3])
        else:
            xs = self.grid[-2:]
            if xs[0] <= 0:
                return False
        r = eval_cost(self, xs) / xs
        return bool(r[1] > r[0])


def eval_cost(c, x, return_flag=False):
    """Evaluate a cost at nonnegative x (scalar or array).

    Sampled costs interpolate linearly inside their grid and extrapolate with
    the last chord slope; with return_flag=True the extrapolation mask is
    returned alongside the values.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0):
        raise ValueError("cost argument must be nonnegative")
    if c.is_closed_form:
        A, a = c.A, c.alpha
        # the quadratic overflows only where the power branch replaces it or c exceeds the largest double
        with np.errstate(over="ignore"):
            out = 0.5 * x * x
            hi = x > A
            if hi.any():
                xa = x[hi]
                out[hi] = A ** (2.0 - a) * xa**a / a + A * A * (a - 2.0) / (2.0 * a)
        flag = np.zeros_like(x, dtype=bool) if return_flag else None
    else:
        out = np.interp(x, c.grid, c.values)
        flag = x > c.grid[-1]
        if np.any(flag):
            last_slope = (c.values[-1] - c.values[-2]) / (c.grid[-1] - c.grid[-2])
            out = np.where(flag, c.values[-1] + last_slope * (x - c.grid[-1]), out)
    if scalar:
        out = float(out[0])
        flag = bool(flag[0]) if return_flag else None
    return (out, flag) if return_flag else out


def dual_cost(c):
    """Closed-form Legendre conjugate: the same family at the dual exponent."""
    if not c.is_closed_form:
        raise ValueError("dual_cost needs a closed-form cost; use legendre_transform")
    try:
        return CostFunction.closed_form(c.A, conjugate_exponent(c.alpha))
    except ValueError as e:  # name the cost given as well as its dual
        raise ValueError(f"the conjugate of c_{{{c.A:.16g},{c.alpha:.16g}}}: {e}") from None


@dataclass(frozen=True)
class ConjugateTable:
    """Sampled Legendre conjugate: values and maximizers over a dual grid."""

    grid: np.ndarray
    values: np.ndarray
    argmax: np.ndarray
    truncated: np.ndarray  # dual points past the recoverable slope range

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x > self.grid[-1]) or np.any(x < self.grid[0]):
            raise ValueError("dual point outside the tabulated range")
        return np.interp(x, self.grid, self.values)


def _primal_samples(f, dual_grid):
    """Materialize (y, g(y)) samples for the supported input kinds."""
    if isinstance(f, CostFunction):
        if not f.is_closed_form:
            return f.grid, f.values
        A, a = f.A, f.alpha
        xmax = max(float(dual_grid[-1]), 1e-6)
        # largest primal point needed: where c' reaches the top dual point
        y_hi = A * max(1.0, (xmax / A) ** (1.0 / (a - 1.0)) if a != 2.0 else xmax / A) * 1.05
        y_hi = max(y_hi, xmax * 1.05, 2.0 * A)
        pos = dual_grid[dual_grid > 0]
        y_lo = min(A, float(pos[0]) if pos.size else A) / 64.0
        y_lo = max(y_lo, 1e-12)
        y = np.concatenate(([0.0], np.geomspace(y_lo, y_hi, 4095)))  # 4096 samples
        return y, eval_cost(f, y)
    y, g = f
    return np.asarray(y, dtype=float), np.asarray(g, dtype=float)


def legendre_transform(f, dual_grid):
    """Discrete conjugate sup_y (x*y - f(y)) over a nonnegative dual grid.

    f may be a CostFunction or a (grid, values) pair; samples that are not
    convex are refused as CostFunction.from_samples refuses them.
    Dual points beyond the final chord slope are flagged truncated: there the
    true conjugate of a superlinear input is not recoverable from the grid.
    """
    dual_grid = np.asarray(dual_grid, dtype=float)
    if dual_grid.size == 0:
        raise ValueError("empty dual grid")
    if np.any(np.diff(dual_grid) <= 0) or dual_grid[0] < 0:
        raise ValueError("dual grid must be nonnegative and strictly increasing")
    y, g = _primal_samples(f, dual_grid)
    if y.size < 2:
        raise ValueError("empty primal grid")

    slopes = f.slopes if isinstance(f, CostFunction) and not f.is_closed_form else _convex_slopes(y, g)
    # monotone sweep: merge sorted dual points against nondecreasing slopes;
    # the maximizer index never moves left as x grows (leftmost on ties)
    j = np.searchsorted(slopes, dual_grid, side="left")
    values = dual_grid * y[j] - g[j]
    return ConjugateTable(grid=dual_grid, values=values, argmax=y[j], truncated=dual_grid > slopes[-1])


def double_conjugate(f, primal_grid=None):
    """Conjugate twice; exact (to roundoff) on the sampled hull interior.

    The intermediate dual grid contains every chord slope of the primal data,
    so sampling the first conjugate there loses nothing.
    """
    if isinstance(f, CostFunction) and f.is_closed_form:
        if primal_grid is None:
            raise ValueError("closed-form input needs an explicit primal grid")
        y = np.asarray(primal_grid, dtype=float)
        g = eval_cost(f, y)
    else:
        y, g = _primal_samples(f, np.array([1.0]))
    slopes = np.diff(g) / np.diff(y)
    dual = np.unique(np.concatenate(([0.0], np.maximum(slopes, 0.0))))
    dual = dual[dual >= 0]
    conj = legendre_transform((y, g), dual)
    back = legendre_transform((conj.grid, conj.values), y[y >= 0] if y[0] >= 0 else y)
    return back, conj


@dataclass(frozen=True)
class ConditionHReport:
    ks: np.ndarray
    n_primal: np.ndarray  # sampled sup of c(kx)/c(x), a lower bound for n(k)
    n_dual: np.ndarray  # same ratio for the conjugate cost
    all_finite: bool
    x_range: tuple


def check_condition_H(c, ks):
    """Sampled multiplicative-growth diagnostics n(k) = sup c(kx)/c(x) over
    4096 log-spaced x in [1e-3, 1e3].

    The supremum over a finite grid is a lower bound for the true constant;
    it is reported as such.  Points with c(x) = 0 are skipped (a superlinear
    convex cost with c(0) = 0 vanishes only at 0).
    """
    ks = np.asarray(ks, dtype=float)
    if not np.all(ks > 0):
        raise ValueError("ks must be positive")
    x_range = (1e-3, 1e3)
    x = np.geomspace(*x_range, 4096)

    def ratios(cost):
        base = eval_cost(cost, x)
        keep = base > 0
        out = np.empty(ks.size)
        for i, k in enumerate(ks):
            out[i] = float(np.max(eval_cost(cost, k * x[keep]) / base[keep]))
        return out

    n_primal = ratios(c)
    if c.is_closed_form:
        n_dual = ratios(dual_cost(c))
    else:
        table = legendre_transform(c, np.concatenate(([0.0], x)))
        trusted = ~table.truncated
        dual_sampled = CostFunction.from_samples(table.grid[trusted], np.maximum(table.values[trusted], 0.0))
        n_dual = ratios(dual_sampled)
    all_finite = bool(np.all(np.isfinite(n_primal)) and np.all(np.isfinite(n_dual)))
    return ConditionHReport(ks=ks, n_primal=n_primal, n_dual=n_dual, all_finite=all_finite, x_range=x_range)
