"""One-dimensional probability measures e^{-V} dx / Z and isoperimetric machinery.

A measure is built from a potential V by adaptive truncation (the grid stops
where the density has fallen below e^{-41.4} of its peak, with the discarded
mass estimated and required to stay under 1e-9), a hybrid grid clustered by
probability so that tails are resolved down to 1e-16, and separately
accumulated left-CDF / right-tail tables so that neither end loses precision
to cancellation.

Profiles:
  tilde_profile  -- the half-line surrogate of the isoperimetric profile,
                    min(rho(u(t)), rho(v(t))) with mu((-inf,u)) = mu([v,inf)) = t.
                    (A printed source formula multiplies the *potential*
                    exponential by t; the boundary-density reading used here is
                    the one consistent with the surrogate's own asymptotics and
                    with the boundary measure of half-lines.)
  I_F_profile    -- I_F(r) = s F(1/s) / tilde_I(min(s,1-s)) with s the mass
                    outside the centered ball of radius r; 0 beyond the support.

Criteria on the line: the Cheeger constant as sup t / tilde_I(t); the
two-sided sup criterion F(x) log(1/F(x)) * int dx/rho over each half-line (its
divergence at the truncation boundary is detected and reported); the
convex-measure two-point bound 2 r mu+(A) >= H(mu(A)) + log mu(B_r); and the
monotone rearrangement f~ = G_{mu_f} o F_{mu_r}(|x|), which preserves the law
of f while making it radial and increasing.

Kept is the one bounded get-or-build table of the package: the command
line keeps its measures in one, and each measure keeps what is computed
from it alone in its own (Measure1D.kept).  README's "Performance" section
lists every kept table with its key, bound and eviction rule.
"""

import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .entropy import _F1_TOL, log_entropy

TRUST_TAIL = 1e-15  # smallest one-sided mass the accumulated tables resolve reliably
_LOG_TRUNC = float(np.log(1e18))  # potential rise at which the density is cut off
_MAX_REACH = 1e12  # outermost abscissa the truncation search will visit
_ROUNDS, _NODES = 5, 4097  # array rounds and nodes per round of the peak and cut searches


def _vec(potential):
    def f(x):
        return np.asarray(potential(np.asarray(x, dtype=float)), dtype=float)

    return f


def _locate_peak(Vfn, lo, hi):
    """Abscissa and value of the potential's minimum on [lo, hi].

    A coarse probe set brackets the minimum by its two neighbours; each of
    _ROUNDS array calls then tabulates the bracket on _NODES points and keeps
    the neighbours of the new argmin, narrowing it 2048-fold a round.
    """
    a = lo if np.isfinite(lo) else -1e6
    b = hi if np.isfinite(hi) else 1e6
    probes = [np.linspace(max(a, -100.0), min(b, 100.0), 2001)]
    if b > 100.0:
        probes.append(np.geomspace(100.0, b, 200))
    if a < -100.0:
        probes.append(-np.geomspace(100.0, -a, 200))
    xs = np.unique(np.clip(np.concatenate(probes), a, b))
    vals = Vfn(xs)
    for _ in range(_ROUNDS):
        i = int(np.argmin(vals))
        xs = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], _NODES)
        vals = Vfn(xs)
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def _march_cut(Vfn, x0, v0, direction):
    """Abscissa beyond which V - v0 >= _LOG_TRUNC.

    A sequential doubling walk x0 + direction * (1, 2, 4, ...) stops at the
    first probe past the crossing, so no abscissa beyond it is evaluated.
    Then each of _ROUNDS array calls tabulates the last bracket on _NODES
    points and keeps the first node where V - v0 >= _LOG_TRUNC and its
    predecessor: 4096-fold a round, 2^-60 of the bracket in all.
    """
    step = 1.0
    prev = x0
    while True:
        x = x0 + direction * step
        if not abs(x) <= _MAX_REACH:  # also ends a walk from a NaN start
            raise ValueError(
                "tail of exp(-V) decays too slowly: the density cannot be "
                "truncated with less than 1e-9 of the mass outside"
            )
        if Vfn(np.array([x]))[0] - v0 >= _LOG_TRUNC:
            for _ in range(_ROUNDS):
                xs = np.linspace(prev, x, _NODES)
                hit = Vfn(xs) - v0 >= _LOG_TRUNC
                hit[-1] = True  # x itself crossed
                j = int(np.argmax(hit[1:])) + 1
                prev, x = xs[j - 1], xs[j]
            return float(x)
        prev = x
        step *= 2.0


def _tail_decay_check(Vfn, x_peak, cut):
    """Estimated mass beyond the cut, in units of exp(v_peak); error if not decaying."""
    d = cut - x_peak
    v_cut, v_in, v_peak = Vfn(np.array([cut, x_peak + 0.9 * d, x_peak]))
    if v_cut <= v_in:
        raise ValueError("density is not decaying over the last decade before the cut; tail not integrable")
    # decay rate per e-fold of distance from the peak: e^{-V} ~ |x|^{-rate},
    # integrable iff rate > 1, and then int_cut^inf e^{-V} <~ w(cut) |d| / (rate - 1)
    rate = (v_cut - v_in) / (-np.log(0.9))
    if rate <= 1.0:
        raise ValueError(f"density decays like |x|^-{rate:.3g} at the cut; tail not integrable")
    return np.exp(-(v_cut - v_peak)) * abs(d) / (rate - 1.0)


_ALL_KEPT = weakref.WeakSet()  # every Kept, so that each can be emptied
_KEPT_PER_MEASURE = 64  # entries a measure keeps (Measure1D.kept)
_MISSING = object()


class Kept:
    """A bounded get-or-build table, safe to share between threads: at most
    bound entries, the least recently used out first.  With second_request,
    a full table keeps a new key only on its second request, remembering
    the last 4 * bound keys asked once, so keys asked once (a stream of
    one-off `expr:` potentials) never push out keys that repeat.  A build
    that raises keeps nothing; a key built meanwhile (by another thread, or
    by the build itself) keeps its first value and evicts nothing."""

    def __init__(self, bound, second_request=False):
        self.bound, self.second_request = bound, second_request
        self._lock = threading.Lock()
        self._table = {}  # key -> value, least recently used first
        self._asked_once = {}  # key -> None, oldest first
        _ALL_KEPT.add(self)

    def get(self, key, build):
        """The value kept for key, else build()'s, kept under the rules above."""
        with self._lock:
            value = self._table.pop(key, _MISSING)
            if value is not _MISSING:
                self._table[key] = value
                return value
        value = build()
        with self._lock:
            first = self._table.get(key, _MISSING)
            if first is not _MISSING:
                return first
            once = self._asked_once
            if self.second_request and len(self._table) >= self.bound and once.pop(key, _MISSING) is _MISSING:
                once[key] = None
                if len(once) > 4 * self.bound:
                    del once[next(iter(once))]
                return value
            if len(self._table) >= self.bound:
                del self._table[next(iter(self._table))]
            self._table[key] = value
        return value

    def items(self):
        """(key, value) pairs, least recently used first."""
        with self._lock:
            return list(self._table.items())

    def __len__(self):
        return len(self._table)

    def clear(self):
        with self._lock:
            self._table.clear()
            self._asked_once.clear()


@dataclass(frozen=True, eq=False)
class Measure1D:
    """Tabulated probability measure e^{-V} dx / Z on a truncated interval.

    cdf is accumulated from the left and tail from the right, so each is
    accurate in its own end down to TRUST_TAIL; density_at evaluates the
    density exactly from the potential rather than by interpolation.  The
    tables are read-only, so one built measure can serve many requests.
    cut_ends says, for the left and the right end of truncation, whether
    build_measure cut an infinite support side there (rather than taking a
    finite end of the support).  kept holds what the checker and the tester
    compute from this measure alone, each key tagged by the function that
    fills it (checker._node_profile, a tester._MEMBERS row,
    tester._integrability_eps), and is freed with the measure.
    """

    grid: np.ndarray
    potential_values: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    tail: np.ndarray
    node_mass: np.ndarray
    Z: float
    log_norm: float  # log of int exp(-(V - v_min)) over the truncated support
    v_min: float
    median: float
    truncation: tuple
    cut_ends: tuple
    log_concave: bool
    potential_fn: Callable
    name: str = "measure"
    kept: Kept = field(default_factory=lambda: Kept(_KEPT_PER_MEASURE), init=False, repr=False)

    # -- pointwise evaluations ------------------------------------------------
    def potential_at(self, x):
        return _vec(self.potential_fn)(x)

    def log_density_at(self, x):
        return -(self.potential_at(x) - self.v_min) - self.log_norm

    def density_at(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.truncation
        inside = (x >= lo) & (x <= hi)
        out = np.where(inside, np.exp(self.log_density_at(np.clip(x, lo, hi))), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf_at(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self.cdf, left=0.0, right=1.0)

    def tail_at(self, x):
        """mu([x, inf)), right-accumulated so the far tail keeps relative accuracy."""
        return np.interp(np.asarray(x, dtype=float), self.grid, self.tail, left=1.0, right=0.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0) | (p >= 1)):
            raise ValueError("quantile level must lie in (0, 1)")
        left = np.interp(p, self.cdf, self.grid)
        right = np.interp(np.minimum(1.0 - p, 1.0), self.tail[::-1], self.grid[::-1])
        out = np.where(p <= 0.5, left, right)
        return float(out) if out.ndim == 0 else out

    def right_quantile(self, t):
        """v with mu([v, inf)) = t; accurate down to t ~ TRUST_TAIL."""
        t = np.asarray(t, dtype=float)
        if np.any((t <= 0) | (t > 1)):
            raise ValueError("tail mass must lie in (0, 1]")
        out = np.interp(t, self.tail[::-1], self.grid[::-1])
        return float(out) if out.ndim == 0 else out

    def mass_outside(self, r):
        """mu(|x| > r)."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        out = self.cdf_at(-r) + self.tail_at(r)
        # A zero-radius ball carries no mass for these densities, so the
        # outside mass is exactly 1; summing cdf and tail would instead pick
        # up cancellation noise of order n*eps and break the s == 1 branch
        # of the profile formulas.
        out = np.where(r == 0.0, 1.0, np.minimum(out, 1.0))
        return float(out) if out.ndim == 0 else out

    def radius_of_outside_mass(self, t):
        """r with mu(|x| > r) = t."""
        r_tab, out_tab = self._outside_table()
        t = np.asarray(t, dtype=float)
        out = np.interp(t, out_tab[::-1], r_tab[::-1])
        return float(out) if out.ndim == 0 else out

    def _outside_table(self):
        r_tab = np.unique(np.abs(self.grid))
        if r_tab[0] > 0.0:
            r_tab = np.concatenate(([0.0], r_tab))
        out = self.cdf_at(-r_tab) + self.tail_at(r_tab)
        out = np.minimum.accumulate(np.minimum(out, 1.0))
        return r_tab, out

    def integrate(self, values):
        """int values dmu by the nodal-mass rule (exact on constants)."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError("values must be sampled on the measure grid")
        return float(np.sum(values * self.node_mass))

    @property
    def n(self):
        return self.grid.size


def _probe_symmetry(Vfn, hi):
    xs = np.array([0.3, 0.7, 1.3, 2.9, 5.3]) * min(hi, 10.0) / 10.0
    xs = xs[xs < hi]
    if xs.size == 0:
        return False
    a, b = np.split(Vfn(np.concatenate((xs, -xs))), 2)
    return bool(np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(a))))


def _hybrid_knots(xs, cdf_prov, tail_prov, lo, hi, n, symmetric):
    eps_p = 1.0 / n
    if symmetric:
        q = np.linspace(0.5 + eps_p, 1.0 - eps_p, n // 4)
        kq = np.interp(q, cdf_prov, xs)
        ku = np.linspace(0.0, hi, n // 8 + 1)[1:]
        t_levels = np.geomspace(1e-16, 1e-2, n // 8)
        kt = np.interp(t_levels, tail_prov[::-1], xs[::-1])
        right = np.unique(np.concatenate([kq, ku, kt, [hi]]))
        right = right[(right > 0.0) & (right <= hi)]
        right = right[np.concatenate(([True], np.diff(right) > (hi - lo) * 1e-13))]
        return np.concatenate([-right[::-1], [0.0], right])
    q = np.linspace(eps_p, 1.0 - eps_p, n // 2)
    kq = np.interp(q, cdf_prov, xs)
    ku = np.linspace(lo, hi, n // 4)
    lev = np.geomspace(1e-16, 1e-2, n // 8)
    kl = np.interp(lev, cdf_prov, xs)
    kr = np.interp(lev, tail_prov[::-1], xs[::-1])
    g = np.unique(np.concatenate([kq, ku, kl, kr, [lo, hi]]))
    g = np.clip(g, lo, hi)
    g = np.unique(g)
    keep = np.concatenate(([True], np.diff(g) > (hi - lo) * 1e-13))
    return g[keep]


def _weights(v, v_min):
    """exp(-(v - v_min)) in one new array; v may alias the grid, so it is not written."""
    w = np.subtract(v, v_min)
    return np.exp(np.negative(w, out=w), out=w)


def _accumulate(grid, w, node_mass=False):
    """Trapezoid cell masses, normalized to total 1: (cdf, tail, nm, total).

    cdf is summed from the left and tail from the right, each straight into
    its table; nm, the nodal masses (half of each adjacent cell), is None
    unless asked for.  The work is done in place, in the order of the plain
    formulas, so the results are bit-equal to them.
    """
    cdf, tail = np.empty_like(w), np.empty_like(w)
    cells = np.add(w[:-1], w[1:])
    cells *= 0.5
    cells *= np.subtract(grid[1:], grid[:-1], out=tail[1:])  # tail is scratch until its sum
    total = float(np.sum(cells))
    if not (total > 0.0) or not np.isfinite(total):
        raise ValueError("density integrates to zero or overflows on the grid")
    cells /= total
    cdf[0] = 0.0
    np.cumsum(cells, out=cdf[1:])
    cdf[-1] = 1.0
    np.cumsum(cells[::-1], out=tail[-2::-1])
    tail[0], tail[-1] = 1.0, 0.0
    nm = None
    if node_mass:
        nm = np.empty_like(w)
        nm[0] = 0.5 * cells[0]
        nm[-1] = 0.5 * cells[-1]
        np.add(cells[:-1], cells[1:], out=nm[1:-1])
        nm[1:-1] *= 0.5
    return cdf, tail, nm, total


def build_measure(
    potential,
    support=(-np.inf, np.inf),
    n=16384,
    grid_kind="hybrid",
    name="measure",
    log_concave=None,
):
    """Tabulate e^{-V} dx / Z on an adaptively truncated grid.

    grid_kind "hybrid" (default) mixes quantile-uniform, uniform, and
    log-probability tail knots (~n total); "uniform" is an exact linspace of n
    points.  Infinite support sides are cut where the density falls below
    e^{-41.4} of the peak; the estimated mass beyond the cut must stay under
    1e-9 or the construction is refused.
    """
    if n < 64:
        raise ValueError("grid size too small")
    if grid_kind not in ("hybrid", "uniform"):
        raise ValueError("grid_kind must be 'hybrid' or 'uniform'")
    a, b = float(support[0]), float(support[1])
    if not a < b:
        raise ValueError("empty support interval")
    Vfn = _vec(potential)

    x_peak, v_peak = _locate_peak(Vfn, a, b)
    outside_est = 0.0
    if np.isfinite(a):
        lo = a
    else:
        lo = _march_cut(Vfn, x_peak, v_peak, -1.0)
        outside_est += _tail_decay_check(Vfn, x_peak, lo)
    if np.isfinite(b):
        hi = b
    else:
        hi = _march_cut(Vfn, x_peak, v_peak, +1.0)
        outside_est += _tail_decay_check(Vfn, x_peak, hi)

    symmetric = np.isfinite(a) == np.isfinite(b) and _probe_symmetry(Vfn, min(abs(lo), abs(hi)) * 0.99 + 1e-9)
    if symmetric and abs(lo + hi) <= 1e-9 * (hi - lo) + 1e-300:
        half = max(hi, -lo)
        lo, hi = -half, half
    else:
        symmetric = False

    # provisional pass to place probability-clustered knots
    xs = np.linspace(lo, hi, 65537)
    v_prov = Vfn(xs)
    vmin_prov = float(np.min(v_prov))
    cdf_prov, tail_prov, _, z_prov = _accumulate(xs, _weights(v_prov, vmin_prov))

    # mass outside the cuts, relative to the retained mass
    rel_outside = outside_est * np.exp(-(vmin_prov - v_peak)) / z_prov
    if rel_outside > 1e-9:
        raise ValueError(f"mass outside the truncated support ({rel_outside:.2e}) exceeds 1e-9")

    if grid_kind == "uniform":
        grid = np.linspace(lo, hi, n)
    else:
        grid = _hybrid_knots(xs, cdf_prov, tail_prov, lo, hi, n, symmetric)

    v = Vfn(grid)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential is not finite on the support")
    v_min = float(np.min(v))
    w = _weights(v, v_min)
    cdf, tail, nm, z_shift = _accumulate(grid, w, node_mass=True)
    log_norm = float(np.log(z_shift))
    density = np.divide(w, z_shift, out=w)
    Z = z_shift * np.exp(-v_min)

    if log_concave is None:
        dx = np.diff(grid)
        slopes = np.diff(v) / dx
        bends = np.diff(slopes)
        tol = 1e-7 * (1.0 + float(np.max(np.abs(slopes))))
        # knots a few ulps apart (at a finite end of the support) move a chord slope by
        # up to 4 eps max(|V_i|, |V_{i+1}|) / dx_i from the rounding of V alone
        av = np.abs(v)
        slack = 4.0 * np.finfo(float).eps * np.maximum(av[:-1], av[1:]) / dx
        log_concave = bool(np.all(bends >= -(tol + slack[:-1] + slack[1:])))

    for table in (grid, v, density, cdf, tail, nm):
        table.flags.writeable = False

    return Measure1D(
        grid=grid,
        potential_values=v,
        density=density,
        cdf=cdf,
        tail=tail,
        node_mass=nm,
        Z=float(Z),
        log_norm=log_norm,
        v_min=v_min,
        median=float(np.interp(0.5, cdf, grid)),
        truncation=(float(lo), float(hi)),
        cut_ends=(not np.isfinite(a), not np.isfinite(b)),
        log_concave=bool(log_concave),
        potential_fn=potential,
        name=name,
    )


# name -> potential V(x, alpha) of the built-in measure e^{-V}
_BUILTIN = {
    "gauss": lambda x, alpha: 0.5 * x * x,
    "exp": lambda x, alpha: np.abs(x),
    "exp_power": lambda x, alpha: np.abs(x) ** alpha,
    "loglog": lambda x, alpha: np.abs(x) * np.log1p(x * x),
}


def builtin_measure(name, alpha=None, n=16384, support=(-np.inf, np.inf), grid_kind="hybrid"):
    """Built-in families: gauss (e^{-x^2/2}), exp (e^{-|x|}/2), exp_power
    (e^{-|x|^alpha}, alpha in [1,2]), loglog (e^{-|x| log(1+x^2)})."""
    potential = _BUILTIN.get(name)
    if potential is None:
        raise ValueError(f"unknown builtin measure '{name}'")
    if name == "exp_power":
        if alpha is None or not 1.0 <= alpha <= 2.0:
            raise ValueError("exp_power requires alpha in [1, 2]")
        name = f"exp_power({alpha:g})"
    return build_measure(lambda x: potential(x, alpha), support=support, n=n, grid_kind=grid_kind, name=name, log_concave=True)


# -- sampled functions --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """f sampled on a measure grid with a derivative table.

    log_deriv, when present, is d/dx log f — exponential-family members use it
    so ratio arguments |f'|/f stay accurate where f under/overflows.  It is
    either one value per node or, when it is constant, one value for every
    node (an `exponential` member's lam/2); the modified energy, its only
    reader, broadcasts it.
    """

    grid: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    log_deriv: Optional[np.ndarray] = None
    name: str = "f"
    deriv_consistent: bool = True

    @classmethod
    def from_callable(cls, mu, fn, dfn=None, log_deriv_fn=None, name="f"):
        grid = mu.grid
        values = np.asarray(fn(grid), dtype=float)
        if values.shape != grid.shape or not np.all(np.isfinite(values)):
            raise ValueError("function values must be finite on the measure grid")
        if dfn is not None:
            dvalues = np.asarray(dfn(grid), dtype=float)
        else:
            dvalues = np.gradient(values, grid)
        log_deriv = None if log_deriv_fn is None else np.asarray(log_deriv_fn(grid), dtype=float)
        ok = True
        if dfn is not None:
            # central differences on every interior node, compared in L^2(mu):
            # ||fd - f'|| <= 5% of ||f'|| plus a floor for flat functions.  Squares
            # that overflow read as inf and pass here; the L^2 admission refuses them.
            with np.errstate(over="ignore", invalid="ignore"):
                fd = (values[2:] - values[:-2]) / (grid[2:] - grid[:-2])
                w = mu.node_mass[1:-1]
                err = math.sqrt(np.sum(w * (fd - dvalues[1:-1]) ** 2))
                ref = math.sqrt(np.sum(w * dvalues[1:-1] ** 2))
            ok = bool(err <= 0.05 * ref + 1e-8 * (1.0 + np.max(np.abs(values))))
        return cls(grid=grid, values=values, dvalues=dvalues, log_deriv=log_deriv, name=name, deriv_consistent=ok)


# -- isoperimetric profiles ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class IsoProfile:
    """Half-line isoperimetric surrogate on a grid of one-sided masses t."""

    t_grid: np.ndarray
    tilde_I: np.ndarray
    u_t: np.ndarray
    v_t: np.ndarray
    trusted: np.ndarray


def _checked_t_grid(t_grid):
    """t_grid as a float array, refused unless it lies in (0, 1/2]."""
    t = np.asarray(t_grid, dtype=float)
    if np.any((t <= 0) | (t > 0.5)):
        raise ValueError("t_grid must lie in (0, 1/2]")
    return t


def tilde_profile(mu, t_grid):
    """min(rho(u(t)), rho(v(t))) with mu((-inf, u(t))) = mu([v(t), inf)) = t."""
    t = _checked_t_grid(t_grid)
    u = np.atleast_1d(mu.quantile(t))
    v = np.atleast_1d(mu.right_quantile(t))
    vals = np.minimum(mu.density_at(u), mu.density_at(v))
    trusted = t >= TRUST_TAIL
    return IsoProfile(t_grid=t, tilde_I=np.atleast_1d(vals), u_t=u, v_t=v, trusted=np.atleast_1d(trusted))


@dataclass(frozen=True, eq=False)
class IFProfile:
    """I_F along ball radii: value s F(1/s) / tilde_I(min(s, 1-s)), 0 past the support."""

    r_grid: np.ndarray
    s_values: np.ndarray
    values: np.ndarray
    zero_flag: np.ndarray  # True where the mass outside the ball vanishes
    trusted: np.ndarray


def I_F_profile(mu, F, r_grid):
    r = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if abs(float(F(np.array([1.0]))[0])) > _F1_TOL:
        raise ValueError("entropy profile must satisfy F(1) = 0")
    s = np.atleast_1d(mu.mass_outside(r))
    zero = s <= 0.0
    trusted = zero | (s >= TRUST_TAIL)
    vals = np.zeros_like(s)
    live = ~zero & (s < 1.0)
    if np.any(live):
        sl = s[live]
        tt = np.minimum(sl, 1.0 - sl)
        prof = tilde_profile(mu, tt)
        with np.errstate(divide="ignore", invalid="ignore"):
            num = sl * F(1.0 / sl)
            vals[live] = np.where(prof.tilde_I > 0, num / prof.tilde_I, np.inf)
    # s == 1 (r = 0 on full-mass balls): F(1) = 0 makes the value 0
    return IFProfile(r_grid=r, s_values=s, values=vals, zero_flag=zero, trusted=trusted)


def cheeger_constant(mu):
    """sup of min(t, 1-t) / tilde_I(t) over 2000 sampled t in [1e-9, 1/2]."""
    t_grid = np.concatenate((np.geomspace(1e-9, 0.45, 1500), np.linspace(0.451, 0.5, 500)))
    prof = tilde_profile(mu, t_grid)
    with np.errstate(divide="ignore"):
        ratio = np.where(prof.tilde_I > 0, np.minimum(prof.t_grid, 1.0 - prof.t_grid) / prof.tilde_I, np.inf)
    ratio = ratio[prof.trusted]
    return float(np.max(ratio))


# -- line criteria --------------------------------------------------------------


@dataclass(frozen=True)
class BobkovGoetzeReport:
    left_value: float
    left_arg: float
    left_status: str
    right_value: float
    right_arg: float
    right_status: str


def _bg_side(grid, tail, log_inv_rho, m, log_inv_rho_m):
    """The right side of the Bobkov--Goetze functional as (value, arg, status):
    the sup over nodes x > m with tail(x) >= TRUST_TAIL of
    tail(x) log(1/tail(x)) int_m^x dx/rho.  log_inv_rho is log(1/rho) at the
    nodes and log_inv_rho_m at the median m.  The trapezoid integral is
    accumulated in log space; DIVERGENT means the value still grows across the
    last resolved decades of tail mass, at the truncation boundary."""
    j = int(np.searchsorted(grid, m))  # first node with grid[j] >= m
    with np.errstate(divide="ignore"):
        # log of each cell's trapezoid contribution to int dx / rho
        cell = np.logaddexp(log_inv_rho[:-1], log_inv_rho[1:]) - np.log(2.0) + np.log(np.diff(grid))
    if j < grid.size and grid[j] == m:
        # I(x_{j+1+q}) = sum of cells j..j+q
        log_I = np.logaddexp.accumulate(cell[j:])
        j += 1
    else:
        # I(x_{j+q}) = sliver [m, x_j] + sum of cells j..j+q-1
        sliver = np.logaddexp(log_inv_rho_m, log_inv_rho[j]) - np.log(2.0) + np.log(max(grid[j] - m, 1e-300))
        log_I = np.logaddexp(np.concatenate(([-np.inf], np.logaddexp.accumulate(cell[j:]))), sliver)
    mass, xs = tail[j:], grid[j:]  # the nodes strictly right of m
    good = mass >= TRUST_TAIL
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
        if Ge[-1] >= 0.98 * value and Ge[-1] > Ge[0] * 1.02:
            status = "DIVERGENT"
    return value, arg, status


def bobkov_goetze(mu):
    """Two-sided sup of F(x) log(1/F(x)) int_x^m dx/rho (and the mirror image).

    The left side is the right side of the mirrored measure: grid -x,
    cdf as tail, median -m (see _bg_side).
    """
    m = mu.median
    log_inv_rho = (mu.potential_values - mu.v_min) + mu.log_norm
    log_inv_rho_m = float((mu.potential_at(np.array([m]))[0] - mu.v_min) + mu.log_norm)
    lv, la, ls = _bg_side(-mu.grid[::-1], mu.cdf[::-1], log_inv_rho[::-1], -m, log_inv_rho_m)
    rv, ra, rs = _bg_side(mu.grid, mu.tail, log_inv_rho, m, log_inv_rho_m)
    return BobkovGoetzeReport(left_value=lv, left_arg=-la, left_status=ls, right_value=rv, right_arg=ra, right_status=rs)


@dataclass(frozen=True, eq=False)
class BobkovBoundReport:
    t_grid: np.ndarray
    margins: np.ndarray
    r_values: np.ndarray
    min_margin: float
    arg_t: float


def bobkov_bound_check(mu, t_grid):
    """Margin of the convex-measure bound 2 r mu+(A) >= H(t) + log mu(B_r).

    A = [v(t), inf) is the half-line of mass t, r the ball radius with the same
    outside mass, mu+(A) = rho(v(t)).  Requires a log-concave measure.
    """
    if not mu.log_concave:
        raise ValueError("the two-point bound is only guaranteed for log-concave measures")
    t = np.atleast_1d(_checked_t_grid(t_grid))
    v = np.atleast_1d(mu.right_quantile(t))
    surf = mu.density_at(v)
    r = np.atleast_1d(mu.radius_of_outside_mass(t))
    # mu(B_r) = 1 - t by the choice of r
    rhs = t * np.log(1.0 / t) + (1.0 - t) * np.log(1.0 / (1.0 - t)) + np.log1p(-t)
    margins = 2.0 * r * surf - rhs
    i = int(np.argmin(margins))
    return BobkovBoundReport(t_grid=t, margins=margins, r_values=r, min_margin=float(margins[i]), arg_t=float(t[i]))


# -- rearrangement ---------------------------------------------------------------


def rearrange(mu, f):
    """Monotone radial rearrangement: f~(x) = G_f(F_r(|x|)), same law as f.

    G_f is the weighted quantile of the law of f under mu and F_r the CDF of
    |x| under mu; the result increases in |x|.
    """
    if isinstance(f, SampledFunction):
        vals = f.values
    else:
        vals = np.asarray(f, dtype=float)
    if vals.shape != mu.grid.shape:
        raise ValueError("function must be sampled on the measure grid")
    if np.any(vals < 0):
        raise ValueError("rearrangement requires f >= 0")
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    cw = np.cumsum(mu.node_mass[order])
    cw[-1] = 1.0
    # Both cumulative tables are cumsums of the same node masses (in value
    # order and in radial order) so the searchsorted quantization moves any
    # level set by at most one node's mass.
    r_order = np.argsort(np.abs(mu.grid), kind="stable")
    cwr = np.cumsum(mu.node_mass[r_order])
    cwr[-1] = 1.0
    p_radial = np.empty_like(cwr)
    p_radial[r_order] = cwr
    idx = np.searchsorted(cw, np.clip(p_radial, 0.0, 1.0), side="left")
    new_vals = sv[np.minimum(idx, sv.size - 1)]
    dvals = np.gradient(new_vals, mu.grid)
    return SampledFunction(grid=mu.grid, values=new_vals, dvalues=dvals, name="rearranged")


def kolmogorov_distance(mu, f, g):
    """sup_t |mu(f <= t) - mu(g <= t)| for two sampled functions."""
    fv = f.values if isinstance(f, SampledFunction) else np.asarray(f, dtype=float)
    gv = g.values if isinstance(g, SampledFunction) else np.asarray(g, dtype=float)
    pts = np.unique(np.concatenate([fv, gv]))
    of, og = np.argsort(fv, kind="stable"), np.argsort(gv, kind="stable")
    cf = np.concatenate(([0.0], np.cumsum(mu.node_mass[of])))
    cg = np.concatenate(([0.0], np.cumsum(mu.node_mass[og])))
    Ff = cf[np.searchsorted(fv[of], pts, side="right")]
    Fg = cg[np.searchsorted(gv[og], pts, side="right")]
    return float(np.max(np.abs(Ff - Fg)))


# -- tail-ratio stabilization ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Lemma41Report:
    r_values: np.ndarray
    ratios: np.ndarray  # I_log(r)/r; NaN where the outside mass is below trust
    sup: float
    arg_r: float
    R_half: float

    def window_sup(self, r_lo, r_hi):
        m = (self.r_values >= r_lo) & (self.r_values <= r_hi)
        vals = self.ratios[m]
        vals = vals[np.isfinite(vals)]
        return float(np.max(vals)) if vals.size else 0.0


def lemma41_ratio(mu, r_range=None, n=800):
    """Sampled sup of I_log(r)/r for r past the half-mass radius.

    Radii whose outside mass underflows the trusted tail resolution are
    reported as NaN and excluded from suprema; radii beyond the support give
    exactly 0 (the profile vanishes there).
    """
    if not mu.log_concave:
        raise ValueError("tail-ratio stabilization is stated for log-concave measures")
    R_half = float(mu.radius_of_outside_mass(0.5))
    hi_cap = max(abs(mu.truncation[0]), abs(mu.truncation[1]))
    if r_range is None:
        r_range = (R_half, hi_cap)
    r_lo = max(float(r_range[0]), R_half)
    r_hi = float(r_range[1])
    if not r_lo < r_hi:
        raise ValueError("empty radius range")
    r = np.linspace(r_lo, r_hi, n)
    prof = I_F_profile(mu, log_entropy(), r)
    ratios = np.where(prof.zero_flag, 0.0, prof.values / np.maximum(r, 1e-300))
    ratios = np.where(prof.trusted, ratios, np.nan)
    finite = np.isfinite(ratios)
    if np.any(finite):
        i = int(np.nanargmax(np.where(finite, ratios, -np.inf)))
        sup, arg = float(ratios[i]), float(r[i])
    else:
        sup, arg = 0.0, r_lo
    return Lemma41Report(r_values=r, ratios=ratios, sup=sup, arg_r=arg, R_half=R_half)

