"""Empirical verification of entropy--energy inequalities on 1-D measures.

Every functional here is a quadrature against a discretized measure: the
entropy side integrates f^2 F(f^2 / mu(f^2)), the energy side integrates
f^2 c*(|f'|/f) or plain gradient powers, and set-restricted integrals mark
grid cells with proportional boundary contributions.  Best-constant
estimates are suprema over *finite* test-function families, so they are
reported as lower bounds for the true constants, never as certificates.

A member is admitted (`_admitted`) only when its supplied derivative agrees
with finite differences and int f^2 + f'^2 dmu is finite on the grid (and,
for a display that integrates another power p, |f|^p and |f'|^p stay below
the largest double at every node), and is refused by name with a ValueError
otherwise: `TestFamily.members` returns admitted members only, and
`lemma_3_3_check` admits its f and g.  The functionals take members as
SampledFunctions on the measure's own grid.  An admitted member carries its
measure-only scalars (_Member), which the ratio engine and the lemmas read
instead of recomputing them, and are kept with the measure (members()):
display 4.4's three terms among them, keyed by the beta its members are
admitted at.  A kept member's tables are built only when a display first
reads them, and are checked finite whenever they are built; display 4.4's
eps is kept with the measure too, per alpha (verify_theorem_4_4).  So a
warm display 4.4 request builds no member table and runs no eps sweep.  A
one-request process or a one-off measure reads none of it back.  README's
"Performance" section gives the bound of what a measure keeps.

Every entropy reported here comes from one pair: the level table
F(f^2 / mu(f^2)) of `_level_entropy` (F of the whole table unless a level
underflows to 0) and its integral against f^2 in `_entropy`, which reads an
|Ent| within _ENT_ROUNDING of mu(f^2) as 0.  `lemma_3_3_check` refuses a g
whose level g^2 / mu(g^2) underflows (below the smallest normal double) at a
node where g > 0.

The three `verify_theorem_*` routines share one ratio engine.  Each supplies a
per-member `terms` function returning its entropy side, variance term, energy
term (refused by name when not finite), ratio denominator and extras;
`_ratio_table` adds the theorem-independent columns (classical entropy of
|f|, gradient energy, median energy, saturation) and the member's parameter
(display 2.1 with F the log_entropy() profile passes its entropy side as the
classical entropy, which it already is), and runs `terms` alone on the
members that the enriched family adds, for the stability check.  A member's
ratio is entropy/denominator when the denominator is positive, +inf when a
positive entropy meets a vanishing denominator, and NaN (no evidence)
otherwise; C_hat is the largest non-NaN ratio, or 0 when there is none, so
every reported ratio is at most C_hat.

Family members are evaluated independently and reduced in label order, so
reports are deterministic.  A family kind is one row of `_MEMBERS`: its
member builder, its label type, the table its members read that no label
changes (random_smooth's cos and sin rows, stretched_exp's lam-free powers),
built at most once per `members()` call, on its first read, for the family
and its enrichment together, and not kept (only the members' scalar columns
are), and the TestFamily settings those two read.  The median sorts a
member's values only when they are not already nondecreasing and sums tied
masses only when there are ties.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from .checker import exp_power_range
from .convex import CostFunction, dual_cost, eval_cost, legendre_transform
from .entropy import EntropyFunction, F_tau, check_assumptions, log_Phi, log_entropy
from .measure1d import Measure1D, SampledFunction

__all__ = [
    "TestFamily",
    "TestRow",
    "TestReport",
    "Lemma33Report",
    "Lemma34Report",
    "entropy_functional",
    "cost_energy",
    "modified_energy",
    "variance",
    "median_of",
    "median_energy",
    "verify_theorem_2_1",
    "verify_theorem_1_1",
    "verify_theorem_4_4",
    "lemma_3_3_check",
    "lemma_3_4_check",
]

_SATURATION_TOL = 1e-3


# -- test-function families ----------------------------------------------------


_RANDOM_TERMS = 6  # trigonometric terms in a random_smooth member


def _exponential(fam, mu, lam, table):
    x = mu.grid
    vals = np.exp(0.5 * lam * x)
    return vals, 0.5 * lam * vals, np.array([0.5 * lam])  # one log-derivative value, for every node


def _bump(fam, mu, w, table):
    if w <= 0:
        raise ValueError("bump width must be positive")
    x = mu.grid
    core = np.exp(-0.5 * (x / w) ** 2)
    return fam.floor + core, -(x / w**2) * core, None


def _shifted_linear(fam, mu, eps, table):
    lin = 1.0 + eps * mu.grid
    return np.maximum(lin, 0.0) + fam.floor, np.where(lin > 0.0, eps, 0.0), None


def _trig_basis(fam, mu):
    """(omega, C, S) with rows C[j-1] = cos(j omega x) and S[j-1] = sin(j omega
    x) on mu's grid, j = 1.._RANDOM_TERMS and omega = pi / max|truncation|:
    random_smooth's shared table, which depends on the grid only.  cos and sin
    are evaluated once, of omega x; rows j >= 2 follow by angle addition."""
    omega = np.pi / max(abs(mu.truncation[0]), abs(mu.truncation[1]))
    C = np.empty((_RANDOM_TERMS, mu.grid.size))
    S = np.empty_like(C)
    theta = omega * mu.grid
    np.cos(theta, out=C[0])
    np.sin(theta, out=S[0])
    for j in range(1, _RANDOM_TERMS):
        C[j] = C[j - 1] * C[0] - S[j - 1] * S[0]
        S[j] = S[j - 1] * C[0] + C[j - 1] * S[0]
    return omega, C, S


def _random_smooth(fam, mu, label, table):
    omega, C, S = table
    j = np.arange(1, _RANDOM_TERMS + 1, dtype=float)
    wts = 1.0 / j**2
    rng = np.random.default_rng([fam.seed, label])
    a = rng.standard_normal(_RANDOM_TERMS)
    b = rng.standard_normal(_RANDOM_TERMS)
    g = (wts * a) @ C + (wts * b) @ S
    gp = (wts * b * j * omega) @ C - (wts * a * j * omega) @ S
    vals = np.exp(fam.scale * g)
    log_deriv = fam.scale * gp
    return vals, log_deriv * vals, log_deriv


def _stretched_powers(fam, mu):
    """(P, D) = (base^{p/2}, p x base^{p/2 - 1}) with base = x^2 + smoothing^2
    and p the exponent: stretched_exp's shared table, free of lam, so that a
    member is e^{lam P} with log-derivative lam D."""
    x = mu.grid
    p = fam.exponent
    base = x * x + fam.smoothing**2
    return base ** (0.5 * p), p * x * base ** (0.5 * p - 1.0)


def _stretched_exp(fam, mu, lam, table):
    P, D = table
    log_deriv = lam * D
    vals = np.exp(lam * P)
    return vals, log_deriv * vals, log_deriv


# kind -> (member, label type, table or None, settings): member(family, measure, label, table) =
# (values, dvalues, log_deriv or None, one value when constant), with table(family, measure) what all
# members read and no label changes (see members and enriched), and settings the TestFamily fields
# those two read
_MEMBERS = {
    "exponential": (_exponential, float, None, ()),
    "bump": (_bump, float, None, ("floor",)),
    "shifted_linear": (_shifted_linear, float, None, ("floor",)),
    "random_smooth": (_random_smooth, int, _trig_basis, ("seed", "scale")),
    "stretched_exp": (_stretched_exp, float, _stretched_powers, ("exponent", "smoothing")),
}


@dataclass(frozen=True)
class TestFamily:
    """A finite family of strictly positive test functions.

    kinds:
      exponential     f = e^{lam*x/2}, parameter lam
      bump            f = floor + e^{-x^2/(2 w^2)}, parameter w > 0
      shifted_linear  f = (1 + eps*x)_+ + floor, parameter eps
      random_smooth   f = e^{scale*g} for a seeded random trigonometric
                      polynomial g; parameters are integer member labels
      stretched_exp   f = e^{lam*(x^2 + smoothing^2)^{exponent/2}}, parameter
                      lam; the smoothing term regularizes the |x|^exponent
                      cusp so the closed-form derivative stays finite at 0
      user            callables supplied in user_fns (optionally (fn, dfn)
                      pairs); parameters are labels

    Members carry a positive floor where needed so that energy ratios
    |f'|/f are defined everywhere.
    """

    kind: str
    params: tuple
    floor: float = 1e-6
    seed: int = 0
    scale: float = 0.5
    exponent: float = 0.7
    smoothing: float = 0.05
    user_fns: tuple = ()

    __test__ = False  # not a test-runner collectible despite the name

    def __post_init__(self):
        kinds = tuple(_MEMBERS) + ("user",)
        if self.kind not in kinds:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {kinds}")
        if self.kind == "user" and len(self.user_fns) == 0:
            raise ValueError("user family needs user_fns")
        if self.kind == "user" and self.params and len(self.params) != len(self.user_fns):
            raise ValueError(f"user family has {len(self.params)} labels for {len(self.user_fns)} user_fns")
        if len(self.params) == 0 and self.kind != "user":
            raise ValueError("family has no members")
        if self.floor < 0:
            raise ValueError("floor must be nonnegative")
        for name in ("floor", "scale", "exponent"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.smoothing < math.inf:
            raise ValueError(f"smoothing must be positive and finite, got {self.smoothing}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        label = _MEMBERS.get(self.kind, (None,) * 3)[1]  # None for user labels, kept as given
        for p in self.params if label is not None else ():
            q = float(p)
            if not (q >= 0 and q.is_integer() if label is int else math.isfinite(q)):
                raise ValueError(f"{self.kind} label {p} is not {'a non-negative integer' if label is int else 'finite'}")

    def _ordered_params(self):
        label = _MEMBERS.get(self.kind, (None,) * 3)[1]
        if label is None:
            return tuple(self.params) if self.params else tuple(range(len(self.user_fns)))
        labels = tuple(map(label, self.params))
        return labels if label is int else tuple(sorted(labels))

    def members(self, mu: Measure1D, *, power: float = 2.0):
        """Materialize the family on the measure grid, in label order; each
        member is admitted (_admitted, with the power the display integrates)
        or refused by name.  A member is named kind(p), with p in %g form for
        a float label and as given otherwise.  An admitted member's columns
        are kept in mu.kept, keyed by the _MEMBERS row itself, the settings
        it reads, power and the label, so a kept member is not
        admitted again; refused members and user families are never kept.
        A member not kept yet has its tables built, checked finite and
        admitted here; a kept one gets its tables from the same builder when
        a display first reads them (_Member), checked finite again, and none
        if no display does.  The table the kind's members share (_MEMBERS)
        is built at most once per call, on the first member build, read-only,
        and not kept."""
        member, label, shared, reads = row = _MEMBERS.get(self.kind, (None,) * 4)
        settings = tuple(getattr(self, name) for name in reads or ())

        @functools.cache
        def table():
            with np.errstate(over="ignore"):  # an overflowing member is refused by name in build
                parts = shared(self, mu)
            for part in parts:
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            return parts

        def build(p, name):
            with np.errstate(over="ignore"):  # caught by the finiteness gate below
                vals, dvals, log_deriv = member(self, mu, p, None if shared is None else table())
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"family member {name} overflows on the measure grid")
            return vals, dvals, log_deriv

        def admitted(i, p, name, fresh):  # fresh receives the tables a miss builds
            if member is None:
                fn = self.user_fns[i]
                f, df = fn if isinstance(fn, tuple) else (fn, None)
                sf = SampledFunction.from_callable(mu, f, dfn=df, name=name)
            else:
                sf = SampledFunction(mu.grid, *build(p, name), name=name)
            fresh.append((sf.values, sf.dvalues, sf.log_deriv))
            return _admitted(mu, sf, power)

        out = []
        for i, p in enumerate(self._ordered_params()):
            name = f"{self.kind}({p:g})" if label is float else f"{self.kind}({p})"
            fresh = []
            admit = functools.partial(admitted, i, p, name, fresh)
            columns = admit() if member is None else mu.kept.get((row, settings, power, p), admit)
            if fresh:
                out.append(_Member(mu.grid, name, columns, tables=fresh[0]))
            else:
                out.append(_Member(mu.grid, name, columns, functools.partial(build, p, name)))
        return out

    def enriched(self):
        """A denser version of the family: float labels gain the midpoints of
        consecutive ones, int labels as many fresh ones above their maximum
        (after the given ones).  A user family is returned unchanged."""
        label = _MEMBERS.get(self.kind, (None,) * 3)[1]
        if label is None:
            return self
        labels = self._ordered_params()
        if label is int:
            top = max(labels) + 1
            return replace(self, params=labels + tuple(range(top, top + len(labels))))
        mids = tuple(0.5 * (a + b) for a, b in zip(labels[:-1], labels[1:]))
        return replace(self, params=tuple(sorted(labels + mids)))


def _as_sampled(mu: Measure1D, f: SampledFunction) -> SampledFunction:
    """f, once it is known to be sampled on mu's own grid (members share it)."""
    if f.grid is not mu.grid and (f.grid.shape != mu.grid.shape or not np.array_equal(f.grid, mu.grid)):
        raise ValueError("sampled function lives on a different grid than the measure")
    return f


class _Member(SampledFunction):
    """An admitted member with the integrals its admission computed, which
    the ratio engine and the lemmas read: m2 = int f^2 dmu and
    grad = int f'^2 dmu.  columns holds them with the member's other
    measure-only scalars, each computed when first read (_column): "moments"
    (int f dmu, Var f), "median_energy", "classical" and display 4.4's
    "power_terms" (Ent |f|^beta, int |f'|^beta dmu, Var |f|^{beta/2}), whose
    beta is the power the member was admitted at (members() keys by it).

    Its tables (values, dvalues, log_deriv) are given, when members() has
    just built them to admit the member, or built by build() when one is
    first read: a kept member's, from the same member builder and shared
    table as its cold build, so bit-identical to it, and checked finite
    again.  They are held by this member alone, never kept; a warm display
    4.4 request reads only columns and builds none.  f^2 itself is not
    kept: a family's members are all alive at once."""

    def __init__(self, grid, name, columns, build=None, tables=None):
        for key, value in (("grid", grid), ("name", name), ("columns", columns), ("_build", build), ("_tables", tables)):
            object.__setattr__(self, key, value)  # SampledFunction is frozen

    def _table(self, i):
        if self._tables is None:
            object.__setattr__(self, "_tables", self._build())
        return self._tables[i]

    values = property(lambda self: self._table(0))
    dvalues = property(lambda self: self._table(1))
    log_deriv = property(lambda self: self._table(2))
    m2 = property(lambda self: self.columns["m2"])
    grad = property(lambda self: self.columns["grad"])


def _column(m: _Member, name: str, compute):
    value = m.columns.get(name)
    if value is None:
        value = m.columns[name] = compute()
    return value


_LOG_MAX = math.log(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


def _admitted(mu: Measure1D, sf: SampledFunction, power: float = 2.0) -> dict:
    """sf's first columns (_Member), m2 and grad, once sf may enter a
    functional: its supplied derivative agrees with finite differences, f
    and f' lie in L^2(mu) on the grid and, for a power p other than 2, |f|^p
    and |f'|^p stay below the largest double at every node (compared in log
    space, so the check cannot overflow itself; their integrals then cannot
    either, the node masses summing to 1).  So no functional of a display
    integrating p overflows.  Refused by name otherwise."""
    if not sf.deriv_consistent:
        raise ValueError(f"member {sf.name} has a derivative that disagrees with its finite differences")
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = mu.integrate(sf.values**2)
        grad = mu.integrate(sf.dvalues**2)
        l2 = m2 + grad
    if not np.isfinite(l2):
        raise ValueError(f"member {sf.name} is not in L^2(mu): f^2 + f'^2 integrates to {l2}")
    if power != 2.0:
        top = max(float(np.max(np.abs(sf.values))), float(np.max(np.abs(sf.dvalues))))
        if top > 0.0 and not power * math.log(top) < _LOG_MAX:
            raise ValueError(
                f"member {sf.name} is not in L^{power:g}(mu) on the grid: "
                f"max(|f|, |f'|)^{power:g} is e^{power * math.log(top):.6g}, past the largest double"
            )
    return {"m2": m2, "grad": grad}


# -- scalar functionals ----------------------------------------------------------


def entropy_functional(mu: Measure1D, f, F: EntropyFunction) -> float:
    """Quadrature of f^2 F(f^2 / mu(f^2)); with F = log this is the classical
    entropy of f^2.  Requires f >= 0 and a nonvanishing second moment."""
    v = _as_sampled(mu, f).values
    sq = v * v
    m2 = mu.integrate(sq)
    return _entropy(mu, sq, m2, _level_entropy(F, v, sq, m2))


def _classical_entropy(mu: Measure1D, m: _Member) -> float:
    """entropy_functional(mu, |m|, log) of an admitted member, from its m2:
    Ent(f^2) does not depend on the sign of f, so f^2 >= 0 stands in for f
    in _level_entropy's f >= 0 check."""
    sq = m.values * m.values
    return _entropy(mu, sq, m.m2, _level_entropy(log_entropy(), sq, sq, m.m2))


def _level_entropy(F: EntropyFunction, v: np.ndarray, sq: np.ndarray, m2: float) -> np.ndarray:
    """F(h) with h = f^2 / m2 (sq = f^2, m2 = int f^2 dmu) where h > 0, and 0
    where h is 0 (f = 0, or f^2 / m2 below the smallest double), so
    F(0) = -inf never enters; requires f >= 0 and m2 > 0.  F is applied to
    the whole table when no level is 0, the usual case."""
    if np.any(v < 0):
        raise ValueError("entropy_functional requires f >= 0 on the grid")
    if not m2 > 0:
        raise ValueError("integral of f^2 vanishes; entropy undefined")
    h = sq / m2
    pos = h > 0
    if pos.all():
        return np.asarray(F(h), dtype=float)
    out = np.zeros_like(sq)
    out[pos] = np.asarray(F(h[pos]), dtype=float)
    return out


_ENT_ROUNDING = 1e-10  # relative floor below which an entropy reads as 0


def _entropy(mu: Measure1D, sq: np.ndarray, m2: float, level: np.ndarray) -> float:
    """int sq * level dmu for level = _level_entropy(F, v, sq, m2): the
    entropy every display and lemma reports.  An |Ent| at or below
    _ENT_ROUNDING * m2 is the rounding of the quadrature (for a constant f it
    is the error of the summed node masses, at most n * eps), so it reads as
    0 and a constant member gets a NaN ratio, not an infinite constant."""
    ent = float(mu.integrate(sq * level))
    return 0.0 if abs(ent) <= _ENT_ROUNDING * m2 else ent


def cost_energy(mu: Measure1D, f, p: float) -> float:
    """Energy of the gradient alone: int |f'|^p dmu for an exponent p > 0."""
    p = float(p)
    if not p > 0:
        raise ValueError("gradient exponent must be positive")
    return float(mu.integrate(np.abs(_as_sampled(mu, f).dvalues) ** p))


def _dual_evaluator(cost: CostFunction, r_max: float):
    """Return a callable evaluating c* on [0, r_max]."""
    if cost.is_closed_form:
        dual = dual_cost(cost)
        return lambda r: np.asarray(eval_cost(dual, r), dtype=float)
    hi = max(r_max, 1.0) * 1.0000001
    dual_grid = np.concatenate(([0.0], np.geomspace(max(hi * 1e-12, 1e-300), hi, 2048)))
    table = legendre_transform(cost, dual_grid)
    return lambda r: np.asarray(table(np.minimum(r, hi)), dtype=float)


def _modified_integrand(sf: SampledFunction, sq: np.ndarray, cost: CostFunction) -> np.ndarray:
    """Pointwise f^2 c*(|f'|/f) with sq = f^2; requires f > 0.  A one-value
    log_deriv (a constant log-derivative) gives one c* value, broadcast."""
    v = sf.values
    if np.any(v <= 0):
        raise ValueError("modified energy requires f > 0; add a family floor")
    if sf.log_deriv is not None:
        ratio = np.abs(sf.log_deriv)
    else:
        ratio = np.abs(sf.dvalues) / v
    cstar = _dual_evaluator(cost, float(np.max(ratio)))(ratio)
    return sq * cstar


def modified_energy(mu: Measure1D, f, cost: CostFunction) -> float:
    """Quadrature of f^2 c*(|f'|/f) with c* the Legendre conjugate of cost
    (closed form when the cost is closed form).  The ratio uses the logarithmic
    derivative table when the member carries one."""
    sf = _as_sampled(mu, f)
    return float(mu.integrate(_modified_integrand(sf, sf.values * sf.values, cost)))


def _centered_integrand(sf: SampledFunction, cost: CostFunction, center: float) -> np.ndarray:
    """(f-c)^2 c*(|f'|/|f-c|) with exact limits at nodes where f = c:
    0 when f' = 0 there; otherwise |f'|^2/2 for a quadratic dual, 0 for dual
    exponent < 2, +inf for dual exponent > 2 (and +inf for sampled costs,
    whose tabulated dual cannot resolve the limit)."""
    u = sf.values - center
    au = np.abs(u)
    dv = np.abs(sf.dvalues)
    zero = au == 0.0
    if not zero.any():
        ratio = dv / au
        with np.errstate(over="ignore"):
            return u * u * _dual_evaluator(cost, float(np.max(ratio)))(ratio)
    ratio = np.where(zero, 0.0, dv / np.where(zero, 1.0, au))
    r_max = float(np.max(ratio[~zero])) if not np.all(zero) else 1.0
    with np.errstate(over="ignore"):
        core = u * u * _dual_evaluator(cost, r_max)(ratio)
    b = dual_cost(cost).alpha if cost.is_closed_form else np.inf
    if b > 2.0:
        lim = np.where(dv == 0.0, 0.0, np.inf)
    elif b == 2.0:
        lim = 0.5 * dv * dv
    else:
        lim = np.zeros_like(dv)
    return np.where(zero, lim, core)


def variance(mu: Measure1D, f) -> float:
    """Var_mu f by nodal-mass quadrature."""
    v = _as_sampled(mu, f).values
    return _variance(mu, v, mu.integrate(v))


def _variance(mu: Measure1D, v: np.ndarray, m1: float) -> float:
    """int (f - m1)^2 dmu with m1 = int f dmu."""
    return float(mu.integrate((v - m1) ** 2))


def _moments(mu: Measure1D, m: _Member):
    """(int f dmu, Var f) of an admitted member, a column."""
    if "moments" not in m.columns:
        m1 = mu.integrate(m.values)
        m.columns["moments"] = m1, _variance(mu, m.values, m1)
    return m.columns["moments"]


def median_of(mu: Measure1D, f) -> float:
    """inf{t : mu(f > t) <= 1/2}, read from the sorted value table."""
    return _median(mu, _as_sampled(mu, f).values)


def _value_masses(mu: Measure1D, v: np.ndarray):
    """The distinct values of v in increasing order and the mass mu puts on
    each.  A stable sort keeps each run of equal values in grid order (and is
    skipped when v is already nondecreasing: it would be the identity), so
    np.bincount sums every value's node masses in grid order, as np.add.at
    would along np.unique's inverse index; with no ties there is no sum."""
    if np.all(v[1:] >= v[:-1]):
        sv, mass = v, mu.node_mass
    else:
        order = np.argsort(v, kind="stable")
        sv, mass = v[order], mu.node_mass[order]
    first = np.concatenate(([True], sv[1:] != sv[:-1]))
    if first.all():
        return sv, mass
    return sv[first], np.bincount(np.cumsum(first) - 1, weights=mass)


def _median(mu: Measure1D, v: np.ndarray) -> float:
    """The least value u_k whose strict upper tail sum(w[k+1:]) is at most
    1/2: those tails, summed from the top, are cumsum(w[:0:-1]) read
    backwards, a nondecreasing table that searchsorted cuts at 1/2."""
    u, w = _value_masses(mu, v)
    return float(u[w.size - 1 - int(np.searchsorted(np.cumsum(w[:0:-1]), 0.5, "right"))])


def median_energy(mu: Measure1D, f) -> float:
    """int (f - m_f)^2 dmu with m_f the median of f under mu."""
    return _median_energy(mu, _as_sampled(mu, f).values)


def _median_energy(mu: Measure1D, v: np.ndarray) -> float:
    return float(mu.integrate((v - _median(mu, v)) ** 2))


def _restricted_integral(mu: Measure1D, integrand: np.ndarray, marker: np.ndarray) -> float:
    """int_{marker >= 0} integrand dmu on trapezoid cells; cells crossed by the
    marker's zero contribute proportionally, the crossing located by linear
    interpolation.  Exactly complementary: the result for marker and -marker
    sums to the full-cell integral."""
    p = integrand * mu.density
    p0 = p[:-1]
    dp = p[1:] - p0
    dx = np.diff(mu.grid)
    # A cell keeps [a, b] of itself, contributing dx ((b - a) p0 + (b^2 - a^2) dp / 2).
    # A cell with the marker >= 0 (or NaN) at both ends keeps [0, 1], one with
    # it < 0 at both keeps nothing (a = b = 0), each written so that it rounds
    # as that formula does; only the cells the marker crosses need theta.
    neg = marker < 0.0
    n0, n1 = neg[:-1], neg[1:]
    contrib = np.where(n0 & n1, dx * (0.0 * p0 + 0.0 * dp), dx * (p0 + 0.5 * dp))
    cut = np.flatnonzero(n0 != n1)
    if cut.size:
        m0, m1 = marker[cut], marker[cut + 1]
        denom = m0 - m1
        theta = np.clip(m0 / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
        # marker decreasing through zero: keep [0, theta]; increasing: keep [theta, 1]
        dec = (m0 >= 0.0) & (m1 < 0.0)
        inc = (m0 < 0.0) & (m1 >= 0.0)
        a = np.where(inc, theta, 0.0)
        b = np.where(dec, theta, 1.0)
        contrib[cut] = dx[cut] * ((b - a) * p0[cut] + 0.5 * (b * b - a * a) * dp[cut])
    return float(np.sum(contrib))


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class TestRow:
    """Functional values for one family member.

    modified_energy holds the theorem's paired energy term: f^2 c*(|f'|/f)
    for the quadratic/cost forms, the beta-gradient energy for the
    power-entropy display.  variance likewise holds the theorem's variance
    term.  ratio is the member's entropy over the theorem's energy side
    (see _ratio), and saturation marks members with classical_entropy equal
    to 2 * grad_energy within one part in a thousand."""

    name: str
    parameter: float
    entropy_F: float
    classical_entropy: float
    variance: float
    grad_energy: float
    modified_energy: float
    median_energy: float
    ratio: float
    saturation: bool


@dataclass(frozen=True)
class TestReport:
    """Family-level verification report.

    C_hat is the supremum of member ratios (a lower bound for the true best
    constant); B_hat, when present, is the least additive constant making the
    target display hold across the family.  details carries the
    theorem-specific extras (second-display constants, stability runs,
    explicit-bound margins).  Fields keep NaN and infinities as floats; the
    CLI serializer writes them as null and "inf"/"-inf", and its JSON keys
    follow the field order; the CLI also writes rows as CSV, one column per
    TestRow field."""

    family: str
    C_hat: float
    B_hat: Optional[float]
    rows: Tuple[TestRow, ...]
    details: dict = field(default_factory=dict)


# -- the ratio engine --------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """num / den for den > 0; +inf when a positive num meets a vanishing den;
    NaN (no evidence) otherwise."""
    if den > 0:
        return num / den
    return float("inf") if num > 0 else float("nan")


def _sup_ratio(ratios) -> float:
    """The reported constant: the largest non-NaN ratio, and 0.0 when there is
    none or all are negative."""
    return max([0.0] + [r for r in ratios if not math.isnan(r)])


def _parameter(label) -> float:
    try:
        return float(label)
    except (TypeError, ValueError):
        return float("nan")


def _member_terms(terms, sf):
    """terms(sf), refused by name when its energy term is not finite."""
    out = terms(sf)
    if not np.isfinite(out[2]):
        raise ValueError(f"member {sf.name} has a non-finite energy term ({out[2]})")
    return out


def _ratio_table(
    mu: Measure1D, family: TestFamily, terms, power: float = 2.0, enrich: bool = False, classical_lhs: bool = False
):
    """Rows, C_hat, the members' extras in row order and the enrichment
    check: C_hat over the enriched family (the family itself unless enrich)
    and whether it stays within 10% of C_hat.  Members are admitted with the
    power the display integrates; terms(m) returns the admitted member's
    (entropy side, variance term, energy term, ratio denominator, extras), and
    the theorem-independent columns are computed here, except that with
    classical_lhs (an entropy side that is already _classical_entropy's value)
    the entropy side is the classical column.  One members() call gives the
    family's own members and those its enrichment adds, split by label; the
    added ones run terms alone (no rows), the own ratios being in C_hat."""
    own = family._ordered_params()
    added = tuple(p for p in family.enriched()._ordered_params() if p not in own) if enrich else ()
    both = replace(family, params=own + added) if added else family
    rows, extras, added_members = [], [], []
    for m, label in zip(both.members(mu, power=power), both._ordered_params()):
        if label in added:
            added_members.append(m)
            continue
        lhs, var, energy, den, extra = _member_terms(terms, m)
        extras.append(extra)
        classical = lhs if classical_lhs else _column(m, "classical", lambda: _classical_entropy(mu, m))
        rows.append(
            TestRow(
                name=m.name,
                parameter=_parameter(label),
                entropy_F=lhs,
                classical_entropy=classical,
                variance=var,
                grad_energy=m.grad,
                modified_energy=energy,
                median_energy=_column(m, "median_energy", lambda: _median_energy(mu, m.values)),
                ratio=_ratio(lhs, den),
                saturation=bool(m.grad > 0 and abs(classical / (2.0 * m.grad) - 1.0) <= _SATURATION_TOL),
            )
        )
    c_hat = _sup_ratio(r.ratio for r in rows)
    ratios = (_ratio(lhs, den) for lhs, _, _, den, _ in (_member_terms(terms, m) for m in added_members))
    c_enr = max(c_hat, _sup_ratio(ratios))
    stable = bool(np.isfinite(c_hat) and np.isfinite(c_enr) and c_hat > 0 and abs(c_enr / c_hat - 1.0) <= 0.10)
    return tuple(rows), c_hat, extras, {"C_hat_enriched": c_enr, "stable": stable}


def _least_constant(excess: float, var: float) -> float:
    """The least B >= 0 with excess <= B var: max(0, excess/var) when var > 0,
    otherwise 0 if excess <= 0 and +inf if not."""
    if var > 0:
        return max(0.0, excess / var)
    return 0.0 if excess <= 0 else float("inf")


def _step1_constant(F: EntropyFunction, K: float) -> float:
    """(4(K+1)^2 + 2 + (sqrt K + 1)^2) F'(1), the explicit constant of the
    truncated-layer variance bound; requires K > 1."""
    if not K > 1.0:
        raise ValueError("K must exceed 1")
    fprime1 = float(np.asarray(F.derivative(np.array([1.0])))[0])
    return (4.0 * (K + 1.0) ** 2 + 2.0 + (math.sqrt(K) + 1.0) ** 2) * fprime1


# -- theorem-level verification ---------------------------------------------------


def verify_theorem_2_1(mu: Measure1D, F: EntropyFunction, cost: CostFunction, K: float, family: TestFamily) -> TestReport:
    """Empirically test the two-sided entropy bound: for each family member,
    compare f^2-entropy against (a) 4x the modified energy restricted to
    {f^2 >= K mu(f^2)} plus B mu(f^2), and (b) 4x the centered modified energy
    plus B Var f.  Reports the least B making (a) hold (B_hat), the analogous
    constant for (b), the full-energy ratio supremum (C_hat), and the explicit
    truncated-layer bound margins.

    Callers are expected to have certified the (measure, entropy, cost)
    triple finite beforehand; this routine checks only K > 1 and, through
    the family, its members' admission."""
    c_step = _step1_constant(F, K)

    def terms(m):
        v, m2 = m.values, m.m2
        sq = v * v
        level = _level_entropy(F, v, sq, m2)
        lhs = _entropy(mu, sq, m2, level)
        m1, var = _moments(mu, m)
        integrand = _modified_integrand(m, sq, cost)
        full_energy = float(mu.integrate(integrand))
        restricted = _restricted_integral(mu, integrand, sq - K * m2)
        b_restricted = _least_constant(lhs - 4.0 * restricted, m2)
        e16 = float(mu.integrate(_centered_integrand(m, cost, m1)))
        b_centered = _least_constant(lhs - 4.0 * e16, var)

        # truncated layer integral and its explicit variance bound
        i1 = float(mu.integrate(level * np.minimum(sq, K * m2)))
        bound = c_step * var
        step = {
            "name": m.name,
            "I1": i1,
            "bound": bound,
            "margin": bound - i1,
            "ok": bool(i1 <= bound + 1e-9 * max(1.0, abs(bound))),
        }
        return lhs, var, full_energy, full_energy, (b_restricted, b_centered, step)

    # with F = log the entropy side is the classical entropy, computed alike
    rows, c_hat, extras, _ = _ratio_table(mu, family, terms, classical_lhs=F is log_entropy())
    b_restricted, b_centered, step1 = zip(*extras)
    return TestReport(
        family=family.kind,
        C_hat=c_hat,
        B_hat=max(b_restricted),
        rows=rows,
        details={"K": K, "B16_hat": max(b_centered), "C16_used": 4.0, "step1_constant": c_step, "step1": list(step1)},
    )


def verify_theorem_1_1(mu: Measure1D, alpha: float, tau: float, A: float, family: TestFamily) -> TestReport:
    """Entropy--energy ratio for the |x|^alpha measure mu: tests
    F_tau-entropy <= C * int f^2 c_{A,q}(|f'|/f) dmu with q = alpha*tau/(alpha-1),
    reporting the ratio supremum and its stability under family enrichment.
    The energy is evaluated through the conjugate of c_{A, q/(q-1)}, which
    recovers c_{A,q} exactly."""
    exp_power_range(alpha, tau)
    if A <= 0:
        raise ValueError("A must be positive")
    F = F_tau(min(tau, 1.0))
    q = alpha * tau / (alpha - 1.0)
    # pre-dualized so the energy integrand applies c_{A,q} itself
    cost = dual_cost(CostFunction.closed_form(A, q))

    def terms(m):
        v, m2 = m.values, m.m2
        sq = v * v
        energy = float(mu.integrate(_modified_integrand(m, sq, cost)))
        return _entropy(mu, sq, m2, _level_entropy(F, v, sq, m2)), _moments(mu, m)[1], energy, energy, None

    rows, c_hat, _, stability = _ratio_table(mu, family, terms, enrich=True)
    return TestReport(
        family=family.kind,
        C_hat=c_hat,
        B_hat=None,
        rows=rows,
        details={"alpha": alpha, "tau": tau, "A": A, "q": q, **stability},
    )


_FAR_REACH = 1e150  # outermost |x| of the far-field walk past a cut


def _integrability_eps(mu: Measure1D, alpha: float) -> float:
    """The first eps of 0.05, 0.1, 0.2 for which int e^{eps |x|^alpha} dmu is
    verified finite, refused otherwise.  On the grid the sum must be finite
    with at most 1e-8 of it in the four nodes at each end that build_measure
    cut (mu.cut_ends); an end of a finite support is not tested, since the
    integrand is bounded there, so the integral is finite for every eps.  The
    grid ends at the cuts, where e^{eps |x|^alpha - V} can still be tiny
    although its integral on the line is infinite, so past each cut end,
    W = V - eps |x|^alpha is walked outwards at doubling steps (at
    cut * 2^k when |cut| >= 1) out to |x| <= 1e150 and must never fall below
    W(cut).  The walk stops at the first W that is not finite (V or
    |x|^alpha overflowing).  An exponent gap below about 0.01 crosses only
    past 1e150, so it goes unseen."""
    walks = []
    for x, side, cut in zip(mu.truncation, (-1.0, 1.0), mu.cut_ends):
        if cut:
            scale = max(abs(x), 1.0)
            steps = 2.0 ** np.arange(int(math.log2(_FAR_REACH / scale)) + 1) - 1.0  # 0, 1, 3, 7, ...
            walks.append(x + side * scale * steps)
    with np.errstate(over="ignore", invalid="ignore"):
        far = [(mu.potential_at(xs), np.abs(xs) ** alpha) for xs in walks]
    for eps in (0.05, 0.1, 0.2):
        with np.errstate(over="ignore", invalid="ignore"):
            contrib = mu.node_mass * np.exp(eps * np.abs(mu.grid) ** alpha)
            far_ok = all(_stays_above_start(V - eps * P) for V, P in far)
        total = float(np.sum(contrib))
        edge = sum(float(np.sum(end)) for end, cut in zip((contrib[:4], contrib[-4:]), mu.cut_ends) if cut)
        if np.isfinite(total) and edge <= 1e-8 * total and far_ok:
            return eps
    raise ValueError("could not verify int e^{eps|x|^alpha} dmu finite on the grid and past its cuts")


def _stays_above_start(W: np.ndarray) -> bool:
    """W[k] >= W[0] for every k before the first W that is not finite."""
    bad = ~np.isfinite(W)
    stop = int(np.argmax(bad)) if bad.any() else W.size
    return bool(np.all(W[1:stop] >= W[0]))


def verify_theorem_4_4(mu: Measure1D, alpha: float, family: TestFamily) -> TestReport:
    """Power-entropy display on a log-concave measure: with beta = alpha/(alpha-1),
    tests Ent |f|^beta <= C [ int |f'|^beta dmu + Var |f|^{beta/2} ] and reports
    the least such C over the family plus its stability under enrichment.
    Requires a log-concave measure and a numerically verified
    int e^{eps |x|^alpha} dmu < infinity for a sampled eps, on the grid and
    past its cuts (_integrability_eps).  That eps depends on mu and alpha
    only, so it is kept in mu.kept, keyed by alpha; a refusal is not kept,
    so it is refused again on every request.

    Ent |f|^beta is the entropy of (|f|^{beta/2})^2 under the one rule of
    _entropy: an |Ent| at or below 1e-10 of int |f|^beta dmu counts as 0, so
    a constant member gets a NaN ratio rather than an infinite constant, and
    a member that vanishes on the grid is refused.  A member's three terms
    depend on mu, the member and beta only, so they are its "power_terms"
    column (_Member), computed on the first request that reads them.  So a
    warm request (every member and the enrichment's kept at this beta, and
    this alpha's eps kept) builds no member table, shared table or eps sweep:
    it reads kept numbers and assembles the report."""
    if not mu.log_concave:
        raise ValueError("refused: measure is not log-concave")
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    beta = alpha / (alpha - 1.0)
    F_log = log_entropy()

    eps_used = mu.kept.get((_integrability_eps, alpha), lambda: _integrability_eps(mu, alpha))

    def power_terms(m):
        v = np.abs(m.values)
        g = v**beta
        mg = mu.integrate(g)
        lhs = _entropy(mu, g, mg, _level_entropy(F_log, v, g, mg))
        rhs_grad = cost_energy(mu, m, beta)
        half = v ** (0.5 * beta)
        rhs_var = _variance(mu, half, mu.integrate(half))
        return lhs, rhs_var, rhs_grad

    def terms(m):
        # members() keys m's columns by power = beta, so the column is this beta's
        lhs, rhs_var, rhs_grad = _column(m, "power_terms", lambda: power_terms(m))
        return lhs, rhs_var, rhs_grad, rhs_grad + rhs_var, None

    rows, c_hat, _, stability = _ratio_table(mu, family, terms, power=beta, enrich=True)
    return TestReport(
        family=family.kind,
        C_hat=c_hat,
        B_hat=None,
        rows=rows,
        details={"alpha": alpha, "beta": beta, "eps_used": eps_used, **stability},
    )


# -- cross-function comparison lemmas ---------------------------------------------


@dataclass(frozen=True)
class Lemma33Report:
    """Margin for the two-function comparison: the f^2-entropy read at g's
    level profile is controlled by twice f's own entropy plus
    C = 2 int Phi(u/2) dmu - 1 times mu(f^2)."""

    lhs: float
    rhs: float
    C: float
    margin: float
    ok: bool
    u_min: float
    u_max: float


def lemma_3_3_check(mu: Measure1D, F: EntropyFunction, f, g) -> Lemma33Report:
    sf = _as_sampled(mu, f)
    m2f = _admitted(mu, sf)["m2"]
    sg = _as_sampled(mu, g)
    m2g = _admitted(mu, sg)["m2"]
    vf = sf.values
    vg = sg.values
    if np.any(vf < 0) or np.any(vg < 0):
        raise ValueError("lemma_3_3_check requires nonnegative f and g")
    if not (m2f > 0 and m2g > 0):
        raise ValueError("f and g need nonvanishing second moments")

    h = vg * vg / m2g
    pos = h > 0
    # an underflowed level makes F(0) = -inf meet f > 0 in lhs, and a
    # subnormal one overflows h F'(h) in C, which integrates every node
    lost = int(np.count_nonzero((vg > 0.0) & (h < _TINY)))
    if lost:
        raise ValueError(
            f"lemma_3_3_check: g^2 / mu(g^2) underflows (below {_TINY:.4g}) at {lost} node(s) where g > 0, "
            "so g's level and its entropy are not representable there"
        )
    Fh = np.full_like(h, -np.inf)
    Fh[pos] = np.asarray(F(h[pos]), dtype=float)

    sqf = vf * vf
    lhs_terms = np.where(vf == 0.0, 0.0, sqf * Fh)
    lhs = float(np.sum(lhs_terms * mu.node_mass))

    u = np.full_like(h, -np.inf)
    u[pos] = Fh[pos] + h[pos] * np.asarray(F.derivative(h[pos]), dtype=float) - 1.0
    phi_vals = np.zeros_like(h)
    if np.any(pos):
        with np.errstate(over="ignore"):
            phi_vals[pos] = np.exp(log_Phi(F, 0.5 * u[pos]))
    C = 2.0 * float(mu.integrate(phi_vals)) - 1.0
    rhs = 2.0 * _entropy(mu, sqf, m2f, _level_entropy(F, vf, sqf, m2f)) + C * m2f
    margin = rhs - lhs
    scale = max(1.0, abs(rhs), abs(lhs) if np.isfinite(lhs) else 0.0)
    finite_u = u[np.isfinite(u)]
    return Lemma33Report(
        lhs=lhs,
        rhs=rhs,
        C=C,
        margin=margin,
        ok=bool(margin >= -1e-9 * scale),
        u_min=float(np.min(finite_u)) if finite_u.size else float("nan"),
        u_max=float(np.max(finite_u)) if finite_u.size else float("nan"),
    )


@dataclass(frozen=True)
class Lemma34Report:
    """Margins for the truncation comparison: the entropy integrand restricted
    to {f^2 >= K mu(f^2)} against the full integral plus C Var (first display),
    and the least B making the full integral <= B Var + 2x the shifted-positive-
    part integral (second display)."""

    rows: tuple
    C_used: float
    B_hat: float
    display1_ok: bool


def lemma_3_4_check(mu: Measure1D, F: EntropyFunction, K: float, family: TestFamily) -> Lemma34Report:
    c_used = _step1_constant(F, K)
    rep = check_assumptions(F)
    if not (rep.a1 and rep.a2 and rep.a3):
        raise ValueError("entropy profile fails the concavity/growth/convexity gates")

    rows = []
    b_hat = 0.0
    all_ok = True
    for m in family.members(mu):
        v, m2 = m.values, m.m2
        sq = v * v
        Fh = _level_entropy(F, v, sq, m2)
        integrand = sq * Fh

        full = _entropy(mu, sq, m2, Fh)
        restricted = _restricted_integral(mu, integrand, sq - K * m2)
        var = _moments(mu, m)[1]
        margin1 = c_used * var + full - restricted
        scale1 = max(1.0, abs(full), c_used * var)
        ok1 = bool(margin1 >= -1e-9 * scale1)
        all_ok = all_ok and ok1

        shifted = np.maximum(v - math.sqrt(K * m2), 0.0)
        plus_term = float(mu.integrate(shifted * shifted * Fh))
        b_member = _least_constant(full - 2.0 * plus_term, var)
        b_hat = max(b_hat, b_member)

        rows.append(
            {
                "name": m.name,
                "full": full,
                "restricted": restricted,
                "variance": var,
                "plus_term": plus_term,
                "margin1": margin1,
                "display1_ok": ok1,
                "B_member": b_member,
            }
        )

    return Lemma34Report(rows=tuple(rows), C_used=c_used, B_hat=b_hat, display1_ok=all_ok)
