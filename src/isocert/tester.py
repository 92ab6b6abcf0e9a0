"""Empirical verification of entropy--energy inequalities on 1-D measures.

Every functional here is a quadrature against a discretized measure: the
entropy side integrates f^2 F(f^2 / mu(f^2)), the energy side integrates
f^2 c*(|f'|/f) or plain gradient powers, and set-restricted integrals mark
grid cells with proportional boundary contributions.  Best-constant
estimates are suprema over *finite* test-function families, so they are
reported as lower bounds for the true constants, never as certificates.

The three `verify_theorem_*` routines share one ratio engine.  Each supplies a
per-member `terms` function returning its entropy side, variance term, energy
term and ratio denominator; `_ratio_table` adds the theorem-independent
columns (classical entropy, gradient energy, median energy, saturation) and
the member's parameter, and `_enrichment` reruns `terms` alone on the enriched
family for the stability check.  A member's ratio is entropy/denominator when
the denominator is positive, +inf when a positive entropy meets a vanishing
denominator, and NaN (no evidence) otherwise; C_hat is the largest non-NaN
ratio, or 0 when there is none, so every reported ratio is at most C_hat.
A member with f or f' outside L^2(mu), or a non-finite energy term, is
refused by name with a ValueError instead of giving an inf row.

Family members are evaluated independently and reduced in parameter order,
so reports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple, Union

import numpy as np

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


def _exponential(fam, mu, lam):
    x = mu.grid
    vals = np.exp(0.5 * lam * x)
    return vals, 0.5 * lam * vals, np.full_like(x, 0.5 * lam)


def _bump(fam, mu, w):
    if w <= 0:
        raise ValueError("bump width must be positive")
    x = mu.grid
    core = np.exp(-0.5 * (x / w) ** 2)
    return fam.floor + core, -(x / w**2) * core, None


def _shifted_linear(fam, mu, eps):
    lin = 1.0 + eps * mu.grid
    return np.maximum(lin, 0.0) + fam.floor, np.where(lin > 0.0, eps, 0.0), None


def _random_smooth(fam, mu, label):
    x = mu.grid
    omega = np.pi / max(abs(mu.truncation[0]), abs(mu.truncation[1]))
    j = np.arange(1, _RANDOM_TERMS + 1, dtype=float)
    wts = 1.0 / j**2
    rng = np.random.default_rng([fam.seed, label])
    a = rng.standard_normal(_RANDOM_TERMS)
    b = rng.standard_normal(_RANDOM_TERMS)
    phase = np.outer(x, j * omega)
    g = np.cos(phase) @ (wts * a) + np.sin(phase) @ (wts * b)
    gp = -np.sin(phase) @ (wts * a * j * omega) + np.cos(phase) @ (wts * b * j * omega)
    vals = np.exp(fam.scale * g)
    log_deriv = fam.scale * gp
    return vals, log_deriv * vals, log_deriv


def _stretched_exp(fam, mu, lam):
    x = mu.grid
    p = fam.exponent
    a2 = fam.smoothing**2
    log_deriv = lam * (p * x * (x * x + a2) ** (0.5 * p - 1.0))
    vals = np.exp(lam * (x * x + a2) ** (0.5 * p))
    return vals, log_deriv * vals, log_deriv


# kind -> member(family, measure, parameter) = (values, dvalues, log_deriv or None)
_MEMBERS = {
    "exponential": _exponential,
    "bump": _bump,
    "shifted_linear": _shifted_linear,
    "random_smooth": _random_smooth,
    "stretched_exp": _stretched_exp,
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

    def _ordered_params(self):
        if self.kind == "user":
            return tuple(self.params) if self.params else tuple(range(len(self.user_fns)))
        if self.kind == "random_smooth":
            return tuple(int(p) for p in self.params)
        return tuple(sorted(float(p) for p in self.params))

    def members(self, mu: Measure1D):
        """Materialize the family on the measure grid, ordered by parameter.
        A member is named kind(p), with p in %g form when it is a float
        parameter and as given otherwise."""
        out = []
        for i, p in enumerate(self._ordered_params()):
            name = f"{self.kind}({p:g})" if isinstance(p, float) and self.kind != "user" else f"{self.kind}({p})"
            if self.kind == "user":
                fn = self.user_fns[i]
                f, df = fn if isinstance(fn, tuple) else (fn, None)
                sf = SampledFunction.from_callable(mu, f, dfn=df, name=name)
            else:
                # overflow here is caught by the finiteness gate below
                with np.errstate(over="ignore"):
                    vals, dvals, log_deriv = _MEMBERS[self.kind](self, mu, p)
                sf = SampledFunction(grid=mu.grid, values=vals, dvalues=dvals, log_deriv=log_deriv, name=name)
            if not np.all(np.isfinite(sf.values)):
                raise ValueError(f"family member {sf.name} overflows on the measure grid")
            out.append(sf)
        return out

    def enriched(self):
        """A denser version of the family: midpoints between consecutive
        parameters for numeric kinds, doubled member count for random_smooth.
        User families cannot be enriched and are returned unchanged."""
        if self.kind == "user":
            return self
        if self.kind == "random_smooth":
            return replace(self, params=tuple(range(2 * len(self.params))))
        ps = sorted(float(p) for p in self.params)
        mids = [0.5 * (a + b) for a, b in zip(ps[:-1], ps[1:])]
        return replace(self, params=tuple(sorted(ps + mids)))


def _as_sampled(mu: Measure1D, f) -> SampledFunction:
    if isinstance(f, SampledFunction):
        if f.grid.shape != mu.grid.shape or not np.array_equal(f.grid, mu.grid):
            raise ValueError("sampled function lives on a different grid than the measure")
        return f
    if callable(f):
        return SampledFunction.from_callable(mu, f)
    vals = np.asarray(f, dtype=float)
    if vals.shape != mu.grid.shape:
        raise ValueError("value array does not match the measure grid")
    return SampledFunction(grid=mu.grid, values=vals, dvalues=np.gradient(vals, mu.grid))


# -- scalar functionals ----------------------------------------------------------


def entropy_functional(mu: Measure1D, f, F: EntropyFunction) -> float:
    """Quadrature of f^2 F(f^2 / mu(f^2)); with F = log this is the classical
    entropy of f^2.  Requires f >= 0 and a nonvanishing second moment."""
    sf = _as_sampled(mu, f)
    v = sf.values
    if np.any(v < 0):
        raise ValueError("entropy_functional requires f >= 0 on the grid")
    m2 = mu.integrate(v * v)
    if not m2 > 0:
        raise ValueError("integral of f^2 vanishes; entropy undefined")
    h = v * v / m2
    out = np.zeros_like(v)
    mask = h > 0
    out[mask] = v[mask] ** 2 * np.asarray(F(h[mask]), dtype=float)
    return float(mu.integrate(out))


def cost_energy(mu: Measure1D, f, cost: Union[CostFunction, float]) -> float:
    """Energy of the gradient alone: int c(|f'|) dmu for a CostFunction, or
    int |f'|^p dmu when cost is a plain exponent p > 0."""
    sf = _as_sampled(mu, f)
    g = np.abs(sf.dvalues)
    if isinstance(cost, CostFunction):
        vals = eval_cost(cost, g)
    else:
        p = float(cost)
        if p <= 0:
            raise ValueError("gradient exponent must be positive")
        vals = g**p
    return float(mu.integrate(np.asarray(vals, dtype=float)))


def _dual_evaluator(cost: CostFunction, r_max: float):
    """Return a callable evaluating c* on [0, r_max]."""
    if cost.is_closed_form:
        dual = dual_cost(cost)
        return lambda r: np.asarray(eval_cost(dual, r), dtype=float)
    hi = max(r_max, 1.0) * 1.0000001
    dual_grid = np.concatenate(([0.0], np.geomspace(max(hi * 1e-12, 1e-300), hi, 2048)))
    table = legendre_transform(cost, dual_grid)
    return lambda r: np.asarray(table(np.minimum(r, hi)), dtype=float)


def _modified_integrand(mu: Measure1D, sf: SampledFunction, cost: CostFunction) -> np.ndarray:
    """Pointwise f^2 c*(|f'|/f); requires f > 0."""
    v = sf.values
    if np.any(v <= 0):
        raise ValueError("modified energy requires f > 0; add a family floor")
    if sf.log_deriv is not None:
        ratio = np.abs(sf.log_deriv)
    else:
        ratio = np.abs(sf.dvalues) / v
    cstar = _dual_evaluator(cost, float(np.max(ratio)))(ratio)
    return v * v * cstar


def modified_energy(mu: Measure1D, f, cost: CostFunction) -> float:
    """Quadrature of f^2 c*(|f'|/f) with c* the Legendre conjugate of cost
    (closed form when the cost is closed form).  The ratio uses the logarithmic
    derivative table when the member carries one."""
    sf = _as_sampled(mu, f)
    return float(mu.integrate(_modified_integrand(mu, sf, cost)))


def _centered_integrand(sf: SampledFunction, cost: CostFunction, center: float) -> np.ndarray:
    """(f-c)^2 c*(|f'|/|f-c|) with exact limits at nodes where f = c:
    0 when f' = 0 there; otherwise |f'|^2/2 for a quadratic dual, 0 for dual
    exponent < 2, +inf for dual exponent > 2 (and +inf for sampled costs,
    whose tabulated dual cannot resolve the limit)."""
    u = sf.values - center
    au = np.abs(u)
    dv = np.abs(sf.dvalues)
    zero = au == 0.0
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
    m1 = mu.integrate(v)
    return float(mu.integrate((v - m1) ** 2))


def median_of(mu: Measure1D, f) -> float:
    """inf{t : mu(f > t) <= 1/2}, read from the sorted value table."""
    v = _as_sampled(mu, f).values
    u, inv = np.unique(v, return_inverse=True)
    w = np.zeros(u.size)
    np.add.at(w, inv, mu.node_mass)
    suffix = np.concatenate((np.cumsum(w[::-1])[::-1][1:], [0.0]))
    return float(u[int(np.argmax(suffix <= 0.5))])


def median_energy(mu: Measure1D, f) -> float:
    """int (f - m_f)^2 dmu with m_f the median of f under mu."""
    v = _as_sampled(mu, f).values
    return float(mu.integrate((v - median_of(mu, f)) ** 2))


def _restricted_integral(mu: Measure1D, integrand: np.ndarray, marker: np.ndarray) -> float:
    """int_{marker >= 0} integrand dmu on trapezoid cells; cells crossed by the
    marker's zero contribute proportionally, the crossing located by linear
    interpolation.  Exactly complementary: the result for marker and -marker
    sums to the full-cell integral."""
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
    # cell fully outside
    outside = (m0 < 0.0) & (m1 < 0.0)
    b = np.where(outside, 0.0, b)
    # marker decreasing through zero: keep [0, theta]
    dec = (m0 >= 0.0) & (m1 < 0.0)
    b = np.where(dec, theta, b)
    # marker increasing through zero: keep [theta, 1]
    inc = (m0 < 0.0) & (m1 >= 0.0)
    a = np.where(inc, theta, a)

    width = b - a
    contrib = dx * (width * p0 + 0.5 * (b * b - a * a) * (p1 - p0))
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
    follow the field order."""

    family: str
    C_hat: float
    B_hat: Optional[float]
    rows: Tuple[TestRow, ...]
    details: dict = field(default_factory=dict)

    def to_csv_text(self):
        def cell(v):
            if isinstance(v, str):
                return v
            if isinstance(v, bool):
                return "true" if v else "false"
            return "%.17g" % v

        names = [f.name for f in fields(TestRow)]
        lines = [",".join(names)]
        lines += [",".join(cell(getattr(r, n)) for n in names) for r in self.rows]
        return "\n".join(lines) + "\n"


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


def _checked(mu: Measure1D, terms):
    """terms behind a membership gate: a member with f or f' outside L^2(mu)
    on the grid is refused by name before its functionals overflow, and so is
    one whose energy term comes out non-finite."""

    def checked(sf):
        with np.errstate(over="ignore", invalid="ignore"):
            l2 = mu.integrate(sf.values**2) + mu.integrate(sf.dvalues**2)
        if not np.isfinite(l2):
            raise ValueError(f"member {sf.name} is not in L^2(mu): f^2 + f'^2 integrates to {l2}")
        out = terms(sf)
        if not np.isfinite(out[2]):
            raise ValueError(f"member {sf.name} has a non-finite energy term ({out[2]})")
        return out

    return checked


def _ratio_table(mu: Measure1D, family: TestFamily, terms):
    """Rows and C_hat for one family.  terms(sf) returns the member's
    (entropy side, variance term, energy term, ratio denominator); the
    theorem-independent columns are computed here."""
    members = family.members(mu)
    if not members:
        raise ValueError("family is empty")
    terms = _checked(mu, terms)
    F_log = log_entropy()
    rows = []
    for sf, label in zip(members, family._ordered_params()):
        lhs, var, energy, den = terms(sf)
        classical = entropy_functional(mu, sf, F_log)
        grad = cost_energy(mu, sf, 2.0)
        rows.append(
            TestRow(
                name=sf.name,
                parameter=_parameter(label),
                entropy_F=lhs,
                classical_entropy=classical,
                variance=var,
                grad_energy=grad,
                modified_energy=energy,
                median_energy=median_energy(mu, sf),
                ratio=_ratio(lhs, den),
                saturation=bool(grad > 0 and abs(classical / (2.0 * grad) - 1.0) <= _SATURATION_TOL),
            )
        )
    return tuple(rows), _sup_ratio(r.ratio for r in rows)


def _enrichment(mu: Measure1D, family: TestFamily, terms, c_hat: float) -> dict:
    """C_hat over the enriched family (terms only, no rows) and whether it
    stays within 10% of c_hat."""
    c_enr = _sup_ratio(_ratio(lhs, den) for lhs, _, _, den in map(_checked(mu, terms), family.enriched().members(mu)))
    stable = bool(np.isfinite(c_hat) and np.isfinite(c_enr) and c_hat > 0 and abs(c_enr / c_hat - 1.0) <= 0.10)
    return {"C_hat_enriched": c_enr, "stable": stable}


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


def _level_entropy(F: EntropyFunction, v: np.ndarray, m2: float) -> np.ndarray:
    """F(f^2 / mu(f^2)) where f > 0, and 0 elsewhere."""
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = np.asarray(F(v[pos] ** 2 / m2), dtype=float)
    return out


# -- theorem-level verification ---------------------------------------------------


def verify_theorem_2_1(mu: Measure1D, F: EntropyFunction, cost: CostFunction, K: float, family: TestFamily) -> TestReport:
    """Empirically test the two-sided entropy bound: for each family member,
    compare f^2-entropy against (a) 4x the modified energy restricted to
    {f^2 >= K mu(f^2)} plus B mu(f^2), and (b) 4x the centered modified energy
    plus B Var f.  Reports the least B making (a) hold (B_hat), the analogous
    constant for (b), the full-energy ratio supremum (C_hat), and the explicit
    truncated-layer bound margins.

    Callers are expected to have certified the (measure, entropy, cost)
    triple finite beforehand; this routine checks only K > 1 and a nonempty
    family."""
    c_step = _step1_constant(F, K)
    b15 = [0.0]
    b16 = [0.0]
    step_rows = []

    def terms(sf):
        v = sf.values
        m2 = mu.integrate(v * v)
        lhs = entropy_functional(mu, sf, F)
        var = variance(mu, sf)
        integrand = _modified_integrand(mu, sf, cost)
        full_energy = float(mu.integrate(integrand))
        restricted = _restricted_integral(mu, integrand, v * v - K * m2)
        b15.append(_least_constant(lhs - 4.0 * restricted, m2))
        e16 = float(mu.integrate(_centered_integrand(sf, cost, mu.integrate(v))))
        b16.append(_least_constant(lhs - 4.0 * e16, var))

        # truncated layer integral and its explicit variance bound
        i1 = float(mu.integrate(_level_entropy(F, v, m2) * np.minimum(v * v, K * m2)))
        bound = c_step * var
        step_rows.append(
            {
                "name": sf.name,
                "I1": i1,
                "bound": bound,
                "margin": bound - i1,
                "ok": bool(i1 <= bound + 1e-9 * max(1.0, abs(bound))),
            }
        )
        return lhs, var, full_energy, full_energy

    rows, c_hat = _ratio_table(mu, family, terms)
    return TestReport(
        family=family.kind,
        C_hat=c_hat,
        B_hat=max(b15),
        rows=rows,
        details={
            "K": K,
            "B16_hat": max(b16),
            "C16_used": 4.0,
            "step1_constant": c_step,
            "step1": step_rows,
        },
    )


def verify_theorem_1_1(mu: Measure1D, alpha: float, tau: float, A: float, family: TestFamily) -> TestReport:
    """Entropy--energy ratio for the |x|^alpha measure mu: tests
    F_tau-entropy <= C * int f^2 c_{A,q}(|f'|/f) dmu with q = alpha*tau/(alpha-1),
    reporting the ratio supremum and its stability under family enrichment.
    The energy is evaluated through the conjugate of c_{A, q/(q-1)}, which
    recovers c_{A,q} exactly."""
    if not 1.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (1, 2]")
    lo_tau = 2.0 * (1.0 - 1.0 / alpha)
    if not (lo_tau - 1e-12 <= tau <= 1.0 + 1e-12):
        raise ValueError(f"tau must lie in [{lo_tau:g}, 1]")
    if A <= 0:
        raise ValueError("A must be positive")
    F = F_tau(min(tau, 1.0))
    q = alpha * tau / (alpha - 1.0)
    # pre-dualized so the energy integrand applies c_{A,q} itself
    cost = dual_cost(CostFunction.closed_form(A, q))

    def terms(sf):
        energy = modified_energy(mu, sf, cost)
        return entropy_functional(mu, sf, F), variance(mu, sf), energy, energy

    rows, c_hat = _ratio_table(mu, family, terms)
    return TestReport(
        family=family.kind,
        C_hat=c_hat,
        B_hat=None,
        rows=rows,
        details={"alpha": alpha, "tau": tau, "A": A, "q": q, **_enrichment(mu, family, terms, c_hat)},
    )


_ENT_ROUNDING = 1e-10  # relative floor below which verify_theorem_4_4 reads Ent as 0


def verify_theorem_4_4(mu: Measure1D, alpha: float, family: TestFamily) -> TestReport:
    """Power-entropy display on a log-concave measure: with beta = alpha/(alpha-1),
    tests Ent |f|^beta <= C [ int |f'|^beta dmu + Var |f|^{beta/2} ] and reports
    the least such C over the family plus its stability under enrichment.
    Requires a log-concave measure and a numerically verified
    int e^{eps |x|^alpha} dmu < infinity for a sampled eps.

    An |Ent| at or below _ENT_ROUNDING = 1e-10 of int |f|^beta dmu counts as
    0: it is the rounding of the quadrature (for a constant f it equals the
    error of the summed node masses, at most n * eps), so a constant member
    gets a NaN ratio rather than an infinite constant."""
    if not mu.log_concave:
        raise ValueError("refused: measure is not log-concave")
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    beta = alpha / (alpha - 1.0)

    eps_used = None
    for eps in (0.05, 0.1, 0.2):
        with np.errstate(over="ignore"):
            contrib = mu.node_mass * np.exp(eps * np.abs(mu.grid) ** alpha)
        total = float(np.sum(contrib))
        edge = float(np.sum(contrib[:4]) + np.sum(contrib[-4:]))
        if np.isfinite(total) and edge <= 1e-8 * total:
            eps_used = eps
            break
    if eps_used is None:
        raise ValueError("could not verify int e^{eps|x|^alpha} dmu finite on the grid")

    def terms(sf):
        v = np.abs(sf.values)
        g = v**beta
        mg = mu.integrate(g)
        if mg > 0:
            ent_terms = np.zeros_like(g)
            pos = g > 0
            ent_terms[pos] = g[pos] * np.log(g[pos] / mg)
            lhs = float(mu.integrate(ent_terms))
            if abs(lhs) <= _ENT_ROUNDING * mg:
                lhs = 0.0
        else:
            lhs = 0.0
        rhs_grad = float(mu.integrate(np.abs(sf.dvalues) ** beta))
        half = v ** (0.5 * beta)
        rhs_var = float(mu.integrate((half - mu.integrate(half)) ** 2))
        return lhs, rhs_var, rhs_grad, rhs_grad + rhs_var

    rows, c_hat = _ratio_table(mu, family, terms)
    return TestReport(
        family=family.kind,
        C_hat=c_hat,
        B_hat=None,
        rows=rows,
        details={"alpha": alpha, "beta": beta, "eps_used": eps_used, **_enrichment(mu, family, terms, c_hat)},
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
    sg = _as_sampled(mu, g)
    vf = sf.values
    vg = sg.values
    if np.any(vf < 0) or np.any(vg < 0):
        raise ValueError("lemma_3_3_check requires nonnegative f and g")
    m2f = mu.integrate(vf * vf)
    m2g = mu.integrate(vg * vg)
    if not (m2f > 0 and m2g > 0):
        raise ValueError("f and g need nonvanishing second moments")

    h = vg * vg / m2g
    pos = h > 0
    Fh = np.full_like(h, -np.inf)
    Fh[pos] = np.asarray(F(h[pos]), dtype=float)

    lhs_terms = np.where(vf == 0.0, 0.0, vf * vf * Fh)
    lhs = float(np.sum(lhs_terms * mu.node_mass))

    u = np.full_like(h, -np.inf)
    u[pos] = Fh[pos] + h[pos] * np.asarray(F.derivative(h[pos]), dtype=float) - 1.0
    phi_vals = np.zeros_like(h)
    if np.any(pos):
        with np.errstate(over="ignore"):
            phi_vals[pos] = np.exp(log_Phi(F, 0.5 * u[pos]))
    C = 2.0 * float(mu.integrate(phi_vals)) - 1.0
    rhs = 2.0 * entropy_functional(mu, sf, F) + C * m2f
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
    for sf in family.members(mu):
        v = sf.values
        m2 = mu.integrate(v * v)
        Fh = _level_entropy(F, v, m2)
        integrand = np.where(v > 0, v * v * Fh, 0.0)

        full = float(mu.integrate(integrand))
        restricted = _restricted_integral(mu, integrand, v * v - K * m2)
        var = variance(mu, sf)
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
                "name": sf.name,
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
