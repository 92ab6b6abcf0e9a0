"""Metamorphic relations: exact symmetries of the problem hold the command
line's numbers to each other without a closed form.

Reflection x -> -x.  A measure e^{-V} and its mirror e^{-V(-x)} have the
same `check` reports, the same `profile` tables (the tilde profile's u and v
trading places as -v and -u), and the same `test` constants, the
`exponential` family taking labels lam on V and -lam on V(-x) (its rows in
reverse label order).  Neither measure below is symmetric, so each gets its
own grid and the numbers agree to rounding only: each tolerance is the
largest relative deviation measured over these cases times a margin.

Translation x -> x + s.  `check` reads the same integral on V(x - 1),
V(x + 1) and V(x), each on its own grid.  Scaling x -> 2x.  The measure
x^2/8 is the Gaussian stretched by 2, and its member e^{lam x/2} is the
Gaussian's e^{lam y} at y = x/2: same entropy, a quarter of the quadratic
energy, so `test` reads 4 times the Gaussian's C_hat.  Its profile is half
the Gaussian's, so the quadratic condition Phi(delta r^2) at delta on x^2/8
is the Gaussian's at 4 delta, on either side of the threshold.  Young's
inequality.  A `conjugate` table c* satisfies c(x) + c*(y) >= xy for every
x, y >= 0, with equality where y is a subgradient of c at x.
"""

import json

import numpy as np
import pytest

from isocert.cli import RunConfig, _build_cost, main
from isocert.convex import eval_cost

# (V, V(-x)) as `expr:` potentials, all convex, so power-beta takes them
MIRRORS = [
    ("x^2/2+abs(x)^3/3+x", "x^2/2+abs(x)^3/3-x"),
    ("x^2/2+0.3*x^3/(1+x^2)", "x^2/2-0.3*x^3/(1+x^2)"),
]
N = ("--n", "4096")
# measured 8.5e-14 relative (the sampled cost on the second pair); a margin of about 12
CHECK_REL = 1e-12
# measured 2.0e-14 relative (I_F), 1.9e-14 (s) and 3.6e-15 (tilde_I); a margin of about 10
PROFILE_REL = 2e-13
# measured 5.0e-16 of the largest |u| (or |v|): u and v are abscissae, which
# cross 0, so they are compared on the scale of the support; a margin of 10
QUANTILE_REL = 5e-15
# measured 5.7e-14 relative (B16_hat on the second pair), 1.7e-14 on the rows; a margin of about 10
TEST_REL = 6e-13
# measured 3.4e-8 relative (the shifted grids against the centred one, at the default --n); a margin of about 3
TRANSLATION_REL = 1e-7
# measured -5.6e-17 relative to max(1, xy) (the sampled cost); a margin of about 18
YOUNG_REL = 1e-15
# measured 8.0e-15 relative (log10_integral_estimate) and 6.6e-15 (tail_p); a margin of about 12
DELTA_SCALING_REL = 1e-13
# measured 3.5e-16 of max(1, xy) (c:1:1.5) and 1.1e-16 on the sampled costs; a margin of about 11
YOUNG_EQUALITY_REL = 4e-15


def _run(tmp_path, argv, n=N):
    out = tmp_path / "out.json"
    assert main(list(argv) + list(n) + ["--out", str(out)]) == 0
    return out.read_text()


def _assert_close(a, b, rel, path=""):
    """a and b have one shape; strings, bools and None are equal and numbers
    are within rel of each other, relative to the larger magnitude."""
    if isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _assert_close(a[key], b[key], rel, f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, rel, f"{path}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        assert abs(a - b) <= rel * max(abs(a), abs(b)), (path, a, b)
    else:
        assert a == b, (path, a, b)


def _table(text):
    lines = text.splitlines()
    return lines[0], np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])


def _close_arrays(a, b, rel, scale=None):
    """a == b or |a - b| <= rel * scale elementwise, scale the larger of |a|
    and |b| by default."""
    scale = np.maximum(np.abs(a), np.abs(b)) if scale is None else scale
    return bool(np.all((a == b) | (np.abs(a - b) <= rel * scale)))


@pytest.mark.parametrize("V, W", MIRRORS)
@pytest.mark.parametrize("condition", [
    ("--entropy", "ftau:0.5", "--cost", "c:1:3", "--delta", "0.5"),
    ("--entropy", "log", "--cost", "quadratic:0.5"),
    ("--entropy", "log", "--cost", "expr:x^2/2+x^4/4", "--K", "4"),
], ids=["closed", "quadratic", "sampled"])
def test_check_is_reflection_invariant(tmp_path, V, W, condition):
    a, b = (json.loads(_run(tmp_path, ("check", "--measure", f"expr:{U}") + condition)) for U in (V, W))
    assert (a.pop("measure"), b.pop("measure")) == (f"expr:{V}", f"expr:{W}")
    _assert_close(a, b, CHECK_REL)


@pytest.mark.parametrize("V, W", MIRRORS)
def test_profiles_are_reflection_invariant(tmp_path, V, W):
    head, a = _table(_run(tmp_path, ("profile", "--profile-kind", "tilde", "--measure", f"expr:{V}")))
    _, b = _table(_run(tmp_path, ("profile", "--profile-kind", "tilde", "--measure", f"expr:{W}")))
    assert head == "t,u,v,tilde_I"
    assert np.array_equal(a[:, 0], b[:, 0])
    for u, mirrored in ((a[:, 1], -b[:, 2]), (a[:, 2], -b[:, 1])):
        assert _close_arrays(u, mirrored, QUANTILE_REL, scale=np.max(np.abs(u)))
    assert _close_arrays(a[:, 3], b[:, 3], PROFILE_REL)
    head, a = _table(_run(tmp_path, ("profile", "--profile-kind", "if", "--entropy", "log", "--measure", f"expr:{V}")))
    _, b = _table(_run(tmp_path, ("profile", "--profile-kind", "if", "--entropy", "log", "--measure", f"expr:{W}")))
    assert head == "r,s,I_F"
    assert np.array_equal(a[:, 0], b[:, 0]) and np.array_equal(np.isinf(a), np.isinf(b))
    assert _close_arrays(a[:, 1:], b[:, 1:], PROFILE_REL)


def _mirrored(report):
    """A `test` report of V(-x) with labels -lam, written as that of V with labels lam."""
    rows, steps = report["rows"], report["details"].get("step1", [])
    for items in (rows, steps):
        items.reverse()
        for item in items:
            item["name"] = item["name"].replace("(-", "(")
    for row in rows:
        row["parameter"] = -row["parameter"]
    return report


@pytest.mark.parametrize("V, W", MIRRORS)
@pytest.mark.parametrize("display", [
    ("--display", "restricted"),
    ("--display", "restricted", "--entropy", "ftau:0.75", "--cost", "c:1:3", "--K", "3"),
    ("--display", "power-beta", "--alpha", "1.5"),
], ids=["restricted", "restricted-ftau", "power-beta"])
def test_exponential_family_mirrors_with_its_labels(tmp_path, V, W, display):
    # the labels lam and -lam are distinct kept members of their measures, so
    # the relation is checked on the cold requests and again on the warm ones
    argvs = [
        ("test", "--family", "exponential", "--measure", f"expr:{V}", "--params", "0.25,0.5,1") + display,
        ("test", "--family", "exponential", "--measure", f"expr:{W}", "--params=-1,-0.5,-0.25") + display,
    ]
    cold = [_run(tmp_path, argv) for argv in argvs]
    warm = [_run(tmp_path, argv) for argv in argvs]
    assert warm == cold
    a, b = json.loads(cold[0]), _mirrored(json.loads(cold[1]))
    assert [row["name"] for row in b["rows"]] == ["exponential(0.25)", "exponential(0.5)", "exponential(1)"]
    _assert_close(a, b, TEST_REL)


def test_check_is_translation_invariant(tmp_path):
    condition = ("--entropy", "ftau:0.5", "--cost", "c:1:3", "--delta", "0.5")
    left, right, centred = (
        json.loads(_run(tmp_path, ("check", "--measure", f"expr:{V}") + condition, n=()))["log10_integral_estimate"]
        for V in ("(x-1)^2/2", "(x+1)^2/2", "x^2/2")
    )
    # the two shifts mirror each other, so they agree exactly; the centred grid differs by quadrature only
    assert left == right
    assert abs(left - centred) <= TRANSLATION_REL * abs(centred)


def test_stretching_the_gaussian_scales_C_hat_by_4(tmp_path):
    # the grid of x^2/8 is exactly twice the Gaussian's and the members stay
    # in the quadratic cost's range, so the relation holds to the last bit
    family = ("test", "--family", "exponential")
    stretched = json.loads(_run(tmp_path, family + ("--measure", "expr:x^2/8", "--params", "0.5,1")))
    gauss = json.loads(_run(tmp_path, family + ("--measure", "gauss", "--params", "1,2")))
    assert stretched["C_hat"] == 4.0 * gauss["C_hat"]


@pytest.mark.parametrize("entropy", ["log", "ftau:0.5", "ftau:0.75"])
def test_check_scales_delta_by_sigma_squared(tmp_path, entropy):
    # below the threshold (FINITE) and past it: log turns DIVERGENT_LIKELY at 0.5, ftau:0.75 at 1
    for delta in (0.05, 0.1, 0.25, 0.4, 0.45, 0.5, 0.75, 1.0):
        reports = []
        for measure, d in (("expr:x^2/8", delta), ("gauss", 4.0 * delta)):
            argv = ("check", "--measure", measure, "--entropy", entropy, "--delta", repr(d))
            code = main(list(argv) + ["--out", str(tmp_path / "out.json")])
            reports.append((code, json.loads((tmp_path / "out.json").read_text())))
        (code, a), (want, b) = reports
        assert code == want and a["verdict"] == b["verdict"], delta
        for key in ("log10_integral_estimate", "tail_p"):
            assert abs(a[key] - b[key]) <= DELTA_SCALING_REL * max(abs(a[key]), abs(b[key])), (delta, key)


@pytest.mark.parametrize("cost", ["quadratic", "c:1:3", "c:2:4", "c:1:1.5", "expr:x^2/2+x^3/3", "expr:x^2/2+x^4/4"])
def test_youngs_equality_holds_at_a_subgradient(tmp_path, cost):
    head, table = _table(_run(tmp_path, ("conjugate", "--cost", cost, "--grid", "0:10:2000"), n=()))
    y, c_star = table[:, 0], table[:, 1]
    c = _build_cost(RunConfig(cost=cost))[0]
    if c.is_closed_form:
        # c' is x up to A and A^{2-a} x^{a-1} past it
        A, a = c.A, c.alpha
        x = np.where(y <= A, y, (y * A ** (a - 2.0)) ** (1.0 / (a - 1.0)))
    else:
        # the sample whose chord slopes (left, right) bracket y
        j = np.searchsorted(c.slopes, y, side="left")
        assert np.all(j < c.slopes.size) and np.all((j == 0) | (c.slopes[j - 1] <= y)) and np.all(y <= c.slopes[j])
        x = c.grid[j]
    gap = np.asarray(eval_cost(c, x), dtype=float) + c_star - x * y
    assert np.all(np.abs(gap) <= YOUNG_EQUALITY_REL * np.maximum(1.0, x * y))


@pytest.mark.parametrize("cost", ["quadratic", "c:1:3", "c:2:4", "expr:x^2/2+x^3/3"])
def test_conjugate_tables_satisfy_youngs_inequality(tmp_path, cost):
    head, table = _table(_run(tmp_path, ("conjugate", "--cost", cost), n=()))
    assert head == "x,c_star"
    y, c_star = table[:, 0], table[:, 1]
    # the table's own abscissae, the sampled cost's knots and a log-spaced range
    x = np.concatenate((y, np.linspace(0.0, 100.0, 4097), np.geomspace(1e-3, 100.0, 3001)))
    c = np.asarray(eval_cost(_build_cost(RunConfig(cost=cost))[0], x), dtype=float)
    for rows in np.array_split(np.arange(x.size), 16):  # about 9 MB of pairs at a time
        xy = np.outer(x[rows], y)
        assert np.all(c[rows, None] + c_star[None, :] - xy >= -YOUNG_REL * np.maximum(1.0, xy))
