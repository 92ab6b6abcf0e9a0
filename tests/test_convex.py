"""Cost functions and discrete Legendre conjugation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocert.convex import (
    ConjugateTable,
    CostFunction,
    check_condition_H,
    conjugate_exponent,
    double_conjugate,
    dual_cost,
    eval_cost,
    legendre_transform,
)

NINE_PAIRS = [(A, a) for A in (0.5, 1.0, 2.0) for a in (1.5, 2.0, 3.0)]


class TestClosedForm:
    def test_quadratic_branch_below_threshold(self):
        c = CostFunction.closed_form(2.0, 3.0)
        x = np.array([0.0, 0.5, 1.0, 2.0])
        assert np.allclose(eval_cost(c, x), 0.5 * x * x, rtol=0, atol=0)

    def test_power_branch_value(self):
        # (1/1.5) 2^{1.5} + (1/2 - 1/1.5), computed by hand
        c = CostFunction.closed_form(1.0, 1.5)
        assert eval_cost(c, 2.0) == pytest.approx(1.7189514164974606, rel=1e-14)

    def test_alpha_two_is_globally_quadratic(self):
        c = CostFunction.closed_form(1.0, 2.0)
        x = np.linspace(0, 50, 101)
        assert np.allclose(eval_cost(c, x), 0.5 * x * x, rtol=1e-14)

    @pytest.mark.parametrize("A,alpha", NINE_PAIRS)
    def test_glue_is_continuous_and_differentiable(self, A, alpha):
        c = CostFunction.closed_form(A, alpha)
        h = 1e-7 * A
        below, above = eval_cost(c, A - h), eval_cost(c, A + h)
        assert above - below == pytest.approx(0.0, abs=1e-6 * (1 + A * A))
        # one-sided slopes meet at the glue point
        slope_below = (eval_cost(c, A) - below) / h
        slope_above = (above - eval_cost(c, A)) / h
        assert slope_below == pytest.approx(A, rel=1e-5)
        assert slope_above == pytest.approx(A, rel=1e-5)

    @pytest.mark.parametrize("A,alpha", NINE_PAIRS)
    def test_convex_increasing_from_zero(self, A, alpha):
        c = CostFunction.closed_form(A, alpha)
        x = np.linspace(0, 10 * A, 2001)
        v = eval_cost(c, x)
        assert v[0] == 0.0
        assert np.all(np.diff(v) >= 0)
        assert np.all(np.diff(v, 2) >= -1e-12 * (1 + v[-1]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CostFunction.closed_form(0.0, 2.0)
        with pytest.raises(ValueError):
            CostFunction.closed_form(1.0, 1.0)

    def test_power_branch_past_the_quadratic_overflow_warns_nothing(self):
        c = CostFunction.closed_form(1.0, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = eval_cost(c, 1e200)
        assert value == pytest.approx(1e300 / 1.5, rel=1e-12)

    def test_negative_argument_rejected(self):
        c = CostFunction.closed_form(1.0, 2.0)
        with pytest.raises(ValueError):
            eval_cost(c, -1.0)


class TestDuality:
    def test_conjugate_exponent_pairs(self):
        assert conjugate_exponent(2.0) == pytest.approx(2.0)
        assert conjugate_exponent(1.5) == pytest.approx(3.0)
        assert conjugate_exponent(3.0) == pytest.approx(1.5)

    def test_dual_cost_swaps_exponent_keeps_threshold(self):
        d = dual_cost(CostFunction.closed_form(2.0, 1.5))
        assert d.is_closed_form and d.label == "c_{2,3}"
        assert d.A == 2.0 and d.alpha == pytest.approx(3.0)

    def test_dual_value_by_hand(self):
        # conjugate of the (1, 1.5) cost at 2 equals the (1, 3) cost: 8/3 + 1/6
        d = dual_cost(CostFunction.closed_form(1.0, 1.5))
        assert eval_cost(d, 2.0) == pytest.approx(17.0 / 6.0, rel=1e-14)

    def test_dual_cost_rejects_sampled(self):
        c = CostFunction.from_samples([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
        with pytest.raises(ValueError):
            dual_cost(c)

    @pytest.mark.parametrize("A,alpha", NINE_PAIRS)
    def test_numeric_conjugate_matches_closed_form(self, A, alpha):
        c = CostFunction.closed_form(A, alpha)
        ys = np.linspace(0.0, 10.0, 500)
        table = legendre_transform(c, ys)
        want = eval_cost(dual_cost(c), ys)
        err = np.abs(table.values - want) / (1.0 + np.abs(want))
        assert float(np.max(err)) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(0.0, 50.0),
        y=st.floats(0.0, 50.0),
        A=st.sampled_from([0.5, 1.0, 2.0]),
        alpha=st.sampled_from([1.5, 2.0, 3.0]),
    )
    def test_product_never_exceeds_cost_plus_conjugate(self, x, y, A, alpha):
        c = CostFunction.closed_form(A, alpha)
        bound = eval_cost(c, x) + eval_cost(dual_cost(c), y)
        assert x * y <= bound + 1e-9 * (1.0 + bound)


class TestConjugateTable:
    def test_requires_increasing_nonnegative_dual_grid(self):
        c = CostFunction.closed_form(1.0, 2.0)
        with pytest.raises(ValueError):
            legendre_transform(c, np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            legendre_transform(c, np.array([0.0, 1.0, 1.0]))

    def test_interpolation_and_range_errors(self):
        c = CostFunction.closed_form(1.0, 2.0)
        table = legendre_transform(c, np.linspace(0.0, 5.0, 201))
        assert isinstance(table, ConjugateTable)
        assert table(2.0) == pytest.approx(2.0, rel=1e-3)  # y^2/2 at 2
        with pytest.raises(ValueError):
            table(6.0)

    def test_conjugate_is_convex_and_zero_at_zero(self):
        c = CostFunction.closed_form(1.0, 1.5)
        ys = np.linspace(0.0, 8.0, 400)
        table = legendre_transform(c, ys)
        assert table.values[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(table.values, 2) >= -1e-8)

    def test_sampled_cost_round_trip(self):
        xs = np.linspace(0.0, 12.0, 600)
        c = CostFunction.from_samples(xs, 0.5 * xs * xs)
        table = legendre_transform(c, np.linspace(0.0, 5.0, 300))
        want = 0.5 * np.linspace(0.0, 5.0, 300) ** 2
        assert np.allclose(table.values, want, atol=2e-3)


class TestDoubleConjugate:
    def test_closed_form_needs_primal_grid(self):
        c = CostFunction.closed_form(1.0, 2.0)
        with pytest.raises(ValueError):
            double_conjugate(c)

    @pytest.mark.parametrize("A,alpha", NINE_PAIRS)
    def test_involution_on_interior_grid(self, A, alpha):
        c = CostFunction.closed_form(A, alpha)
        grid = np.linspace(0.0, 8.0, 2001)
        back, _conj = double_conjugate(c, primal_grid=grid)
        orig = eval_cost(c, grid)
        err = float(np.max(np.abs(back.values - orig)))
        assert err <= 1e-6 * (1.0 + float(np.max(np.abs(orig))))

    def test_sampled_nonconvex_input_rejected(self):
        xs = np.linspace(0.0, 4.0, 50)
        with pytest.raises(ValueError):
            CostFunction.from_samples(xs, np.sin(xs) + xs)


class TestGrowthDiagnostics:
    def test_quadratic_growth_ratios(self):
        rep = check_condition_H(CostFunction.closed_form(1.0, 2.0), [1.0, 2.0, 3.0])
        assert np.allclose(rep.n_primal, [1.0, 4.0, 9.0], rtol=1e-9)
        assert np.allclose(rep.n_dual, [1.0, 4.0, 9.0], rtol=1e-9)
        assert rep.all_finite

    def test_cubic_growth_ratios(self):
        rep = check_condition_H(CostFunction.closed_form(1.0, 3.0), [1.0, 2.0, 3.0])
        assert np.allclose(rep.n_primal, [1.0, 8.0, 27.0], rtol=1e-6)
        # the conjugate's exponent is 1.5 < 2, so its quadratic branch
        # dominates the growth ratio: sup c*(kx)/c*(x) = k^2
        assert np.allclose(rep.n_dual, [1.0, 4.0, 9.0], rtol=1e-6)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            check_condition_H(CostFunction.closed_form(1.0, 2.0), [0.0, 1.0])


class TestSampledCosts:
    def test_extrapolation_flag(self):
        c = CostFunction.from_samples([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
        vals, flag = eval_cost(c, np.array([1.5, 3.0]), return_flag=True)
        assert list(flag) == [False, True]
        # chord extrapolation beyond the grid
        assert vals[1] == pytest.approx(2.0 + 1.5 * 1.0)

    def test_kind_and_label_are_read_from_the_data(self):
        c = CostFunction.from_samples([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
        assert not c.is_closed_form and c.label == "sampled"
        c = CostFunction.closed_form(1.0, 1.5)
        assert c.is_closed_form and c.label == "c_{1,1.5}"

    def test_superlinearity_check(self):
        xs = np.linspace(0.0, 10.0, 100)
        assert CostFunction.from_samples(xs, xs ** 2).superlinearity_ok()
        assert CostFunction.closed_form(1.0, 1.5).superlinearity_ok()
        assert not CostFunction.from_samples(xs, 2.0 * xs).superlinearity_ok()

    def test_validation_messages(self):
        with pytest.raises(ValueError):
            CostFunction.from_samples([0.0], [0.0])
        with pytest.raises(ValueError):
            CostFunction.from_samples([0.0, 1.0], [0.0, -1.0])
