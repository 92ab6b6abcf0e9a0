"""Potential-expression parser: grammar, the kept text, and evaluation domains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocert.expr import ExprDomainError, ExprError, Num, Op, PotentialExpr, Var, parse_potential


class TestParsing:
    @pytest.mark.parametrize("text", [
        "abs(x)",
        "x^2",
        "abs(x)*log(1+x^2)",
        "x + 1",
        "pow(abs(x), 1.5)",
        "exp(-abs(x)^1.5)",
    ])
    def test_accepts_operator_and_call_forms(self, text):
        # regression: expressions ending right after an operand once failed
        # with a spurious "unexpected end of input" one byte past the end
        p = parse_potential(text)
        assert np.isfinite(p(1.0))

    def test_value_oracle(self):
        p = parse_potential("abs(x)*log(1+x^2)")
        assert p(1.0) == pytest.approx(np.log(2.0), rel=1e-15)
        assert p(-1.0) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_vectorized_evaluation(self):
        p = parse_potential("x^2/2")
        xs = np.linspace(-3, 3, 11)
        assert np.allclose(p(xs), xs * xs / 2.0)
        assert isinstance(p(2.0), float)

    @pytest.mark.parametrize("text,x,want", [
        ("0-x^2+2*x-1", 3.0, -4.0),     # sums are left-associative
        ("2^3^2", 0.0, 512.0),          # power is right-associative
        ("-2^2", 0.0, -4.0),            # unary minus binds looser than ^
        ("-x^2", 2.0, -4.0),
        ("2*x^2", 3.0, 18.0),           # ^ binds tighter than *
        ("x^-1", 2.0, 0.5),             # unary minus allowed in exponent
        ("6/3/2", 0.0, 1.0),            # division is left-associative
        ("1+2*3", 0.0, 7.0),
        ("(1+2)*3", 0.0, 9.0),
        ("pow(x, 3)", 2.0, 8.0),
    ])
    def test_precedence_and_associativity(self, text, x, want):
        assert parse_potential(text)(x) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("text", [
        "abs(x)", "x^2", "abs(x)*log(1+x^2)", "-(x+1)/2", "2^3^2",
        "x^-1", "exp(-abs(x)^1.5)", "pow(abs(x), 2) / 4",
    ])
    def test_canonical_print_round_trips(self, text):
        # an expression prints as the text it was given: re-parsing that
        # name gives the same function and the same name
        p = parse_potential(text)
        again = parse_potential(p.text)
        xs = np.linspace(0.3, 2.7, 7)
        assert np.array_equal(p(xs), again(xs))
        assert again.text == p.text
        assert again == p

    def test_keeps_the_text_as_given(self):
        text = "x^2/2 + 0.1*x^4"
        assert parse_potential(text).text == text
        assert parse_potential(text) != parse_potential("x^2/2+0.1*x^4")  # equal values, another name


class TestParseErrors:
    @pytest.mark.parametrize("text,pos,fragment", [
        ("x +", 3, "unexpected end of input"),
        ("foo(x)", 0, "unknown identifier"),
        ("x ^ ^ 2", 4, "unexpected character"),
        ("log(x,2)", 0, "log takes 1 argument"),
        ("", 0, "empty expression"),
        ("1..2", 0, "bad numeric literal"),
        ("(x", 2, "expected ')'"),
        ("x 2", 2, "unexpected trailing input"),
        ("y + 1", 0, "unknown identifier"),
    ])
    def test_reports_byte_position(self, text, pos, fragment):
        with pytest.raises(ExprError) as exc:
            parse_potential(text)
        assert exc.value.pos == pos
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("deepest, deeper, pos", [
        ("(" * 99 + "x" + ")" * 99, "(" * 100 + "x" + ")" * 100, 100),
        ("+".join(["x"] * 101), "+".join(["x"] * 102), 203),
        ("-" * 99 + "x", "-" * 100 + "x", 100),
        ("x" + "^x" * 99, "x" + "^x" * 100, 200),
        ("exp(" * 99 + "x" + ")" * 99, "exp(" * 100 + "x" + ")" * 100, 400),
    ], ids=["parentheses", "sum", "minus", "exponents", "calls"])
    def test_nesting_past_the_limit_is_refused(self, deepest, deeper, pos):
        p = parse_potential(deepest)
        p(0.5)  # evaluates without exhausting the recursion
        assert hash(p) == hash(parse_potential(deepest))
        with pytest.raises(ExprError) as exc:
            parse_potential(deeper)
        assert exc.value.pos == pos
        assert "nested deeper than 100 levels" in str(exc.value)

    def test_parse_error_is_value_error(self):
        # callers may catch the broad class
        with pytest.raises(ValueError):
            parse_potential("x +")


class TestEvaluationDomains:
    @pytest.mark.parametrize("text,x,fragment", [
        ("log(x)", -1.0, "log of a nonpositive value"),
        ("log(x)", 0.0, "log of a nonpositive value"),
        ("sqrt(x)", -4.0, "sqrt of a negative value"),
        ("1/x", 0.0, "division by zero"),
        ("(0-2)^0.5", 1.0, "negative base"),
    ])
    def test_rejects_out_of_domain_points(self, text, x, fragment):
        p = parse_potential(text)
        with pytest.raises(ExprDomainError) as exc:
            p(x)
        assert fragment in str(exc.value)

    def test_negative_base_integer_exponent_is_fine(self):
        assert parse_potential("(0-2)^2")(1.0) == pytest.approx(4.0)
        assert parse_potential("(0-2)^3")(1.0) == pytest.approx(-8.0)

    def test_domain_error_in_vector_call_names_no_survivors(self):
        p = parse_potential("log(x)")
        with pytest.raises(ExprDomainError):
            p(np.array([1.0, 2.0, -3.0]))


def _literal(b):
    """b as expression text; 1e999 parses to inf."""
    text = "1e999" if np.isinf(b) else repr(b).lstrip("-")
    return f"(-{text})" if np.signbit(b) else text


class TestPowerAgainstNumpy:
    """x^b and pow(x, b) against np.power, the reference for pow's values and
    sign rules: at most 1 ulp apart, the same sign and inf/nan class, and an
    ExprDomainError exactly where np.power gives NaN (a negative base with a
    non-integer exponent)."""

    bases = st.one_of(
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
        st.floats(-4.0, 4.0, allow_nan=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    )
    exponents = st.one_of(
        st.integers(-40, 40).map(float),
        st.integers(-40, 40).map(lambda k: k + 0.5),
        st.sampled_from([np.inf, -np.inf, 0.0, -0.0]),
    )

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(bases, min_size=1, max_size=6), b=exponents)
    def test_matches_numpy_power(self, a, b):
        a = np.array(a)
        with np.errstate(all="ignore"):
            # an array exponent makes numpy call pow on every element; a
            # scalar 0.5 would take its sqrt shortcut, which keeps -0.0
            want = np.power(a, np.full_like(a, b))
        domain = np.isnan(want)
        for text in (f"x^{_literal(b)}", f"pow(x, {_literal(b)})"):
            p = parse_potential(text)
            for i in np.flatnonzero(domain):
                with pytest.raises(ExprDomainError, match="negative base"):
                    p(a[i : i + 1])
            with np.errstate(divide="ignore"):
                got = p(a[~domain])
            ref = want[~domain]
            assert got.shape == ref.shape
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            assert not np.any(np.isnan(got))
            finite = np.isfinite(ref)
            assert np.all(np.abs(got[finite] - ref[finite]) <= np.spacing(np.abs(ref[finite])))

    @pytest.mark.parametrize("text,want", [("3", 3.0), ("-2", -2.0), ("(-2)^3", -8.0), ("pow(2, 0.5)", np.sqrt(2.0))])
    def test_constant_expressions_return_arrays(self, text, want):
        xs = np.linspace(-1.0, 1.0, 5)
        got = parse_potential(text)(xs)
        assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == xs.shape
        assert np.all(got == want)
        assert parse_potential(text)(0.5) == want


def _reference_power(a, b):
    """expr._power as written before a float exponent was classified as a scalar (the oracle)."""
    frac = b != np.floor(b)
    if np.any(frac) and np.any((a < 0.0) & frac):
        raise ExprDomainError("negative base with a non-integer exponent")
    with np.errstate(over="ignore"):
        out = np.power(np.abs(a), b)
    with np.errstate(invalid="ignore"):
        odd = np.abs(np.fmod(b, 2.0)) == 1.0
    if np.any(odd):
        out = np.where(odd & np.signbit(a), -out, out)
    return out


class TestLiteralFastPath:
    """A float exponent or divisor takes scalar tests, with the same bits as the array tests."""

    bases = np.array([-np.inf, -1e300, -3.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.5, 1e300, np.inf])

    @pytest.mark.parametrize("b", [2.0, 3.0, 4.0, 0.5, -1.0, 1.5, np.inf, -np.inf, np.nan])
    def test_power_has_the_bits_of_the_array_path(self, b):
        from isocert.expr import _power

        integral = float(b).is_integer() or np.isinf(b)
        a = self.bases if integral else self.bases[~(self.bases < 0.0)]  # -0.0 stays
        with np.errstate(divide="ignore"):
            want = _reference_power(a, b)
            for got in (_power(a, b), _power(a, np.array(b)), PotentialExpr(Op("^", (Var(), Num(b))), "x^b")(a)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("b", [0.5, np.nan])
    def test_negative_base_with_a_non_integer_literal_is_refused(self, b):
        from isocert.expr import _power

        with pytest.raises(ExprDomainError, match="negative base"):
            _power(np.array([1.0, -2.0]), b)
        with pytest.raises(ExprDomainError, match="negative base"):
            PotentialExpr(Op("pow", (Var(), Num(b))), "pow(x, b)")(np.array([1.0, -2.0]))

    def test_division_by_a_zero_literal_is_refused(self):
        with pytest.raises(ExprDomainError, match="division by zero"):
            parse_potential("x/0")(np.array([1.0, 2.0]))
        with pytest.raises(ExprDomainError, match="division by zero"):
            parse_potential("x/(1-1)")(np.array([1.0, 2.0]))
        assert parse_potential("x/(-0.5)")(np.array([1.0, -2.0])).tolist() == [-2.0, 4.0]
