from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from floercas.exactalg import (
    GaussianRational as GR,
    TruncatedSeries as TS,
    rational,
)


def gr(re=0, im=0):
    return GR(re, im)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
scalars = st.builds(GR, rationals, rationals)


class TestGaussianRational:
    def test_norm_identity(self):
        assert gr(1, 1) * gr(1, -1) == gr(2)

    def test_inv_of_i(self):
        assert gr(0, 1).inv() == gr(0, -1)

    def test_add_halves(self):
        assert gr(Fraction(3, 2), Fraction(1, 2)) + gr(Fraction(1, 2), Fraction(-1, 2)) == gr(2)

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gr(0).inv()

    def test_division_and_pow(self):
        assert gr(1) / gr(0, 1) == gr(0, -1)
        assert gr(0, 1) ** 2 == gr(-1)
        assert gr(2) ** -2 == gr(Fraction(1, 4))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            GR(0.5)

    def test_str(self):
        assert str(gr(2)) == "2"
        assert str(gr(0, 1)) == "i"
        assert str(gr(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"

    def test_json_round_trip(self):
        x = gr(Fraction(-7, 3), Fraction(5, 2))
        blob = x.to_json()
        assert blob == {"re": "-7/3", "im": "5/2"}

    @given(scalars, scalars, scalars)
    def test_add_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(scalars, scalars, scalars)
    def test_mul_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(scalars)
    def test_mul_inverse(self, x):
        if x:
            assert x * x.inv() == gr(1)

    @given(scalars, scalars)
    def test_mul_commutative(self, x, y):
        assert x * y == y * x


# about half of the drawn values are real, so the real shortcut of +, * and
# unary - meets both real and non-real operands
parts = st.tuples(rationals, st.one_of(st.just(Fraction(0)), rationals))


def _textbook(op, x, y):
    """op on Fraction pairs (re, im) by the textbook formulas of Q(i)."""
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


def _assert_is(value, re, im):
    fresh = GR(re, im)
    assert (value.re, value.im) == (re, im)
    assert value == fresh and str(value) == str(fresh) and hash(value) == hash(fresh)


class TestScalarOracle:
    @given(parts, parts)
    def test_binary_ops(self, x, y):
        gx, gy = GR(*x), GR(*y)
        for op, value in (("+", gx + gy), ("-", gx - gy), ("*", gx * gy)):
            _assert_is(value, *_textbook(op, x, y))
        if any(y):
            _assert_is(gx / gy, *_textbook("/", x, y))

    @given(parts)
    def test_negation_and_cancellation(self, x):
        gx = GR(*x)
        _assert_is(-gx, -x[0], -x[1])
        _assert_is(gx + (-gx), Fraction(0), Fraction(0))
        conj = (x[0], -x[1])
        # (a+bi)(a-bi): the imaginary part cancels to zero
        _assert_is(gx * GR(*conj), *_textbook("*", x, conj))


class TestTruncatedSeries:
    def test_product_truncates(self):
        one_plus = TS([1, 1], 4)
        one_minus = TS([1, -1], 4)
        assert one_plus * one_minus == TS([1, 0, -1, 0], 4)

    def test_top_power_vanishes(self):
        n = 6
        t = TS.t(n)
        top = t ** (n - 1)
        assert t * top == TS.constant(0, n)

    def test_square(self):
        assert TS([1, 2], 3) ** 2 == TS([1, 4, 4], 3)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            TS([1], 3) + TS([1], 4)
        with pytest.raises(ValueError):
            TS([1], 3) * TS([1], 4)

    def test_exp_zero(self):
        assert TS.constant(0, 5).exp() == TS.constant(1, 5)

    def test_exp_2t(self):
        got = TS.t(4, 2).exp()
        assert got == TS([1, 2, 2, Fraction(4, 3)], 4)

    def test_exp_half_t_squared(self):
        x = TS([0, 0, Fraction(1, 2)], 5)
        assert x.exp() == TS([1, 0, Fraction(1, 2), 0, Fraction(1, 8)], 5)

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            TS.constant(1, 4).exp()

    def test_substitute_t(self):
        s = TS([1, 2, 3], 3)
        rotated = s.substitute_t(GR(0, 1))
        assert rotated == TS([GR(1), GR(0, 2), GR(-3)], 3)

    def test_json_round_trip(self):
        s = TS([GR(1), GR(0, Fraction(1, 2))], 3)
        blob = s.to_json()
        assert blob["order"] == 3
        assert len(blob["coeffs"]) == 3
        assert blob["coeffs"] == [
            {"re": "1", "im": "0"},
            {"re": "0", "im": "1/2"},
            {"re": "0", "im": "0"},
        ]

    @given(st.lists(rationals, min_size=1, max_size=5), st.lists(rationals, min_size=1, max_size=5))
    def test_exp_additivity(self, a, b):
        n = 6
        x = TS([0] + [GR(q) for q in a], n)
        y = TS([0] + [GR(q) for q in b], n)
        assert x.exp() * y.exp() == (x + y).exp()

    def test_str(self):
        assert str(TS([1, -1, 0, Fraction(1, 3)], 4)) == "1-t+1/3*t^3"
        assert str(TS.constant(0, 2)) == "0"


def test_rational_parser():
    assert rational("-3/4") == rational(-3, 4)
    assert rational("17") == 17
    with pytest.raises(TypeError):
        rational(0.25)


def test_values_are_immutable():
    x = GR(1, 2)
    with pytest.raises(AttributeError):
        x.re = 5
    s = TS([1, 2], 3)
    with pytest.raises(AttributeError):
        s.order = 4
