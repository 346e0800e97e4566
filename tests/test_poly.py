import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from floercas.exactalg import GaussianRational as GR, TruncatedSeries as TS
from floercas.poly import (
    ALPHA,
    BETA,
    GAMMA,
    SparsePoly,
    divides,
    exponents,
    monomial,
)


def poly_from(terms):
    return SparsePoly(terms)


#: exponent triples, the oracle the packed monomials are checked against
triples = st.tuples(*[st.integers(0, 2**15 - 1) | st.integers(0, 3)] * 3)
monomials = st.builds(
    monomial,
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.dictionaries(monomials, coeffs, max_size=4).map(SparsePoly)

SYMBOLS = sympy.symbols("a b c")


def to_sympy(p):
    """p as a sympy polynomial over Q, built term by term."""
    terms = {exponents(m): sympy.Rational(str(c)) for m, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *SYMBOLS, domain=sympy.QQ)


def assert_canonical(p):
    """p is in its one form: a positive den coprime to the numerators, no
    zero numerator, and the monomials ascending."""
    assert p.den > 0
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert all(p.nums.values())
    assert list(p.nums) == sorted(p.nums)


def grlex(e: tuple) -> tuple:
    """Sort key of grlex on an exponent triple: total degree, then lex."""
    return (sum(e), *e)


class TestMonomialOrder:
    def test_grlex_degree_first(self):
        assert monomial(2, 0, 0) > monomial(0, 1, 0)
        assert monomial(1, 0, 0) > monomial(0, 1, 0) > monomial(0, 0, 1) > monomial()

    @given(triples, triples)
    def test_reflexive(self, e1, e2):
        # distinct exponent triples pack to distinct ints
        assert (monomial(*e1) == monomial(*e2)) == (e1 == e2)

    @given(triples)
    def test_round_trip(self, e):
        assert exponents(monomial(*e)) == e

    @given(triples, triples)
    def test_order_is_grlex(self, e1, e2):
        assert (monomial(*e1) < monomial(*e2)) == (grlex(e1) < grlex(e2))

    @given(triples, triples)
    def test_product_is_exponent_sum(self, e1, e2):
        assert exponents(monomial(*e1) + monomial(*e2)) == tuple(map(sum, zip(e1, e2)))

    @given(triples, triples, triples)
    def test_multiplicative(self, e1, e2, e3):
        # the order of two products with a common factor is grlex of the sums
        p1, p2 = monomial(*e1) + monomial(*e3), monomial(*e2) + monomial(*e3)
        k1, k2 = (grlex(tuple(map(sum, zip(e, e3)))) for e in (e1, e2))
        assert (p1 < p2, p1 == p2) == (k1 < k2, k1 == k2)

    @given(triples, triples)
    def test_divides_is_componentwise(self, e1, e2):
        want = all(a <= b for a, b in zip(e1, e2))
        assert divides(monomial(*e1), monomial(*e2)) == want

    @given(polys)
    def test_stored_order(self, p):
        # terms are kept ascending, so the descending list needs no sort
        want = sorted(p.terms.items(), key=lambda mc: grlex(exponents(mc[0])), reverse=True)
        assert p.sorted_terms() == want
        if p:
            assert p.leading_monomial() == want[0][0]


class TestArithmetic:
    def test_series_coefficient_rejected(self):
        with pytest.raises(TypeError):
            SparsePoly({monomial(1, 0, 0): TS([1, 1], 2)})

    def test_nonreal_coefficient_rejected(self):
        with pytest.raises(TypeError):
            SparsePoly({monomial(1, 0, 0): GR(1, 1)})
        with pytest.raises(TypeError):
            ALPHA * GR(0, 1)
        # a real GaussianRational is its rational real part
        assert SparsePoly({monomial(1, 0, 0): GR(3)}) == 3 * ALPHA

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            ALPHA + TS([1, 1], 2)
        with pytest.raises(TypeError):
            ALPHA * TS([1, 1], 2)
        with pytest.raises(TypeError):
            TS([1, 1], 2) * ALPHA

    def test_difference_of_squares(self):
        assert (ALPHA + BETA) * (ALPHA - BETA) == ALPHA**2 - BETA**2

    def test_gamma_square(self):
        assert GAMMA * GAMMA == SparsePoly({monomial(0, 0, 2): 1})

    @settings(max_examples=60)
    @given(polys, polys)
    def test_commutative(self, p, q):
        assert_canonical(p * q)
        assert p * q == q * p

    @settings(max_examples=40)
    @given(polys, polys, polys)
    def test_associative(self, p, q, r):
        assert_canonical((p * q) * r)
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=40)
    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert_canonical(q + r)
        assert_canonical(p * q + p * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_against_sympy(self, p, q):
        sp, sq = to_sympy(p), to_sympy(q)
        for x in (p, q, p + q, p - q, p * q, -p):
            assert_canonical(x)
        assert to_sympy(p + q) == sp + sq
        assert to_sympy(p - q) == sp - sq
        assert to_sympy(p * q) == sp * sq

    def test_equality_agrees_with_hash(self):
        # a polynomial equals no scalar, so a set keeps both
        assert SparsePoly.constant(1) != 1
        assert len({SparsePoly.constant(1), 1}) == 2
        assert len({SparsePoly.constant(1), SparsePoly({0: Fraction(2, 2)})}) == 1

    def test_canonical_form_prunes_zeros(self):
        p = ALPHA - ALPHA
        assert not p
        assert p.terms == {}


class TestGrading:
    def test_beta_minus_8(self):
        assert (BETA - 8).mod4_degree() == 0

    def test_level_two_relation(self):
        assert (ALPHA**2 + BETA - 8).mod4_degree() == 0

    def test_inhomogeneous(self):
        assert (ALPHA + BETA).mod4_degree() is None

    def test_exact_homogeneity(self):
        assert (ALPHA**2).is_homogeneous(4)
        assert not (ALPHA**2 + BETA - 8).is_homogeneous(4)
        assert SparsePoly.zero().is_homogeneous(6)


class TestSerialization:
    def test_json_descending_order(self):
        p = ALPHA**2 + BETA - 8
        blob = p.to_json()
        assert [t["m"] for t in blob["terms"]] == [[2, 0, 0], [0, 1, 0], [0, 0, 0]]

    def test_render(self):
        assert str(ALPHA * BETA + 8 * ALPHA + GAMMA) == "alpha*beta+8*alpha+gamma"
        q = SparsePoly({monomial(2, 0, 0): 1, monomial(0, 1, 0): 1})
        assert q.render(("a", "b", "c")) == "a^2+b"
