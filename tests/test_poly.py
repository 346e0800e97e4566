import pytest
import sympy
from hypothesis import given, settings, strategies as st

from floercas.exactalg import GaussianRational as GR, TruncatedSeries as TS
from floercas.poly import (
    ALPHA,
    BETA,
    GAMMA,
    GRLEX,
    GREVLEX,
    WGREVLEX,
    EQ,
    GT,
    LT,
    M_ALPHA,
    Monomial,
    SparsePoly,
)

A2 = Monomial(2, 0, 0)
B1 = Monomial(0, 1, 0)


def poly_from(terms):
    return SparsePoly(terms)


monomials = st.builds(
    Monomial,
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
)
coeffs = st.builds(GR, st.integers(-9, 9), st.integers(-9, 9))
polys = st.dictionaries(monomials, coeffs, max_size=4).map(SparsePoly)

SYMBOLS = sympy.symbols("a b c")


def to_sympy(p):
    """p as a sympy polynomial over Q(i), built term by term."""
    terms = {
        tuple(m): sympy.Rational(str(c.re)) + sympy.I * sympy.Rational(str(c.im))
        for m, c in p.terms.items()
    }
    return sympy.Poly.from_dict(terms, *SYMBOLS, domain=sympy.QQ_I)


class TestMonomialOrder:
    def test_grlex_degree_first(self):
        assert GRLEX.compare(A2, B1) == GT

    def test_reflexive(self):
        assert GRLEX.compare(B1, B1) == EQ
        assert WGREVLEX.compare(B1, B1) == EQ

    def test_weighted_tie_break(self):
        # alpha^2 and beta both have weight 4; precedence breaks the tie
        assert A2.weighted_degree == B1.weighted_degree == 4
        assert WGREVLEX.compare(A2, B1) == GT

    def test_grevlex(self):
        assert GREVLEX.compare(Monomial(1, 0, 1), Monomial(0, 2, 0)) == LT

    @given(monomials, monomials, monomials)
    def test_multiplicative(self, m1, m2, m3):
        for order in (GRLEX, GREVLEX, WGREVLEX):
            c = order.compare(m1, m2)
            assert order.compare(m1.mul(m3), m2.mul(m3)) == c


class TestArithmetic:
    def test_series_coefficient_rejected(self):
        with pytest.raises(TypeError):
            SparsePoly({M_ALPHA: TS([1, 1], 2)})

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
        assert GAMMA * GAMMA == SparsePoly({Monomial(0, 0, 2): 1})

    @settings(max_examples=60)
    @given(polys, polys)
    def test_commutative(self, p, q):
        assert p * q == q * p

    @settings(max_examples=40)
    @given(polys, polys, polys)
    def test_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=40)
    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_against_sympy(self, p, q):
        sp, sq = to_sympy(p), to_sympy(q)
        assert to_sympy(p + q) == sp + sq
        assert to_sympy(p - q) == sp - sq
        assert to_sympy(p * q) == sp * sq

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
        assert not (ALPHA**2 + BETA - 8).is_homogeneous()


class TestSerialization:
    def test_json_descending_order(self):
        p = ALPHA**2 + BETA - 8
        blob = p.to_json()
        assert [t["m"] for t in blob["terms"]] == [[2, 0, 0], [0, 1, 0], [0, 0, 0]]

    def test_render(self):
        assert str(ALPHA * BETA + 8 * ALPHA + GAMMA) == "alpha*beta+8*alpha+gamma"
        q = SparsePoly({Monomial(2, 0, 0): 1, Monomial(0, 1, 0): 1})
        assert q.render(("a", "b", "c")) == "a^2+b"
