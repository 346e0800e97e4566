"""Characteristic polynomials checked against sympy as an independent oracle."""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from floercas.exactalg import GaussianRational as GR
from floercas.floer import gamma_quotient_ring, invariant_ring
from floercas.linalg import Matrix

X = sympy.Symbol("x")


def rat(q):
    return sympy.Rational(q.numerator, q.denominator)


def sympy_charpoly(m: Matrix) -> list:
    """Coefficients of det(x*I - m), lowest degree first, as (re, im) pairs."""
    entries = [[rat(x.re) + sympy.I * rat(x.im) for x in row] for row in m.rows]
    cp = sympy.Matrix(entries).charpoly(X)
    return [sympy.expand(c).as_real_imag() for c in reversed(cp.all_coeffs())]


def ours(m: Matrix) -> list:
    return [(rat(c.re), rat(c.im)) for c in m.charpoly().coeffs]


@pytest.mark.parametrize("ring_fn", [invariant_ring, gamma_quotient_ring])
@pytest.mark.parametrize("r", range(1, 6))
def test_level_ring_charpolys_match_sympy(ring_fn, r):
    ring = ring_fn(r)
    for var in ("alpha", "beta", "gamma"):
        m = ring.mult_matrix(var)
        assert ours(m) == sympy_charpoly(m)


# sparse entries of Q(i): most are zero, the rest have small parts
_ENTRY = st.one_of(
    st.just(GR(0)),
    st.just(GR(0)),
    st.builds(GR, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(
        lambda a, b, d: GR(a, b) / d, st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)
    ),
)


@st.composite
def gaussian_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    # at least one entry off the real line, so the Q(i) path runs
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[i][j] = GR(draw(st.integers(-3, 3)), draw(st.sampled_from([-2, -1, 1, 2])))
    return Matrix(rows)


@settings(max_examples=60, deadline=None)
@given(gaussian_matrices())
def test_gaussian_charpolys_match_sympy(m):
    assert ours(m) == sympy_charpoly(m)


def test_pivot_swap_and_pivot_free_column():
    # column 0 has its only subdiagonal entry in row 2, so rows 1 and 2 swap;
    # column 1 then has no pivot below the diagonal
    m = Matrix([[1, GR(0, 1), 0, 2], [0, 0, 0, 0], [3, 0, GR(1, 1), 0], [0, 0, 0, GR(0, -2)]])
    assert ours(m) == sympy_charpoly(m)
