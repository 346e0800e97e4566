"""Characteristic polynomials and spectra checked against sympy as an
independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from floercas.exactalg import GaussianRational as GR
from floercas.floer import eigen_reports, gamma_quotient_ring, invariant_ring
from floercas.linalg import Matrix, UniPoly, _hessenberg_charpoly, _strong_components

X = sympy.Symbol("x")


def rat(q):
    return sympy.Rational(q.numerator, q.denominator)


def sympy_charpoly(m: Matrix) -> list:
    """Coefficients of det(x*I - m), lowest degree first."""
    cp = sympy.Matrix([[rat(x) for x in row] for row in m.rows]).charpoly(X)
    return list(reversed(cp.all_coeffs()))


def ours(m: Matrix) -> list:
    return [rat(c) for c in m.charpoly().coeffs]


@pytest.mark.parametrize("ring_fn", [invariant_ring, gamma_quotient_ring])
@pytest.mark.parametrize("r", range(1, 6))
def test_level_ring_charpolys_match_sympy(ring_fn, r):
    ring = ring_fn(r)
    for var in ("alpha", "beta", "gamma"):
        m = ring.mult_matrix(var)
        assert ours(m) == sympy_charpoly(m)


@pytest.mark.parametrize("r", range(1, 7))
def test_eigen_reports_match_sympy_roots(r):
    # every root of the level-r charpolys, with its multiplicity, is found
    # among the candidates, conjugate pairs included
    ring = invariant_ring(r)
    reports = eigen_reports(ring.mult_matrix, r + 1)
    for var, report in reports.items():
        assert report.complete()
        mine = {rat(z.re) + sympy.I * rat(z.im): m for z, m in report.roots}
        cp = sympy.Poly(list(reversed(sympy_charpoly(ring.mult_matrix(var)))), X)
        assert mine == sympy.roots(cp)


# sparse entries of Q(i): most are zero, the rest have small parts
_ENTRY = st.one_of(
    st.just(GR(0)),
    st.just(GR(0)),
    st.builds(GR, st.integers(-3, 3), st.integers(-3, 3)),
    st.builds(
        lambda a, b, d: GR(Fraction(a, d), Fraction(b, d)),
        st.integers(-3, 3),
        st.integers(-3, 3),
        st.integers(1, 4),
    ),
)


@st.composite
def gaussian_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = [[draw(_ENTRY) for _ in range(n)] for _ in range(n)]
    # at least one entry off the real line
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[i][j] = GR(draw(st.integers(-3, 3)), draw(st.sampled_from([-2, -1, 1, 2])))
    return rows


@settings(max_examples=60, deadline=None)
@given(gaussian_matrices())
def test_gaussian_charpolys_match_sympy(rows):
    # matrices and their characteristic polynomials are over Q: an entry
    # off the real line is refused, not carried into the arithmetic
    with pytest.raises(TypeError):
        Matrix(rows)
    with pytest.raises(TypeError):
        UniPoly(rows[0] + [GR(0, 1)])


def test_real_gaussian_entries_are_rationals():
    m = Matrix([[GR(1), GR(Fraction(1, 2))]])
    assert m.rows == ((Fraction(1), Fraction(1, 2)),)
    assert all(type(x) is Fraction for x in m.rows[0])


# sparse rational entries of very different bit heights, so that the
# smallest-height pivot is often not the first nonzero one
_BIG = 2**61 - 1
_RATIONAL_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, 3**40)),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([7, 2**33, 3**25])),
)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 7))
    return Matrix([[draw(_RATIONAL_ENTRY) for _ in range(n)] for _ in range(n)])


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_rational_charpolys_of_mixed_heights_match_sympy(m):
    assert ours(m) == sympy_charpoly(m)


@st.composite
def product_factors(draw):
    """Rational factors A (n x k) and B (k x m); any of n, k, m may be 0."""
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    a = [[draw(_RATIONAL_ENTRY) for _ in range(k)] for _ in range(n)]
    b = [[draw(_RATIONAL_ENTRY) for _ in range(m)] for _ in range(k)]
    return a, b, (n, k, m)


@settings(max_examples=120, deadline=None)
@given(product_factors())
def test_matmul_matches_the_triple_sum(factors):
    a, b, (n, k, m) = factors
    product = Matrix(a, k) @ Matrix(b, m)
    want = tuple(
        tuple(sum((a[i][l] * b[l][j] for l in range(k)), Fraction(0)) for j in range(m))
        for i in range(n)
    )
    assert (product.nrows, product.ncols) == (n, m)
    assert product.rows == want


def test_products_with_no_rows_keep_their_columns():
    product = Matrix([], 2) @ Matrix([[1, 2, 3], [4, 5, 6]])
    assert (product.nrows, product.ncols) == (0, 3)
    scaled = Matrix([], 3).scale(2)
    assert (scaled.nrows, scaled.ncols) == (0, 3)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])


def whole(m: Matrix) -> list:
    """Coefficients of Hessenberg reduction over the whole matrix, unsplit."""
    return [rat(c) for c in _hessenberg_charpoly([list(r) for r in m.rows])]


def test_pivot_swap_and_pivot_free_column():
    # column 0 has its only subdiagonal entry in row 2, so rows 1 and 2 swap;
    # column 1 then has no pivot below the diagonal.  Matrix.charpoly splits
    # this matrix into four 1 x 1 blocks, so the reduction runs unsplit too
    m = Matrix([[1, 5, 0, 2], [0, 0, 0, 0], [3, 0, Fraction(1, 2), 0], [0, 0, 0, -2]])
    assert len(_strong_components([[j for j, a in enumerate(r) if a] for r in m.rows])) == 4
    assert ours(m) == whole(m) == sympy_charpoly(m)


def test_smallest_height_pivot_is_chosen():
    # column 0 below the diagonal holds 1234567/89 first and 3 last: the
    # pivot is 3, so the reduction swaps rows and columns 1 and 3 and leaves
    # 3 on the subdiagonal
    m = Matrix(
        [
            [1, 2, 0, 1],
            [Fraction(1234567, 89), 0, 1, 0],
            [0, 1, 2, 0],
            [3, 0, 1, Fraction(1, 5)],
        ]
    )
    h = [list(r) for r in m.rows]
    coeffs = _hessenberg_charpoly(h)
    assert h[1][0] == 3
    assert all(not h[i][j] for i in range(4) for j in range(i - 1))
    assert [rat(c) for c in coeffs] == sympy_charpoly(m)


@st.composite
def permuted_block_triangular(draw):
    """Diagonal blocks of sizes 1-4 with random entries above them, rows and
    columns then put in one random order."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    n = sum(sizes)
    a = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start, n):
                a[i][j] = draw(_RATIONAL_ENTRY)
        start += size
    perm = draw(st.permutations(range(n)))
    return Matrix([[a[p][q] for q in perm] for p in perm])


@settings(max_examples=80, deadline=None)
@given(permuted_block_triangular())
def test_block_charpolys_match_sympy_and_the_unsplit_reduction(m):
    assert ours(m) == whole(m) == sympy_charpoly(m)


def test_charpoly_fixed_cases():
    # no rows: the empty product
    assert Matrix([], 0).charpoly() == UniPoly([1])
    # the zero matrix is four 1 x 1 blocks: x^4
    assert Matrix([[0] * 4] * 4).charpoly() == UniPoly([0, 0, 0, 0, 1])
    # a diagonal matrix: one linear factor per entry
    d = [Fraction(-1, 3), 2, 4]
    diag = Matrix([[d[i] if i == j else 0 for j in range(3)] for i in range(3)])
    assert diag.charpoly() == UniPoly([-d[0], 1]) * UniPoly([-d[1], 1]) * UniPoly([-d[2], 1])
    # the cyclic permutation 0 -> 1 -> ... -> 4 -> 0 is one irreducible block
    cyc = Matrix([[1 if j == (i + 1) % 5 else 0 for j in range(5)] for i in range(5)])
    assert _strong_components([[(i + 1) % 5] for i in range(5)]) == [[0, 1, 2, 3, 4]]
    assert cyc.charpoly() == UniPoly([-1, 0, 0, 0, 0, 1])


def test_strong_components_need_no_recursion():
    # a path and a cycle far deeper than Python's recursion limit
    n = 5000
    path = [[i + 1] for i in range(n - 1)] + [[]]
    assert _strong_components(path) == [[i] for i in range(n - 1, -1, -1)]
    assert _strong_components([[(i + 1) % n] for i in range(n)]) == [list(range(n))]
