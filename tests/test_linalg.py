"""Characteristic polynomials and spectra checked against sympy as an
independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from floercas.exactalg import GaussianRational as GR
from floercas.floer import gamma_quotient_ring, invariant_ring
from floercas.linalg import Matrix, UniPoly

from elimination import assert_canonical, eigen_reports, from_columns, induced_action, kernel_basis

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


# sparse rational entries of very different bit heights, so that the rows of
# one block are over unrelated denominators whose lcm is large
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


def test_pivot_swap_and_pivot_free_column():
    # row 1 is zero and column 0 has its only entry below the diagonal in
    # row 2, so the recurrence meets zero rows R and columns S of the leading
    # blocks
    m = Matrix([[1, 5, 0, 2], [0, 0, 0, 0], [3, 0, Fraction(1, 2), 0], [0, 0, 0, -2]])
    assert ours(m) == sympy_charpoly(m)


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
    assert ours(m) == sympy_charpoly(m)


def test_entries_of_very_different_heights():
    # column 0 below the diagonal holds 1234567/89 first and 3 last, and the
    # entries are over 1, 89 and 5, so the integer rows are over 445
    m = Matrix(
        [
            [1, 2, 0, 1],
            [Fraction(1234567, 89), 0, 1, 0],
            [0, 1, 2, 0],
            [3, 0, 1, Fraction(1, 5)],
        ]
    )
    assert ours(m) == sympy_charpoly(m)


def test_charpoly_fixed_cases():
    # no rows: the polynomial 1
    assert Matrix([], 0).charpoly() == UniPoly([1])
    # the zero matrix: x^4
    assert Matrix([[0] * 4] * 4).charpoly() == UniPoly([0, 0, 0, 0, 1])
    # a diagonal matrix: one linear factor per entry
    d = [Fraction(-1, 3), 2, 4]
    diag = Matrix([[d[i] if i == j else 0 for j in range(3)] for i in range(3)])
    assert diag.charpoly() == UniPoly([-d[0], 1]) * UniPoly([-d[1], 1]) * UniPoly([-d[2], 1])
    # the cyclic permutation 0 -> 1 -> ... -> 4 -> 0: x^5 - 1
    cyc = Matrix([[1 if j == (i + 1) % 5 else 0 for j in range(5)] for i in range(5)])
    assert cyc.charpoly() == UniPoly([-1, 0, 0, 0, 0, 1])
    # rows over 3, 5 and 7: the numerators over the one d = 105, and
    # coefficient k rescaled by d^(k-3)
    mixed = Matrix(
        [
            [Fraction(1, 3), Fraction(2, 3), 1],
            [Fraction(-4, 5), 0, Fraction(3, 5)],
            [Fraction(2, 7), Fraction(-1, 7), Fraction(5, 7)],
        ]
    )
    assert mixed.den == 105
    assert ours(mixed) == sympy_charpoly(mixed)


# -- the integer engine against the Fraction Gauss-Jordan it replaced --------


def reference_rref(rows, ncols):
    """Gauss-Jordan over Fractions, the elimination Matrix.rref replaced:
    (rows of the reduced row echelon form, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nrows = len(rows)
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot = next((i for i in range(pr, nrows) if rows[i][pc]), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = 1 / rows[pr][pc]
        rows[pr] = [x * inv for x in rows[pr]]
        for i in range(nrows):
            if i != pr and rows[i][pc]:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def reference_kernel(rows, ncols):
    """Kernel basis from reference_rref: 1 at each free column in turn."""
    red, pivots = reference_rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][f]
        basis.append(v)
    return basis


# mixed denominators, and zero entries often enough for zero rows and columns
_MIXED_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 4, 6, 9, 35])),
    st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**20)),
)


@st.composite
def rational_rows(draw):
    """(rows, ncols) of an n x m matrix, n and m in 0..6, with a zero row
    or a zero column put in some of the time."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(_MIXED_ENTRY) for _ in range(m)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * m
    if m and draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for r in rows:
            r[j] = Fraction(0)
    if n and m and draw(st.booleans()):  # a row that depends on two others
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[draw(st.integers(0, n - 1))] = [x - 3 * y / 2 for x, y in zip(rows[a], rows[b])]
    return rows, m


@settings(max_examples=200, deadline=None)
@given(rational_rows())
@example(([], 4))
@example(([[], [], []], 0))
@example(([[0, 0], [0, 0]], 2))
def test_rref_rank_and_kernel_match_the_fraction_elimination(case):
    rows, ncols = case
    m = Matrix(rows, ncols)
    red, pivots = m.rref()
    want_rows, want_pivots = reference_rref(rows, ncols)
    assert pivots == want_pivots
    assert red.rows == tuple(map(tuple, want_rows))
    assert red == Matrix(want_rows, ncols)
    assert_canonical(m)
    assert_canonical(red)
    assert m.rank() == len(want_pivots)
    # each kernel vector is an integer multiple, positive at its free column,
    # of the reference vector that is 1 there
    kernel, want = kernel_basis(m), reference_kernel(rows, ncols)
    free = [j for j in range(ncols) if j not in want_pivots]
    assert len(kernel) == len(want)
    for f, v, w in zip(free, kernel, want):
        assert all(type(x) is int for x in v) and v[f] > 0
        assert [Fraction(x, v[f]) for x in v] == w
    nullspace = sympy.Matrix(len(rows), ncols, [rat(x) for r in rows for x in r]).nullspace()
    assert [[rat(x) for x in w] for w in want] == [list(v) for v in nullspace]


@settings(max_examples=150, deadline=None)
@given(rational_rows(), st.data())
def test_matmul_matches_the_fraction_sums(case, data):
    rows, ncols = case
    m = Matrix(rows, ncols)
    k = data.draw(st.integers(0, 4))
    other = [[data.draw(_MIXED_ENTRY) for _ in range(k)] for _ in range(ncols)]
    product = m @ Matrix(other, k)
    assert (product.nrows, product.ncols) == (len(rows), k)
    assert_canonical(product)
    assert product.rows == tuple(
        tuple(sum((r[l] * other[l][j] for l in range(ncols)), Fraction(0)) for j in range(k))
        for r in rows
    )


def test_rows_are_canonical_so_equality_is_structural():
    a, b = Matrix([[Fraction(2, 4), 1]]), Matrix([[Fraction(1, 2), 1]])
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == (((1, 2),), 2)
    # integers over their lcm: 1/2 and 1/3 are 3 and 2 over 6
    assert Matrix([[Fraction(1, 2), Fraction(1, 3)]]).nums == ((3, 2),)
    # a product and a scaling divide out the gcd of the entries and the denominator
    assert Matrix([[2, 4]]).scale(Fraction(1, 2)) == Matrix([[1, 2]])
    assert Matrix([[Fraction(1, 2)]]) @ Matrix([[2, 4]]) == Matrix([[1, 2]])
    assert Matrix([[0, 0]]).scale(Fraction(1, 3)).den == 1
    # the shape is part of the structure: no rows, different column counts
    assert Matrix([], 2) != Matrix([], 3)


def test_induced_action_divides_by_the_row_denominators():
    # Q^3 / span(d), d = e1 + e3, with the classes of 2 e1 and 3 e2 as reps:
    # m e1 = e2 / 2, m e2 = e1 / 3 + d and m e3 = -e2 / 2, so m d = 0, and
    # m (2 e1) = (1/3)(3 e2), m (3 e2) = (1/2)(2 e1) + 3 d
    half, third = Fraction(1, 2), Fraction(1, 3)
    m = from_columns([[0, half, 0], [1 + third, 0, 1], [0, -half, 0]])
    action = induced_action(m, [[2, 0, 0], [0, 3, 0]], [[1, 0, 1]])
    assert action == Matrix([[0, Fraction(1, 2)], [Fraction(1, 3), 0]])
    assert (action.den, action.nums) == (6, ((0, 3), (2, 0)))
    assert action.charpoly() == UniPoly([Fraction(-1, 6), 0, 1])
