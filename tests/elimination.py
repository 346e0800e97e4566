"""The elimination routes that the program no longer runs, kept as the
tests' oracles.

The filtration layers and torsion blocks, the oracle for floer.level_block:
a subquotient span(denominator + numerator)/span(denominator) of a level
ring is reached by kernels, a greedy choice of independent vectors and the
actions induced on it, each by one integer elimination (Matrix.rref); its
spectra are the factored characteristic polynomials of those actions.
floer reads the same modules as the r x r blocks of the tower of level
rings; the tests compare the two routes.

The primitive parts, the oracle for floer.primitive_dim_exact: the kernel
of the (g-k+1)-fold wedge product with the symplectic form on the whole
k-th exterior power, by one dense composite of the wedge steps.

The coordinates of a normal form and the product of a matrix and a vector
are read from Fractions (QuotientRing.normal_form, Matrix.rows), not from
the integer rows that the program's own matrices use; assert_canonical
checks those integer rows against the Fractions.
"""

import math
from fractions import Fraction
from itertools import combinations

from floercas.exactalg import FalsificationError
from floercas.floer import SubquotientModule, default_candidates, gamma_quotient_ring, invariant_ring
from floercas.groebner import VAR_NAMES
from floercas.linalg import Matrix, factor_over_candidates
from floercas.poly import SparsePoly


def from_columns(cols, nrows: int = 0) -> Matrix:
    """The matrix with the given columns; n empty columns give 0 x n, and
    no columns give nrows x 0."""
    cols = list(cols)
    return Matrix(zip(*cols, strict=True) if cols else [()] * nrows, len(cols))


def assert_canonical(m: Matrix):
    """m is its canonical form: one den, the lcm of the entries' reduced
    denominators, coprime to the integer rows, and rebuilt from its
    Fraction rows."""
    assert m.den == math.lcm(*(x.denominator for r in m.rows for x in r))
    assert math.gcd(m.den, *(x for r in m.nums for x in r)) == 1
    assert Matrix(m.rows, m.ncols) == m


def matvec(m: Matrix, v) -> list:
    """m v, exact, as Fractions."""
    return [sum((a * x for a, x in zip(row, v, strict=True)), Fraction(0)) for row in m.rows]


def monomial_matrix(ring, monomials) -> Matrix:
    """The matrix whose column j holds the coordinates of the normal form of
    monomials[j] in the staircase basis of ring."""
    index = {m: i for i, m in enumerate(ring.basis)}
    cols = []
    for m in monomials:
        col = [0] * ring.dim
        for n, c in ring.normal_form(SparsePoly({m: 1})).terms.items():
            col[index[n]] = c
        cols.append(col)
    return from_columns(cols, ring.dim)


def kernel_basis(m: Matrix) -> list:
    """Deterministic basis of the right kernel of m, one integer vector per
    free column f in order: the primitive integer multiple, positive at f,
    of the kernel vector that is 1 at f and 0 at the other free columns."""
    rref, pivots = m.rref()
    pivot_set = set(pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        # row i of rref reads x[pivots[i]] + (nums[i][f] / den) x[f] = 0
        entries = [(pc, r[f]) for pc, r in zip(pivots, rref.nums) if r[f]]
        d = rref.den
        scale = d // math.gcd(d, *(x for _, x in entries))
        v = [0] * m.ncols
        v[f] = scale
        for pc, x in entries:
            v[pc] = -x * scale // d
        basis.append(v)
    return basis


def independent_subset(vectors, seed=()):
    """Greedy deterministic choice of vectors independent from seed and each other.

    Column j of [seed | vectors] is a pivot of its reduced echelon form
    exactly when it is not in the span of the columns before it, so one
    elimination makes the greedy choice.
    """
    vectors = list(vectors)
    d = len(seed)
    _, pivots = from_columns([*seed, *vectors]).rref()
    return [vectors[j - d] for j in pivots if j >= d]


def induced_action(m: Matrix, reps, denominator) -> Matrix:
    """Action induced by m on span(denominator + reps)/span(denominator).

    reps must be independent modulo the denominator.  One elimination of
    [denominator | reps | m*reps]: a pivot among the m*reps columns means
    m does not preserve the subquotient, which raises FalsificationError;
    otherwise each image column is a combination of the pivot columns, and
    its coefficients on the reps pivots are the induced action.
    """
    d, n = len(denominator), len(reps)
    images = [matvec(m, v) for v in reps]
    rref, pivots = from_columns([*denominator, *reps, *images]).rref()
    if pivots and pivots[-1] >= d + n:
        raise FalsificationError("action does not preserve the subquotient")
    # the coefficients are read from the integer rows over their one denominator
    rep_rows = [pivots.index(d + k) for k in range(n)]
    return Matrix.from_ints((rref.nums[i][d + n :] for i in rep_rows), rref.den, n)


def eigen_reports(matrix_of, bound: int) -> dict:
    """The alpha, beta and gamma spectra: the characteristic polynomial of
    each matrix_of(name), factored over default_candidates(bound)."""
    cands = default_candidates(bound)
    return {name: factor_over_candidates(matrix_of(name).charpoly(), cands) for name in VAR_NAMES}


def subquotient(ambient, numerator, denominator, candidate_bound: int) -> SubquotientModule:
    """span(denominator + numerator)/span(denominator) in the level ring
    ambient, with the spectra of alpha, beta and gamma on it."""
    reps = independent_subset(numerator, seed=denominator)
    actions = {
        name: induced_action(ambient.mult_matrix(name), reps, denominator) for name in VAR_NAMES
    }
    return SubquotientModule(len(reps), eigen_reports(actions.get, candidate_bound))


def filtration_layer(r: int) -> SubquotientModule:
    """The r-th filtration layer, the kernel of the projection
    Fbar_{r+1} -> Fbar_r, by elimination."""
    big = gamma_quotient_ring(r + 1)
    numerator = kernel_basis(monomial_matrix(gamma_quotient_ring(r), big.basis))
    return subquotient(big, numerator, [], candidate_bound=r + 1)


def torsion_block(r: int) -> SubquotientModule:
    """The block (ker gamma)/(gamma * ker gamma^2) of F_r, r >= 1, by
    elimination."""
    ring = invariant_ring(r)
    mg = ring.mult_matrix("gamma")
    image = independent_subset([matvec(mg, v) for v in kernel_basis(mg @ mg)])
    return subquotient(ring, kernel_basis(mg), image, candidate_bound=r)


def wedge_step_matrix(g: int, m: int) -> Matrix:
    """Multiplication by -2*sum(e_i ^ e_{i+g}) from degree m to m+2 wedges."""
    n = 2 * g
    dom = list(combinations(range(n), m))
    cod = list(combinations(range(n), m + 2))
    cod_index = {s: i for i, s in enumerate(cod)}
    rows = [[0] * len(dom) for _ in range(len(cod))]
    for j, s in enumerate(dom):
        sset = set(s)
        for i in range(g):
            a, b = i, i + g
            if a in sset or b in sset:
                continue
            below_b = sum(1 for x in s if x < b)
            below_a = sum(1 for x in s if x < a)
            sign = -1 if (below_a + below_b) % 2 else 1
            target = tuple(sorted(s + (a, b)))
            rows[cod_index[target]][j] += -2 * sign
    return Matrix(rows, len(dom))


def wedge_kernel_dim(g: int, k: int) -> int:
    """Kernel dimension of the (g-k+1)-fold wedge multiplication by the
    symplectic 2-form on the k-th exterior power, by one dense composite."""
    steps = g - k + 1
    if k + 2 * steps > 2 * g:
        return math.comb(2 * g, k)
    composite = None
    m = k
    for _ in range(steps):
        step = wedge_step_matrix(g, m)
        composite = step if composite is None else step @ composite
        m += 2
    return composite.ncols - composite.rank()
