"""The elimination route to the filtration layers and torsion blocks, kept
as the tests' oracle for floer.level_block.

A subquotient span(denominator + numerator)/span(denominator) of a level
ring is reached by kernels, a greedy choice of independent vectors and the
actions induced on it, each by one integer elimination (Matrix.rref); its
spectra are the factored characteristic polynomials of those actions.
floer reads the same modules as the r x r blocks of the tower of level
rings; the tests compare the two routes.
"""

import math

from floercas.exactalg import FalsificationError
from floercas.floer import SubquotientModule, default_candidates, gamma_quotient_ring, invariant_ring
from floercas.groebner import VAR_NAMES
from floercas.linalg import Matrix, factor_over_candidates


def from_columns(cols, nrows: int = 0) -> Matrix:
    """The matrix with the given columns; n empty columns give 0 x n, and
    no columns give nrows x 0."""
    cols = list(cols)
    return Matrix(zip(*cols, strict=True) if cols else [()] * nrows, len(cols))


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
        # row i of rref reads x[pivots[i]] + (nums[i][f] / dens[i]) x[f] = 0
        entries = [(pc, r[f], d) for pc, r, d in zip(pivots, rref.nums, rref.dens) if r[f]]
        scale = math.lcm(*(d // math.gcd(x, d) for _, x, d in entries))
        v = [0] * m.ncols
        v[f] = scale
        for pc, x, d in entries:
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
    images = [m.matvec(v) for v in reps]
    rref, pivots = from_columns([*denominator, *reps, *images]).rref()
    if pivots and pivots[-1] >= d + n:
        raise FalsificationError("action does not preserve the subquotient")
    # the coefficients are read from the integer rows, each over its pivot
    rep_rows = [pivots.index(d + k) for k in range(n)]
    return Matrix.from_integer_rows(((rref.nums[i][d + n :], rref.dens[i]) for i in rep_rows), n)


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
    numerator = kernel_basis(gamma_quotient_ring(r).monomial_matrix(big.basis))
    return subquotient(big, numerator, [], candidate_bound=r + 1)


def torsion_block(r: int) -> SubquotientModule:
    """The block (ker gamma)/(gamma * ker gamma^2) of F_r, r >= 1, by
    elimination."""
    ring = invariant_ring(r)
    mg = ring.mult_matrix("gamma")
    image = independent_subset([mg.matvec(v) for v in kernel_basis(mg @ mg)])
    return subquotient(ring, kernel_basis(mg), image, candidate_bound=r)
