"""Dense exact linear algebra over Q: rank, characteristic polynomials,
and their roots among Q(i) candidates.

Every matrix the package builds is real -- the multiplication matrices of
the level rings, the inclusion matrices of subsets, the intersection
forms -- so a nonreal entry raises TypeError.  A Matrix holds its rows as
integers over one positive denominator for the whole matrix, made
canonical by their gcd, and every method reads the integers.  Fractions
(`fractions.Fraction`) are what a Matrix reads in (`exactalg.to_integers`)
and hands out, and what a UniPoly holds: a characteristic polynomial's
coefficients stay Fractions until factor_over_candidates reads them.
Elimination is one integer Gauss-Jordan: a row is cleared by
cross-multiplying with the pivot row and divided by its content; only
Matrix.rref divides out the pivots, and Matrix.rank just counts them.
Products are integer sums over the product of the denominators.  A
characteristic polynomial eliminates nothing: it is Berkowitz's
division-free recurrence on the whole matrix's integer rows, rescaled
once by the denominator (see Matrix.charpoly).

The largest matrices are those `check` reads whole: at --max-genus 10,
gamma on F_12 (364 x 364) and its square, and the matrices of F_10
(220 x 220).  Storage is dense and elimination skips zero entries, which
is enough at these sizes.  Only `check` takes characteristic polynomials,
none larger than 19 x 19 (the reduced ring of genus 10): `ring` and
`eigen` read spectra from r x r level blocks (see floer.level_block).

Q(i) enters only in factor_over_candidates, whose candidates and
reported roots are GaussianRationals: a pair of conjugate roots is one
rational quadratic factor.  The factors are stripped over Z: the
polynomial and each candidate factor are scaled to primitive integer
polynomials, and by Gauss's lemma a primitive factor divides over Q
exactly when it divides over Z, so the divisions are exact integer ones.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple

from .exactalg import Q_ONE, Q_ZERO, GaussianRational, rational, rational_json, render_terms
from .exactalg import to_integers


class Matrix:
    """Immutable dense matrix over Q, row-major, held as integer rows over
    one denominator.

    Entry (i, j) is nums[i][j] / den, nums a tuple of tuples of ints and den
    a positive int, kept canonical: gcd(den, every entry) == 1, so a zero
    matrix is over 1.  Equal matrices have equal fields, and == and hash
    compare those.  Every method reads the integers; `rows` is the same
    matrix as Fractions, for reading at the API edge.  A matrix with no
    rows keeps the column count it is given, so a 0 x n matrix has the
    n-dimensional kernel of the zero map.
    """

    __slots__ = ("nums", "den", "nrows", "ncols")

    def __init__(self, rows, ncols: int = 0):
        """The matrix of the given rows of rationals (ints, Fractions or
        real GaussianRationals)."""
        rows = [tuple(r) for r in rows]
        if rows:
            ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        ints, den = to_integers(x for r in rows for x in r)
        entries = iter(ints)
        self._set(tuple(tuple(islice(entries, ncols)) for _ in rows), den, ncols)

    def _set(self, nums: tuple, den: int, ncols: int):
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nrows", len(nums))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_ints(nums, den: int, ncols: int) -> "Matrix":
        """The matrix of the rows of ints nums over the positive int den,
        all divided by gcd(den, every entry) to make it canonical."""
        nums = tuple(map(tuple, nums))
        if den != 1:
            g = math.gcd(den, *chain.from_iterable(nums))
            if g != 1:
                nums, den = tuple(tuple(x // g for x in r) for r in nums), den // g
        m = object.__new__(Matrix)
        m._set(nums, den, ncols)
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[int(i == j) for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_scaled_columns(cols, nrows: int) -> "Matrix":
        """The nrows-row matrix whose column j is entries / scale for the
        j-th pair (entries, scale) of cols, entries a map from row index to
        int and scale a positive int, over the lcm of the scales."""
        cols = list(cols)
        den = math.lcm(*(scale for _, scale in cols))
        nums = [[0] * len(cols) for _ in range(nrows)]
        for j, (entries, scale) in enumerate(cols):
            f = den // scale
            for i, c in entries.items():
                nums[i][j] = c * f
        return Matrix.from_ints(nums, den, len(cols))

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, row by row."""
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self.nums)

    # -- arithmetic ---------------------------------------------------------
    def scale(self, c) -> "Matrix":
        c = rational(c)
        n = c.numerator
        nums = ([x * n for x in r] for r in self.nums)
        return Matrix.from_ints(nums, self.den * c.denominator, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product over Z: the integer rows of self times those of
        other, over the product of the two denominators."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        # the nonzero entries of each row of other
        sparse = [[(j, x) for j, x in enumerate(r) if x] for r in other.nums]
        rows = []
        for r in self.nums:
            acc = [0] * other.ncols
            for k, a in enumerate(r):
                if a:
                    for j, b in sparse[k]:
                        acc[j] += a * b
            rows.append(acc)
        return Matrix.from_ints(rows, self.den * other.den, other.ncols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ncols, self.den, self.nums) == (other.ncols, other.den, other.nums)

    def __hash__(self):
        return hash((self.ncols, self.den, self.nums))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    # -- elimination ---------------------------------------------------------
    def rref(self):
        """(R, pivots): the reduced row echelon form R, a Matrix, and its
        pivot columns; R is the rows of `_eliminate` over the lcm of the pivots."""
        rows, pivots = self._eliminate()
        den = math.lcm(*(rows[i][pc] for i, pc in enumerate(pivots)))
        for i, pc in enumerate(pivots):
            f = den // rows[i][pc]
            if f != 1:
                rows[i] = [x * f for x in rows[i]]
        return Matrix.from_ints(rows, den, self.ncols), pivots

    def rank(self) -> int:
        """The number of pivots of `_eliminate`, with no reduced form built."""
        return len(self._eliminate()[1])

    def _eliminate(self):
        """(rows, pivots): integer Gauss-Jordan on the numerators, rows a
        list of int lists and pivots the list of pivot columns.

        Scaling a row leaves the row space as it is, so the denominator is
        never read.  To clear column pc of row i against the pivot row,
        with f and p their entries there and g = gcd(p, f), row i becomes
        (p/g) row_i - (f/g) pivot row and is then divided by its content.
        So every row stays a primitive integer multiple of the row
        Gauss-Jordan over Q would hold, pivot row k with its positive pivot
        in column pivots[k].
        """
        ncols = self.ncols
        rows = [list(r) for r in self.nums]
        n = len(rows)
        pivots: list[int] = []
        pr = 0
        for pc in range(ncols):
            for i in range(pr, n):
                if rows[i][pc]:
                    break
            else:
                continue
            prow = rows[i]
            rows[i] = rows[pr]
            c = math.gcd(*prow)
            if prow[pc] < 0:
                c = -c
            if c != 1:
                prow = [x // c for x in prow]
            rows[pr] = prow
            p = prow[pc]
            # zero entries of the pivot row change nothing: skip them
            support = [j for j in range(pc + 1, ncols) if prow[j]]
            for i, row in enumerate(rows):
                f = row[pc]
                if not f or i == pr:
                    continue
                g = math.gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    row = [x * a for x in row]
                row[pc] = 0
                for j in support:
                    row[j] -= b * prow[j]
                c = math.gcd(*row)
                if c > 1:
                    row = [x // c for x in row]
                rows[i] = row
            pivots.append(pc)
            pr += 1
            if pr == n:
                break
        return rows, pivots

    # -- characteristic polynomial ---------------------------------------
    def charpoly(self) -> "UniPoly":
        """Monic characteristic polynomial det(x*I - A).

        With C = den A the integer matrix `nums`, det(x*I - A) = den^-n
        det(den x*I - C), so coefficient k is coefficient k of C's
        polynomial, from `_berkowitz` over the whole matrix, divided by
        den^(n-k); only the output coefficients are Fractions.
        """
        if self.nrows != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n, den = self.nrows, self.den
        return UniPoly([Fraction(c, den ** (n - k)) for k, c in enumerate(_berkowitz(self.nums))])


def _berkowitz(rows) -> list:
    """Coefficients, lowest degree first, of det(x*I - C) for the square
    sequence of int rows C, with integer products and sums only.

    Berkowitz's recurrence (Inf. Process. Lett. 18, 1984): with C_k the
    leading k x k block, R its row k left of the diagonal, S its column k
    above it and a = C[k][k], the polynomial of C_(k+1), highest degree
    first, is the Toeplitz product of that of C_k with
    (1, -a, -R S, -R C_k S, ..., -R C_k^(k-1) S).  Nothing is divided,
    so no pivot is chosen and no entry leaves Z.
    """
    poly = [1]  # highest degree first
    for k, row in enumerate(rows):
        # the nonzero entries of the rows of C_k and of R, and S
        lead = [[(j, a) for j, a in enumerate(r[:k]) if a] for r in rows[:k]]
        left = [(j, a) for j, a in enumerate(row[:k]) if a]
        col = [r[k] for r in rows[:k]]
        toeplitz = [1, -row[k]]
        for t in range(k):
            toeplitz.append(-sum(a * col[j] for j, a in left))
            if t < k - 1:
                col = [sum(a * col[j] for j, a in r) for r in lead]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
                for i in range(k + 2)]
    return poly[::-1]


class UniPoly:
    """Univariate polynomial over Q, coefficients ascending in degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(map(rational, coeffs))
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            coeffs = [Q_ZERO]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def is_one(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 1

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out = [Q_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def __str__(self) -> str:
        return render_terms(
            (self.coeffs[k], "1" if k == 0 else "x" if k == 1 else f"x^{k}")
            for k in range(self.degree, -1, -1)
        )

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    def to_json(self) -> dict:
        return {"coeffs": [rational_json(c) for c in self.coeffs]}


class EigenReport(NamedTuple):
    """Roots found among the candidates, with whatever is left unfactored.

    The roots are GaussianRationals and the remainder a polynomial over Q.
    The product of (x - root)^mult over all roots times `remainder` equals
    the characteristic polynomial exactly.  remainder == 1, the default
    (one UniPoly for every report), means the candidate set explained the
    whole spectrum; anything else is surfaced to the caller as a
    falsification signal, not an error.
    """

    roots: tuple
    remainder: UniPoly = UniPoly([1])

    def complete(self) -> bool:
        return self.remainder.is_one()

    def root_set(self) -> dict:
        return {r: m for r, m in self.roots}

    def to_json(self) -> dict:
        return {
            "roots": [{"value": r.to_json(), "mult": m} for r, m in self.roots],
            "remainder": self.remainder.to_json(),
        }


def _primitive(coeffs) -> list:
    """The rational coefficients, lowest degree first, as a primitive integer
    polynomial with the same roots: denominators cleared, content divided out."""
    ints, _ = to_integers(coeffs)
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _exact_quotient(p: list, factor: list):
    """p / factor for integer polynomials, or None when factor does not
    divide p over Z."""
    d, lead = len(factor) - 1, factor[-1]
    rem = list(p)
    quot = [0] * (len(p) - d)
    for k in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[k + d], lead)
        if r:
            return None
        quot[k] = q
        if q:
            for j in range(d):
                rem[k + j] -= q * factor[j]
    return None if any(rem[:d]) else quot


def _strip(p: list, factor: list) -> tuple:
    """(m, p / factor^m) for the largest m with factor^m dividing p.

    Both are integer polynomials and factor is primitive, so by Gauss's
    lemma it divides p over Q exactly when it divides p over Z, which
    `_exact_quotient` decides.  Evaluating p at the root of a linear factor
    first made factor_over_candidates slower, so it is not done.
    """
    mult = 0
    while len(p) >= len(factor):
        quotient = _exact_quotient(p, factor)
        if quotient is None:
            break
        p, mult = quotient, mult + 1
    return mult, p


def factor_over_candidates(cp: UniPoly, candidates) -> EigenReport:
    """Strip the factors of cp over Q that the Q(i) candidates give, in order.

    A real candidate c gives the factor x - c.  A nonreal candidate z whose
    conjugate is a candidate too gives (x - z)(x - conj z), the rational
    quadratic x^2 - 2 Re(z) x + |z|^2, stripped at the first of the pair;
    both roots get the multiplicity of that factor, each reported at its own
    place in the candidate order.  A nonreal candidate without its conjugate
    strips nothing, since its linear factor is not over Q; any such factor
    stays in the remainder.

    Each factor is made a primitive integer polynomial where its candidate
    is reached and divided out over Z (see `_strip`); the remainder is made
    monic again at the end.
    """
    if not cp.is_monic():
        raise ValueError("characteristic polynomial must be monic")
    listed = dict.fromkeys(map(GaussianRational.coerce, candidates))  # in order, once each
    paired = {}  # the second member of a stripped pair -> the pair's multiplicity
    roots = []
    rem = _primitive(cp.coeffs)
    for z in listed:
        if z in paired:
            mult = paired.pop(z)
        elif not z.im:
            mult, rem = _strip(rem, _primitive([-z.re, Q_ONE]))
        elif (conj := z.conjugate()) in listed:
            mult, rem = _strip(rem, _primitive([z.re * z.re + z.im * z.im, -2 * z.re, Q_ONE]))
            paired[conj] = mult
        else:
            continue
        if mult:
            roots.append((z, mult))
    return EigenReport(tuple(roots), UniPoly([Fraction(c, rem[-1]) for c in rem]))
