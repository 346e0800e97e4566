"""Dense exact linear algebra over Q: rank, kernel, characteristic
polynomials, and their roots among Q(i) candidates.

Every matrix the package builds is real -- the multiplication matrices of
the level rings, the wedge maps, the intersection forms -- so a nonreal
entry raises TypeError.  A Matrix holds each row as integers over one
positive denominator, made canonical by their gcd, and every method
reads the integers; Fractions (`fractions.Fraction`) appear only where
values enter a Matrix, UniPoly or EigenReport or leave one, and they are
turned into integers by `exactalg.to_integers`.  Elimination is one
integer Gauss-Jordan: a row is cleared by cross-multiplying with the
pivot row and divided by its content, and the pivots are divided out
only on output (see Matrix.rref).  Products and matrix-vector products
are integer sums over the common denominator.

The largest matrices are the level-ring multiplication matrices, dim 84
at level 7 and 120 at level 8.  Storage is dense and elimination skips
zero entries, which is enough at these sizes.  The same matrices are
mostly zeros (alpha at level 8 has 663 nonzero entries of 14400), and
their strongly connected blocks are much smaller: alpha at level r
splits into blocks of sizes C(k+1, 2) for k = 1..r, beta into blocks of
at most r, and gamma into 1 x 1 blocks.  So a characteristic polynomial
is the product of those of the diagonal blocks, each from Hessenberg
reduction over Q on entries read from the integer rows, and the cubic
cost of the reduction is paid per block.  Q(i) enters only in
factor_over_candidates, whose candidates and reported roots are
GaussianRationals: a pair of conjugate roots is one rational quadratic
factor.  The factors are stripped over Z: the polynomial and each
candidate factor are scaled to primitive integer polynomials, and by
Gauss's lemma a primitive factor divides over Q exactly when it divides
over Z, so the divisions are exact integer ones with no Fraction in them.
The candidate factors are derived once per candidate list, cached by the
list's value: a GaussianRational hashes by its integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .exactalg import Q_ONE, Q_ZERO, GaussianRational, rational, rational_json, render_terms
from .exactalg import to_integers


class Matrix:
    """Immutable dense matrix over Q, row-major, held as integer rows.

    Row i is the tuple of ints nums[i] over the positive int dens[i], kept
    canonical: gcd(dens[i], *nums[i]) == 1, so a zero row is over 1.  Equal
    matrices have equal fields, and == and hash compare those.  Every
    method reads the integers; `rows` is the same matrix as Fractions, for
    reading at the API edge.  A matrix with no rows keeps the column count
    it is given, so a 0 x n matrix has the n-dimensional kernel of the zero
    map.
    """

    __slots__ = ("nums", "dens", "nrows", "ncols")

    def __init__(self, rows, ncols: int = 0):
        """The matrix of the given rows of rationals (ints, Fractions or
        real GaussianRationals)."""
        nums, dens = [], []
        for row in rows:
            ints, den = to_integers(row)
            nums.append(ints)
            dens.append(den)
        if nums:
            ncols = len(nums[0])
        if any(len(r) != ncols for r in nums):
            raise ValueError("ragged rows")
        self._set(tuple(nums), tuple(dens), ncols)

    def _set(self, nums: tuple, dens: tuple, ncols: int):
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "dens", dens)
        object.__setattr__(self, "nrows", len(nums))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_integer_rows(rows, ncols: int) -> "Matrix":
        """The matrix of the (ints, positive den) pairs of rows, row i being
        ints / den, each divided by gcd(den, *ints) to make it canonical."""
        nums, dens = [], []
        for ints, den in rows:
            g = math.gcd(den, *ints)
            if g != 1:
                ints, den = [x // g for x in ints], den // g
            nums.append(tuple(ints))
            dens.append(den)
        m = object.__new__(Matrix)
        m._set(tuple(nums), tuple(dens), ncols)
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[int(i == j) for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_columns(cols, nrows: int = 0) -> "Matrix":
        """The matrix with the given columns; n empty columns give 0 x n,
        and no columns give nrows x 0."""
        cols = list(cols)
        return Matrix(zip(*cols, strict=True) if cols else [()] * nrows, len(cols))

    @staticmethod
    def from_scaled_columns(cols, nrows: int) -> "Matrix":
        """The nrows-row matrix whose column j is entries / scale for the
        j-th pair (entries, scale) of cols, entries a map from row index to
        int and scale a positive int.  Row i is over the lcm of the scales
        of its nonzero entries."""
        cols = list(cols)
        dens = [1] * nrows
        for entries, scale in cols:
            if scale != 1:
                for i in entries:
                    dens[i] = math.lcm(dens[i], scale)
        nums = [[0] * len(cols) for _ in range(nrows)]
        for j, (entries, scale) in enumerate(cols):
            for i, c in entries.items():
                nums[i][j] = c * (dens[i] // scale)
        return Matrix.from_integer_rows(zip(nums, dens), len(cols))

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, row by row."""
        return tuple(
            tuple(map(Fraction, r)) if d == 1 else tuple(Fraction(x, d) for x in r)
            for r, d in zip(self.nums, self.dens)
        )

    def integer_rows(self) -> tuple:
        """(rows, den): the rows as tuples of ints over den, the lcm of the
        row denominators, so rows[i][j] / den is entry (i, j)."""
        den = math.lcm(*self.dens)
        return tuple(r if d == den else tuple(x * (den // d) for x in r)
                     for r, d in zip(self.nums, self.dens)), den

    # -- arithmetic ---------------------------------------------------------
    def scale(self, c) -> "Matrix":
        c = rational(c)
        n, d = c.numerator, c.denominator
        rows = (([x * n for x in r], den * d) for r, den in zip(self.nums, self.dens))
        return Matrix.from_integer_rows(rows, self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product over Z: the rows of `other` are brought to their
        common denominator e, so row i of the product is the integer
        combination of them that row i of self gives, over dens[i] * e."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ints, e = other.integer_rows()
        # the nonzero entries of each row of other, over e
        sparse = [[(j, x) for j, x in enumerate(r) if x] for r in ints]
        rows = []
        for r, d in zip(self.nums, self.dens):
            acc = [0] * other.ncols
            for k, a in enumerate(r):
                if a:
                    for j, b in sparse[k]:
                        acc[j] += a * b
            rows.append((acc, d * e))
        return Matrix.from_integer_rows(rows, other.ncols)

    def matvec(self, v) -> list:
        """m v, exact: entry i is an integer sum over dens[i] times the
        denominator of v, a Fraction unless that product is 1."""
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        ints, den = to_integers(v)
        # read only the columns where v is nonzero
        support = [k for k, x in enumerate(ints) if x]
        xs = [ints[k] for k in support]
        out = []
        for r, d in zip(self.nums, self.dens):
            s = sum(map(mul, map(r.__getitem__, support), xs))
            d *= den
            out.append(Fraction(s, d) if d != 1 and s else s)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ncols, self.nums, self.dens) == (other.ncols, other.nums, other.dens)

    def __hash__(self):
        return hash((self.ncols, self.nums, self.dens))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    # -- elimination ---------------------------------------------------------
    def rref(self):
        """(R, pivots): the reduced row echelon form R, a Matrix, and the
        list of its pivot columns.

        Integer Gauss-Jordan on the numerators; scaling a row leaves the
        row space as it is, so the denominators are never read.  To clear
        column pc of row i against the pivot row, with f and p their
        entries there and g = gcd(p, f), row i becomes (p/g) row_i -
        (f/g) pivot row and is then divided by its content.  So every row
        stays a primitive integer multiple of the row Gauss-Jordan over Q
        would hold, with a positive pivot, and only the output divides by
        the pivots: row i of R is its integer row over its pivot.
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
        dens = [rows[i][pc] for i, pc in enumerate(pivots)] + [1] * (n - pr)
        return Matrix.from_integer_rows(zip(rows, dens), ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list:
        """Deterministic basis of the right kernel, one integer vector per
        free column f in order: the primitive integer multiple, positive at
        f, of the kernel vector that is 1 at f and 0 at the other free
        columns."""
        rref, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for f in range(self.ncols):
            if f in pivot_set:
                continue
            # row i of rref reads x[pivots[i]] + (nums[i][f] / dens[i]) x[f] = 0
            entries = [(pc, r[f], d) for pc, r, d in zip(pivots, rref.nums, rref.dens) if r[f]]
            scale = math.lcm(*(d // math.gcd(x, d) for _, x, d in entries))
            v = [0] * self.ncols
            v[f] = scale
            for pc, x, d in entries:
                v[pc] = -x * scale // d
            basis.append(v)
        return basis

    # -- characteristic polynomial ---------------------------------------
    def charpoly(self) -> "UniPoly":
        """Monic characteristic polynomial det(x*I - A).

        The strongly connected components of the graph with an edge i -> j
        for each nonzero entry A[i][j] order the rows and columns so that A
        becomes block upper triangular, and det(x*I - A) is the product of
        det(x*I - B) over its diagonal blocks B.  Each block, read from the
        integer rows, goes through Hessenberg reduction and the Hessenberg
        determinant recurrence (Cohen, A Course in Computational Algebraic
        Number Theory, GTM 138, Alg. 2.2.9); a matrix with one component is
        one block.
        """
        if self.nrows != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        nums, dens = self.nums, self.dens
        # the product of the block polynomials is num / den with integer num:
        # integer products cost far less than Fraction ones, and only the
        # final coefficients are reduced
        num, den = [1], 1
        for comp in _strong_components([[j for j, a in enumerate(r) if a] for r in nums]):
            if len(comp) == 1:  # x - a for the entry a = n / d: d x - n over d
                (i,) = comp
                block, d = [-nums[i][i], dens[i]], dens[i]
            else:
                h = [[Fraction(nums[i][j], dens[i]) for j in comp] for i in comp]
                block, d = to_integers(_hessenberg_charpoly(h))
            out = [0] * (len(num) + len(block) - 1)
            for j, c in enumerate(block):
                if c:
                    for i, a in enumerate(num):
                        out[i + j] += a * c
            num, den = out, den * d
        return UniPoly([Fraction(c, den) for c in num])


def _strong_components(adj: list) -> list:
    """Strongly connected components of the graph with edges i -> j for j
    in adj[i], each a sorted list of vertices.

    Tarjan's algorithm with an explicit stack of (vertex, edge iterator)
    frames in place of recursion, so a long path of edges does not reach
    Python's recursion limit.
    """
    n = len(adj)
    index = [-1] * n  # discovery order, -1 while unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        frames = [(root, iter(adj[root]))]
        while frames:
            v, edges = frames[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                # every edge of v is done: pass low[v] up, and pop its
                # component if v is the first vertex of it that was found
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
    return comps


def _height(q) -> int:
    """Bit height of a rational: bits of numerator plus bits of denominator."""
    return q.numerator.bit_length() + q.denominator.bit_length()


def _hessenberg_charpoly(h: list) -> list:
    """Coefficients, lowest degree first, of det(x*I - H) over Q.

    `h` is a square list of row lists of rationals, reduced in place.  The
    pivot of each column is its nonzero subdiagonal entry of smallest bit
    height (the first such on a tie): dividing by it and scaling by the
    multipliers it yields keeps the entries of the reduced matrix short.
    """
    n = len(h)
    # similarity to upper Hessenberg form, one column at a time
    for m in range(1, n - 1):
        col = m - 1
        heights = [(_height(h[i][col]), i) for i in range(m, n) if h[i][col]]
        if not heights:
            continue
        piv = min(heights)[1]
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        hm = h[m]
        inv = 1 / hm[col]
        # row m changes only in column m while the rows below are cleared
        support = [j for j in range(m + 1, n) if hm[j]]
        for i in range(m + 1, n):
            hi = h[i]
            u = hi[col]
            if not u:
                continue
            u = u * inv
            # row i -= u * row m, which clears hi[col]; then column m += u * column i
            hi[col] = Q_ZERO
            if hm[m]:
                hi[m] = hi[m] - u * hm[m]
            for j in support:
                hi[j] = hi[j] - u * hm[j]
            for row in h:
                if row[i]:
                    row[m] = row[m] + u * row[i]
    # 1-based, with polys[m] = p_m the charpoly of the leading m x m block:
    # p_m = (x - h_mm) p_{m-1} - sum_i h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    polys = [[Q_ONE]]
    for m in range(n):
        prev = polys[m]
        p = [Q_ZERO] + prev
        d = h[m][m]
        if d:
            for k, c in enumerate(prev):
                p[k] = p[k] - d * c
        t = Q_ONE
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i]
            if not t:
                break
            u = h[i][m] * t
            if u:
                for k, c in enumerate(polys[i]):
                    p[k] = p[k] - u * c
        polys.append(p)
    return polys[n]


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
    the characteristic polynomial exactly.  remainder == 1 means the
    candidate set explained the whole spectrum; anything else is surfaced
    to the caller as a falsification signal, not an error.
    """

    roots: tuple
    remainder: UniPoly

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
    if factor == (0, 1):  # x divides p as often as p has zero low coefficients
        mult = next(k for k, c in enumerate(p) if c)
        return mult, p[mult:]
    mult = 0
    while len(p) >= len(factor):
        quotient = _exact_quotient(p, factor)
        if quotient is None:
            break
        p, mult = quotient, mult + 1
    return mult, p


@lru_cache(maxsize=64)
def _plan(candidates: tuple) -> tuple:
    """How factor_over_candidates treats each candidate: (z, primitive
    factor) for a real z or the first of a conjugate pair, (z, k) for the
    second of a pair, whose multiplicity is that of step k.  A nonreal
    candidate without its conjugate, or one listed before, has no step.

    The plan is derived once per tuple of candidates and then found by its
    value, so equal lists share one plan.
    """
    listed = dict.fromkeys(map(GaussianRational.coerce, candidates))  # in order, once each
    steps, first = [], {}  # first: conjugate of a pair's first member -> its step
    for z in listed:
        if z in first:
            steps.append((z, first.pop(z)))
        elif not z.im:
            steps.append((z, tuple(_primitive([-z.re, Q_ONE]))))
        elif (conj := z.conjugate()) in listed:
            first[conj] = len(steps)
            steps.append((z, tuple(_primitive([z.re * z.re + z.im * z.im, -2 * z.re, Q_ONE]))))
    return tuple(steps)


def factor_over_candidates(cp: UniPoly, candidates) -> EigenReport:
    """Strip the factors of cp over Q that the Q(i) candidates give, in order.

    A real candidate c gives the factor x - c.  A nonreal candidate z whose
    conjugate is a candidate too gives (x - z)(x - conj z), the rational
    quadratic x^2 - 2 Re(z) x + |z|^2; both roots get the multiplicity of
    that factor, each reported at its own place in the candidate order.  A
    nonreal candidate without its conjugate strips nothing, since its linear
    factor is not over Q; any such factor stays in the remainder.

    The factors are derived once per candidate list (see `_plan`), the
    division runs over Z (see `_strip`), and the remainder is made monic
    again at the end.
    """
    if not cp.is_monic():
        raise ValueError("characteristic polynomial must be monic")
    mults, roots = [], []
    rem = _primitive(cp.coeffs)
    for z, factor in _plan(tuple(candidates)):
        if isinstance(factor, int):
            mult = mults[factor]
        else:
            mult, rem = _strip(rem, factor)
        mults.append(mult)
        if mult:
            roots.append((z, mult))
    return EigenReport(tuple(roots), UniPoly([Fraction(c, rem[-1]) for c in rem]))
