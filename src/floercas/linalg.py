"""Dense exact linear algebra over Q(i): rank, kernel, solving, and
characteristic polynomials.

The largest matrices are the level-ring multiplication matrices, dim 84
at level 7 and 120 at genus 8, so dense storage and cubic elimination are
fine.  Characteristic polynomials come from Hessenberg reduction over the
field; everything else is plain Gauss-Jordan over the exact field.  No
operation here lowers real matrices to rationals: the level-ring matrices
are real, and GaussianRational itself does one rational operation when
both imaginary parts are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import GR_ONE, GR_ZERO, GaussianRational, render_terms


class Matrix:
    """Immutable dense matrix with GaussianRational entries, row-major."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(GaussianRational.coerce(x) for x in row) for row in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix([[GR_ZERO] * ncols for _ in range(nrows)])

    @staticmethod
    def from_columns(cols) -> "Matrix":
        cols = list(cols)
        if not cols:
            return Matrix([])
        return Matrix([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def column(self, j: int) -> list:
        return [self.rows[i][j] for i in range(self.nrows)]

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    # -- arithmetic ---------------------------------------------------------
    def scale(self, c) -> "Matrix":
        c = GaussianRational.coerce(c)
        return Matrix([[a * c for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.ncols
        out = []
        for i in range(self.nrows):
            row = []
            ri = self.rows[i]
            for j in range(cols):
                s = GR_ZERO
                for k in range(self.ncols):
                    a = ri[k]
                    if a:
                        s = s + a * other.rows[k][j]
                row.append(s)
            out.append(row)
        return Matrix(out)

    def matvec(self, v) -> list:
        if self.ncols != len(v):
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.nrows):
            s = GR_ZERO
            for k, a in enumerate(self.rows[i]):
                if a and v[k]:
                    s = s + a * v[k]
            out.append(s)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def commutes_with(self, other: "Matrix") -> bool:
        return self @ other == other @ self

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    # -- elimination ---------------------------------------------------------
    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        rows = [list(r) for r in self.rows]
        pivots: list[int] = []
        pr = 0
        for pc in range(self.ncols):
            pivot = None
            for i in range(pr, self.nrows):
                if rows[i][pc]:
                    pivot = i
                    break
            if pivot is None:
                continue
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            inv = rows[pr][pc].inv()
            # zero entries of the pivot row change nothing: skip them
            rows[pr] = [x * inv if x else x for x in rows[pr]]
            for i in range(self.nrows):
                if i != pr and rows[i][pc]:
                    f = rows[i][pc]
                    rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.nrows:
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list:
        """Deterministic basis of the right kernel (free columns in order)."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [GR_ZERO] * self.ncols
            v[f] = GR_ONE
            for i, pc in enumerate(pivots):
                v[pc] = -rows[i][f]
            basis.append(v)
        return basis

    def solve(self, b: list) -> list:
        """One exact solution of self @ x = b; raises on inconsistency."""
        aug = Matrix([list(r) + [bb] for r, bb in zip(self.rows, b)])
        rows, pivots = aug.rref()
        if self.ncols in pivots:
            raise ValueError("inconsistent linear system")
        x = [GR_ZERO] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = rows[i][self.ncols]
        return x

    # -- characteristic polynomial ---------------------------------------
    def charpoly(self) -> "UniPoly":
        """Monic characteristic polynomial det(x*I - A).

        Hessenberg reduction followed by the Hessenberg determinant
        recurrence (Cohen, A Course in Computational Algebraic Number
        Theory, GTM 138, Alg. 2.2.9).
        """
        if self.nrows != self.ncols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        return UniPoly(_hessenberg_charpoly([list(r) for r in self.rows]))


def _hessenberg_charpoly(h: list) -> list:
    """Coefficients, lowest degree first, of det(x*I - H) over Q(i).

    `h` is a square list of row lists, reduced in place.
    """
    n = len(h)
    # similarity to upper Hessenberg form, one column at a time
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        inv = h[m][m - 1].inv()
        hm = h[m]
        for i in range(m + 1, n):
            hi = h[i]
            u = hi[m - 1]
            if not u:
                continue
            u = u * inv
            # row i -= u * row m, then column m += u * column i
            for j in range(m - 1, n):
                if hm[j]:
                    hi[j] = hi[j] - u * hm[j]
            for row in h:
                if row[i]:
                    row[m] = row[m] + u * row[i]
    # 1-based, with polys[m] = p_m the charpoly of the leading m x m block:
    # p_m = (x - h_mm) p_{m-1} - sum_i h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    polys = [[GR_ONE]]
    for m in range(n):
        prev = polys[m]
        p = [GR_ZERO] + prev
        d = h[m][m]
        if d:
            for k, c in enumerate(prev):
                p[k] = p[k] - d * c
        t = GR_ONE
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
    """Univariate polynomial over Q(i), coefficients ascending in degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [GaussianRational.coerce(c) for c in coeffs]
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            coeffs = [GR_ZERO]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == GR_ONE

    def is_one(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == GR_ONE

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def synthetic_division(self, root):
        """Divide by (x - root); returns (quotient, remainder scalar)."""
        root = GaussianRational.coerce(root)
        rev = list(reversed(self.coeffs))
        out = [rev[0]]
        for c in rev[1:]:
            out.append(c + out[-1] * root)
        rem = out.pop()
        return UniPoly(list(reversed(out))), rem

    def __str__(self) -> str:
        return render_terms(
            (self.coeffs[k], "1" if k == 0 else "x" if k == 1 else f"x^{k}")
            for k in range(self.degree, -1, -1)
        )

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    def to_json(self) -> dict:
        return {"coeffs": [c.to_json() for c in self.coeffs]}


@dataclass(frozen=True)
class EigenReport:
    """Roots found among the candidates, with whatever is left unfactored.

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


def factor_over_candidates(cp: UniPoly, candidates) -> EigenReport:
    """Strip linear factors (x - c) for each candidate c, in order."""
    if not cp.is_monic():
        raise ValueError("characteristic polynomial must be monic")
    roots = []
    rem = cp
    for cand in candidates:
        cand = GaussianRational.coerce(cand)
        mult = 0
        while rem.degree > 0:
            quotient, value = rem.synthetic_division(cand)
            if value:  # the remainder of division by (x - cand) is rem(cand)
                break
            rem = quotient
            mult += 1
        if mult:
            roots.append((cand, mult))
    return EigenReport(tuple(roots), rem)
