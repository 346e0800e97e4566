"""Buchberger Groebner bases, normal forms, staircase bases and quotient
rings presented by multiplication matrices.

This is the verification engine: every ring-theoretic claim in the package
reduces to a normal-form or exact linear-algebra statement here.  The
ideals involved have at most a handful of generators in three variables,
so plain Buchberger with the sugar selection strategy and the coprimality
criterion is entirely adequate; the returned basis is reduced, monic and
sorted, hence canonical for the given monomial order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exactalg import GaussianRational, TruncatedSeries
from .linalg import (
    EigenReport,
    Matrix,
    UniPoly,
    default_candidates,
    factor_over_candidates,
)
from .poly import GRLEX, Monomial, MonomialOrder, SparsePoly

__all__ = [
    "GroebnerBasis",
    "QuotientRing",
    "InfiniteStaircaseError",
    "buchberger",
    "normal_form",
    "staircase_basis",
    "char_poly",
    "factor_over_candidates",
    "default_candidates",
    "EigenReport",
    "Matrix",
    "UniPoly",
]

VAR_NAMES = ("alpha", "beta", "gamma")


class InfiniteStaircaseError(ValueError):
    """Quotient is not finite-dimensional; carries a witness variable."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(
            f"staircase is infinite: no pure power of {variable} among leading monomials"
        )


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic Groebner basis, generators sorted by leading monomial."""

    generators: tuple
    order: MonomialOrder

    def leading_monomials(self) -> list:
        return [g.leading_monomial(self.order) for g in self.generators]

    def to_json(self) -> dict:
        return {
            "order": self.order.kind,
            "generators": [g.to_json(self.order) for g in self.generators],
        }


def _reduce_full(p: SparsePoly, gens: Sequence[SparsePoly], order: MonomialOrder) -> SparsePoly:
    """Full normal form: no term of the result divisible by any leading monomial."""
    lead = [(g.leading_monomial(order), g.leading_coeff(order), g) for g in gens if g]
    tail_terms: dict = {}
    work = p
    while work:
        m = work.leading_monomial(order)
        c = work.terms[m]
        hit = None
        for lm, lc, g in lead:
            if lm.divides(m):
                hit = (lm, lc, g)
                break
        if hit is None:
            tail_terms[m] = c
            work = work - SparsePoly({m: c})
        else:
            lm, lc, g = hit
            factor = c * lc.inv()
            work = work - g.mul_monomial(m.divide(lm), factor)
    return SparsePoly(tail_terms)


def normal_form(p: SparsePoly, gb: GroebnerBasis) -> SparsePoly:
    """Unique remainder of p modulo the ideal, w.r.t. gb's order."""
    return _reduce_full(p, gb.generators, gb.order)


def _spoly(f: SparsePoly, g: SparsePoly, order: MonomialOrder) -> SparsePoly:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = lf.lcm(lg)
    cf, cg = f.leading_coeff(order), g.leading_coeff(order)
    return f.mul_monomial(lcm.divide(lf), cf.inv()) - g.mul_monomial(lcm.divide(lg), cg.inv())


def buchberger(gens: Sequence[SparsePoly], order: MonomialOrder = GRLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Sugar selection strategy, coprimality criterion, full inter-reduction.
    Deterministic: identical input gives an identical basis.
    """
    work = [g for g in gens if g]
    if not work:
        raise ValueError("no nonzero generators")
    for g in work:
        if g.coeff_kind() is TruncatedSeries:
            raise TypeError("Groebner bases require GaussianRational coefficients")

    basis: list[SparsePoly] = []
    sugar: list[int] = []
    pairs: list[tuple] = []  # (sugar, lcm key, i, j)

    def add_poly(p: SparsePoly, s: int):
        p = p * p.leading_coeff(order).inv()
        k = len(basis)
        lm = p.leading_monomial(order)
        for i in range(k):
            lmi = basis[i].leading_monomial(order)
            if lmi.coprime(lm):
                continue  # first Buchberger criterion
            l = lmi.lcm(lm)
            s_pair = max(
                sugar[i] + l.divide(lmi).total_degree,
                s + l.divide(lm).total_degree,
            )
            pairs.append((s_pair, order.key(l), i, k))
        basis.append(p)
        sugar.append(s)

    for g in sorted(work, key=lambda q: order.key(q.leading_monomial(order))):
        r = _reduce_full(g, basis, order) if basis else g
        if r:
            add_poly(r, r.total_degree())

    while pairs:
        pairs.sort()
        _, _, i, j = pairs.pop(0)
        s = _spoly(basis[i], basis[j], order)
        if not s:
            continue
        r = _reduce_full(s, basis, order)
        if r:
            lcm = basis[i].leading_monomial(order).lcm(basis[j].leading_monomial(order))
            s_new = max(
                sugar[i] + lcm.divide(basis[i].leading_monomial(order)).total_degree,
                sugar[j] + lcm.divide(basis[j].leading_monomial(order)).total_degree,
                r.total_degree(),
            )
            add_poly(r, s_new)

    # minimalize: drop generators whose leading monomial another one divides
    by_lm = sorted(basis, key=lambda q: order.key(q.leading_monomial(order)))
    minimal: list[SparsePoly] = []
    for g in by_lm:
        lm = g.leading_monomial(order)
        if not any(h.leading_monomial(order).divides(lm) for h in minimal):
            minimal.append(g)

    # inter-reduce tails; leading monomials are already pairwise indivisible
    reduced: list[SparsePoly] = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = _reduce_full(g, others, order)
        reduced.append(r * r.leading_coeff(order).inv())
    reduced.sort(key=lambda q: order.key(q.leading_monomial(order)))
    return GroebnerBasis(tuple(reduced), order)


def staircase_basis(gb: GroebnerBasis) -> tuple:
    """Monomials outside the leading-term ideal, ascending in gb's order.

    The staircase is finite exactly when every variable has a pure power
    among the leading monomials; otherwise InfiniteStaircaseError names a
    witness variable.
    """
    lms = gb.leading_monomials()
    bounds = []
    for v in range(3):
        pure = [m[v] for m in lms if all(m[w] == 0 for w in range(3) if w != v)]
        if not pure:
            raise InfiniteStaircaseError(VAR_NAMES[v])
        bounds.append(min(pure))
    out = []
    for a in range(bounds[0]):
        for b in range(bounds[1]):
            for c in range(bounds[2]):
                m = Monomial(a, b, c)
                if not any(lm.divides(m) for lm in lms):
                    out.append(m)
    out.sort(key=gb.order.key)
    return tuple(out)


class QuotientRing:
    """A zero-dimensional quotient of Q(i)[alpha,beta,gamma].

    Holds the reduced Groebner basis, the staircase monomial basis and the
    multiplication matrices of the three variables (computed on demand,
    pairwise commuting).
    """

    __slots__ = ("gb", "basis", "_index", "_mult")

    def __init__(self, gb: GroebnerBasis):
        object.__setattr__(self, "gb", gb)
        object.__setattr__(self, "basis", staircase_basis(gb))
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.basis)})
        object.__setattr__(self, "_mult", {})

    def __setattr__(self, name, value):
        raise AttributeError("QuotientRing is immutable")

    @staticmethod
    def from_generators(gens: Sequence[SparsePoly], order: MonomialOrder = GRLEX) -> "QuotientRing":
        return QuotientRing(buchberger(gens, order))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> MonomialOrder:
        return self.gb.order

    def normal_form(self, p: SparsePoly) -> SparsePoly:
        return normal_form(p, self.gb)

    def nf_coords(self, p: SparsePoly) -> list:
        """Coordinates of the normal form of p in the staircase basis."""
        nf = self.normal_form(p)
        v = [GaussianRational(0)] * self.dim
        for m, c in nf.terms.items():
            v[self._index[m]] = GaussianRational.coerce(c)
        return v

    def mult_matrix(self, var) -> Matrix:
        """Matrix of multiplication by a variable; column j is x_v * basis_j."""
        if isinstance(var, str):
            var = VAR_NAMES.index(var)
        if var not in self._mult:
            xv = SparsePoly.variable(var)
            cols = [self.nf_coords(xv.mul_monomial(m)) for m in self.basis]
            self._mult[var] = Matrix.from_columns(cols) if cols else Matrix([])
        return self._mult[var]

    def extend(self, extra: Sequence[SparsePoly]) -> "QuotientRing":
        """Quotient by the ideal enlarged with extra generators."""
        return QuotientRing.from_generators(list(self.gb.generators) + list(extra), self.order)

    def element_from_coords(self, v) -> SparsePoly:
        return SparsePoly({m: c for m, c in zip(self.basis, v) if c})

    def to_json(self) -> dict:
        return {
            "groebner_basis": self.gb.to_json(),
            "staircase": [list(m) for m in self.basis],
            "dim": self.dim,
        }


def char_poly(m: Matrix) -> UniPoly:
    """Exact monic characteristic polynomial of a square matrix."""
    return m.charpoly()
