"""Buchberger Groebner bases, normal forms, staircase bases and quotient
rings presented by multiplication matrices.

This is the verification engine: every ring-theoretic claim in the package
reduces to a normal-form or exact linear-algebra statement here.  The
ideals involved have at most a handful of generators in three variables,
so plain Buchberger with the sugar selection strategy and the coprimality
criterion is entirely adequate; the returned basis is reduced, monic and
sorted, hence canonical for the given monomial order.

Reduction runs on a mutable map from monomials to coefficients, with a
max-heap of order keys to find the next largest term: each step subtracts
c * q * tail(g) from the map term by term, and only the final remainder
becomes a SparsePoly.  When the polynomial and every generator have zero
imaginary parts, as all level-ring relations do, the map holds the
rational real parts and the result is wrapped back into Gaussian
rationals.  Buchberger keeps its basis in that form, monic and split into
leading monomial and tail, for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Sequence

from .exactalg import GR_ONE, GaussianRational, TruncatedSeries, rational
from .linalg import Matrix
from .poly import GRLEX, Monomial, MonomialOrder, SparsePoly

__all__ = [
    "GroebnerBasis",
    "QuotientRing",
    "InfiniteStaircaseError",
    "buchberger",
    "normal_form",
    "staircase_basis",
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


def _is_real(polys) -> bool:
    """True when every coefficient is a GaussianRational with zero imaginary part."""
    return all(type(c) is GaussianRational and not c.im for p in polys for c in p.terms.values())


def _term_map(p: SparsePoly, real: bool) -> dict:
    """A fresh mutable copy of p's terms, holding the rational real parts when `real`."""
    if real:
        return {m: c.re for m, c in p.terms.items()}
    return dict(p.terms)


def _to_poly(terms: dict, real: bool) -> SparsePoly:
    if real:
        return SparsePoly({m: GaussianRational(c) for m, c in terms.items()})
    return SparsePoly(terms)


def _divisor(terms: dict, lm: Monomial, one) -> tuple:
    """The generator with term map `terms` and leading monomial lm, made monic,
    as (lm, tail) with tail the list of its other (monomial, coefficient) pairs."""
    lc = terms[lm]
    if lc == one:
        return lm, [(m, c) for m, c in terms.items() if m != lm]
    inv = one / lc
    return lm, [(m, c * inv) for m, c in terms.items() if m != lm]


def _reduce(work: dict, divisors: Sequence[tuple], order: MonomialOrder) -> dict:
    """Full remainder of the term map `work` (consumed) by monic divisors (lm, tail).

    The largest term left is popped from a max-heap of order keys and either
    cancelled by subtracting c * q * tail of the first divisor whose leading
    monomial divides it (lm * q = m) or moved to the remainder.  A monomial
    that cancels leaves its heap entry behind; the entry is skipped when
    popped.  The remainder receives its terms in descending order, so its
    first key is its leading monomial.
    """
    key = order.key
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    rem: dict = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, tail in divisors:
            if lm.divides(m):
                q = m.divide(lm)
                for tm, tc in tail:
                    t = tm.mul(q)
                    d = work.get(t)
                    if d is None:
                        work[t] = -(c * tc)
                        heappush(heap, (tuple(map(neg, key(t))), t))
                    else:
                        d = d - c * tc
                        if d:
                            work[t] = d
                        else:
                            del work[t]
                break
        else:
            rem[m] = c
    return rem


def normal_form(p: SparsePoly, gb: GroebnerBasis) -> SparsePoly:
    """Unique remainder of p modulo the ideal, w.r.t. gb's order."""
    gens = [g for g in gb.generators if g]
    real = _is_real([p, *gens])
    one = rational(1) if real else GR_ONE
    divisors = [_divisor(_term_map(g, real), g.leading_monomial(gb.order), one) for g in gens]
    return _to_poly(_reduce(_term_map(p, real), divisors, gb.order), real)


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
    real = _is_real(work)
    one = rational(1) if real else GR_ONE
    key = order.key

    basis: list[tuple] = []  # monic (leading monomial, tail) pairs
    sugar: list[int] = []
    pairs: list[tuple] = []  # heap of (sugar, lcm key, i, j)

    def add_poly(r: dict, s: int):
        lm = next(iter(r))
        k = len(basis)
        for i, (lmi, _) in enumerate(basis):
            if lmi.coprime(lm):
                continue  # first Buchberger criterion
            l = lmi.lcm(lm)
            s_pair = max(
                sugar[i] + l.total_degree - lmi.total_degree,
                s + l.total_degree - lm.total_degree,
            )
            heappush(pairs, (s_pair, key(l), i, k))
        basis.append(_divisor(r, lm, one))
        sugar.append(s)

    for g in sorted(work, key=lambda q: key(q.leading_monomial(order))):
        r = _reduce(_term_map(g, real), basis, order)
        if r:
            add_poly(r, max(m.total_degree for m in r))

    while pairs:
        _, _, i, j = heappop(pairs)
        (lmi, tail_i), (lmj, tail_j) = basis[i], basis[j]
        l = lmi.lcm(lmj)
        ui, uj = l.divide(lmi), l.divide(lmj)
        # S-polynomial ui * basis[i] - uj * basis[j]; the leading terms cancel
        spoly = {m.mul(ui): c for m, c in tail_i}
        for m, c in tail_j:
            t = m.mul(uj)
            d = spoly.get(t)
            if d is None:
                spoly[t] = -c
            elif d == c:
                del spoly[t]
            else:
                spoly[t] = d - c
        r = _reduce(spoly, basis, order)
        if r:
            s_new = max(
                sugar[i] + ui.total_degree,
                sugar[j] + uj.total_degree,
                max(m.total_degree for m in r),
            )
            add_poly(r, s_new)

    # minimalize: drop generators whose leading monomial another one divides
    minimal: list[tuple] = []
    for lm, tail in sorted(basis, key=lambda d: key(d[0])):
        if not any(h.divides(lm) for h, _ in minimal):
            minimal.append((lm, tail))

    # inter-reduce tails; leading monomials are already pairwise indivisible,
    # so each result keeps its monic leading term and the sorted order
    reduced = []
    for idx, (lm, tail) in enumerate(minimal):
        work_map = dict(tail)
        work_map[lm] = one
        r = _reduce(work_map, minimal[:idx] + minimal[idx + 1 :], order)
        reduced.append(_to_poly(r, real))
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
