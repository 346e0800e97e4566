"""Buchberger Groebner bases, normal forms, staircase bases and quotient
rings presented by multiplication matrices.

This is the verification engine: every ring-theoretic claim in the package
reduces to a normal-form or exact linear-algebra statement here.  The
ideals involved have at most a handful of generators in three variables,
so plain Buchberger with the sugar selection strategy and the coprimality
criterion is entirely adequate; the returned basis is reduced, monic and
sorted, hence canonical.  The term order is grlex throughout, by the one
key `poly.grlex_key`.

Reduction runs on a mutable map from monomials to coefficients, with a
max-heap of grlex keys to find the next largest term: each step subtracts
c * q * tail(g) from the map term by term, and only the final remainder
becomes a SparsePoly.  Divisors are monic and split into leading monomial
and tail; a GroebnerBasis carries its own, so a normal form is one
reduction.

Coefficients are backend rationals throughout, as in poly: the term maps of
Buchberger and of every normal form hold the coefficients of the
SparsePolys themselves, with no conversion on the way in or out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Sequence

from .exactalg import Q_ONE, Q_ZERO
from .linalg import Matrix
from .poly import Monomial, SparsePoly, grlex_key

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
    """Reduced monic Groebner basis, generators sorted by leading monomial.

    divisors holds each generator as (leading monomial, tail), the tail a
    tuple of its other (monomial, coefficient) pairs.
    """

    generators: tuple
    divisors: tuple = field(compare=False, repr=False)

    def leading_monomials(self) -> list:
        return [g.leading_monomial() for g in self.generators]

    def to_json(self) -> dict:
        return {"order": "grlex", "generators": [g.to_json() for g in self.generators]}


def _reduce(work: dict, divisors: Sequence[tuple]) -> dict:
    """Full remainder of the term map `work` (consumed) by monic divisors (lm, tail).

    The largest term left is popped from a max-heap of grlex keys and either
    cancelled by subtracting c * q * tail of the first divisor whose leading
    monomial divides it (lm * q = m) or moved to the remainder.  A monomial
    that cancels leaves its heap entry behind; the entry is skipped when
    popped.  The remainder receives its terms in descending order, so its
    first key is its leading monomial.
    """
    heap = [(tuple(map(neg, grlex_key(m))), m) for m in work]
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
                        heappush(heap, (tuple(map(neg, grlex_key(t))), t))
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
    """Unique remainder of p modulo the ideal of gb."""
    return SparsePoly(_reduce(dict(p.terms), gb.divisors))


def buchberger(gens: Sequence[SparsePoly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Sugar selection strategy, coprimality criterion, full inter-reduction.
    Deterministic: identical input gives an identical basis.
    """
    work = [g for g in gens if g]
    if not work:
        raise ValueError("no nonzero generators")

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
            heappush(pairs, (s_pair, grlex_key(l), i, k))
        lc = r.pop(lm)  # made monic: the divisor is (lm, tail / lc)
        if lc != 1:
            r = {m: c / lc for m, c in r.items()}
        basis.append((lm, list(r.items())))
        sugar.append(s)

    for g in sorted(work, key=lambda q: grlex_key(q.leading_monomial())):
        r = _reduce(dict(g.terms), basis)
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
        r = _reduce(spoly, basis)
        if r:
            s_new = max(
                sugar[i] + ui.total_degree,
                sugar[j] + uj.total_degree,
                max(m.total_degree for m in r),
            )
            add_poly(r, s_new)

    # minimalize: drop generators whose leading monomial another one divides
    minimal: list[tuple] = []
    for lm, tail in sorted(basis, key=lambda d: grlex_key(d[0])):
        if not any(h.divides(lm) for h, _ in minimal):
            minimal.append((lm, tail))

    # inter-reduce tails; leading monomials are already pairwise indivisible,
    # so each result keeps its monic leading term and the sorted order
    reduced, divisors = [], []
    for idx, (lm, tail) in enumerate(minimal):
        work_map = dict(tail)
        work_map[lm] = Q_ONE
        r = _reduce(work_map, minimal[:idx] + minimal[idx + 1 :])
        reduced.append(SparsePoly(r))
        divisors.append((lm, tuple((m, c) for m, c in r.items() if m != lm)))
    return GroebnerBasis(tuple(reduced), tuple(divisors))


def staircase_basis(gb: GroebnerBasis) -> tuple:
    """Monomials outside the leading-term ideal, ascending in grlex.

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
    out.sort(key=grlex_key)
    return tuple(out)


class QuotientRing:
    """A zero-dimensional quotient of Q[alpha,beta,gamma].

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
    def from_generators(gens: Sequence[SparsePoly]) -> "QuotientRing":
        return QuotientRing(buchberger(gens))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def normal_form(self, p: SparsePoly) -> SparsePoly:
        return normal_form(p, self.gb)

    def nf_coords(self, p: SparsePoly) -> list:
        """Coordinates of the normal form of p in the staircase basis."""
        nf = self.normal_form(p)
        v = [Q_ZERO] * self.dim
        for m, c in nf.terms.items():
            v[self._index[m]] = c
        return v

    def mult_matrix(self, var) -> Matrix:
        """Matrix of multiplication by a variable; column j is x_v * basis_j."""
        if isinstance(var, str):
            var = VAR_NAMES.index(var)
        if var not in self._mult:
            xv = SparsePoly.variable(var)
            self._mult[var] = Matrix.from_columns(
                self.nf_coords(xv.mul_monomial(m)) for m in self.basis
            )
        return self._mult[var]

    def extend(self, extra: Sequence[SparsePoly]) -> "QuotientRing":
        """Quotient by the ideal enlarged with extra generators."""
        return QuotientRing.from_generators(list(self.gb.generators) + list(extra))

    def to_json(self) -> dict:
        return {
            "groebner_basis": self.gb.to_json(),
            "staircase": [list(m) for m in self.basis],
            "dim": self.dim,
        }
