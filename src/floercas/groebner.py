"""Buchberger Groebner bases, normal forms, staircase bases and quotient
rings presented by multiplication matrices.

This is the verification engine: every ring-theoretic claim in the package
reduces to a normal-form or exact linear-algebra statement here.  Buchberger
selects pairs by sugar and forms only the new pairs that the Gebauer-Moeller
new-pair rule keeps (see _update_pairs): most S-polynomials of the
level-ring ideals reduce to zero, and the rule skips those in advance (at
level 7, 30 zero remainders instead of 576).  The chain criterion dropped
no pair on any ideal the program builds, and is left out.  The returned
basis is reduced and sorted, hence canonical, so which pairs are reduced
never shows in it.  The term order is grlex throughout.

The engine runs on integers and converts nothing at its edge: monomials
are ints in grlex order, multiplied by adding and divided by subtracting,
and a SparsePoly is already integers over one denominator.
`monomial` and products refuse an exponent of 2^15 or more, and so does
Buchberger for a new basis element (an S-polynomial can reach 2^16), so no
field can overflow inside a reduction (a reduction never raises the total
degree, which stays below 3 * 2^15).

A divisor is a polynomial made primitive over Z, with a positive leading
coefficient, and split as (lm, lc, tail, GUARD - lm); a basis is stored in
this one form, and its monic generators over Q are made from it on demand.
Reduction runs on a mutable map from monomials to integer coefficients,
with a max-heap to find the next largest term, and with a scale: where lc
does not divide the coefficient c to cancel, the map and the remainder so
far are multiplied by lc / gcd(c, lc) first.  So the remainder is the
Q-remainder times the scale.  Buchberger needs remainders only up to a unit
and ignores the scale; a normal form divides by it once at the end.  In
grlex no multiple of a monomial is smaller than it, so a term below the
least leading monomial goes to the remainder, and a monomial below it into
the staircase, with no divisor tested (Becker-Weispfenning, Groebner
Bases, ch. 5): most terms of the level rings, and F_r's whole staircase.
A multiplication matrix takes each column from one remainder and its
scale, and its rows stay integers over one denominator, the lcm of the
scales.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple, Sequence

from .linalg import Matrix
from .poly import BITS, DEG, FIELD, GUARD, VARIABLES, WIDE, SparsePoly, divides, exponents, monomial

VAR_NAMES = ("alpha", "beta", "gamma")


_EXPONENTS, _FIELD_SUM = (1 << DEG) - 1, 1 + (1 << BITS) + (1 << 2 * BITS)


def _lcm(x: int, y: int) -> int:
    """The lcm of two monomials with exponents below 2^15: a field's guard
    bit of (x | GUARD) - y stays set where x's exponent is at least y's, g -
    (g >> (BITS - 1)) spreads it into a mask of that field, and the fields
    times _FIELD_SUM add up in the top one."""
    x, y = x & _EXPONENTS, y & _EXPONENTS
    g = ((x | GUARD) - y) & GUARD
    sel = g - (g >> (BITS - 1))
    v = (x & sel) | (y & ~sel)
    return ((v * _FIELD_SUM) >> 2 * BITS & FIELD) << DEG | v


def _divisor(r: dict) -> tuple:
    """The divisor (lm, lc, tail, GUARD - lm) of the nonzero integer term
    map r, whose first key is its leading monomial: r made primitive, with a
    positive leading coefficient."""
    lm = next(iter(r))
    content = gcd(*r.values())
    if r[lm] < 0:
        content = -content
    tail = tuple((m, c // content) for m, c in r.items() if m != lm)
    return (lm, r[lm] // content, tail, GUARD - lm)


class InfiniteStaircaseError(ValueError):
    """Quotient is not finite-dimensional; carries a witness variable."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(
            f"staircase is infinite: no pure power of {variable} among leading monomials"
        )


class GroebnerBasis(NamedTuple):
    """Reduced Groebner basis, held only as the divisors that reduction
    reads, sorted by leading monomial.  A divisor is its reduced monic
    element times the lcm of its denominators, so it is canonical too."""

    divisors: tuple

    @property
    def generators(self) -> tuple:
        """The reduced monic basis over Q, sorted by leading monomial."""
        return tuple(SparsePoly.from_ints({lm: lc, **dict(tail)}, lc)
                     for lm, lc, tail, _ in self.divisors)

    def leading_monomials(self) -> list:
        return [d[0] for d in self.divisors]

    def to_json(self) -> dict:
        return {"order": "grlex", "generators": [g.to_json() for g in self.generators]}


def _reduce(work: dict, divisors: Sequence[tuple]) -> tuple:
    """(rem, scale): the full remainder of the integer term map `work`
    (consumed) by the divisors, times the positive int scale.

    The largest term left is popped from a max-heap and either cancelled by
    the first divisor whose leading monomial divides it (lm * q = m) or
    moved to the remainder; a term below the least leading monomial (the
    floor) is moved with no divisor tested, as in grlex no multiple of a
    monomial is smaller than it.  To cancel c * m, the map and the remainder
    are multiplied by f = lc / gcd(c, lc) and (c * f / lc) * q * tail is
    subtracted, so every coefficient stays an integer.  A monomial that
    cancels leaves its heap entry behind; the entry is skipped when popped.
    The remainder receives its terms in descending order, so its first key
    is its leading monomial.
    """
    floor = min((d[0] for d in divisors), default=0)
    heap = [-m for m in work]
    heapify(heap)
    rem: dict = {}
    scale = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for d in divisors if m >= floor else ():
            if (m + d[3]) & GUARD == GUARD:
                break
        else:
            rem[m] = c
            continue
        lm, lc, tail, _ = d
        if c % lc:
            g = gcd(c, lc)
            f, c = lc // g, c // g
            scale *= f
            for k in work:
                work[k] *= f
            for k in rem:
                rem[k] *= f
        else:
            c //= lc
        q = m - lm
        for tm, tc in tail:
            t = tm + q
            v = work.get(t)
            if v is None:
                work[t] = -c * tc
                heappush(heap, -t)
            else:
                v -= c * tc
                if v:
                    work[t] = v
                else:
                    del work[t]
    return rem, scale


def normal_form(p: SparsePoly, gb: GroebnerBasis) -> SparsePoly:
    """Unique remainder of p modulo the ideal of gb."""
    rem, scale = _reduce(dict(p.nums), gb.divisors)
    return SparsePoly.from_ints(rem, scale * p.den)


def _update_pairs(basis, sugar, pairs, lm, s):
    """Push the pairs of a new basis element with leading monomial lm and
    sugar s, about to become basis index len(basis), onto the pair heap.

    Of the new pairs (i, new), one whose lcm another new lcm properly
    divides is dropped; of those with equal lcm one is kept, and none if
    any of them has coprime leading monomials (the new-pair part of the
    Gebauer-Moeller update, Becker-Weispfenning, Groebner Bases, 5.5).  Over
    R, Rbar + gamma, q and the socle and reduced quotients at levels 1-12
    this cut 26,767 pairs to 1,705, while the rest of that update (the
    chain criterion on old pairs, and retiring basis elements from pairing)
    dropped and retired nothing, so it is left out.

    The lcm of two monomials is their product exactly when they are
    coprime, and a pair is (sugar, lcm, i, j).
    """
    k, by_lcm = len(basis), {}  # lcm -> the indices i of the new pairs (i, k) with it
    for i, d in enumerate(basis):
        by_lcm.setdefault(_lcm(d[0], lm), []).append(i)
    # a proper divisor of an lcm is smaller in grlex, so in ascending order
    # an lcm needs testing only against the least ones found before it
    least: list = []
    for l in sorted(by_lcm):
        lg = l + GUARD
        if any((lg - o) & GUARD == GUARD for o in least):
            continue
        least.append(l)
        indices = by_lcm[l]
        if any(l == basis[i][0] + lm for i in indices):
            continue
        i = indices[0]
        s_pair = max(sugar[i] + ((l - basis[i][0]) >> DEG), s + ((l - lm) >> DEG))
        heappush(pairs, (s_pair, l, i, k))


def buchberger(gens: Sequence[SparsePoly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Sugar selection strategy, the new-pair rule of _update_pairs, full
    inter-reduction.  Deterministic: identical input gives an identical
    basis.
    """
    work = [dict(g.nums) for g in gens if g]
    if not work:
        raise ValueError("no nonzero generators")

    basis: list[tuple] = []  # primitive divisors (lm, lc, tail, GUARD - lm)
    sugar: list[int] = []
    pairs: list[tuple] = []  # heap of (sugar, lcm, i, j)

    def add_poly(r: dict, s: int):
        if any(m & WIDE for m in r):
            raise ValueError("exponent of a basis element is 2^15 or more")
        d = _divisor(r)
        _update_pairs(basis, sugar, pairs, d[0], s)
        basis.append(d)
        sugar.append(s)

    for g in sorted(work, key=max):
        r, _ = _reduce(g, basis)
        if r:
            add_poly(r, next(iter(r)) >> DEG)

    while pairs:
        _, l, i, j = heappop(pairs)
        (lmi, lci, tail_i, _), (lmj, lcj, tail_j, _) = basis[i], basis[j]
        ui, uj = l - lmi, l - lmj
        # S-polynomial (lcj * ui * basis[i] - lci * uj * basis[j]) / gcd(lci, lcj);
        # the leading terms cancel
        g = gcd(lci, lcj)
        fi, fj = lcj // g, lci // g
        spoly = {m + ui: c * fi for m, c in tail_i}
        for m, c in tail_j:
            t, c = m + uj, c * fj
            d = spoly.get(t)
            if d is None:
                spoly[t] = -c
            elif d == c:
                del spoly[t]
            else:
                spoly[t] = d - c
        r, _ = _reduce(spoly, basis)
        if r:
            s_new = max(sugar[i] + (ui >> DEG), sugar[j] + (uj >> DEG), next(iter(r)) >> DEG)
            add_poly(r, s_new)

    # minimalize: drop generators whose leading monomial another one divides
    minimal: list[tuple] = []
    for d in sorted(basis, key=lambda d: d[0]):
        if not any(divides(h[0], d[0]) for h in minimal):
            minimal.append(d)

    # inter-reduce tails; leading monomials are already pairwise indivisible,
    # so each result keeps its leading term and the sorted order
    divisors = []
    for idx, (lm, lc, tail, _) in enumerate(minimal):
        r, _ = _reduce({lm: lc, **dict(tail)}, minimal[:idx] + minimal[idx + 1 :])
        divisors.append(_divisor(r))
    return GroebnerBasis(tuple(divisors))


def staircase_basis(gb: GroebnerBasis) -> tuple:
    """Monomials outside the leading-term ideal, ascending in grlex.

    The staircase is finite exactly when every variable has a pure power
    among the leading monomials; otherwise InfiniteStaircaseError names a
    witness variable.
    """
    lms = [exponents(m) for m in gb.leading_monomials()]
    bounds = []
    for v in range(3):
        pure = [e[v] for e in lms if sum(e) == e[v]]
        if not pure:
            raise InfiniteStaircaseError(VAR_NAMES[v])
        bounds.append(min(pure))
    guards = [d[3] for d in gb.divisors]
    floor = min(d[0] for d in gb.divisors)
    out = []
    # a multiple of a leading monomial stays one when gamma (or beta) is
    # multiplied in, so each line of the box ends at its first such monomial
    for a in range(bounds[0]):
        for b in range(bounds[1]):
            c = 0
            while c < bounds[2]:
                m = monomial(a, b, c)
                if m >= floor and any((m + g) & GUARD == GUARD for g in guards):
                    break
                out.append(m)
                c += 1
            if c == 0:
                break
    out.sort()
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
        # staircase monomial -> its index in the basis
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

    def mult_matrix(self, var) -> Matrix:
        """Matrix of multiplication by a variable; column j is the remainder
        of x_v * basis_j over its scale (a staircase monomial is its own
        remainder, over scale 1)."""
        if isinstance(var, str):
            var = VAR_NAMES.index(var)
        if var not in self._mult:
            x = VARIABLES[var]
            index, divisors = self._index, self.gb.divisors
            rems = (_reduce({m + x: 1}, divisors) for m in index)
            cols = [({index[k]: c for k, c in rem.items()}, scale) for rem, scale in rems]
            self._mult[var] = Matrix.from_scaled_columns(cols, self.dim)
        return self._mult[var]

    def to_json(self) -> dict:
        return {
            "groebner_basis": self.gb.to_json(),
            "staircase": [list(exponents(m)) for m in self.basis],
            "dim": self.dim,
        }
