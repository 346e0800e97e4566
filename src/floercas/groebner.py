"""Buchberger Groebner bases, normal forms, staircase bases and quotient
rings presented by multiplication matrices.

This is the verification engine: every ring-theoretic claim in the package
reduces to a normal-form or exact linear-algebra statement here.  Buchberger
selects pairs by sugar and forms only the new pairs that the Gebauer-Moeller
new-pair rule keeps (see _update_pairs): most S-polynomials of the
level-ring ideals reduce to zero, and the rule skips those in advance (at
level 7, 30 zero remainders instead of 576).  The chain criterion dropped
no pair on any ideal the program builds, and is left out.  The returned
basis is reduced, monic and sorted, hence canonical, so which pairs are
reduced never shows in it.  The term order is grlex throughout.

The engine runs on integers.  A monomial is packed into one int: its total
degree above its three exponents, each exponent in a field of `_BITS` bits
whose top bit is a guard.  The integer order of packed monomials is grlex,
a product is a sum, and m is divisible by d exactly when no guard bit of
m + _GUARD - d is cleared, one masked add.  Packing refuses an exponent of
2^15 or more, and so does Buchberger for a new basis element, so no field
can overflow inside a reduction (a reduction never raises the total
degree, which stays below 3 * 2^15).

A divisor is a polynomial made primitive over Z and split as (lm, lc,
tail, _GUARD - lm).  Reduction runs on a mutable map from packed monomials
to integer coefficients, with a max-heap to find the next largest term, and
with a scale: where lc does not divide the coefficient c to cancel, the
map and the remainder so far are multiplied by lc / gcd(c, lc) first.  So
the remainder is the Q-remainder times the scale.  Buchberger needs
remainders only up to a unit and ignores the scale; a normal form divides
by it once at the end.  `Fraction` appears only at the edge: reading a
SparsePoly in, and writing a normal form or a reduced basis out.  A
coordinate matrix (of the multiplication by a variable, or of any list of
monomials) takes each column from the staircase index or from one
remainder and its scale, and its rows stay integers over a denominator.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import NamedTuple, Sequence

from .exactalg import to_integers
from .linalg import Matrix
from .poly import Monomial, SparsePoly

VAR_NAMES = ("alpha", "beta", "gamma")

# -- packed monomials -------------------------------------------------------

#: width of one exponent field; exponents enter below 2^15 and stay below
#: 3 * 2^15 inside a reduction, under the guard bit at the top of the field
_BITS = 18
_FIELD = (1 << _BITS) - 1
#: the total degree sits above the three exponent fields
_DEG = 3 * _BITS
_GUARD = sum(1 << (k * _BITS + _BITS - 1) for k in range(3))
#: bits of an exponent of 2^15 or more
_WIDE = sum(7 << (k * _BITS + 15) for k in range(3))


def _packed(a: int, b: int, c: int) -> int:
    return (a + b + c) << _DEG | a << 2 * _BITS | b << _BITS | c


#: the packed variables alpha, beta, gamma
_VARS = (_packed(1, 0, 0), _packed(0, 1, 0), _packed(0, 0, 1))


def _pack(m: Monomial) -> int:
    a, b, c = m
    if a >> 15 or b >> 15 or c >> 15:
        raise ValueError(f"exponent of {m.render()} is 2^15 or more")
    return _packed(a, b, c)


def _unpack(k: int) -> Monomial:
    return Monomial(k >> 2 * _BITS & _FIELD, k >> _BITS & _FIELD, k & _FIELD)


def _divides(d: int, m: int) -> bool:
    return (m + _GUARD - d) & _GUARD == _GUARD


def _lcm(x: int, y: int) -> int:
    a = max(x >> 2 * _BITS & _FIELD, y >> 2 * _BITS & _FIELD)
    b = max(x >> _BITS & _FIELD, y >> _BITS & _FIELD)
    return _packed(a, b, max(x & _FIELD, y & _FIELD))


def _integer_terms(p: SparsePoly) -> tuple:
    """(terms, den): the terms of p packed and scaled by den, the lcm of
    their denominators."""
    ints, den = to_integers(p.terms.values())
    return dict(zip(map(_pack, p.terms), ints)), den


def _divisor(r: dict) -> tuple:
    """The divisor (lm, lc, tail, _GUARD - lm) of the nonzero integer term
    map r, whose first key is its leading monomial: r made primitive, with a
    positive leading coefficient."""
    lm = next(iter(r))
    content = gcd(*r.values())
    if r[lm] < 0:
        content = -content
    tail = tuple((m, c // content) for m, c in r.items() if m != lm)
    return (lm, r[lm] // content, tail, _GUARD - lm)


def _monic(r: dict) -> SparsePoly:
    """The nonzero integer term map r, first key leading, made monic over Q."""
    lc = next(iter(r.values()))
    return SparsePoly({_unpack(m): Fraction(c, lc) for m, c in r.items()})


class InfiniteStaircaseError(ValueError):
    """Quotient is not finite-dimensional; carries a witness variable."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(
            f"staircase is infinite: no pure power of {variable} among leading monomials"
        )


class GroebnerBasis(NamedTuple):
    """Reduced monic Groebner basis, generators sorted by leading monomial.

    divisors holds each generator as the primitive integer divisor (lm, lc,
    tail, _GUARD - lm) that reduction reads.  They are a function of the
    generators, so comparing them too leaves equality unchanged.
    """

    generators: tuple
    divisors: tuple

    def leading_monomials(self) -> list:
        return [g.leading_monomial() for g in self.generators]

    def to_json(self) -> dict:
        return {"order": "grlex", "generators": [g.to_json() for g in self.generators]}


def _reduce(work: dict, divisors: Sequence[tuple]) -> tuple:
    """(rem, scale): the full remainder of the integer term map `work`
    (consumed) by the divisors, times the positive int scale.

    The largest term left is popped from a max-heap and either cancelled by
    the first divisor whose leading monomial divides it (lm * q = m) or
    moved to the remainder.  To cancel c * m, the map and the remainder are
    multiplied by f = lc / gcd(c, lc) and (c * f / lc) * q * tail is
    subtracted, so every coefficient stays an integer.  A monomial that
    cancels leaves its heap entry behind; the entry is skipped when popped.
    The remainder receives its terms in descending order, so its first key
    is its leading monomial.  The divisors are scanned for each term; a
    memo of the divisor found per monomial made Buchberger no faster.
    """
    heap = [-m for m in work]
    heapify(heap)
    rem: dict = {}
    scale = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for d in divisors:
            if (m + d[3]) & _GUARD == _GUARD:
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
    work, den = _integer_terms(p)
    rem, scale = _reduce(work, gb.divisors)
    return SparsePoly({_unpack(m): Fraction(c, scale * den) for m, c in rem.items()})


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

    Monomials are packed (the lcm of two is their product exactly when they
    are coprime), and a pair is (sugar, lcm, i, j).
    """
    k, by_lcm = len(basis), {}  # lcm -> the indices i of the new pairs (i, k) with it
    for i, d in enumerate(basis):
        by_lcm.setdefault(_lcm(d[0], lm), []).append(i)
    # a proper divisor of an lcm is smaller in grlex, so in ascending order
    # an lcm needs testing only against the least ones found before it
    least: list = []
    for l in sorted(by_lcm):
        lg = l + _GUARD
        if any((lg - o) & _GUARD == _GUARD for o in least):
            continue
        least.append(l)
        indices = by_lcm[l]
        if any(l == basis[i][0] + lm for i in indices):
            continue
        i = indices[0]
        s_pair = max(sugar[i] + ((l - basis[i][0]) >> _DEG), s + ((l - lm) >> _DEG))
        heappush(pairs, (s_pair, l, i, k))


def buchberger(gens: Sequence[SparsePoly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Sugar selection strategy, the new-pair rule of _update_pairs, full
    inter-reduction.  Deterministic: identical input gives an identical
    basis.  The basis is kept as primitive integer divisors; the reduced
    monic generators are made once, at the end.
    """
    work = [_integer_terms(g)[0] for g in gens if g]
    if not work:
        raise ValueError("no nonzero generators")

    basis: list[tuple] = []  # primitive divisors (lm, lc, tail, _GUARD - lm)
    sugar: list[int] = []
    pairs: list[tuple] = []  # heap of (sugar, lcm, i, j)

    def add_poly(r: dict, s: int):
        if any(m & _WIDE for m in r):
            raise ValueError("exponent of a basis element is 2^15 or more")
        d = _divisor(r)
        _update_pairs(basis, sugar, pairs, d[0], s)
        basis.append(d)
        sugar.append(s)

    for g in sorted(work, key=max):
        r, _ = _reduce(g, basis)
        if r:
            add_poly(r, next(iter(r)) >> _DEG)

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
            s_new = max(sugar[i] + (ui >> _DEG), sugar[j] + (uj >> _DEG), next(iter(r)) >> _DEG)
            add_poly(r, s_new)

    # minimalize: drop generators whose leading monomial another one divides
    minimal: list[tuple] = []
    for d in sorted(basis, key=lambda d: d[0]):
        if not any(_divides(h[0], d[0]) for h in minimal):
            minimal.append(d)

    # inter-reduce tails; leading monomials are already pairwise indivisible,
    # so each result keeps its leading term and the sorted order
    reduced, divisors = [], []
    for idx, (lm, lc, tail, _) in enumerate(minimal):
        work_map = {lm: lc, **dict(tail)}
        r, _ = _reduce(work_map, minimal[:idx] + minimal[idx + 1 :])
        reduced.append(_monic(r))
        divisors.append(_divisor(r))
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
    guards = [d[3] for d in gb.divisors]
    out = []
    # a multiple of a leading monomial stays one when gamma (or beta) is
    # multiplied in, so each line of the box ends at its first such monomial
    for a in range(bounds[0]):
        for b in range(bounds[1]):
            c = 0
            while c < bounds[2]:
                m = _packed(a, b, c)
                if any((m + g) & _GUARD == _GUARD for g in guards):
                    break
                out.append(m)
                c += 1
            if c == 0:
                break
    out.sort()
    return tuple(map(_unpack, out))


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
        # packed staircase monomial -> its index in the basis
        object.__setattr__(self, "_index", {_pack(m): i for i, m in enumerate(self.basis)})
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

    def _coords_matrix(self, monomials) -> Matrix:
        """The matrix whose column j holds the coordinates of the packed
        monomial monomials[j] in the staircase basis: a unit vector where
        it is a staircase monomial, otherwise its remainder over its scale."""
        index, divisors = self._index, self.gb.divisors
        cols = []
        for t in monomials:
            if t in index:
                cols.append(({index[t]: 1}, 1))
            else:
                rem, scale = _reduce({t: 1}, divisors)
                cols.append(({index[k]: c for k, c in rem.items()}, scale))
        return Matrix.from_scaled_columns(cols, self.dim)

    def monomial_matrix(self, monomials) -> Matrix:
        """Coordinates of the normal forms of the given monomials (columns)."""
        return self._coords_matrix(map(_pack, monomials))

    def mult_matrix(self, var) -> Matrix:
        """Matrix of multiplication by a variable; column j is x_v * basis_j."""
        if isinstance(var, str):
            var = VAR_NAMES.index(var)
        if var not in self._mult:
            x = _VARS[var]
            self._mult[var] = self._coords_matrix(m + x for m in self._index)
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
