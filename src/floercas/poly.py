"""Sparse polynomials in three graded variables, stored in grlex order.

The three variables are the generators of the invariant ring: alpha, beta,
gamma of cohomological degree 2, 4, 6 (written a, b, c in the classical
undeformed ring — same arithmetic, different display name).  Coefficients
lie in Q, as every relation of the theory is real, held as integers over
one denominator, the form of linalg.Matrix and of the Groebner engine, so
sums and products run on ints; `Fraction` appears only in the `terms` view
that renders and serializes them.

A monomial is one int: its total degree above its three exponents, each
exponent in a field of `BITS` bits whose top bit is a guard.  The integer
order of monomials is grlex, the one term order (total degree, then lex
with alpha > beta > gamma), a product is a sum, and m is divisible by d
exactly when no guard bit of m + GUARD - d is cleared, one masked add.
`monomial` refuses an exponent of 2^15 or more, and so does a product, so
two exponents add without reaching a guard bit; the Groebner engine relies
on that bound too (see groebner).  Exponents are read back only to print
or grade a monomial, and to bound a staircase.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .exactalg import rational_json, render_terms, to_integers

#: width of one exponent field; exponents enter below 2^15 and stay below
#: 3 * 2^15 inside a Groebner reduction, under the guard bit at the top
BITS = 18
FIELD = (1 << BITS) - 1
#: the total degree sits above the three exponent fields
DEG = 3 * BITS
GUARD = sum(1 << (k * BITS + BITS - 1) for k in range(3))
#: bits of an exponent of 2^15 or more
WIDE = sum(7 << (k * BITS + 15) for k in range(3))


def monomial(a: int = 0, b: int = 0, c: int = 0) -> int:
    """The monomial alpha^a beta^b gamma^c."""
    if a < 0 or b < 0 or c < 0:
        raise ValueError("negative exponent")
    if a >> 15 or b >> 15 or c >> 15:
        raise ValueError(f"exponent of alpha^{a}*beta^{b}*gamma^{c} is 2^15 or more")
    return (a + b + c) << DEG | a << 2 * BITS | b << BITS | c


def exponents(m: int) -> tuple:
    """The exponent triple (a, b, c) of m."""
    return (m >> 2 * BITS & FIELD, m >> BITS & FIELD, m & FIELD)


def divides(d: int, m: int) -> bool:
    """Whether d divides m."""
    return (m + GUARD - d) & GUARD == GUARD


def weighted_degree(m: int) -> int:
    """The cohomological degree of m: alpha, beta, gamma weigh 2, 4, 6."""
    a, b, c = exponents(m)
    return 2 * a + 4 * b + 6 * c


def render_monomial(m: int, names=("alpha", "beta", "gamma")) -> str:
    parts = []
    for e, name in zip(exponents(m), names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


#: the monomials alpha, beta, gamma
VARIABLES = (monomial(1, 0, 0), monomial(0, 1, 0), monomial(0, 0, 1))


class SparsePoly:
    """Integer numerators `nums` over one denominator `den`, canonical and
    immutable: `nums` maps monomials to nonzero ints, ascending in grlex so
    that the last one leads, den > 0 and gcd(den, *nums) == 1."""

    __slots__ = ("nums", "den")

    def __new__(cls, terms: dict | Iterable = ()):
        """Sum the (monomial, rational coefficient) pairs of terms, read by
        exactalg.to_integers, so a nonreal coefficient raises TypeError."""
        pairs = list(terms.items() if isinstance(terms, dict) else terms)
        ints, den = to_integers(c for _, c in pairs)
        nums: dict = {}
        for (m, _), c in zip(pairs, ints):
            nums[m] = nums.get(m, 0) + c
        return SparsePoly.from_ints(nums, den)

    @staticmethod
    def from_ints(nums: dict, den: int = 1) -> "SparsePoly":
        """nums / den for a positive int den, made canonical (zeros dropped,
        keys sorted, the gcd divided out); every polynomial is made here."""
        p, g = object.__new__(SparsePoly), gcd(den, *nums.values())
        object.__setattr__(p, "nums", {m: c // g for m, c in sorted(nums.items()) if c})
        object.__setattr__(p, "den", den // g)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly()

    @staticmethod
    def constant(c) -> "SparsePoly":
        return SparsePoly({0: c})  # 0 is the monomial 1

    @staticmethod
    def variable(i: int) -> "SparsePoly":
        return SparsePoly.from_ints({VARIABLES[i]: 1})

    @staticmethod
    def coerce(value) -> "SparsePoly":
        return value if isinstance(value, SparsePoly) else SparsePoly.constant(value)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = SparsePoly.coerce(other)
        den = lcm(self.den, other.den)
        f = den // other.den
        nums = {m: c * (den // self.den) for m, c in self.nums.items()}
        for m, c in other.nums.items():
            nums[m] = nums.get(m, 0) + c * f
        return SparsePoly.from_ints(nums, den)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly.from_ints({m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-SparsePoly.coerce(other))

    def __rsub__(self, other):
        return SparsePoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = SparsePoly.coerce(other)
        nums: dict = {}
        for m1, c1 in self.nums.items():
            for m2, c2 in other.nums.items():
                m = m1 + m2
                nums[m] = nums.get(m, 0) + c1 * c2
        if any(m & WIDE for m in nums):
            raise ValueError("exponent of a product is 2^15 or more")
        return SparsePoly.from_ints(nums, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for an int n >= 0, by square and multiply."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = SparsePoly.from_ints({0: 1}), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- predicates / access ------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((tuple(self.nums.items()), self.den))

    @property
    def terms(self) -> dict:
        """A fresh map from monomials to rational coefficients, ascending."""
        return {m: Fraction(c, self.den) for m, c in self.nums.items()}

    def sorted_terms(self) -> list:
        """(monomial, coeff) pairs, descending in grlex."""
        return list(reversed(self.terms.items()))

    def leading_monomial(self) -> int:
        if not self.nums:
            raise ValueError("zero polynomial has no leading monomial")
        return next(reversed(self.nums))

    def is_homogeneous(self, degree: int) -> bool:
        """Every term has the given weighted (cohomological) degree."""
        return all(weighted_degree(m) == degree for m in self.nums)

    def mod4_degree(self):
        """Common weighted degree class mod 4 of all terms, else None."""
        classes = {weighted_degree(m) % 4 for m in self.nums} or {0}
        return classes.pop() if len(classes) == 1 else None

    # -- rendering ----------------------------------------------------------
    def render(self, names=("alpha", "beta", "gamma")) -> str:
        return render_terms((c, render_monomial(m, names)) for m, c in self.sorted_terms())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SparsePoly({self})"

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {"terms": [{"m": list(exponents(m)), "c": rational_json(c)} for m, c in self.sorted_terms()]}


ALPHA = SparsePoly.variable(0)
BETA = SparsePoly.variable(1)
GAMMA = SparsePoly.variable(2)
