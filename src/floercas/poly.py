"""Sparse polynomials in three graded variables, stored in grlex order.

The three variables are the generators of the invariant ring: alpha, beta,
gamma of cohomological degree 2, 4, 6 (written a, b, c in the classical
undeformed ring — same arithmetic, different display name).  Coefficients
lie in Q, as rationals (`fractions.Fraction`): every relation of the theory
is real, and the constructor refuses a coefficient with a nonzero imaginary
part.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable

from .exactalg import Q_ONE, rational, rational_json, render_terms


class Monomial(tuple):
    """Exponent triple (e_alpha, e_beta, e_gamma)."""

    __slots__ = ()

    def __new__(cls, ea: int = 0, eb: int = 0, ec: int = 0):
        if ea < 0 or eb < 0 or ec < 0:
            raise ValueError("negative exponent")
        return tuple.__new__(cls, (ea, eb, ec))

    @property
    def weighted_degree(self) -> int:
        return 2 * self[0] + 4 * self[1] + 6 * self[2]

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(self[0] + other[0], self[1] + other[1], self[2] + other[2])

    def divides(self, other: "Monomial") -> bool:
        return self[0] <= other[0] and self[1] <= other[1] and self[2] <= other[2]

    def divide(self, other: "Monomial") -> "Monomial":
        """self / other; other must divide self."""
        return Monomial(self[0] - other[0], self[1] - other[1], self[2] - other[2])

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(self[0], other[0]), max(self[1], other[1]), max(self[2], other[2]))

    def render(self, names=("alpha", "beta", "gamma")) -> str:
        parts = []
        for e, name in zip(self, names):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


MONOMIAL_ONE = Monomial(0, 0, 0)


def grlex_key(m: Monomial) -> tuple:
    """Sort key of grlex, the one term order: total degree, then lex with
    alpha > beta > gamma.  A bigger key is a bigger monomial."""
    return (m[0] + m[1] + m[2], m[0], m[1], m[2])


class SparsePoly:
    """Map from monomials to nonzero coefficients, canonical and immutable.

    The terms are stored ascending in grlex, so the last one leads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable = ()):
        """Sum the (monomial, coefficient) pairs of terms; zero sums are dropped.

        This is the one place that merges terms: sums and products hand
        their unmerged pairs to it.  Coefficients go through
        exactalg.rational, so a nonreal one raises TypeError.
        """
        if isinstance(terms, dict):
            terms = terms.items()
        acc: dict = {}
        for m, c in terms:
            if not isinstance(m, Monomial):
                m = Monomial(*m)
            c = rational(c)
            if m in acc:
                c = acc[m] + c
            if c:
                acc[m] = c
            elif m in acc:
                del acc[m]
        object.__setattr__(
            self, "terms", dict(sorted(acc.items(), key=lambda mc: grlex_key(mc[0])))
        )

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly()

    @staticmethod
    def constant(c) -> "SparsePoly":
        return SparsePoly({MONOMIAL_ONE: c})

    @staticmethod
    def variable(i: int) -> "SparsePoly":
        e = [0, 0, 0]
        e[i] = 1
        return SparsePoly({Monomial(*e): Q_ONE})

    @staticmethod
    def coerce(value) -> "SparsePoly":
        if isinstance(value, SparsePoly):
            return value
        return SparsePoly.constant(value)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = SparsePoly.coerce(other)
        return SparsePoly(chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-SparsePoly.coerce(other))

    def __rsub__(self, other):
        return SparsePoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = SparsePoly.coerce(other)
        return SparsePoly(
            (m1.mul(m2), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for an int n >= 0, by square and multiply."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = SparsePoly.constant(Q_ONE), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def mul_monomial(self, m: Monomial) -> "SparsePoly":
        return SparsePoly({mm.mul(m): cc for mm, cc in self.terms.items()})

    # -- predicates / access ------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def sorted_terms(self) -> list:
        """(monomial, coeff) pairs, descending in grlex."""
        return list(reversed(self.terms.items()))

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return next(reversed(self.terms))

    def is_homogeneous(self, degree: int) -> bool:
        """Every term has the given weighted (cohomological) degree."""
        return all(m.weighted_degree == degree for m in self.terms)

    def mod4_degree(self):
        """Common weighted degree class mod 4 of all terms, else None."""
        classes = {m.weighted_degree % 4 for m in self.terms}
        if len(classes) > 1:
            return None
        return classes.pop() if classes else 0

    # -- rendering ----------------------------------------------------------
    def render(self, names=("alpha", "beta", "gamma")) -> str:
        return render_terms((c, m.render(names)) for m, c in self.sorted_terms())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SparsePoly({self})"

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        return {"terms": [{"m": list(m), "c": rational_json(c)} for m, c in self.sorted_terms()]}


ALPHA = SparsePoly.variable(0)
BETA = SparsePoly.variable(1)
GAMMA = SparsePoly.variable(2)
