"""Sparse polynomials in three graded variables with monomial orders.

The three variables are the generators of the invariant ring: alpha, beta,
gamma of cohomological degree 2, 4, 6 (written a, b, c in the classical
undeformed ring — same arithmetic, different display name).  Coefficients
lie in Q(i), as GaussianRationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from .exactalg import GR_ONE, GaussianRational, power, render_terms

#: cohomological degrees of (alpha, beta, gamma)
WEIGHTS = (2, 4, 6)

LT, EQ, GT = -1, 0, 1


class Monomial(tuple):
    """Exponent triple (e_alpha, e_beta, e_gamma)."""

    __slots__ = ()

    def __new__(cls, ea: int = 0, eb: int = 0, ec: int = 0):
        if ea < 0 or eb < 0 or ec < 0:
            raise ValueError("negative exponent")
        return tuple.__new__(cls, (ea, eb, ec))

    @property
    def total_degree(self) -> int:
        return self[0] + self[1] + self[2]

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

    def coprime(self, other: "Monomial") -> bool:
        return all(a == 0 or b == 0 for a, b in zip(self, other))

    def render(self, names=("alpha", "beta", "gamma")) -> str:
        parts = []
        for e, name in zip(self, names):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


MONOMIAL_ONE = Monomial(0, 0, 0)
M_ALPHA = Monomial(1, 0, 0)
M_BETA = Monomial(0, 1, 0)
M_GAMMA = Monomial(0, 0, 1)


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-founded order on monomials.

    kinds: grlex (total degree, lex tie alpha>beta>gamma), grevlex,
    wgrevlex (weights 2,4,6 with grevlex tie-break).
    """

    kind: str = "grlex"

    def key(self, m: Monomial):
        """Sort key; bigger key = bigger monomial."""
        if self.kind == "grlex":
            return (m.total_degree, m[0], m[1], m[2])
        if self.kind == "grevlex":
            return (m.total_degree, -m[2], -m[1], -m[0])
        if self.kind == "wgrevlex":
            return (m.weighted_degree, -m[2], -m[1], -m[0])
        raise ValueError(f"unknown order kind {self.kind!r}")

    def compare(self, m1: Monomial, m2: Monomial) -> int:
        k1, k2 = self.key(m1), self.key(m2)
        return LT if k1 < k2 else (GT if k1 > k2 else EQ)


GRLEX = MonomialOrder("grlex")
GREVLEX = MonomialOrder("grevlex")
WGREVLEX = MonomialOrder("wgrevlex")


class SparsePoly:
    """Map from monomials to nonzero coefficients, canonical and immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | Iterable = ()):
        """Sum the (monomial, coefficient) pairs of terms; zero sums are dropped.

        This is the one place that merges terms: sums and products hand
        their unmerged pairs to it.
        """
        if isinstance(terms, dict):
            terms = terms.items()
        acc: dict[Monomial, GaussianRational] = {}
        for m, c in terms:
            if not isinstance(m, Monomial):
                m = Monomial(*m)
            c = GaussianRational.coerce(c)
            if m in acc:
                c = acc[m] + c
            if c:
                acc[m] = c
            elif m in acc:
                del acc[m]
        object.__setattr__(
            self, "terms", dict(sorted(acc.items(), key=lambda mc: GRLEX.key(mc[0])))
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
        return SparsePoly({Monomial(*e): GR_ONE})

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
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, SparsePoly.constant(GR_ONE))

    def mul_monomial(self, m: Monomial) -> "SparsePoly":
        return SparsePoly({mm.mul(m): cc for mm, cc in self.terms.items()})

    # -- predicates / access ------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, GaussianRational)):
            other = SparsePoly.coerce(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_terms(self, order: MonomialOrder = GRLEX) -> list:
        """(monomial, coeff) pairs, descending in the order."""
        return sorted(self.terms.items(), key=lambda mc: order.key(mc[0]), reverse=True)

    def leading_monomial(self, order: MonomialOrder = GRLEX) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder = GRLEX):
        return self.terms[self.leading_monomial(order)]

    def total_degree(self) -> int:
        return max((m.total_degree for m in self.terms), default=0)

    def monomials(self) -> Iterator[Monomial]:
        return iter(self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """Exactly homogeneous in the weighted (cohomological) grading."""
        degs = {m.weighted_degree for m in self.terms}
        if not degs:
            return True
        if degree is not None:
            return degs == {degree}
        return len(degs) == 1

    def mod4_degree(self):
        """Common weighted degree class mod 4 of all terms, else None."""
        classes = {m.weighted_degree % 4 for m in self.terms}
        if len(classes) > 1:
            return None
        return classes.pop() if classes else 0

    # -- rendering ----------------------------------------------------------
    def render(self, names=("alpha", "beta", "gamma"), order: MonomialOrder = GRLEX) -> str:
        return render_terms((c, m.render(names)) for m, c in self.sorted_terms(order))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SparsePoly({self})"

    # -- serialization ---------------------------------------------------
    def to_json(self, order: MonomialOrder = GRLEX) -> dict:
        return {
            "terms": [
                {"m": list(m), "c": c.to_json()} for m, c in self.sorted_terms(order)
            ]
        }


ALPHA = SparsePoly.variable(0)
BETA = SparsePoly.variable(1)
GAMMA = SparsePoly.variable(2)
