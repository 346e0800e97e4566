"""Exact scalar arithmetic over Q and Q(i), and truncated formal power
series in t.

Every computation in the package bottoms out here; there is no floating
point anywhere.  Each layer has one scalar type:

* polynomials, Groebner bases and matrices hold integers over one common
  denominator, read from rationals (`fractions.Fraction`, made by `rational`,
  which refuses a nonreal value) by `to_integers` alone; a `linalg.UniPoly`,
  such as a characteristic polynomial, holds its coefficients as Fractions;
* the spectra (candidate eigenvalues and the roots of an eigenvalue
  report) and the truncated series hold GaussianRationals a + b*i, since
  sqrt(-1) enters the theory only there.  They hash by their integers,
  and == holds only within one type, so it agrees with hash: a
  GaussianRational or a constant series never equals an int.

Truncated series are elements of Q(i)[t]/(t^N) with a uniform truncation
order N inside one computation context.

A rational renders in JSON as the Q(i) scalar {"re": ..., "im": "0"}
(`rational_json`), the same as a real GaussianRational, so the output does
not show which layer a number came from.

The series calculators of `donaldson` compute over Q and make a
TruncatedSeries only of their result, so Q(i) arithmetic is left to the
spectra and the first-order t-deformed series of `fukaya`: a
GaussianRational only needs + and *, the inverse and the conjugate.

FalsificationError, the error of a structural claim that failed, lives
here, at the bottom of the package, so the command line can catch it
without importing the ring code.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

#: default truncation order; every acceptance computation needs <= t^8
DEFAULT_ORDER = 16


class FalsificationError(RuntimeError):
    """A structural claim the package is supposed to verify failed."""


def rational(value=0, den=None):
    """Exact rational from an int, a decimal string like '-3/4', another
    rational, or a GaussianRational whose imaginary part is zero.

    A nonreal GaussianRational, a float or any other type raises TypeError.
    """
    if den is not None:
        return Fraction(value) / Fraction(den)
    if type(value) is Fraction:
        return value
    if isinstance(value, GaussianRational):
        if value.im:
            raise TypeError(f"nonreal value {value} where a rational is required")
        return value.re
    if isinstance(value, str):
        if "/" in value:
            num, _, d = value.partition("/")
            return Fraction(int(num)) / Fraction(int(d))
        return Fraction(int(value))
    if isinstance(value, float):
        raise TypeError("floating point input is not allowed in exact arithmetic")
    return Fraction(value)


def integer(value, name: str) -> int:
    """An integer read from outside: an int that is not a bool, else ValueError
    naming the field, where int() would truncate 1.5 and read True as 1."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer")


def integers(values, name: str) -> tuple:
    """A list or tuple of `integer`s as a tuple, else ValueError naming the field."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a JSON array of integers")
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise ValueError(f"{name} entries must be integers")
    return tuple(values)


def to_integers(values) -> tuple:
    """(ints, den): the rationals `values` (read by `rational`) as a tuple of
    ints over den, the lcm of their reduced denominators, so ints[i] / den
    == values[i]; all-int input comes back as it is, over 1."""
    values = tuple(values)
    types = set(map(type, values))
    if types <= {int}:
        return values, 1
    if not types <= {int, Fraction}:
        values = [rational(x) for x in values]
    den = lcm(*(x.denominator for x in values))
    return tuple(x.numerator * (den // x.denominator) for x in values), den


Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)


def rational_json(q) -> dict:
    """A rational as the JSON form of a Q(i) scalar."""
    return {"re": str(q), "im": "0"}


def _scalar_like(x) -> bool:
    """True for values a GaussianRational may absorb in arithmetic."""
    return isinstance(x, (int, Fraction, GaussianRational))


class GaussianRational:
    """An element a + b*i of Q(i), exact, immutable.

    Supports + and * with other GaussianRationals, ints and rationals
    (`fractions.Fraction`).  Inversion of zero raises ZeroDivisionError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=Q_ZERO):
        object.__setattr__(self, "re", rational(re))
        object.__setattr__(self, "im", rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion -----------------------------------------------------
    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if not _scalar_like(other):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        if not _scalar_like(other):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inv(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    # -- predicates ---------------------------------------------------
    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a Fraction is in lowest terms, so equal values have equal integers
        re, im = self.re, self.im
        return hash((re.numerator, re.denominator, im.numerator, im.denominator))

    # -- rendering ----------------------------------------------------
    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}*i"
        return f"{self.re}{sign}{istr}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    # -- serialization ------------------------------------------------
    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


def render_terms(terms) -> str:
    """Render (coefficient, unit) pairs as a signed sum of c*unit terms.

    A unit "1" marks the constant term, which prints as its coefficient.
    Coefficients 1 and -1 are left implicit, a coefficient with an inner
    sign is parenthesized, zero coefficients are skipped, and the empty
    sum is "0".
    """
    parts = []
    for c, unit in terms:
        if not c:
            continue
        cs = str(c)
        if unit == "1":
            parts.append(cs)
        elif cs == "1":
            parts.append(unit)
        elif cs == "-1":
            parts.append(f"-{unit}")
        elif ("+" in cs[1:]) or ("-" in cs[1:]):
            parts.append(f"({cs})*{unit}")
        else:
            parts.append(f"{cs}*{unit}")
    if not parts:
        return "0"
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


class TruncatedSeries:
    """Element of Q(i)[t] modulo t^N; coeffs[k] is the coefficient of t^k.

    All arithmetic requires matching truncation orders.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        if isinstance(coeffs, (dict,)):
            raise TypeError("coeffs must be a sequence indexed by power of t")
        coeffs = [GaussianRational.coerce(c) for c in coeffs]
        if order is None:
            order = len(coeffs)
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if len(coeffs) > order:
            coeffs = coeffs[:order]
        coeffs.extend([GR_ZERO] * (order - len(coeffs)))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def constant(c, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return TruncatedSeries([GaussianRational.coerce(c)], order)

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"truncation orders differ: {self.order} != {other.order}")

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            if not _scalar_like(other):
                return NotImplemented
            c = GaussianRational.coerce(other)
            return TruncatedSeries([a * c for a in self.coeffs], self.order)
        self._check(other)
        n = self.order
        out = [GR_ZERO] * n
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, n)

    __rmul__ = __mul__

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, truncated at t^N."""
        if self.coeffs[0]:
            raise ValueError("exp requires zero constant term")
        out = TruncatedSeries.constant(GR_ONE, self.order)
        term = TruncatedSeries.constant(GR_ONE, self.order)
        for k in range(1, self.order):
            term = term * self * GaussianRational(rational(1, k))
            if not term:
                break
            out = out + term
        return out

    # -- predicates -----------------------------------------------------
    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def constant_term(self) -> GaussianRational:
        return self.coeffs[0]

    # -- rendering ------------------------------------------------------
    def __str__(self) -> str:
        """Nonzero terms joined by " + ", each c, t^k, -t^k or (c)*t^k."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if k == 0:
                parts.append(cs)
                continue
            tk = "t" if k == 1 else f"t^{k}"
            parts.append(tk if cs == "1" else f"-{tk}" if cs == "-1" else f"({cs})*{tk}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self!s}, order={self.order})"

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        return {"coeffs": [c.to_json() for c in self.coeffs], "order": self.order}
