"""Exact scalar arithmetic over Q(i) and truncated formal power series in t.

Every computation in the package bottoms out here.  Scalars are Gaussian
rationals a + b*i with arbitrary-precision rational parts; there is no
floating point anywhere.  Truncated series are elements of Q(i)[t]/(t^N)
with a uniform truncation order N inside one computation context.

The rational backend is selected at import time: gmpy2.mpq when available
(much faster on large numerators), else fractions.Fraction.  Both are
exact and produce identical string forms, so results and serializations do
not depend on the backend.

A GaussianRational whose imaginary part is zero does its +, * and unary -
as one operation on the real parts, so callers need not lower real data
to rationals themselves: a matrix or polynomial with rational entries
costs rational arithmetic plus a zero test or two per operation.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _RAT  # type: ignore[import-not-found]
except ImportError:
    _RAT = Fraction

#: default truncation order; every acceptance computation needs <= t^8
DEFAULT_ORDER = 16


def rational(value=0, den=None):
    """Exact rational from an int, a decimal string like '-3/4', or another rational."""
    if den is not None:
        return _RAT(value) / _RAT(den)
    if type(value) is _RAT:
        return value
    if isinstance(value, str):
        if "/" in value:
            num, _, d = value.partition("/")
            return _RAT(int(num)) / _RAT(int(d))
        return _RAT(int(value))
    if isinstance(value, float):
        raise TypeError("floating point input is not allowed in exact arithmetic")
    return _RAT(value)


_ZERO = _RAT(0)


def power(base, n: int, one):
    """base**n for an int n >= 0 by square and multiply; one is the unit."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _scalar_like(x) -> bool:
    """True for values a GaussianRational may absorb in arithmetic."""
    return (
        isinstance(x, (int, GaussianRational, Fraction))
        or type(x) is _RAT
    )


class GaussianRational:
    """An element a + b*i of Q(i), exact, immutable.

    Supports +, -, *, /, ** with other GaussianRationals, ints and backend
    rationals.  Inversion of zero raises ZeroDivisionError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=_ZERO):
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
        if not (self.im or other.im):
            return GaussianRational(self.re + other.re)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        if not self.im:
            return GaussianRational(-self.re)
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if not _scalar_like(other):
            return NotImplemented
        other = GaussianRational.coerce(other)
        if not (self.im or other.im):
            return GaussianRational(self.re - other.re)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if not _scalar_like(other):
            return NotImplemented
        other = GaussianRational.coerce(other)
        if not (self.im or other.im):
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inv(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inv()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, GR_ONE)

    # -- predicates ---------------------------------------------------
    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int,)) or type(other) is _RAT or isinstance(other, Fraction):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

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

    @staticmethod
    def t(order: int = DEFAULT_ORDER, coeff=1) -> "TruncatedSeries":
        """The series coeff * t."""
        return TruncatedSeries([GR_ZERO, GaussianRational.coerce(coeff)], order)

    def _check(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"truncation orders differ: {self.order} != {other.order}")

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            if not _scalar_like(other):
                return NotImplemented
            other = TruncatedSeries.constant(other, self.order)
        self._check(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            if not _scalar_like(other):
                return NotImplemented
            other = TruncatedSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return TruncatedSeries.constant(other, self.order) + (-self)

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of series are not supported")
        return power(self, n, TruncatedSeries.constant(GR_ONE, self.order))

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

    def substitute_t(self, unit: GaussianRational) -> "TruncatedSeries":
        """Replace t by unit*t (coefficient k scaled by unit^k)."""
        u = GR_ONE
        out = []
        for c in self.coeffs:
            out.append(c * u)
            u = u * unit
        return TruncatedSeries(out, self.order)

    # -- predicates -----------------------------------------------------
    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            if isinstance(other, (int, GaussianRational)):
                other = TruncatedSeries.constant(other, self.order)
            else:
                return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def constant_term(self) -> GaussianRational:
        return self.coeffs[0]

    # -- rendering ------------------------------------------------------
    def __str__(self) -> str:
        return render_terms(
            (c, "1" if k == 0 else "t" if k == 1 else f"t^{k}") for k, c in enumerate(self.coeffs)
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries({self!s}, order={self.order})"

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        return {"coeffs": [c.to_json() for c in self.coeffs], "order": self.order}
