"""The Donaldson series of a product of two surfaces, in closed form, with
`fractions.Fraction` only.

Over the basis (E, F) of the factor classes of genus g and h (E.F = 1,
E^2 = F^2 = 0) the series of Sigma_g x Sigma_h is

* both genera >= 2: 2^(7(g-1)(h-1)+3) * sinh(K) if g and h are even, else
  the same times cosh(K), with K = (2h-2) E + (2g-2) F the canonical class;
* one genus 1, the other m: 4^m * sinh^(2m-2)(X), X the class of the torus
  factor.

The benchmark writes its input files from these terms and checks the
program's evaluations against the Taylor coefficients below, which are
built from the Taylor series of sinh, cosh and exp(Q(D) t^2 / 2) by power
series products rather than from the exponential terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


#: intersection form on the (E, F) basis
HYPERBOLIC_Q = [[0, 1], [1, 0]]


def pair(u, v) -> int:
    """u . v under the hyperbolic form."""
    return u[0] * v[1] + u[1] * v[0]


def canonical_class(g: int, h: int) -> tuple:
    return (2 * h - 2, 2 * g - 2)


def _torus_class(g: int, h: int) -> tuple:
    return (0, 1) if h == 1 else (1, 0)


def product_terms(g: int, h: int) -> dict:
    """{K: a} with the series equal to exp(Q/2) * sum a exp(K)."""
    if min(g, h) == 1:
        m = max(g, h)
        n = 2 * m - 2
        x = _torus_class(g, h)
        # sinh^n(X) = 2^-n sum_j C(n,j) (-1)^j exp((n-2j) X)
        terms = {}
        for j in range(n + 1):
            k = ((n - 2 * j) * x[0], (n - 2 * j) * x[1])
            terms[k] = terms.get(k, 0) + Fraction(4**m * comb(n, j) * (-1) ** j, 2**n)
        return {k: a for k, a in terms.items() if a}
    half = Fraction(2 ** (7 * (g - 1) * (h - 1) + 3), 2)
    k = canonical_class(g, h)
    minus = -half if (g % 2 == 0 and h % 2 == 0) else half
    return {k: half, (-k[0], -k[1]): minus}


def product_series_json(g: int, h: int) -> dict:
    """A series file as `floercas donaldson` reads it."""
    terms = product_terms(g, h)
    return {
        "basis": ["E", "F"],
        "Q": HYPERBOLIC_Q,
        "terms": [{"a": str(terms[k]), "K": list(k)} for k in sorted(terms)],
        "simple_type": True,
    }


def _mul_truncated(a: list, b: list) -> list:
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def product_taylor(g: int, h: int, d, order: int) -> list:
    """Coefficients of t^0..t^(order-1) of the series evaluated on D."""
    q_half = Fraction(pair(d, d), 2)
    if min(g, h) == 1:
        m = max(g, h)
        n = 2 * m - 2
        x = pair(_torus_class(g, h), d)
        sinh = [Fraction(x**k, factorial(k)) if k % 2 else Fraction(0) for k in range(order)]
        f = [Fraction(4**m)] + [Fraction(0)] * (order - 1)
        for _ in range(n):
            f = _mul_truncated(f, sinh)
    else:
        kappa = pair(canonical_class(g, h), d)
        weight = 2 ** (7 * (g - 1) * (h - 1) + 3)
        odd = g % 2 == 0 and h % 2 == 0  # sinh keeps the odd powers, cosh the even
        f = [
            Fraction(weight * kappa**k, factorial(k)) if (k % 2 == 1) == odd else Fraction(0)
            for k in range(order)
        ]
    # multiply by exp(Q(D) t^2 / 2) = sum_j (Q(D)/2)^j t^(2j) / j!
    gauss = [q_half**j / factorial(j) for j in range(order // 2 + 1)]
    return [sum(gauss[j] * f[k - 2 * j] for j in range(k // 2 + 1)) for k in range(order)]
