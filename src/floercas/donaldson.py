"""Donaldson-series data model and the series calculators: products of two
surfaces, fiber sums along a surface, exact series evaluation, finite-type
order bounds and the basic-class congruence test.

A series is stored as exp(Q/2) * sum_i a_i exp(K_i) over a named, finitely
generated sublattice of the second homology: Q is the intersection form on
that sublattice, the K_i are integer vectors in it and the a_i plain
rationals.  sqrt(-1) never enters stored coefficients; it only appears in
evaluations through rotated arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exactalg import (
    DEFAULT_ORDER,
    GaussianRational,
    TruncatedSeries,
    rational,
)
from .linalg import Matrix

__all__ = [
    "DonaldsonSeries",
    "FiberSumInput",
    "SplitClass",
    "CongruenceReport",
    "product_series",
    "product_sum_input",
    "evaluate",
    "fiber_sum",
    "finite_type_order",
    "congruence_check",
    "w_sigma_combine",
    "rotated_combination",
]


def _norm_terms(terms) -> tuple:
    acc: dict[tuple, object] = {}
    for a, k in terms:
        k = tuple(int(x) for x in k)
        a = rational(a)
        if k in acc:
            acc[k] = acc[k] + a
        else:
            acc[k] = a
    return tuple((acc[k], k) for k in sorted(acc) if acc[k] != 0)


@dataclass(frozen=True)
class DonaldsonSeries:
    """exp(Q/2) * sum a_i exp(K_i) over a named sublattice of 2-homology."""

    basis_names: tuple
    q: tuple
    terms: tuple
    simple_type: bool = True

    def __post_init__(self):
        n = len(self.basis_names)
        q = tuple(tuple(int(x) for x in row) for row in self.q)
        if len(q) != n or any(len(row) != n for row in q):
            raise ValueError("intersection form shape does not match basis")
        if q != tuple(tuple(row[i] for row in q) for i in range(n)):
            raise ValueError("intersection form must be symmetric")
        object.__setattr__(self, "basis_names", tuple(self.basis_names))
        object.__setattr__(self, "q", q)
        terms = _norm_terms(self.terms)
        if any(len(k) != n for _, k in terms):
            raise ValueError("class vector length does not match basis")
        object.__setattr__(self, "terms", terms)

    # -- lattice pairings ---------------------------------------------------
    def pair(self, u, v) -> int:
        """u^T Q v for integer vectors in the tracked lattice."""
        return sum(
            int(u[i]) * self.q[i][j] * int(v[j])
            for i in range(len(self.basis_names))
            for j in range(len(self.basis_names))
        )

    def quadratic_form(self, v) -> int:
        return self.pair(v, v)

    def classes(self) -> list:
        return [k for _, k in self.terms]

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis_names),
            "Q": [list(row) for row in self.q],
            "terms": [{"a": str(a), "K": list(k)} for a, k in self.terms],
            "simple_type": self.simple_type,
        }

    @staticmethod
    def from_json(obj: dict) -> "DonaldsonSeries":
        simple_type = obj.get("simple_type", True)
        if not isinstance(simple_type, bool):
            # bool() would read the string "false" as simple type
            raise ValueError("simple_type must be a boolean")
        return DonaldsonSeries(
            basis_names=tuple(obj["basis"]),
            q=tuple(_integers(row, "Q") for row in obj["Q"]),
            terms=tuple((rational(t["a"]), _integers(t["K"], "K")) for t in obj["terms"]),
            simple_type=simple_type,
        )


def _integers(values, name: str) -> tuple:
    """values as a tuple, rejecting any entry that is not an integer: int()
    would truncate a fractional class or form entry without a word."""
    out = tuple(values)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in out):
        raise ValueError(f"{name} entries must be integers")
    return out


_HYPERBOLIC_Q = ((0, 1), (1, 0))


def product_series(g: int, h: int) -> DonaldsonSeries:
    """Series of the product of two surfaces of genus g and h (both >= 1),
    over the basis (E, F) of the two factor classes, E.F = 1, E^2 = F^2 = 0.

    One factor of genus 1: 4^m sinh^(2m-2) of the genus-1 class, m the
    other genus.  Both factors > 1: 2^(7(g-1)(h-1)+3) times sinh of the
    canonical class when both genera are even, cosh otherwise.
    """
    if g < 1 or h < 1:
        raise ValueError("genera must be >= 1")
    terms = []
    if min(g, h) == 1:
        m = max(g, h)
        # 4^m * sinh^(2m-2)(X) where X is the genus-1 factor class
        x = (0, 1) if h == 1 else (1, 0)
        n = 2 * m - 2
        lead = rational(4**m) / rational(2**n)
        for j in range(n + 1):
            coeff = lead * comb(n, j) * (-1) ** j
            k = tuple((n - 2 * j) * c for c in x)
            terms.append((coeff, k))
    else:
        weight = rational(2 ** (7 * (g - 1) * (h - 1) + 3)) / 2
        k = (2 * h - 2, 2 * g - 2)
        minus = -weight if (g % 2 == 0 and h % 2 == 0) else weight
        terms = [(weight, k), (minus, tuple(-c for c in k))]
    return DonaldsonSeries(("E", "F"), _HYPERBOLIC_Q, terms, simple_type=True)


def evaluate(series: DonaldsonSeries, d, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """exp(Q(D) t^2/2) * sum a_i exp((K_i . D) t), truncated at t^order."""
    d = tuple(int(x) for x in d)
    qd = series.quadratic_form(d)
    quad = TruncatedSeries(
        [0, 0, GaussianRational(rational(qd, 2))], order
    ).exp()
    acc = TruncatedSeries.constant(0, order)
    for a, k in series.terms:
        pairing = series.pair(k, d)
        expo = TruncatedSeries([0, GaussianRational(pairing)], order).exp()
        acc = acc + GaussianRational(a) * expo
    return quad * acc


@dataclass(frozen=True)
class SplitClass:
    """How one result basis class D restricts to the two sides of a sum
    along a surface, together with its pairing with that surface."""

    d1: tuple
    d2: tuple
    sigma_dot: int


@dataclass(frozen=True)
class FiberSumInput:
    """Data for a sum of two 4-manifolds along a genus-g surface.

    sigma_in_a/b express the glued surface inside each side's lattice; the
    splits say how each result basis class decomposes as d1 + d2, which
    the caller supplies (it is checked against D^2 = D1^2 + D2^2, not
    derived).
    """

    a: DonaldsonSeries
    b: DonaldsonSeries
    genus: int
    sigma_in_a: tuple
    sigma_in_b: tuple
    basis_names: tuple
    q: tuple
    splits: tuple

    def validate(self):
        if self.genus < 1:
            raise ValueError("gluing genus must be >= 1")
        if not (self.a.simple_type and self.b.simple_type):
            raise ValueError("fiber sum requires simple-type inputs")
        if self.a.quadratic_form(self.sigma_in_a) != 0:
            raise ValueError("glued surface must have self-intersection zero")
        if self.b.quadratic_form(self.sigma_in_b) != 0:
            raise ValueError("glued surface must have self-intersection zero")
        if len(self.splits) != len(self.basis_names):
            raise ValueError("need one split per result basis class")
        n = len(self.basis_names)
        result = DonaldsonSeries(self.basis_names, self.q, ())
        if Matrix(result.q).rank() < n:
            raise ValueError("intersection form Q must be nondegenerate")
        for idx, sp in enumerate(self.splits):
            d = tuple(1 if j == idx else 0 for j in range(n))
            lhs = result.quadratic_form(d)
            rhs = self.a.quadratic_form(sp.d1) + self.b.quadratic_form(sp.d2)
            if lhs != rhs:
                raise ValueError(
                    f"split of {self.basis_names[idx]} violates D^2 = D1^2 + D2^2"
                )

    @staticmethod
    def from_json(a: DonaldsonSeries, b: DonaldsonSeries, genus: int, obj: dict) -> "FiberSumInput":
        splits = []
        for s in obj["splits"]:
            dot = s["sigma_dot"]
            if not isinstance(dot, int) or isinstance(dot, bool):
                raise ValueError("sigma_dot must be an integer")
            splits.append(SplitClass(_integers(s["d1"], "d1"), _integers(s["d2"], "d2"), dot))
        return FiberSumInput(
            a=a,
            b=b,
            genus=genus,
            sigma_in_a=_integers(obj["sigma_a"], "sigma_a"),
            sigma_in_b=_integers(obj["sigma_b"], "sigma_b"),
            basis_names=tuple(obj["basis"]),
            q=tuple(_integers(row, "Q") for row in obj["Q"]),
            splits=tuple(splits),
        )


def _solve_class(q, pairings) -> tuple:
    """Integer vector K with K^T Q e_m = pairings[m] for all basis vectors."""
    n = len(pairings)
    mat = Matrix([[q[i][j] for j in range(n)] for i in range(n)])
    sol = mat.solve([GaussianRational(p) for p in pairings])
    out = []
    for c in sol:
        if c.im != 0 or c.re.denominator != 1:
            raise ValueError("result class does not lie in the tracked lattice")
        out.append(int(c.re))
    return tuple(out)


def fiber_sum(inp: FiberSumInput) -> DonaldsonSeries:
    """Series of the sum along a genus-g surface.

    g >= 2: only class pairs pairing to +-(2g-2) with the surface survive;
    the plus side gets weight 2^(7g-9) a_j b_k, the minus side the extra
    sign (-1)^(g-1), and the glued class is shifted by +-2 Sigma.  g = 1:
    every pair contributes the three-term expansion of sinh^2.
    """
    inp.validate()
    g = inp.genus
    out_terms = []

    def result_class(k1, k2, sigma_mult):
        pairings = [
            inp.a.pair(k1, sp.d1) + inp.b.pair(k2, sp.d2) + sigma_mult * sp.sigma_dot
            for sp in inp.splits
        ]
        return _solve_class(inp.q, pairings)

    if g >= 2:
        target = 2 * g - 2
        weight = rational(2 ** (7 * g - 9))
        sign = (-1) ** (g - 1)
        for a_c, k1 in inp.a.terms:
            p1 = inp.a.pair(k1, inp.sigma_in_a)
            if p1 != target and p1 != -target:
                continue
            for b_c, k2 in inp.b.terms:
                p2 = inp.b.pair(k2, inp.sigma_in_b)
                if p2 != p1:
                    continue
                if p1 == target:
                    out_terms.append((weight * a_c * b_c, result_class(k1, k2, 2)))
                else:
                    out_terms.append((sign * weight * a_c * b_c, result_class(k1, k2, -2)))
    else:
        # sinh^2((Sigma.D) t) = exp(2 Sigma)/4 - 1/2 + exp(-2 Sigma)/4
        quarter = rational(1, 4)
        half = rational(1, 2)
        for a_c, k1 in inp.a.terms:
            for b_c, k2 in inp.b.terms:
                ab = a_c * b_c
                out_terms.append((ab * quarter, result_class(k1, k2, 2)))
                out_terms.append((-ab * half, result_class(k1, k2, 0)))
                out_terms.append((ab * quarter, result_class(k1, k2, -2)))
    return DonaldsonSeries(inp.basis_names, inp.q, out_terms, simple_type=True)


def product_sum_input(g: int, h1: int, h2: int) -> FiberSumInput:
    """Glue two products of surfaces along their common genus-g factor.

    Both sides are product_series(g, h_i) over (E, F) with E the glued
    class; the result basis is E (the surface) and F (the glued base),
    so the output is directly comparable with product_series(g, h1+h2).
    """
    return FiberSumInput(
        a=product_series(g, h1),
        b=product_series(g, h2),
        genus=g,
        sigma_in_a=(1, 0),
        sigma_in_b=(1, 0),
        basis_names=("E", "F"),
        q=_HYPERBOLIC_Q,
        splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
    )


def finite_type_order(g: int, b1_zero: bool = False) -> int:
    """Upper bound for the annihilation order of (x^2-4) coming from an
    embedded genus-g surface of square zero; with vanishing first Betti
    number only the top level contributes."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    if g == 0:
        return 0
    if b1_zero:
        return (2 * g - 2) // 4 + 1
    return sum((2 * g - 2 * i) // 4 + 1 for i in range(1, g + 1))


@dataclass(frozen=True)
class CongruenceReport:
    genus: int
    target: int
    verdicts: tuple  # (class vector, pairing, residue, ok)
    passed: bool

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "target": self.target,
            "classes": [
                {"K": list(k), "pairing": p, "residue": res, "pass": ok}
                for k, p, res, ok in self.verdicts
            ],
            "passed": self.passed,
        }


def congruence_check(series: DonaldsonSeries, sigma, g: int) -> CongruenceReport:
    """Check K . Sigma = 2g-2 (mod 4) for every basic class; Sigma is given
    as a vector in the tracked lattice and must have square zero."""
    sigma = tuple(int(x) for x in sigma)
    if series.quadratic_form(sigma) != 0:
        raise ValueError("congruence test requires a square-zero surface class")
    target = (2 * g - 2) % 4
    verdicts = []
    ok_all = True
    for _, k in series.terms:
        p = series.pair(k, sigma)
        res = p % 4
        ok = res == target
        ok_all = ok_all and ok
        verdicts.append((k, p, res, ok))
    return CongruenceReport(g, target, tuple(verdicts), ok_all)


def w_sigma_combine(sa: DonaldsonSeries, sb: DonaldsonSeries) -> DonaldsonSeries:
    """Termwise sum of the two bundle-twist series over the same lattice."""
    if sa.basis_names != sb.basis_names or sa.q != sb.q:
        raise ValueError("series live on different lattices")
    return DonaldsonSeries(
        sa.basis_names,
        sa.q,
        tuple(sa.terms) + tuple(sb.terms),
        simple_type=sa.simple_type and sb.simple_type,
    )


def rotated_combination(
    s: TruncatedSeries, d0: int, normalization: GaussianRational
) -> TruncatedSeries:
    """normalization * (s(t) + sqrt(-1)^d0 * s(sqrt(-1) t)).

    Helper for recovering a single-bundle evaluation from the two-bundle
    combination; the overall constant is supplied by the caller because
    the normalization convention is not pinned down here.
    """
    i_unit = GaussianRational(0, 1)
    rot = s.substitute_t(i_unit)
    return (s + (i_unit ** (d0 % 4)) * rot) * normalization
