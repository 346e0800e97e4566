"""Donaldson-series data model and the series calculators: products of two
surfaces, fiber sums along a surface, exact series evaluation, finite-type
order bounds and the basic-class congruence test.

A series is stored as exp(Q/2) * sum_i a_i exp(K_i) over a named, finitely
generated sublattice of the second homology: Q is the intersection form on
that sublattice, the K_i are integer vectors in it and the a_i plain
rationals.  Evaluation and fiber sums work over Q throughout; an evaluated
series is handed back as a truncated series over Q(i) with real
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import NamedTuple

from .exactalg import DEFAULT_ORDER, TruncatedSeries, integer, integers, rational, to_integers
from .linalg import Matrix


def _norm_terms(terms) -> tuple:
    acc: dict[tuple, object] = {}
    for a, k in terms:
        k = integers(k, "K")
        a = rational(a)
        if k in acc:
            acc[k] = acc[k] + a
        else:
            acc[k] = a
    return tuple((acc[k], k) for k in sorted(acc) if acc[k] != 0)


class _SeriesFields(NamedTuple):
    basis_names: tuple
    q: tuple
    terms: tuple
    simple_type: bool = True


class DonaldsonSeries(_SeriesFields):
    """exp(Q/2) * sum a_i exp(K_i) over a named sublattice of 2-homology.

    The constructor reads each row of Q and each K by `exactalg.integers`,
    so an entry that is not an int raises ValueError naming Q or K, checks
    that Q is a symmetric form on the basis and normalizes the terms: equal
    classes are merged, zero coefficients dropped and the classes sorted.
    """

    __slots__ = ()

    def __new__(cls, basis_names, q, terms, simple_type: bool = True):
        basis_names = tuple(basis_names)
        n = len(basis_names)
        q = tuple(integers(row, "Q") for row in q)
        if len(q) != n or any(len(row) != n for row in q):
            raise ValueError("intersection form shape does not match basis")
        if q != tuple(tuple(row[i] for row in q) for i in range(n)):
            raise ValueError("intersection form must be symmetric")
        terms = _norm_terms(terms)
        if any(len(k) != n for _, k in terms):
            raise ValueError("class vector length does not match basis")
        return super().__new__(cls, basis_names, q, terms, simple_type)

    # -- lattice pairings ---------------------------------------------------
    def pair(self, u, v) -> int:
        """u^T Q v for integer vectors in the tracked lattice; a vector of
        another length than the basis raises ValueError."""
        n = len(self.basis_names)
        if len(u) != n or len(v) != n:
            raise ValueError("class vector length does not match basis")
        return sum(u[i] * self.q[i][j] * v[j] for i in range(n) for j in range(n))

    def quadratic_form(self, v) -> int:
        return self.pair(v, v)

    def classes(self) -> list:
        return [k for _, k in self.terms]

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis_names),
            "Q": [list(row) for row in self.q],
            "terms": [{"a": str(a), "K": list(k)} for a, k in self.terms],
            "simple_type": self.simple_type,
        }

    @staticmethod
    def from_json(obj: dict) -> "DonaldsonSeries":
        """The series of a JSON object with basis, Q, terms and optionally
        simple_type; a field of the wrong shape raises ValueError naming it,
        and the constructor checks that Q and each K hold integers."""
        if not isinstance(obj, dict):
            raise ValueError("a series must be a JSON object")
        simple_type = obj.get("simple_type", True)
        if not isinstance(simple_type, bool):
            # bool() would read the string "false" as simple type
            raise ValueError("simple_type must be a boolean")
        basis_names = _names(_field(obj, "basis", "a series"))
        q = _array(_field(obj, "Q", "a series"), "Q")
        terms = []
        for t in _array(_field(obj, "terms", "a series"), "terms"):
            if not isinstance(t, dict):
                raise ValueError("each entry of terms must be a JSON object")
            a = _field(t, "a", "a term")
            if isinstance(a, bool) or not isinstance(a, (int, str)):
                raise ValueError("a term's a must be an integer or a string like '-3/4'")
            try:
                a = rational(a)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"a term's a is {a!r}, not a rational number") from None
            terms.append((a, _field(t, "K", "a term")))
        return DonaldsonSeries(basis_names, q, tuple(terms), simple_type)


def _field(obj: dict, key: str, what: str):
    """obj[key] of a JSON object, or a ValueError naming the missing field."""
    if key not in obj:
        raise ValueError(f"{what} has no field {key!r}")
    return obj[key]


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array")
    return value


def _names(values) -> tuple:
    """A basis given as a JSON array of distinct class names: a name listed
    twice would leave the classes of a result unreadable by name."""
    if not all(isinstance(x, str) for x in _array(values, "basis")):
        raise ValueError("basis entries must be strings")
    if len(set(values)) != len(values):
        raise ValueError("basis names a class more than once")
    return tuple(values)


_HYPERBOLIC_Q = ((0, 1), (1, 0))


def product_series(g: int, h: int) -> DonaldsonSeries:
    """Series of the product of two surfaces of genus g and h, ints >= 1 read
    by `exactalg.integer`, over the factor classes (E, F), E.F = 1, E^2 = F^2 = 0.

    One factor of genus 1: 4^m sinh^(2m-2) of the genus-1 class, m the
    other genus.  Both factors > 1: 2^(7(g-1)(h-1)+3) times sinh of the
    canonical class when both genera are even, cosh otherwise.
    """
    if integer(g, "g") < 1 or integer(h, "h") < 1:
        raise ValueError("genera must be >= 1")
    terms = []
    if min(g, h) == 1:
        m = max(g, h)
        # 4^m * sinh^(2m-2)(X) where X is the genus-1 factor class
        x = (0, 1) if h == 1 else (1, 0)
        n = 2 * m - 2
        for j in range(n + 1):  # 4^m / 2^n = 4
            terms.append((4 * comb(n, j) * (-1) ** j, tuple((n - 2 * j) * c for c in x)))
    else:
        weight = 2 ** (7 * (g - 1) * (h - 1) + 2)  # 2^(7(g-1)(h-1)+3) times the 1/2 of sinh or cosh
        k = (2 * h - 2, 2 * g - 2)
        minus = -weight if (g % 2 == 0 and h % 2 == 0) else weight
        terms = [(weight, k), (minus, tuple(-c for c in k))]
    return DonaldsonSeries(("E", "F"), _HYPERBOLIC_Q, terms, simple_type=True)


def evaluate(series: DonaldsonSeries, d, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """exp(Q(D) t^2/2) * sum a_i exp((K_i . D) t), truncated at t^order.

    The coefficients are computed over Z in closed form.  With c_i = K_i . D,
    the a_i = A_i / L over the lcm L of their denominators, the power sums
    S[m] = sum_i A_i c_i^m and q = Q(D), coefficient n is

        sum over 2j <= n of (q/2)^j / j! * S[n - 2j] / (n - 2j)! / L
        = sum_j w(n, j) S[n - 2j] / (L n! 2^h),  h = floor(n/2),

    with the integers w(n, j) = n! / (j! (n - 2j)!) q^j 2^(h - j), so each
    coefficient is one integer sum and one division.  w(n, 0) = 2^h, and
    w(n, j + 1) = w(n, j) (n - 2j) (n - 2j - 1) q / (2 (j + 1)) exactly.
    The result is wrapped in a series over Q(i) only at the end.  D is read
    by `exactalg.integers`, so an entry that is not an int raises ValueError.
    """
    d = integers(d, "class")
    nums, den = to_integers(a for a, _ in series.terms)
    s = [0] * order
    for term, (_, k) in zip(nums, series.terms):  # term: A_i c_i^m, one running term per class
        c = series.pair(k, d)
        s[0] += term
        for m in range(1, order):
            term *= c
            s[m] += term
    q = series.quadratic_form(d)
    coeffs = []
    fact = 1  # n!
    for n in range(order):
        if n:
            fact *= n
        h = n // 2
        w, total = 1 << h, 0
        for j in range(h + 1):
            total += w * s[n - 2 * j]
            w = w * (n - 2 * j) * (n - 2 * j - 1) * q // (2 * (j + 1))
        coeffs.append(Fraction(total, den * fact << h))
    return TruncatedSeries(coeffs, order)


class SplitClass(NamedTuple):
    """How one result basis class D restricts to the two sides of a sum
    along a surface, together with its pairing with that surface."""

    d1: tuple
    d2: tuple
    sigma_dot: int


class FiberSumInput(NamedTuple):
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
        """Check that the genus, each split's sigma_dot, d1 and d2 and sigma_in_a/b
        (named sigma_a/b, as in a pairing) hold ints (`exactalg.integer`), then
        genus >= 1, simple type, vector lengths, Sigma^2 = 0 on both sides, Q a
        symmetric integer form and D^2 = D1^2 + D2^2 for each split, with D^2 read
        off Q's diagonal; return the solver of result classes (see `_ClassSolver`),
        whose one elimination of Q proves it nondegenerate."""
        for sp in self.splits:
            integer(sp.sigma_dot, "sigma_dot")
            integers(sp.d1, "d1")
            integers(sp.d2, "d2")
        integers(self.sigma_in_a, "sigma_a")
        integers(self.sigma_in_b, "sigma_b")
        if integer(self.genus, "genus") < 1:
            raise ValueError("gluing genus must be >= 1")
        if not (self.a.simple_type and self.b.simple_type):
            raise ValueError("fiber sum requires simple-type inputs")
        na, nb = len(self.a.basis_names), len(self.b.basis_names)
        if len(self.sigma_in_a) != na or len(self.sigma_in_b) != nb:
            raise ValueError("glued surface vector does not match its side's basis")
        for name, sp in zip(self.basis_names, self.splits):
            if len(sp.d1) != na or len(sp.d2) != nb:
                raise ValueError(f"split of {name} does not match the sides' bases")
        if self.a.quadratic_form(self.sigma_in_a) or self.b.quadratic_form(self.sigma_in_b):
            raise ValueError("glued surface must have self-intersection zero")
        if len(self.splits) != len(self.basis_names):
            raise ValueError("need one split per result basis class")
        q = DonaldsonSeries(self.basis_names, self.q, ()).q  # checks shape and symmetry
        solver = _ClassSolver(q)
        for idx, sp in enumerate(self.splits):
            if q[idx][idx] != self.a.quadratic_form(sp.d1) + self.b.quadratic_form(sp.d2):
                raise ValueError(
                    f"split of {self.basis_names[idx]} violates D^2 = D1^2 + D2^2"
                )
        return solver

    @staticmethod
    def from_json(a: DonaldsonSeries, b: DonaldsonSeries, genus: int, obj: dict) -> "FiberSumInput":
        """The input of a JSON pairing object with sigma_a, sigma_b, basis, Q
        and splits; a field of the wrong shape raises ValueError naming it,
        and `validate` checks that the vectors, Q and sigma_dot hold integers."""
        if not isinstance(obj, dict):
            raise ValueError("a pairing must be a JSON object")
        splits = []
        for s in _array(_field(obj, "splits", "a pairing"), "splits"):
            if not isinstance(s, dict):
                raise ValueError("each entry of splits must be a JSON object")
            dot = _field(s, "sigma_dot", "a split")
            splits.append(SplitClass(_field(s, "d1", "a split"), _field(s, "d2", "a split"), dot))
        return FiberSumInput(
            a=a,
            b=b,
            genus=genus,
            sigma_in_a=_field(obj, "sigma_a", "a pairing"),
            sigma_in_b=_field(obj, "sigma_b", "a pairing"),
            basis_names=_names(_field(obj, "basis", "a pairing")),
            q=_array(_field(obj, "Q", "a pairing"), "Q"),
            splits=tuple(splits),
        )


class _ClassSolver:
    """The map from a pairing vector p to the integer class K with Q K = p.

    One elimination of [Q | I] gives [I | Q^-1] as integer rows over one
    denominator (`Matrix.nums` over `Matrix.den`), so den Q^-1 is an
    integer matrix.  `lift(p)` is the integer vector den Q^-1 p, which is
    linear in p, and `divide` turns a sum of lifts into its class,
    refusing one that is not integral.
    """

    def __init__(self, q):
        n = len(q)
        augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(q)]
        rref, pivots = Matrix(augmented).rref()
        if any(pc >= n for pc in pivots):
            raise ValueError("intersection form Q must be nondegenerate")
        self.den = rref.den
        self.inverse = [row[n:] for row in rref.nums]

    def lift(self, pairings) -> list:
        return [sum(x * p for x, p in zip(row, pairings)) for row in self.inverse]

    def divide(self, lifted) -> tuple:
        if any(x % self.den for x in lifted):
            raise ValueError("result class does not lie in the tracked lattice")
        return tuple(x // self.den for x in lifted)


def fiber_sum(inp: FiberSumInput) -> DonaldsonSeries:
    """Series of the sum along a genus-g surface.

    Each pair of terms a_j exp(K1), b_k exp(K2), with s1 = K1.Sigma and
    s2 = K2.Sigma, adds rows (m, w): w a_j b_k at the glued class shifted
    by m Sigma.  The sum is then multiplied by the common factor c:

        genus   pair                     rows (m, w)                   c
        1       every pair               (2, 1), (0, -2), (-2, 1)      1/4
        >= 2    s1 = s2 = 2g - 2         (2, 1)                        2^(7g-9)
        >= 2    s1 = s2 = -(2g - 2)      (-2, (-1)^(g-1))              2^(7g-9)

    Every other pair adds nothing.  The genus-1 rows expand sinh^2 =
    exp(2 Sigma)/4 - 1/2 + exp(-2 Sigma)/4.

    A result class K solves Q K = p, p the sum of each side's pairings with
    the splits and m times the sigma_dot vector.  Q^-1 p is linear in p,
    so each side is read once into (A, lift, s): its coefficient as an
    integer over the side's lcm, the lift of its pairings (see
    `_ClassSolver`) and s.  The integer weights are summed per lifted
    class vector, which is one-to-one with the class, and each vector is
    divided once, a zero sum included, so a class outside the lattice is
    refused whatever its weight; each class then gets one Fraction.
    """
    solver = inp.validate()
    g, t = inp.genus, 2 * inp.genus - 2
    # the rows of a pair by (s1, s2), and of every pair not in the table
    if g == 1:
        table, every, c_num, c_den = {}, ((2, 1), (0, -2), (-2, 1)), 1, 4
    else:
        table, every = {(t, t): ((2, 1),), (-t, -t): ((-2, (-1) ** (g - 1)),)}, ()
        c_num, c_den = 2 ** (7 * g - 9), 1
    dots = solver.lift([sp.sigma_dot for sp in inp.splits])
    shifts = {m: [m * z for z in dots] for m in (2, 0, -2)}  # m Sigma, lifted

    def side(series, splits, sigma):
        nums, den = to_integers(a for a, _ in series.terms)
        return den, [(num, solver.lift([series.pair(k, d) for d in splits]), series.pair(k, sigma))
                     for num, (_, k) in zip(nums, series.terms)]

    la, side_a = side(inp.a, [sp.d1 for sp in inp.splits], inp.sigma_in_a)
    lb, side_b = side(inp.b, [sp.d2 for sp in inp.splits], inp.sigma_in_b)
    sums: dict = {}
    for a_int, lift1, s1 in side_a:
        for b_int, lift2, s2 in side_b:
            rows = table.get((s1, s2), every)
            if rows:
                ab = a_int * b_int
                base = list(map(add, lift1, lift2))
                for m, w in rows:
                    v = tuple(map(add, base, shifts[m]))
                    sums[v] = sums.get(v, 0) + w * ab
    den = c_den * la * lb
    out_terms = [(Fraction(c * c_num, den), solver.divide(v)) for v, c in sums.items()]
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
    embedded genus-g surface of square zero (g read by `exactalg.integer`):
    the levels i = 1..g give sum (2g - 2i) // 4 + 1 = g + (g-1)^2 // 4, and
    with vanishing first Betti number only the top one, (g + 1) // 2."""
    if integer(g, "genus") < 0:
        raise ValueError("genus must be >= 0")
    return (g + 1) // 2 if b1_zero else g + (g - 1) ** 2 // 4


class CongruenceReport(NamedTuple):
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
    as an integer vector in the tracked lattice (read by `exactalg.integers`)
    and must have square zero, and g is read by `exactalg.integer`."""
    g = integer(g, "genus")
    sigma = integers(sigma, "sigma")
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
