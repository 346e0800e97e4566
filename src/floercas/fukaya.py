"""The t-deformed modules: reduced eigenmodules with their exact
first-order t-corrections, the effective eigenvalue table, the module
attached to a loop inside the surface, and the mu-action evaluators.

One record, RhffComponent, holds a line R_i of the reduced module.  The
effective table lists those lines, and the loop module holds its t-free
lines once and reads each of its parts off them.

Only the exactly-known content of the deformation is modelled.  The
undetermined higher deformation terms of the full relation recursion are
not representable here on purpose: every number below is pinned by the
eigenvalue statements, which are exact.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactalg import DEFAULT_ORDER, GaussianRational, TruncatedSeries, integer
from .floer import alpha_eigenvalue, beta_eigenvalue, primitive_dim


def _deformed_alpha(i: int, sigma: int, n: int, order: int) -> TruncatedSeries:
    """alpha on the index-i line, deformed to first order in t, for sigma
    copies of the surface and a loop running n times around the circle:
    sigma * alpha_eigenvalue(i) + 2nt (i odd) or - 2nt (i even)."""
    slope = GaussianRational(2 * n if i % 2 else -2 * n)
    return TruncatedSeries([alpha_eigenvalue(i) * sigma, slope], order)


class RhffComponent(NamedTuple):
    """The index-i line R_i: alpha acts on it as a series in t, beta as a constant."""

    i: int
    alpha: TruncatedSeries
    beta: GaussianRational

    def to_json(self) -> dict:
        return {"i": self.i, "alpha": self.alpha.to_json(), "beta": self.beta.to_json()}


class RhffModule(NamedTuple):
    """Free rank-(2g-1) module over the series ring, one line per index i
    with |i| <= g-1; beta^2 - 64 annihilates every line."""

    genus: int
    n: int
    components: tuple

    @property
    def rank(self) -> int:
        return len(self.components)

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "n": self.n,
            "rank": self.rank,
            "components": [c.to_json() for c in self.components],
        }


def reduced_module(g: int, n: int = 1, order: int = DEFAULT_ORDER) -> RhffModule:
    """The reduced module of genus g with 2-cycle boundary running n times
    around the circle factor."""
    g, n, order = integer(g, "genus"), integer(n, "n"), integer(order, "order")
    if g < 1:
        raise ValueError("genus must be >= 1")
    comps = tuple(
        RhffComponent(i, _deformed_alpha(i, 1, n, order), beta_eigenvalue(i))
        for i in range(-(g - 1), g)
    )
    return RhffModule(genus=g, n=n, components=comps)


def effective_eigenvalues(g: int, order: int = DEFAULT_ORDER) -> tuple:
    """Joint (alpha, beta, gamma) eigenvalues on the effective submodule:
    (-2t, 8, 0), (+-4 + 2t, -8, 0), (+-8*sqrt(-1) - 2t, 8, 0), ...  These
    are the lines of reduced_module(g) in order of |i|, positive i first,
    each with gamma = 0: gamma is nilpotent, so its only eigenvalue is 0."""
    return tuple(sorted(reduced_module(g, 1, order).components, key=lambda c: (abs(c.i), -c.i)))


class DeltaHffModule(NamedTuple):
    """Homology for a loop inside the surface: the sum over k of the k-th
    reduced primitive part, of dimension primitive_dim(g-1, k), tensored
    with the lines R_i of reduced_module(g, 0, 1), |i| <= g-k-1 and
    i = g-k-1 mod 2, all degree-3 generators acting by zero.  Held as those
    t-free lines of order 1, which the parts share."""

    genus: int
    lines: tuple

    def parts(self):
        """(k, primitive_dim(g-1, k), the lines of part k) for 0 <= k <= g-1."""
        g = self.genus
        for k in range(g):  # the index-i line sits at i + g - 1
            yield k, primitive_dim(g - 1, k), self.lines[k : 2 * g - 1 - k : 2]

    @property
    def total_rank(self) -> int:
        return sum(mult * len(lines) for _, mult, lines in self.parts())

    def to_json(self) -> dict:
        """One component (k, i, mult, alpha, beta) per line of each part;
        each line's alpha and beta are rendered once."""
        rendered = {c.i: c.to_json() for c in self.lines}
        return {
            "genus": self.genus,
            "total_rank": self.total_rank,
            "components": [
                {"k": k, "i": c.i, "mult": mult, "alpha": rendered[c.i]["alpha"],
                 "beta": rendered[c.i]["beta"]}
                for k, mult, lines in self.parts()
                for c in lines
            ],
        }


def delta_module(g: int) -> DeltaHffModule:
    """The loop module of genus g; alpha and beta act on each part as on
    the index-i line of reduced_module(g, 0, 1): t-free, of order 1."""
    return DeltaHffModule(g, reduced_module(g, 0, 1).components)


class YHomologyClass(NamedTuple):
    """A homology class of the product three-manifold, held as the
    pairings the mu-action reads: a grade-2 class by its intersections
    with the circle fiber and with the loop, a grade-0 class by its
    multiple of [point]; a grade-1 class acts by zero and is held by its
    grade alone.
    """

    grade: int
    circle_pairing: int = 0
    loop_pairing: int = 0
    point_mult: int = 0

    @staticmethod
    def surface(sigma_coeff: int = 1, torus_coeffs=()) -> "YHomologyClass":
        """sigma_coeff * [surface] + sum_j torus_coeffs[j - 1] * torus(g, j),
        torus_coeffs empty or of length 2g.  Only [surface] meets the circle
        fiber, and only the torus that meets the loop is read."""
        g, odd = divmod(len(torus_coeffs), 2)
        if odd:
            raise ValueError("torus_coeffs must have even length 2g")
        loop = YHomologyClass.torus(g, g + 1, torus_coeffs[g]).loop_pairing if g else 0
        return YHomologyClass(2, sigma_coeff, loop)

    @staticmethod
    def torus(g: int, j: int, c: int = 1) -> "YHomologyClass":
        """c * (gamma_j x circle) in genus g, 1 <= j <= 2g.  With the symplectic
        basis convention gamma_j . gamma_{j+g} = point, only gamma_{g+1} x circle
        meets the loop gamma_1, with -1."""
        return YHomologyClass(2, 0, -c if j == g + 1 else 0)

    @staticmethod
    def curve() -> "YHomologyClass":
        return YHomologyClass(1)

    @staticmethod
    def point(mult: int = 1) -> "YHomologyClass":
        return YHomologyClass(0, point_mult=mult)


def mu_action(i: int, cls: YHomologyClass, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Normalized scalar by which a homology class acts on the index-i line.

    grade 2 returns the value of twice the mu-class, grade 0 the value of
    -4 times the point class (namely (-1)^i 8 per point), grade 1 returns 0.
    """
    order = integer(order, "order")
    if cls.grade == 1:
        return TruncatedSeries.constant(0, order)
    if cls.grade == 0:
        return TruncatedSeries.constant(beta_eigenvalue(i) * cls.point_mult, order)
    if cls.grade != 2:
        raise ValueError("grade must be 0, 1 or 2")
    return _deformed_alpha(i, cls.circle_pairing, cls.loop_pairing, order)
