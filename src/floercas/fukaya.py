"""The t-deformed modules: reduced eigenmodules with their exact
first-order t-corrections, the effective eigenvalue table, the module
attached to a loop inside the surface, and the mu-action evaluators.

Only the exactly-known content of the deformation is modelled.  The
undetermined higher deformation terms of the full relation recursion are
not representable here on purpose: every number below is pinned by the
eigenvalue statements, which are exact.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactalg import DEFAULT_ORDER, GaussianRational, TruncatedSeries
from .floer import alpha_eigenvalue, beta_eigenvalue, primitive_dim


def _deformed_alpha(i: int, sigma: int, n: int, order: int) -> TruncatedSeries:
    """alpha on the index-i line, deformed to first order in t, for sigma
    copies of the surface and a loop running n times around the circle:
    sigma * alpha_eigenvalue(i) + 2nt (i odd) or - 2nt (i even)."""
    slope = GaussianRational(2 * n if i % 2 else -2 * n)
    return TruncatedSeries([alpha_eigenvalue(i) * sigma, slope], order)


class RhffComponent(NamedTuple):
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
    if g < 1:
        raise ValueError("genus must be >= 1")
    comps = tuple(
        RhffComponent(i, _deformed_alpha(i, 1, n, order), beta_eigenvalue(i))
        for i in range(-(g - 1), g)
    )
    return RhffModule(genus=g, n=n, components=comps)


class EffectiveEigenvalue(NamedTuple):
    i: int
    alpha: TruncatedSeries
    beta: GaussianRational
    gamma: GaussianRational = GaussianRational(0)  # gamma is nilpotent

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "gamma": self.gamma.to_json(),
        }


def effective_eigenvalues(g: int, order: int = DEFAULT_ORDER) -> tuple:
    """Joint (alpha, beta, gamma) eigenvalues on the effective submodule:
    (-2t, 8, 0), (+-4 + 2t, -8, 0), (+-8*sqrt(-1) - 2t, 8, 0), ...  These
    are the lines of reduced_module(g) in order of |i|, positive i first;
    gamma is nilpotent, so its only eigenvalue is 0."""
    lines = sorted(reduced_module(g, 1, order).components, key=lambda c: (abs(c.i), -c.i))
    return tuple(EffectiveEigenvalue(c.i, c.alpha, c.beta) for c in lines)


class DeltaComponent(NamedTuple):
    k: int
    i: int
    multiplicity: int
    alpha: GaussianRational
    beta: GaussianRational

    def to_json(self) -> dict:
        # the alpha slot is a series on the wire even though the loop-module
        # eigenvalue carries no t-correction
        return {
            "k": self.k,
            "i": self.i,
            "mult": self.multiplicity,
            "alpha": TruncatedSeries.constant(self.alpha, 1).to_json(),
            "beta": self.beta.to_json(),
        }


class DeltaHffModule(NamedTuple):
    """Homology for a loop inside the surface: lines R_i tensored with the
    reduced primitive parts, all degree-3 generators acting by zero."""

    genus: int
    components: tuple

    @property
    def total_rank(self) -> int:
        return sum(c.multiplicity for c in self.components)

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "total_rank": self.total_rank,
            "components": [c.to_json() for c in self.components],
        }


def delta_module(g: int) -> DeltaHffModule:
    """Components (k, i) with 0 <= k <= g-1, |i| <= g-k-1, i = g-k-1 mod 2,
    of multiplicity primitive_dim(g-1, k); alpha and beta act on the line
    by alpha_eigenvalue(i) and beta_eigenvalue(i)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    comps = []
    for k in range(g):
        mult = primitive_dim(g - 1, k)
        bound = g - k - 1
        for i in range(-bound, bound + 1, 2):
            comps.append(DeltaComponent(k, i, mult, alpha_eigenvalue(i), beta_eigenvalue(i)))
    return DeltaHffModule(genus=g, components=tuple(comps))


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
        """sigma_coeff * [surface] + sum_j torus_coeffs[j] * (gamma_j x circle),
        torus_coeffs empty or of length 2g.  Only [surface] meets the circle
        fiber; with the symplectic basis convention gamma_j . gamma_{j+g} =
        point, only gamma_{g+1} x circle meets the loop gamma_1 (value -1)."""
        if len(torus_coeffs) % 2:
            raise ValueError("torus_coeffs must have even length 2g")
        loop = -torus_coeffs[len(torus_coeffs) // 2] if torus_coeffs else 0
        return YHomologyClass(2, sigma_coeff, loop)

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
    if cls.grade == 1:
        return TruncatedSeries.constant(0, order)
    if cls.grade == 0:
        return TruncatedSeries.constant(beta_eigenvalue(i) * cls.point_mult, order)
    if cls.grade != 2:
        raise ValueError("grade must be 0, 1 or 2")
    return _deformed_alpha(i, cls.circle_pairing, cls.loop_pairing, order)
