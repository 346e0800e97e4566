"""The t-deformed modules: reduced eigenmodules with their exact
first-order t-corrections, the effective eigenvalue table, the module
attached to a loop inside the surface, and the mu-action evaluators.

Only the exactly-known content of the deformation is modelled.  The
undetermined higher deformation terms of the full relation recursion are
not representable here on purpose: every number below is pinned by the
eigenvalue statements, which are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import DEFAULT_ORDER, GaussianRational, TruncatedSeries
from .floer import alpha_eigenvalue, beta_eigenvalue, primitive_dim

__all__ = [
    "RhffComponent",
    "RhffModule",
    "DeltaComponent",
    "DeltaHffModule",
    "YHomologyClass",
    "reduced_module",
    "effective_eigenvalues",
    "delta_module",
    "mu_action",
]


def _deformed_alpha(i: int, sigma: int, n: int, order: int) -> TruncatedSeries:
    """alpha on the index-i line, deformed to first order in t, for sigma
    copies of the surface and a loop running n times around the circle:
    sigma * alpha_eigenvalue(i) + 2nt (i odd) or - 2nt (i even)."""
    slope = GaussianRational(2 * n if i % 2 else -2 * n)
    return TruncatedSeries([alpha_eigenvalue(i) * sigma, slope], order)


@dataclass(frozen=True)
class RhffComponent:
    i: int
    alpha: TruncatedSeries
    beta: GaussianRational

    def to_json(self) -> dict:
        return {"i": self.i, "alpha": self.alpha.to_json(), "beta": self.beta.to_json()}


@dataclass(frozen=True)
class RhffModule:
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


@dataclass(frozen=True)
class EffectiveEigenvalue:
    i: int
    alpha: TruncatedSeries
    beta: GaussianRational
    gamma: GaussianRational

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "alpha": self.alpha.to_json(),
            "beta": self.beta.to_json(),
            "gamma": self.gamma.to_json(),
        }


def effective_eigenvalues(g: int, order: int = DEFAULT_ORDER) -> tuple:
    """Joint (alpha, beta, gamma) eigenvalues on the effective submodule:
    (-2t, 8, 0), (+-4 + 2t, -8, 0), (+-8*sqrt(-1) - 2t, 8, 0), ...
    gamma is nilpotent, so its only eigenvalue is 0."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    zero = GaussianRational(0)
    out = []
    for mag in range(g):
        for i in ([0] if mag == 0 else [mag, -mag]):
            out.append(
                EffectiveEigenvalue(i, _deformed_alpha(i, 1, 1, order), beta_eigenvalue(i), zero)
            )
    return tuple(out)


@dataclass(frozen=True)
class DeltaComponent:
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


@dataclass(frozen=True)
class DeltaHffModule:
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


@dataclass(frozen=True)
class YHomologyClass:
    """A homology class of the product three-manifold in the tracked basis.

    grade 2: sigma_coeff * [surface] + sum_j torus_coeffs[j] * (gamma_j x circle)
    grade 1: circle_coeff * [circle] + sum_j surface_coeffs[j] * gamma_j
    grade 0: point_mult * [point]
    """

    grade: int
    sigma_coeff: int = 0
    torus_coeffs: tuple = ()
    circle_coeff: int = 0
    surface_coeffs: tuple = ()
    point_mult: int = 0

    @staticmethod
    def surface(sigma_coeff: int = 1, torus_coeffs=()) -> "YHomologyClass":
        return YHomologyClass(2, sigma_coeff=sigma_coeff, torus_coeffs=tuple(torus_coeffs))

    @staticmethod
    def curve(circle_coeff: int = 0, surface_coeffs=()) -> "YHomologyClass":
        return YHomologyClass(
            1, circle_coeff=circle_coeff, surface_coeffs=tuple(surface_coeffs)
        )

    @staticmethod
    def point(mult: int = 1) -> "YHomologyClass":
        return YHomologyClass(0, point_mult=mult)

    def circle_pairing(self) -> int:
        """Intersection with the circle fiber: only [surface] meets it."""
        return self.sigma_coeff

    def loop_pairing(self) -> int:
        """Intersection with the loop, normalized to the first basis curve.

        With the symplectic basis convention gamma_j . gamma_{j+g} = point,
        only gamma_{g+1} x circle pairs (value -1) with gamma_1.
        """
        if not self.torus_coeffs:
            return 0
        n = len(self.torus_coeffs)
        if n % 2:
            raise ValueError("torus_coeffs must have even length 2g")
        g = n // 2
        return -self.torus_coeffs[g]


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
    return _deformed_alpha(i, cls.circle_pairing(), cls.loop_pairing(), order)
