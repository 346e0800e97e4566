"""The classical (t = 0) ring structure of the surface-times-circle theory.

Everything here is exact commutative algebra: the three-term relation
recursions, the finite-dimensional level rings F_r and their gamma
quotients, the filtration and torsion subquotients with their alpha/beta
spectra, primitive exterior powers, and the assembled total ring with its
dimension bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .exactalg import GR_ONE, GR_ZERO, GaussianRational, rational
from .groebner import VAR_NAMES, QuotientRing
from .linalg import Matrix, UniPoly, factor_over_candidates
from .poly import ALPHA, BETA, GAMMA, GRLEX, MonomialOrder, SparsePoly

FLAVORS = ("q", "R", "Rbar")


class FalsificationError(RuntimeError):
    """A structural claim the package is supposed to verify failed."""


@dataclass(frozen=True)
class RelationTriple:
    """The level-r relation polynomials of one flavor.

    q is the undeformed (classical cohomology) recursion, R the quantum
    deformation with the alternating +-8 shift, Rbar its image in the
    gamma-free quotient (third component identically zero there).
    """

    flavor: str
    r: int
    p1: SparsePoly
    p2: SparsePoly
    p3: SparsePoly

    @property
    def components(self) -> tuple:
        if self.flavor == "Rbar":
            return (self.p1, self.p2)
        return (self.p1, self.p2, self.p3)

    def generators(self) -> list:
        return [p for p in self.components if p]

    def variable_names(self) -> tuple:
        return ("a", "b", "c") if self.flavor == "q" else ("alpha", "beta", "gamma")

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "r": self.r,
            "p1": self.p1.to_json(),
            "p2": self.p2.to_json(),
            "p3": self.p3.to_json(),
        }


@lru_cache(maxsize=None)
def relations(flavor: str, r: int) -> RelationTriple:
    """Unroll the relation recursion of the given flavor down to level r."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if r < 0:
        raise ValueError("level must be >= 0")
    one = SparsePoly.constant(GR_ONE)
    zero = SparsePoly.zero()
    p1, p2, p3 = one, zero, zero
    for k in range(r):
        shift = BETA if flavor == "q" else BETA + ((-1) ** (k + 1) * 8)
        n1 = ALPHA * p1 + k * k * p2
        if flavor == "Rbar":
            n2 = shift * p1
            n3 = zero
        else:
            n2 = shift * p1 + GaussianRational(rational(2 * k, k + 1)) * p3
            n3 = GAMMA * p1
        p1, p2, p3 = n1, n2, n3
    return RelationTriple(flavor, r, p1, p2, p3)


# ---------------------------------------------------------------------------
# the spectrum rule: the eigenvalues of alpha and beta on the index-k line


def alpha_eigenvalue(k: int) -> GaussianRational:
    """alpha acts on the index-k line as 4k for k odd, 4k*sqrt(-1) for k even."""
    return GaussianRational(4 * k) if k % 2 else GaussianRational(0, 4 * k)


def beta_eigenvalue(k: int) -> GaussianRational:
    """beta acts on the index-k line as (-1)^k 8."""
    return GaussianRational(-8 if k % 2 else 8)


def default_candidates(bound: int) -> list:
    """Candidate eigenvalues 0, +-8 and +-4k, +-4k*i for k <= bound."""
    out = [GaussianRational(0), GaussianRational(8), GaussianRational(-8)]
    for k in range(1, bound + 1):
        for val in (
            GaussianRational(4 * k),
            GaussianRational(-4 * k),
            GaussianRational(0, 4 * k),
            GaussianRational(0, -4 * k),
        ):
            if val not in out:
                out.append(val)
    return out


def eigen_reports(matrix_of, bound: int) -> dict:
    """The alpha, beta and gamma spectra: the characteristic polynomial of
    each matrix_of(name), factored over default_candidates(bound)."""
    cands = default_candidates(bound)
    return {name: factor_over_candidates(matrix_of(name).charpoly(), cands) for name in VAR_NAMES}


# ---------------------------------------------------------------------------
# level rings


@lru_cache(maxsize=None)
def invariant_ring(r: int, order: MonomialOrder = GRLEX) -> QuotientRing:
    """F_r: the invariant part of the level-r ring, dim C(r+2,3)."""
    return QuotientRing.from_generators(relations("R", r).generators(), order)


@lru_cache(maxsize=None)
def gamma_quotient_ring(r: int, order: MonomialOrder = GRLEX) -> QuotientRing:
    """Fbar_r = F_r/(gamma), presented by the two-term recursion; dim C(r+1,2)."""
    gens = relations("Rbar", r).generators() + [GAMMA]
    return QuotientRing.from_generators(gens, order)


@lru_cache(maxsize=None)
def classical_ring(r: int, order: MonomialOrder = GRLEX) -> QuotientRing:
    """The undeformed level-r ring C[a,b,c]/(q-relations); dim C(r+2,3)."""
    return QuotientRing.from_generators(relations("q", r).generators(), order)


def monomial_simplex(r: int, nvars: int = 3) -> list:
    """The monomials of total degree < r claimed to be a basis of the level ring."""
    from .poly import Monomial

    out = []
    for a in range(r):
        for b in range(r - a):
            if nvars == 2:
                out.append(Monomial(a, b, 0))
            else:
                for c in range(r - a - b):
                    out.append(Monomial(a, b, c))
    out.sort(key=GRLEX.key)
    return out


def basis_matrix(ring: QuotientRing, monomials) -> Matrix:
    """Coordinates of the normal forms of the given monomials (columns)."""
    cols = [ring.nf_coords(SparsePoly({m: GR_ONE})) for m in monomials]
    if not cols:
        return Matrix([])
    return Matrix.from_columns(cols)


# ---------------------------------------------------------------------------
# subquotients


def _independent_subset(vectors, seed=()):
    """Greedy deterministic choice of vectors independent from seed and each other.

    Column j of [seed | vectors] is a pivot of its reduced echelon form
    exactly when it is not in the span of the columns before it, so one
    elimination makes the greedy choice.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    d = len(seed)
    _, pivots = Matrix.from_columns([*seed, *vectors]).rref()
    return [vectors[j - d] for j in pivots if j >= d]


def induced_action(m: Matrix, reps, denominator) -> Matrix:
    """Action induced by m on span(denominator + reps)/span(denominator).

    reps must be independent modulo the denominator.  One elimination of
    [denominator | reps | m*reps]: a pivot among the m*reps columns means
    m does not preserve the subquotient, which raises FalsificationError;
    otherwise each image column is a combination of the pivot columns, and
    its coefficients on the reps pivots are the induced action.
    """
    if not reps:
        return Matrix([])
    d, n = len(denominator), len(reps)
    images = [m.matvec(v) for v in reps]
    rows, pivots = Matrix.from_columns([*denominator, *reps, *images]).rref()
    if pivots and pivots[-1] >= d + n:
        raise FalsificationError("action does not preserve the subquotient")
    rep_rows = [rows[pivots.index(d + k)] for k in range(n)]
    return Matrix([[row[d + n + j] for j in range(n)] for row in rep_rows])


@dataclass(frozen=True)
class SubquotientModule:
    """A subquotient of a level ring: its dimension and the spectra of the
    variable actions."""

    dim: int
    eigen: dict

    @staticmethod
    def build(ambient: QuotientRing, numerator, denominator, candidate_bound: int) -> "SubquotientModule":
        reps = _independent_subset(numerator, seed=denominator)
        actions = {
            name: induced_action(ambient.mult_matrix(name), reps, denominator) for name in VAR_NAMES
        }
        return SubquotientModule(len(reps), eigen_reports(actions.get, candidate_bound))

    def complete(self) -> bool:
        return all(rep.complete() for rep in self.eigen.values())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "eigen": {k: v.to_json() for k, v in self.eigen.items()},
        }


def filtration_step(r: int) -> SubquotientModule:
    """The r-th filtration layer: kernel of the projection Fbar_{r+1} -> Fbar_r.

    Dimension r+1; alpha spectrum {4k : |k| <= r, k = r mod 2} for r odd,
    {4k*sqrt(-1)} for r even; beta acts as -8 (r odd) or +8 (r even).
    """
    big = gamma_quotient_ring(r + 1)
    small = gamma_quotient_ring(r)
    cols = [small.nf_coords(SparsePoly({m: GR_ONE})) for m in big.basis]
    if small.dim == 0:
        numerator = [col_vec for col_vec in Matrix.identity(big.dim).columns()]
    else:
        numerator = Matrix.from_columns(cols).kernel_basis()
    return SubquotientModule.build(big, numerator, [], candidate_bound=r + 1)


def psi1_block(r: int) -> SubquotientModule:
    """The block (ker gamma)/(gamma * ker gamma^2) of F_r; dimension r.

    These are the building blocks of the homology of multiplication by a
    degree-3 generator on the total ring.
    """
    if r < 1:
        raise ValueError("level must be >= 1")
    ring = invariant_ring(r)
    mg = ring.mult_matrix("gamma")
    ker_g, ker_g2 = _gamma_kernels(r)
    image = _independent_subset([mg.matvec(v) for v in ker_g2])
    return SubquotientModule.build(ring, ker_g, image, candidate_bound=r)


@lru_cache(maxsize=None)
def _gamma_kernels(r: int) -> tuple:
    """Bases of ker gamma and ker gamma^2 on F_r, one elimination each."""
    mg = invariant_ring(r).mult_matrix("gamma")
    return tuple(map(tuple, mg.kernel_basis())), tuple(map(tuple, (mg @ mg).kernel_basis()))


def gamma_kernel_dims(r: int) -> tuple:
    """(dim ker gamma, dim ker gamma^2) on F_r; expected C(r+1,2) and
    C(r+1,2)+C(r,2)."""
    ker_g, ker_g2 = _gamma_kernels(r)
    return len(ker_g), len(ker_g2)


def socle_quotient_ring(r: int) -> QuotientRing:
    """F_{r+1}/(beta + (-1)^{r+1} 8, gamma): the cyclic alpha-module whose
    characteristic polynomial carries the filtration-layer spectrum."""
    shift = BETA + ((-1) ** (r + 1) * 8)
    return invariant_ring(r + 1).extend([shift, GAMMA])


def socle_quotient_charpoly(r: int) -> UniPoly:
    return socle_quotient_ring(r).mult_matrix("alpha").charpoly()


# ---------------------------------------------------------------------------
# primitive exterior powers


def primitive_dim(g: int, k: int) -> int:
    """Closed form C(2g,k) - C(2g,k-2) for the primitive part of the k-th
    exterior power of a 2g-dimensional symplectic space."""
    if not 0 <= k <= 2 * g:
        return 0
    return comb(2 * g, k) - (comb(2 * g, k - 2) if k >= 2 else 0)


def _wedge_step_matrix(g: int, m: int):
    """Multiplication by -2*sum(e_i ^ e_{i+g}) from degree m to m+2 wedges."""
    n = 2 * g
    dom = list(combinations(range(n), m))
    cod = list(combinations(range(n), m + 2))
    cod_index = {s: i for i, s in enumerate(cod)}
    rows = [[GR_ZERO] * len(dom) for _ in range(len(cod))]
    minus_two = GaussianRational(-2)
    for j, s in enumerate(dom):
        sset = set(s)
        for i in range(g):
            a, b = i, i + g
            if a in sset or b in sset:
                continue
            below_b = sum(1 for x in s if x < b)
            below_a = sum(1 for x in s if x < a)
            sign = -1 if (below_a + below_b) % 2 else 1
            target = tuple(sorted(s + (a, b)))
            rows[cod_index[target]][j] = rows[cod_index[target]][j] + sign * minus_two
    return dom, cod, Matrix(rows)


def primitive_dim_exact(g: int, k: int) -> int:
    """Kernel dimension of the (g-k+1)-fold wedge multiplication by the
    symplectic 2-form on the k-th exterior power, computed exactly."""
    if not 0 <= k <= g:
        raise ValueError("need 0 <= k <= g")
    steps = g - k + 1
    if k + 2 * steps > 2 * g:
        return comb(2 * g, k)
    composite = None
    m = k
    for _ in range(steps):
        _, _, step = _wedge_step_matrix(g, m)
        composite = step if composite is None else step @ composite
        m += 2
    return composite.ncols - composite.rank()


# ---------------------------------------------------------------------------
# the assembled ring


@dataclass(frozen=True)
class FloerSummand:
    k: int
    multiplicity: int
    level: int
    ring: QuotientRing

    @property
    def dim(self) -> int:
        return self.multiplicity * self.ring.dim


@dataclass(frozen=True)
class FloerRing:
    """Total ring of genus g: primitive parts tensor level rings F_{g-k}."""

    genus: int
    summands: tuple
    total_dim: int

    def to_json(self, include_rings: bool = False) -> dict:
        out = {
            "genus": self.genus,
            "total_dim": self.total_dim,
            "summands": [
                {
                    "k": s.k,
                    "multiplicity": s.multiplicity,
                    "level": s.level,
                    "level_dim": s.ring.dim,
                    "dim": s.dim,
                }
                for s in self.summands
            ],
        }
        if include_rings:
            for entry, s in zip(out["summands"], self.summands):
                tri = relations("R", s.level)
                entry["relations"] = [p.to_json() for p in tri.generators()]
                entry["ring"] = s.ring.to_json()
                if s.ring.dim:
                    reports = eigen_reports(s.ring.mult_matrix, s.level + 1)
                    entry["spectra"] = {v: rep.to_json() for v, rep in reports.items()}
        return out


def floer_cohomology(g: int) -> FloerRing:
    """Assemble the genus-g ring; total dim = sum of primitive multiplicity
    times the level-ring dimension (the k = g summand is the zero ring)."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    summands = []
    for k in range(g + 1):
        summands.append(
            FloerSummand(
                k=k,
                multiplicity=primitive_dim(g, k),
                level=g - k,
                ring=invariant_ring(g - k),
            )
        )
    total = sum(s.dim for s in summands)
    return FloerRing(genus=g, summands=tuple(summands), total_dim=total)


def psi1_homology_dims(g: int) -> dict:
    """Summands (k, multiplicity, block dim) of the degree-3 homology and
    their total; multiplicity primitive_dim(g-1, k), block dim g-k."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    rows = []
    total = 0
    for k in range(g):
        mult = primitive_dim(g - 1, k)
        dim_block = g - k
        rows.append({"k": k, "multiplicity": mult, "block_dim": dim_block})
        total += mult * dim_block
    return {"genus": g, "summands": rows, "total": total}
