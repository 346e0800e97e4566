"""The classical (t = 0) ring structure of the surface-times-circle theory.

Everything here is exact commutative algebra: the three-term relation
recursions, the finite-dimensional level rings F_r and their gamma
quotients, the spectra of each level's top layer, on which the variables
act as r x r blocks checked in integers against the recursion's, the
spectra of F_r and Fbar_r summed from them, the filtration layers and
torsion blocks, which are those top layers, the kernel dimensions of gamma,
primitive exterior powers, and the assembled total ring with its dimension
bookkeeping.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .exactalg import FalsificationError, GaussianRational, integer
from .groebner import VAR_NAMES, QuotientRing
from .linalg import EigenReport, Matrix, UniPoly
from .poly import ALPHA, BETA, GAMMA, VARIABLES, SparsePoly, divides, monomial, render_monomial

FLAVORS = ("q", "R", "Rbar")


class RelationTriple(NamedTuple):
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
    """The level-r relations of the given flavor: (1, 0, 0) at level 0, and
    above it one step of the recursion from the cached level r - 1.  r is
    read by `exactalg.integer` in the cached body, so a refused r, such as
    True (a key equal to 1), caches nothing."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if integer(r, "level") < 0:
        raise ValueError("level must be >= 0")
    zero = SparsePoly.zero()
    if r == 0:
        return RelationTriple(flavor, 0, SparsePoly.constant(1), zero, zero)
    # the levels below come up from level 0, so each finds its own lower
    # level cached and no call recurses more than one level deep
    for k in range(r):
        _, _, p1, p2, p3 = relations(flavor, k)
    shift = BETA if flavor == "q" else BETA + ((-1) ** (k + 1) * 8)
    n1 = ALPHA * p1 + k * k * p2
    if flavor == "Rbar":
        return RelationTriple(flavor, r, n1, shift * p1, zero)
    n2 = shift * p1 + SparsePoly.from_ints({0: 2 * k}, k + 1) * p3
    return RelationTriple(flavor, r, n1, n2, GAMMA * p1)


# ---------------------------------------------------------------------------
# the spectrum rule: the eigenvalues of alpha and beta on the index-k line


def alpha_eigenvalue(k: int) -> GaussianRational:
    """alpha acts on the index-k line as 4k for k odd, 4k*sqrt(-1) for k even."""
    return GaussianRational(4 * k) if k % 2 else GaussianRational(0, 4 * k)


def beta_eigenvalue(k: int) -> GaussianRational:
    """beta acts on the index-k line as (-1)^k 8."""
    return GaussianRational(-8 if k % 2 else 8)


@lru_cache(maxsize=None)
def default_candidates(bound: int) -> tuple:
    """Candidate eigenvalues 0, +-8 and +-4k, +-4k*i for k <= bound, each
    listed once."""
    vals = [GaussianRational(0), GaussianRational(8), GaussianRational(-8)]
    for k in range(1, bound + 1):
        if k != 2:  # +-4k = +-8 at k = 2, listed already
            vals += (GaussianRational(4 * k), GaussianRational(-4 * k))
        vals += (GaussianRational(0, 4 * k), GaussianRational(0, -4 * k))
    return tuple(vals)


# ---------------------------------------------------------------------------
# level rings


def _level_generators(obj: str, r: int) -> list:
    """The generators of the ideal I_r that presents F_r (obj "F") or
    Fbar_r (obj "Fbar")."""
    if obj == "F":
        return relations("R", r).generators()
    return relations("Rbar", r).generators() + [GAMMA]


@lru_cache(maxsize=None)
def invariant_ring(r: int) -> QuotientRing:
    """F_r: the invariant part of the level-r ring, dim C(r+2,3)."""
    return QuotientRing.from_generators(_level_generators("F", r))


@lru_cache(maxsize=None)
def gamma_quotient_ring(r: int) -> QuotientRing:
    """Fbar_r = F_r/(gamma), presented by the two-term recursion; dim C(r+1,2)."""
    return QuotientRing.from_generators(_level_generators("Fbar", r))


def level_ring(obj: str, r: int) -> QuotientRing:
    """F_r for obj "F", Fbar_r for obj "Fbar"."""
    return invariant_ring(r) if obj == "F" else gamma_quotient_ring(r)


@lru_cache(maxsize=None)
def classical_ring(r: int) -> QuotientRing:
    """The undeformed level-r ring C[a,b,c]/(q-relations); dim C(r+2,3)."""
    return QuotientRing.from_generators(relations("q", r).generators())


def monomial_simplex(r: int, nvars: int = 3) -> list:
    """The monomials of total degree < r claimed to be a basis of the level ring."""
    out = []
    for a in range(r):
        for b in range(r - a):
            if nvars == 2:
                out.append(monomial(a, b, 0))
            else:
                for c in range(r - a - b):
                    out.append(monomial(a, b, c))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# the top layer of each level: one r x r block, and the spectra of F_r and
# Fbar_r from the blocks of levels 1..r


def recursion_block(r: int) -> dict:
    """The alpha, beta and gamma blocks of level r >= 1 that the recursion
    gives, as r x r integer rows: (T_r, b I, 0), b = beta_eigenvalue(r - 1),
    index a for alpha^a beta^(r-1-a), T_r[a][a+1] = -(a+1)^2, T_r[a][a-1] =
    2b for a >= 1 and a = r - 1 mod 2, and T_r 0 elsewhere."""
    b = int(beta_eigenvalue(r - 1).re)
    t = [[0] * r for _ in range(r)]
    for a in range(1, r):
        t[a - 1][a], t[a][a - 1] = -a * a, 2 * b if (r - a) % 2 else 0
    scalar = [[b * (i == j) for j in range(r)] for i in range(r)]
    return dict(zip(VAR_NAMES, (t, scalar, [[0] * r for _ in range(r)])))


@lru_cache(maxsize=None)
def level_block(obj: str, r: int) -> dict:
    """The alpha, beta and gamma spectra, as EigenReports, of the top layer
    of F_r (obj "F") or Fbar_r (obj "Fbar"), r >= 1, on which each acts as
    one r x r block: on F the torsion block psi1_block(r), on Fbar the
    filtration layer filtration_step(r - 1).

    Write L_r = Q[alpha, beta, gamma]/I_r for the level ring and pi for the
    projection L_r -> L_{r-1}.  Its kernel I_{r-1}/I_r is spanned by the
    reduced Groebner elements g_m of I_{r-1}, one led by each monomial m of
    degree r - 1 (gamma-free for Fbar).  K_r(x)[n, m], for gamma-free n and
    m of degree r - 1, is the coefficient at n of NF_r(x g_m).  The reduced
    basis of I_r holds one element G led by each degree-r monomial x m, so
    NF_r(x g_m) = x g_m - G, and no reduction is run.  On Fbar a multiple of
    gamma leads no element: gamma generates I_r there, and K_r(gamma) = 0.

    Guards, each raising FalsificationError when it fails:
    1. the staircases of L_{r-1} and L_r are the monomials of degree
       < r - 1 and < r (gamma-free for Fbar), so the g_m and G are as above;
    2. the level-r generators (for Fbar, gamma among them) reduce to zero
       modulo I_{r-1}: I_r lies in I_{r-1}, so pi is a ring map and its
       kernel an ideal;
    for F only:
    3. gamma times the level-(r-1) generators reduces to zero modulo I_r;
    4. gamma g_n, for g_n the Groebner element of I_{r-2} led by n, is the
       g_{gamma n} of I_{r-1} as a polynomial (their divisors are equal);
    for F and Fbar alike:
    5. K_r(x) is recursion_block(r)[x], checked in integers: with the
       divisors g_m = (m + tail) / lc and G = (x m + utail) / uc, entry
       [n, m] is (tail[n / x] uc - utail[n] lc) / (lc uc), so that
       numerator is compared with the wanted entry times lc uc.
    By 3 and 4, with 2 one level down, the g_{gamma n} span a submodule on
    which x acts as on the kernel of pi one level down, and K_r(x) is the
    action on the quotient by it; on Fbar the gamma-free g_m alone span the
    kernel of pi.  By 5 the spectra take no characteristic polynomial: T_r
    is block triangular, 0 at index 0 for r odd and [[0, -a^2], [2b, 0]] on
    each pair (a - 1, a), a = r - 1 mod 2, whose roots (the 2 x 2 lemma)
    are alpha_eigenvalue(+-a), as x^2 + 2b a^2 = x^2 +- 16 a^2 with b = 8
    exactly when a is even.  So alpha has each alpha_eigenvalue(k), |k| < r
    and k = r - 1 mod 2, once, and beta has b and gamma 0, r times.
    """
    ring, lower = level_ring(obj, r), level_ring(obj, r - 1)
    nvars = 3 if obj == "F" else 2
    for k, ring_k in ((r - 1, lower), (r, ring)):
        if ring_k.basis != tuple(monomial_simplex(k, nvars)):
            raise FalsificationError(
                f"the staircase of {obj}_{k} is not the monomials of degree < {k}")
    if any(lower.normal_form(p) for p in _level_generators(obj, r)):
        raise FalsificationError(
            f"the level-{r} relations of {obj} are not in the ideal of level {r - 1}")
    # lm -> (lc, tail) of the integer divisors: g_lm is (lm + tail) / lc
    gens = {lm: (lc, dict(tail)) for lm, lc, tail, _ in lower.gb.divisors}
    if obj == "F":
        if any(ring.normal_form(GAMMA * p) for p in _level_generators(obj, r - 1)):
            raise FalsificationError(
                f"gamma times the level-{r - 1} relations of F is not in the ideal of level {r}")
        gamma = VARIABLES[2]
        for n, lc, tail, _ in level_ring(obj, r - 2).gb.divisors if r >= 2 else ():
            if (lc, {m + gamma: c for m, c in tail}) != gens.get(n + gamma):
                raise FalsificationError(
                    f"gamma times the level-{r - 2} Groebner element of F led by"
                    f" {render_monomial(n)} is not the level-{r - 1} one")
    upper = {lm: (lc, dict(tail)) for lm, lc, tail, _ in ring.gb.divisors}
    free = [monomial(a, r - 1 - a, 0) for a in range(r)]
    for (name, want), x in zip(recursion_block(r).items(), VARIABLES):
        for n, want_row in zip(free, want):
            # x tail(g_m) meets n in the term of g_m at q = n / x, a monomial
            # only where x divides n; elsewhere g_m has no term there (q =
            # None), and n - x is no monomial but a borrow across fields
            q = n - x if divides(x, n) else None
            for m, w in zip(free, want_row):
                (lc, tail), (uc, utail) = gens[m], upper.get(m + x, (1, {}))
                if tail.get(q, 0) * uc - utail.get(n, 0) * lc != w * lc * uc:
                    raise FalsificationError(
                        f"the {name} block of {obj} at level {r} is not the one of the recursion")
    b = beta_eigenvalue(r - 1)
    alpha = set(map(alpha_eigenvalue, range(1 - r, r, 2)))
    roots = ([(z, 1) for z in default_candidates(r) if z in alpha], [(b, r)],
             [(GaussianRational(0), r)])
    return {name: EigenReport(tuple(zm)) for name, zm in zip(VAR_NAMES, roots)}


def level_reports(obj: str, r: int) -> dict:
    """The alpha, beta and gamma spectra of F_r (obj "F") or Fbar_r (obj
    "Fbar"): the characteristic polynomials of the multiplication matrices
    of level_ring(obj, r), whose roots all lie in default_candidates(r + 1),
    summed from the spectra of the blocks of levels 1..r (see level_block).

    By the guards of level_block, cp(x | F_r) is the product of the
    cp(K_i(x))^(r-i+1), i <= r, and cp(x | Fbar_r) that of the cp(K_i(x)):
    the root multiplicities of the blocks are added with these weights and
    listed in candidate order.
    """
    reports = {}
    for name in VAR_NAMES:
        mults = dict.fromkeys(default_candidates(r + 1), 0)
        for i in range(1, r + 1):
            for z, m in level_block(obj, i)[name].roots:
                mults[z] += (r - i + 1 if obj == "F" else 1) * m
        reports[name] = EigenReport(tuple((z, m) for z, m in mults.items() if m))
    return reports


# ---------------------------------------------------------------------------
# the filtration layers and torsion blocks: the top layers of Fbar and F


class SubquotientModule(NamedTuple):
    """A filtration layer or torsion block: its dimension and the spectra
    of the variable actions."""

    dim: int
    eigen: dict

    @staticmethod
    def build(obj: str, r: int) -> "SubquotientModule":
        """The top layer of level r of F (obj "F") or Fbar (obj "Fbar"),
        r >= 1: its dimension r and the block spectra level_block(obj, r)."""
        return SubquotientModule(r, level_block(obj, r))


def filtration_step(r: int) -> SubquotientModule:
    """The r-th filtration layer: kernel of the projection Fbar_{r+1} -> Fbar_r,
    the top layer of level r + 1 of Fbar (see level_block).

    Dimension r+1; alpha spectrum {4k : |k| <= r, k = r mod 2} for r odd,
    {4k*sqrt(-1)} for r even; beta acts as -8 (r odd) or +8 (r even).
    """
    return SubquotientModule.build("Fbar", r + 1)


def psi1_block(r: int) -> SubquotientModule:
    """The block (ker gamma)/(gamma * ker gamma^2) of F_r; dimension r.

    These are the building blocks of the homology of multiplication by a
    degree-3 generator on the total ring.  By the guards of level_block,
    gamma factors through the projection pi: F_r -> F_{r-1}, so ker gamma
    is ker pi, and gamma * ker gamma^2 is spanned by the g_{gamma n}: the
    block is the top layer of level r of F.
    """
    if r < 1:
        raise ValueError("level must be >= 1")
    return SubquotientModule.build("F", r)


def gamma_kernel_dims(r: int) -> tuple:
    """(dim ker gamma, dim ker gamma^2) on F_r, from the ranks of the
    multiplication matrices of gamma and gamma^2; expected C(r+1,2) and
    C(r+1,2)+C(r,2)."""
    ring = invariant_ring(r)
    mg = ring.mult_matrix("gamma")
    return ring.dim - mg.rank(), ring.dim - (mg @ mg).rank()


def socle_quotient_ring(r: int) -> QuotientRing:
    """F_{r+1}/(beta + (-1)^{r+1} 8, gamma): the cyclic alpha-module whose
    characteristic polynomial carries the filtration-layer spectrum.

    Built from the level-(r+1) relations and the two extra generators, not
    from the basis of F_{r+1}: a reduced Groebner basis is unique, so the
    ring is the same, and no Buchberger run for F_{r+1} is paid for it."""
    shift = BETA + ((-1) ** (r + 1) * 8)
    return QuotientRing.from_generators(relations("R", r + 1).generators() + [shift, GAMMA])


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


def primitive_dim_exact(g: int, k: int) -> int:
    """dim ker L^(g-k+1) on the k-th exterior power of V = Q^2g, L the wedge
    product with the symplectic form sum omega_i, omega_i = e_i ^ e_{i+g},
    computed exactly one hyperbolic plane span(e_i, e_{i+g}) at a time.

    Lambda(V) is the tensor product of the exterior algebras of the planes,
    so Lambda^k has the basis omega_T ^ x_S: S a set of s planes that each
    give one of their two vectors (2^s choices), T a set of j = (k - s)/2
    other planes that each give omega_i.  The omega_i are even, so they
    commute with everything, and omega_i kills e_i, e_{i+g} and itself:
    L^m sends omega_T ^ x_S to m! times the sum of the omega_U ^ x_S over
    the (j+m)-sets U of planes outside S that contain T, with no signs.  So
    L^m is block diagonal, C(g, s) 2^s blocks for each s = k mod 2, each
    m! times the 0/1 inclusion matrix of the j-subsets of the n = g - s
    other planes in their (j+m)-subsets, and each kernel is read from one
    rank of that matrix.
    """
    if not 0 <= k <= g:
        raise ValueError("need 0 <= k <= g")
    m = g - k + 1
    total = 0
    for s in range(k % 2, k + 1, 2):
        n, j = g - s, (k - s) // 2
        cols = {t: c for c, t in enumerate(combinations(range(n), j))}
        rows = []
        for u in combinations(range(n), j + m):
            row = [0] * len(cols)
            for t in combinations(u, j):
                row[cols[t]] = 1
            rows.append(row)
        inclusion = Matrix(rows, len(cols))
        total += comb(g, s) * 2**s * (inclusion.ncols - inclusion.rank())
    return total


# ---------------------------------------------------------------------------
# the assembled ring


class FloerSummand(NamedTuple):
    k: int
    multiplicity: int
    level: int
    ring: QuotientRing

    @property
    def dim(self) -> int:
        return self.multiplicity * self.ring.dim


class FloerRing(NamedTuple):
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
                    reports = level_reports("F", s.level)
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

