"""The claim suite: every structural statement the package exists to
verify, run exactly and reported one line per claim.

Each check sizes itself from max_genus N alone: levels r <= N + 2 (the
filtration layers r <= N + 1) and genera g <= N.  It returns a
CheckResult; a claim that fails, or raises under run_all, is a failed
result (the CLI turns it into exit code 2).  All comparisons are exact;
there are no tolerances.

`determinism` runs last: it compares the level rings F_r and Fbar_r, r <=
max_genus, as the earlier claims cached them with a build past the cache
(Groebner basis, staircase, alpha, beta and gamma matrices).  Runs under
different hash seeds are compared by the tests.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import NamedTuple

from . import donaldson, floer, fukaya
from .exactalg import FalsificationError, GaussianRational
from .floer import (
    alpha_eigenvalue,
    beta_eigenvalue,
    default_candidates,
    filtration_step,
    gamma_kernel_dims,
    gamma_quotient_ring,
    invariant_ring,
    level_ring,
    monomial_simplex,
    primitive_dim,
    primitive_dim_exact,
    psi1_block,
    relations,
    socle_quotient_charpoly,
)
from .groebner import VAR_NAMES, QuotientRing
from .linalg import Matrix, UniPoly, factor_over_candidates
from .poly import BETA, GAMMA


class CheckResult(NamedTuple):
    name: str
    claim: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" [{self.detail}]" if self.detail else ""
        return f"{status} {self.name}: {self.claim}{suffix}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "passed": self.passed,
            "detail": self.detail,
        }


def _result(name, claim, failures) -> CheckResult:
    return CheckResult(name, claim, not failures, "; ".join(failures))


# ---------------------------------------------------------------------------
# expected spectra, as stated by the structure theorems


def expected_filtration_alpha(r: int) -> dict:
    """alpha spectrum of the r-th filtration layer, and of the level-(r+1)
    torsion block: one line of each index k = r mod 2 with |k| <= r."""
    return {alpha_eigenvalue(k): 1 for k in range(-r, r + 1, 2)}


def expected_level_spectra(obj: str, r: int) -> dict:
    """The alpha, beta and gamma spectra of F_r (obj "F") or Fbar_r (obj
    "Fbar"), root -> multiplicity: at alpha_eigenvalue(k), |k| <= r - 1, the
    dimension of the local ring (Munoz, Topology 38 (1999)), and beta and
    gamma summed over those lines."""
    alpha, beta = {}, {}
    for k in range(1 - r, r):
        mult = (r + 1 - abs(k)) ** 2 // 4 if obj == "F" else (r - 1 - abs(k)) // 2 + 1
        alpha[alpha_eigenvalue(k)] = mult
        beta[beta_eigenvalue(k)] = beta.get(beta_eigenvalue(k), 0) + mult
    dim = comb(r + 2, 3) if obj == "F" else comb(r + 1, 2)
    return {"alpha": alpha, "beta": beta, "gamma": {GaussianRational(0): dim}}


def expected_socle_charpoly(r: int) -> UniPoly:
    """The displayed product: (x^2+16r^2)...(x^2+16*2^2)*x for r even,
    (x^2-16r^2)...(x^2-16*1^2) for r odd."""
    p = UniPoly([1])
    if r % 2 == 0:
        for k in range(2, r + 1, 2):
            p = p * UniPoly([16 * k * k, 0, 1])
        p = p * UniPoly([0, 1])
    else:
        for k in range(1, r + 1, 2):
            p = p * UniPoly([-16 * k * k, 0, 1])
    return p


# ---------------------------------------------------------------------------
# the criteria


def check_dimensions(max_genus: int) -> CheckResult:
    max_level = max_genus + 2
    failures = []
    for r in range(1, max_level + 1):
        for obj, nvars in (("F", 3), ("Fbar", 2)):
            if level_ring(obj, r).basis != tuple(monomial_simplex(r, nvars)):
                failures.append(f"staircase of {obj}_{r} is not the monomials of degree < {r}")
                continue
            try:
                # by module attribute, as `ring` and `eigen` read the spectra they print
                reports = floer.level_reports(obj, r)
            except FalsificationError as exc:
                failures.append(f"spectra of {obj}_{r}: {exc}")
                continue
            for name, want in expected_level_spectra(obj, r).items():
                if not reports[name].complete() or reports[name].root_set() != want:
                    failures.append(f"{obj}_{r}: {name} spectrum mismatch")
    return _result(
        "dimensions",
        f"the staircases of F_r and Fbar_r are the monomials of degree < r in "
        f"alpha, beta, gamma and in alpha, beta: bases of dims C(r+2,3) and "
        f"C(r+1,2), and their alpha, beta and gamma spectra are those of the "
        f"local rings, r <= {max_level}",
        failures,
    )


def check_grading(max_genus: int) -> CheckResult:
    max_level = max_genus + 2
    failures = []
    for r in range(max_level + 1):
        q = relations("q", r)
        degrees = (2 * r, 2 * r + 2, 2 * r + 4)
        for p, d in zip((q.p1, q.p2, q.p3), degrees):
            if p and not p.is_homogeneous(d):
                failures.append(f"q component of level {r} not homogeneous of degree {d}")
        rr = relations("R", r)
        for p, d in zip((rr.p1, rr.p2, rr.p3), degrees):
            if p and p.mod4_degree() != d % 4:
                failures.append(f"quantum component of level {r} not {d % 4} mod 4")
        rb = relations("Rbar", r)
        for p, d in zip((rb.p1, rb.p2), degrees):
            if p and p.mod4_degree() != d % 4:
                failures.append(f"reduced component of level {r} not {d % 4} mod 4")
    return _result(
        "grading",
        f"classical relations exactly homogeneous, deformed relations homogeneous "
        f"mod 4, r <= {max_level}",
        failures,
    )


def layer_failures(name: str, layer, k: int) -> list:
    """Why `layer` is not shaped like the k-th filtration layer, or [] if it is.

    The shape: dim k+1, alpha spectrum expected_filtration_alpha(k), beta
    acting as beta_eigenvalue(k) and gamma acting as zero.  Each failure is
    prefixed with `name`.
    """
    if layer.dim != k + 1:
        return [f"{name} dim {layer.dim} != {k + 1}"]
    failures = []
    alpha = layer.eigen["alpha"]
    if not alpha.complete():
        failures.append(f"{name}: alpha spectrum has unexplained factor {alpha.remainder}")
    if alpha.root_set() != expected_filtration_alpha(k):
        failures.append(f"{name}: alpha spectrum mismatch")
    beta = layer.eigen["beta"]
    want_beta = beta_eigenvalue(k)
    if not beta.complete() or beta.root_set() != {want_beta: k + 1}:
        failures.append(f"{name}: beta does not act as {want_beta}")
    gamma = layer.eigen["gamma"]
    if not gamma.complete() or gamma.root_set() != {GaussianRational(0): k + 1}:
        failures.append(f"{name}: gamma spectrum not zero")
    return failures


def check_filtration(max_genus: int) -> CheckResult:
    max_step = max_genus + 1
    failures = []
    for r in range(max_step + 1):
        failures += layer_failures(f"step {r}", filtration_step(r), r)
    return _result(
        "filtration-spectra",
        f"filtration layers have the stated alpha, beta and gamma spectra, "
        f"r <= {max_step}",
        failures,
    )


def check_socle_charpoly(max_genus: int) -> CheckResult:
    max_step = max_genus + 2
    failures = []
    for r in range(1, max_step + 1):
        got = socle_quotient_charpoly(r)
        want = expected_socle_charpoly(r)
        if got != want:
            failures.append(f"step {r}: {got} != {want}")
    return _result(
        "socle-charpoly",
        f"char poly of alpha on the top quotient equals the displayed product, "
        f"r <= {max_step}",
        failures,
    )


def check_blocks(max_genus: int) -> CheckResult:
    max_level = max_genus + 2
    failures = []
    for r in range(1, max_level + 1):
        failures += layer_failures(f"block {r}", psi1_block(r), r - 1)
    for g in range(1, max_genus + 1):
        for k, _, lines in fukaya.delta_module(g).parts():
            block = psi1_block(g - k).eigen
            if Counter(c.alpha.constant_term() for c in lines) != block["alpha"].root_set():
                failures.append(f"(g,k)=({g},{k}): loop module alpha values are not "
                                f"the alpha roots of block {g - k}")
            if {c.beta for c in lines} != set(block["beta"].root_set()):
                failures.append(f"(g,k)=({g},{k}): loop module beta is not "
                                f"the beta root of block {g - k}")
    return _result(
        "torsion-blocks",
        f"torsion blocks have the stated alpha, beta and gamma spectra (r <= "
        f"{max_level}), and the loop module lines of index k are the alpha and "
        f"beta roots of block g-k (g <= {max_genus})",
        failures,
    )


def check_gamma_nilpotency(max_genus: int) -> CheckResult:
    max_level = max_genus + 2
    failures = []
    for r in range(1, max_level + 1):
        ring = invariant_ring(r)
        for gen in relations("R", r - 1).generators():
            if ring.normal_form(GAMMA * gen):
                failures.append(f"gamma * level-{r - 1} relation not in level-{r} ideal")
        if ring.normal_form(GAMMA**r):
            failures.append(f"gamma^{r} nonzero at level {r}")
        k1, k2 = gamma_kernel_dims(r)
        if k1 != comb(r + 1, 2) or k2 != comb(r + 1, 2) + comb(r, 2):
            failures.append(f"gamma kernel dims at level {r}: {(k1, k2)}")
    return _result(
        "gamma-nilpotency",
        f"gamma shifts the ideal filtration down, gamma^r vanishes at level r and "
        f"its kernel dims are binomial, r <= {max_level}",
        failures,
    )


def reduced_spectrum_ring(g: int) -> QuotientRing:
    """F_g/(gamma, beta^2 - 64): the exact model of the reduced module at t=0."""
    return QuotientRing.from_generators(relations("R", g).generators() + [GAMMA, BETA * BETA - 64])


def check_reduced_consistency(max_genus: int) -> CheckResult:
    failures = []
    for g in range(1, max_genus + 1):
        ring = reduced_spectrum_ring(g)
        if ring.dim != 2 * g - 1:
            failures.append(f"genus {g}: reduced ring dim {ring.dim} != {2 * g - 1}")
            continue
        lines = fukaya.reduced_module(g, 1).components
        counted = {
            "alpha": Counter(c.alpha.constant_term() for c in lines),
            "beta": Counter(c.beta for c in lines),
        }
        for name, want in counted.items():
            cp = ring.mult_matrix(name).charpoly()
            report = factor_over_candidates(cp, default_candidates(g))
            if not report.complete() or report.root_set() != want:
                failures.append(f"genus {g}: t=0 {name} spectrum mismatch")
        mb = ring.mult_matrix("beta")
        if mb @ mb != Matrix.identity(ring.dim).scale(64):
            failures.append(f"genus {g}: beta^2 - 64 does not annihilate the reduced ring")
    return _result(
        "reduced-module",
        f"the rank-(2g-1) module at t=0 equals the exact spectrum of the "
        f"gamma-free square-eight quotient, g <= {max_genus}",
        failures,
    )


def check_primitive_parts(max_genus: int) -> CheckResult:
    failures = []
    for g in range(1, max_genus + 1):
        for k in range(g + 1):
            closed = primitive_dim(g, k)
            exact = primitive_dim_exact(g, k)
            if closed != exact:
                failures.append(f"(g,k)=({g},{k}): binomial {closed} != wedge kernel {exact}")
    return _result(
        "primitive-parts",
        f"binomial formula agrees with the exact wedge-kernel computation, "
        f"g <= {max_genus}, k <= g",
        failures,
    )


def check_finite_type_orders(max_genus: int) -> CheckResult:
    failures = []
    cases = [((1, False), 1), ((1, True), 1), ((2, False), 2), ((2, True), 1), ((0, False), 0)]
    for (g, b1), want in cases:
        got = donaldson.finite_type_order(g, b1)
        if got != want:
            failures.append(f"order({g}, b1_zero={b1}) = {got} != {want}")
    for g in range(11):
        if donaldson.finite_type_order(g, True) > donaldson.finite_type_order(g, False):
            failures.append(f"b1=0 bound exceeds general bound at genus {g}")
    return _result(
        "finite-type-orders",
        "order bounds reproduce the known small-genus values and b1=0 never "
        "exceeds the general bound, g <= 10",
        failures,
    )


def check_fiber_sum(max_genus: int) -> CheckResult:
    failures = []
    grid = [(1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 1, 2)]
    for g, h1, h2 in grid:
        inp = donaldson.product_sum_input(g, h1, h2)
        got = donaldson.fiber_sum(inp)
        want = donaldson.product_series(g, h1 + h2)
        if got.terms != want.terms:
            failures.append(f"glue genus {g}, parts ({h1},{h2}): {got.terms} != {want.terms}")
    return _result(
        "fiber-sum",
        "consistency of two transcribed formulas: donaldson.fiber_sum of two "
        "products along a factor equals donaldson.product_series termwise, "
        "including weights and signs",
        failures,
    )


def check_congruence(max_genus: int) -> CheckResult:
    """Basic-class congruence on products, checked against each factor class
    along which the product splits as a sum of two smaller products (the
    congruence constrains exactly those directions; a torus-factor product
    does not split along its higher-genus factor and its middle classes
    genuinely violate the congruence there)."""
    failures = []
    for g in range(1, max_genus + 1):
        for h in range(1, max_genus + 1):
            series = donaldson.product_series(g, h)
            cells = []
            if h >= 2 or (g, h) == (1, 1):
                cells.append(((1, 0), g))  # split along the genus-g factor
            if g >= 2 or (g, h) == (1, 1):
                cells.append(((0, 1), h))  # split along the genus-h factor
            for sigma, genus_of_sigma in cells:
                report = donaldson.congruence_check(series, sigma, genus_of_sigma)
                if not report.passed:
                    failures.append(f"product ({g},{h}) against {sigma}")
    return _result(
        "congruence",
        f"basic classes of products pair with each splitting factor class as "
        f"2g-2 mod 4, g,h <= {max_genus}",
        failures,
    )


def check_determinism(max_genus: int) -> CheckResult:
    failures = []
    for r in range(1, max_genus + 1):
        for build in (invariant_ring, gamma_quotient_ring):
            cached, fresh = build(r), build.__wrapped__(r)  # fresh: past the cache
            if cached.to_json() != fresh.to_json() or any(
                cached.mult_matrix(v) != fresh.mult_matrix(v) for v in VAR_NAMES
            ):
                failures.append(f"{build.__name__}({r}) differs from a fresh build")
    return _result(
        "determinism",
        f"the cached level rings equal a fresh build: Groebner basis, staircase and "
        f"alpha, beta, gamma matrices, r <= {max_genus}",
        failures,
    )


CRITERIA = (
    ("dimensions", check_dimensions),
    ("grading", check_grading),
    ("filtration-spectra", check_filtration),
    ("socle-charpoly", check_socle_charpoly),
    ("torsion-blocks", check_blocks),
    ("gamma-nilpotency", check_gamma_nilpotency),
    ("reduced-module", check_reduced_consistency),
    ("primitive-parts", check_primitive_parts),
    ("finite-type-orders", check_finite_type_orders),
    ("fiber-sum", check_fiber_sum),
    ("congruence", check_congruence),
    ("determinism", check_determinism),
)


def run_all(max_genus: int) -> list:
    """Run every claim at max_genus (finite-type-orders and fiber-sum have a
    fixed extent); a claim that raises gives one failed result."""
    results = []
    for name, fn in CRITERIA:
        try:
            # by module-level name: the benchmark tracer wraps this module's attributes
            results.append(globals()[fn.__name__](max_genus))
        except Exception as exc:
            results.append(CheckResult(name, "raised", False, f"{type(exc).__name__}: {exc}"))
    return results
