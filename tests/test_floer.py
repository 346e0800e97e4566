from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st
from sympy import bernoulli

from floercas import checks, cli, donaldson, floer, fukaya
from floercas.exactalg import GaussianRational as GR
from floercas.floer import (
    FalsificationError,
    RelationTriple,
    SubquotientModule,
    alpha_eigenvalue,
    beta_eigenvalue,
    classical_ring,
    default_candidates,
    filtration_step,
    floer_cohomology,
    gamma_kernel_dims,
    gamma_quotient_ring,
    invariant_ring,
    level_block,
    level_reports,
    level_ring,
    monomial_simplex,
    primitive_dim,
    primitive_dim_exact,
    psi1_block,
    recursion_block,
    relations,
    socle_quotient_charpoly,
    socle_quotient_ring,
)
from floercas.checks import (
    expected_filtration_alpha,
    expected_socle_charpoly,
    layer_failures,
)
from floercas.donaldson import DonaldsonSeries, product_series
from floercas.fukaya import delta_module
from floercas.groebner import VAR_NAMES, GroebnerBasis, QuotientRing
from floercas.linalg import Matrix, UniPoly, factor_over_candidates
from floercas.poly import ALPHA, BETA, GAMMA, GUARD, SparsePoly, monomial, weighted_degree

from elimination import (
    eigen_reports,
    filtration_layer,
    from_columns,
    independent_subset,
    induced_action,
    monomial_matrix,
    torsion_block,
    wedge_kernel_dim,
)


def spectrum(report):
    return {root: mult for root, mult in report.roots}


def thaddeus_pairing(g: int, m: int, n: int, p: int) -> Fraction:
    """<alpha^m beta^n gamma^p, [N_g]> for m + 2n + 3p = 3g - 3, N_g the
    moduli space of stable rank-2 bundles of odd degree on a genus-g
    surface (Thaddeus, J. Differential Geom. 35 (1992)):
    (-1)^(p-g) g!/(g-p)! m!/q! 2^(2g-2-p) (2^q - 2) B_q, q = m + p - g + 1,
    and 0 for q < 0.  q is even, so the sign of B_1 never enters."""
    q = m + p - g + 1
    if q < 0:
        return Fraction(0)
    assert q % 2 == 0 and p < g
    b = bernoulli(q)
    sign = 1 if (p - g) % 2 == 0 else -1
    return (
        sign * Fraction(factorial(g) * factorial(m), factorial(g - p) * factorial(q))
        * 2 ** (2 * g - 2 - p) * (2**q - 2) * Fraction(int(b.p), int(b.q))
    )


def top_weighted_part(p: SparsePoly) -> SparsePoly:
    """The terms of p of the largest weighted degree."""
    top = max(map(weighted_degree, p.terms), default=0)
    return SparsePoly({m: c for m, c in p.terms.items() if weighted_degree(m) == top})


class TestRelations:
    def test_level_zero(self):
        tri = relations("R", 0)
        assert tri.p1 == SparsePoly.constant(1)
        assert not tri.p2 and not tri.p3

    def test_level_one(self):
        tri = relations("R", 1)
        assert tri.components == (ALPHA, BETA - 8, GAMMA)

    def test_level_two(self):
        tri = relations("R", 2)
        assert tri.p1 == ALPHA**2 + BETA - 8
        assert tri.p2 == ALPHA * BETA + 8 * ALPHA + GAMMA
        assert tri.p3 == ALPHA * GAMMA

    def test_classical_level_two(self):
        tri = relations("q", 2)
        assert tri.p1 == ALPHA**2 + BETA
        assert tri.p2 == ALPHA * BETA + GAMMA
        assert tri.p3 == ALPHA * GAMMA
        assert tri.variable_names() == ("a", "b", "c")

    def test_reduced_level_two(self):
        tri = relations("Rbar", 2)
        assert tri.components == (ALPHA**2 + BETA - 8, ALPHA * BETA + 8 * ALPHA)

    def test_classical_homogeneous(self):
        for r in range(7):
            tri = relations("q", r)
            for p, d in zip((tri.p1, tri.p2, tri.p3), (2 * r, 2 * r + 2, 2 * r + 4)):
                if p:
                    assert p.is_homogeneous(d), (r, str(p))

    def test_deformed_mod4_homogeneous(self):
        for r in range(7):
            tri = relations("R", r)
            for p, d in zip((tri.p1, tri.p2, tri.p3), (2 * r, 2 * r + 2, 2 * r + 4)):
                if p:
                    assert p.mod4_degree() == d % 4

    def test_leading_monomials(self):
        for r in range(1, 6):
            tri = relations("R", r)
            assert tri.p1.leading_monomial() == monomial(r, 0, 0)
            assert tri.p2.leading_monomial() == monomial(r - 1, 1, 0)
            assert tri.p3.leading_monomial() == monomial(r - 1, 0, 1)

    def test_levels_match_the_recursion_from_zero(self):
        # relations builds each level from the cached one below; the oracle
        # unrolls the recursion from level 0 on every call
        for flavor in ("q", "R", "Rbar"):
            p1, p2, p3 = SparsePoly.constant(1), SparsePoly.zero(), SparsePoly.zero()
            for r in range(13):
                assert relations(flavor, r) == (flavor, r, p1, p2, p3), (flavor, r)
                shift = BETA if flavor == "q" else BETA + (-1) ** (r + 1) * 8
                n1 = ALPHA * p1 + r * r * p2
                if flavor == "Rbar":
                    p1, p2 = n1, shift * p1
                else:
                    p1, p2, p3 = n1, shift * p1 + Fraction(2 * r, r + 1) * p3, GAMMA * p1

    @pytest.mark.parametrize("g", range(2, 9))
    def test_top_degree_pairs_as_on_the_moduli_space(self, g):
        # classical_ring(g) is H*(N_g): the normal form of each monomial of
        # top degree 6g - 6 is its pairing with [N_g] times the socle
        # gamma^(g-1), which pairs to 2^(g-1) g!.  The gamma terms of the
        # recursion reach this, and no spectrum claim does
        ring = classical_ring(g)
        socle = GAMMA ** (g - 1)
        for p in range(g):
            for n in range((3 * g - 3 - 3 * p) // 2 + 1):
                m = 3 * g - 3 - 3 * p - 2 * n
                c = thaddeus_pairing(g, m, n, p) / (2 ** (g - 1) * factorial(g))
                nf = ring.normal_form(SparsePoly({monomial(m, n, p): 1}))
                assert nf == c * socle, (g, m, n, p)

    def test_r_is_a_deformation_of_q(self):
        # the +-8 shift is of lower weighted degree, so the top part of each
        # R relation is the q relation of its level, gamma terms included
        for r in range(16):
            deformed, classical = relations("R", r), relations("q", r)
            for p, q in zip(deformed.components, classical.components):
                assert top_weighted_part(p) == q, r

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            relations("S", 1)
        with pytest.raises(ValueError):
            relations("R", -1)

    @pytest.mark.parametrize("level", [True, 2.5])
    def test_a_non_integer_level_is_refused_and_not_cached(self, level):
        # True == 1 and hashes as 1: a cold cache would store the record of
        # relations("R", True), r = True, under the key of ("R", 1)
        relations.cache_clear()
        try:
            with pytest.raises(ValueError, match="^level must be an integer$"):
                relations("R", level)
            assert type(relations("R", 1).r) is int
            with pytest.raises(ValueError, match="^level must be >= 0$"):
                relations("R", -1)
        finally:
            relations.cache_clear()


class TestLevelRings:
    def test_level_one_values(self):
        ring = invariant_ring(1)
        assert ring.dim == 1
        assert not ring.normal_form(ALPHA)
        assert ring.normal_form(BETA) == SparsePoly.constant(8)
        assert not ring.normal_form(GAMMA)

    def test_dims(self):
        for r in range(7):
            assert invariant_ring(r).dim == comb(r + 2, 3)
            assert gamma_quotient_ring(r).dim == comb(r + 1, 2)
            assert classical_ring(r).dim == comb(r + 2, 3)

    def test_staircase_level_two(self):
        assert set(invariant_ring(2).basis) == {
            monomial(0, 0, 0), monomial(1, 0, 0), monomial(0, 1, 0), monomial(0, 0, 1)}

    def test_monomial_simplex_is_basis(self):
        for r in range(1, 6):
            ring = invariant_ring(r)
            simplex = monomial_simplex(r, 3)
            assert len(simplex) == ring.dim
            assert monomial_matrix(ring, simplex).rank() == ring.dim

    def test_gamma_quotient_presentations_agree(self):
        # quotient by the two-term recursion + gamma equals F_r modulo gamma
        for r in range(1, 5):
            direct = gamma_quotient_ring(r)
            via_f = QuotientRing.from_generators(list(invariant_ring(r).gb.generators) + [GAMMA])
            assert direct.basis == via_f.basis
            for g in direct.gb.generators:
                assert not via_f.normal_form(g)
            for g in via_f.gb.generators:
                assert not direct.normal_form(g)


class TestSpectrumRule:
    # (k, alpha on the index-k line, beta on it), written out by hand
    TABLE = [
        (-6, GR(0, -24), GR(8)),
        (-5, GR(-20), GR(-8)),
        (-4, GR(0, -16), GR(8)),
        (-3, GR(-12), GR(-8)),
        (-2, GR(0, -8), GR(8)),
        (-1, GR(-4), GR(-8)),
        (0, GR(0), GR(8)),
        (1, GR(4), GR(-8)),
        (2, GR(0, 8), GR(8)),
        (3, GR(12), GR(-8)),
        (4, GR(0, 16), GR(8)),
        (5, GR(20), GR(-8)),
        (6, GR(0, 24), GR(8)),
    ]

    def test_literal_values(self):
        for k, alpha, beta in self.TABLE:
            assert alpha_eigenvalue(k) == alpha
            assert beta_eigenvalue(k) == beta

    def test_candidates_contain_rule(self):
        for bound in range(8):
            cands = default_candidates(bound)
            for k in range(-bound, bound + 1):
                assert alpha_eigenvalue(k) in cands
                assert beta_eigenvalue(k) in cands

    def test_displayed_product_over_line_spectrum(self):
        # the displayed product is prod (x - v) over the line spectrum: it
        # factors completely over those candidates, each root once
        for r in range(1, 9):
            want = expected_filtration_alpha(r)
            assert set(want.values()) == {1}
            cp = expected_socle_charpoly(r)
            rep = factor_over_candidates(cp, list(want))
            assert rep.complete() and rep.root_set() == want
            assert cp.degree == len(want)


class TestFiltration:
    def test_step_zero(self):
        step = filtration_step(0)
        assert step.dim == 1
        assert spectrum(step.eigen["alpha"]) == {GR(0): 1}
        assert spectrum(step.eigen["beta"]) == {GR(8): 1}

    def test_step_one(self):
        step = filtration_step(1)
        assert step.dim == 2
        assert spectrum(step.eigen["alpha"]) == {GR(4): 1, GR(-4): 1}
        assert spectrum(step.eigen["beta"]) == {GR(-8): 2}

    def test_step_two(self):
        step = filtration_step(2)
        assert step.dim == 3
        assert spectrum(step.eigen["alpha"]) == {GR(0): 1, GR(0, 8): 1, GR(0, -8): 1}
        assert spectrum(step.eigen["beta"]) == {GR(8): 3}

    def test_steps_complete_and_sized(self):
        for r in range(5):
            step = filtration_step(r)
            assert step.dim == r + 1
            assert layer_failures(f"step {r}", step, r) == []
            assert spectrum(step.eigen["alpha"]) == expected_filtration_alpha(r)
            assert spectrum(step.eigen["gamma"]) == {GR(0): r + 1}


class TestSocleQuotient:
    def test_displayed_products(self):
        for r in range(1, 6):
            assert socle_quotient_charpoly(r) == expected_socle_charpoly(r)

    def test_frozen_examples(self):
        # r=1: x^2 - 16; r=2: x^3 + 64x; r=3: x^4 - 160x^2 + 2304
        assert socle_quotient_charpoly(1) == UniPoly([-16, 0, 1])
        assert socle_quotient_charpoly(2) == UniPoly([0, 64, 0, 1])
        assert socle_quotient_charpoly(3) == UniPoly([2304, 0, -160, 0, 1])

    def test_quotient_dim(self):
        for r in range(1, 6):
            assert socle_quotient_ring(r).dim == r + 1

    def test_built_from_relations_as_from_the_level_above(self):
        # a reduced Groebner basis is unique, so the quotient built from the
        # level-(r+1) relations equals F_{r+1} extended by the same generators
        for r in range(1, 8):
            shift = BETA + (-1) ** (r + 1) * 8
            via_f = QuotientRing.from_generators(
                list(invariant_ring(r + 1).gb.generators) + [shift, GAMMA])
            direct = socle_quotient_ring(r)
            assert direct.gb == via_f.gb
            assert direct.basis == via_f.basis


class TestBlocks:
    def test_level_one(self):
        block = psi1_block(1)
        assert block.dim == 1
        assert spectrum(block.eigen["alpha"]) == {GR(0): 1}
        assert spectrum(block.eigen["beta"]) == {GR(8): 1}
        assert spectrum(block.eigen["gamma"]) == {GR(0): 1}

    def test_level_two(self):
        block = psi1_block(2)
        assert block.dim == 2
        assert spectrum(block.eigen["alpha"]) == {GR(4): 1, GR(-4): 1}
        assert spectrum(block.eigen["beta"]) == {GR(-8): 2}

    def test_level_three(self):
        block = psi1_block(3)
        assert block.dim == 3
        assert spectrum(block.eigen["alpha"]) == {GR(0): 1, GR(0, 8): 1, GR(0, -8): 1}
        assert spectrum(block.eigen["beta"]) == {GR(8): 3}

    def test_levels_complete(self):
        for r in range(1, 6):
            block = psi1_block(r)
            assert block.dim == r
            assert layer_failures(f"block {r}", block, r - 1) == []
            assert spectrum(block.eigen["alpha"]) == expected_filtration_alpha(r - 1)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            psi1_block(0)


@pytest.fixture
def charpoly_sizes(monkeypatch):
    """The sizes of the matrices whose characteristic polynomials are
    taken while the test runs, in call order."""
    sizes = []
    charpoly = Matrix.charpoly

    def spy(matrix):
        sizes.append(matrix.nrows)
        return charpoly(matrix)

    monkeypatch.setattr(Matrix, "charpoly", spy)
    return sizes


@pytest.fixture
def fresh_level_rings():
    """The caches of the level rings and blocks emptied before and after: a
    test that corrupts their inputs must build what it checks, and leave
    nothing behind."""
    caches = (invariant_ring, gamma_quotient_ring, classical_ring, level_block)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def staircase_corrupted(monkeypatch):
    # F_2 modulo gamma: the staircase loses gamma
    real = floer.invariant_ring
    bad = QuotientRing.from_generators(relations("R", 2).generators() + [GAMMA])
    monkeypatch.setattr(floer, "invariant_ring", lambda r: bad if r == 2 else real(r))


def relation_corrupted(level, replace):
    def corrupt(monkeypatch):
        for r in range(4):
            invariant_ring(r)  # the rings stay as built; only the guard reads the change
        real = floer.relations
        monkeypatch.setattr(floer, "relations", lambda flavor, r: (
            real(flavor, r)._replace(**replace(real(flavor, r))) if (flavor, r) == ("R", level)
            else real(flavor, r)))
    return corrupt


def k_squared_mutant(k0, factor):
    """floer.relations with k^2 multiplied by factor in the step from level
    k0 to k0 + 1, for every flavor, and cached as the real one is."""
    @lru_cache(maxsize=None)
    def mutant(flavor, r):
        if r <= k0:
            return relations(flavor, r)
        _, _, p1, p2, p3 = mutant(flavor, r - 1)
        k = r - 1
        shift = BETA if flavor == "q" else BETA + (-1) ** (k + 1) * 8
        n1 = ALPHA * p1 + (factor if k == k0 else 1) * k * k * p2
        if flavor == "Rbar":
            return RelationTriple(flavor, r, n1, shift * p1, SparsePoly.zero())
        return RelationTriple(flavor, r, n1, shift * p1 + Fraction(2 * k, k + 1) * p3, GAMMA * p1)
    return mutant


def groebner_element_corrupted(monkeypatch):
    # F_1 from a basis of the same ideal that is not reduced: the element
    # led by gamma becomes gamma + alpha; alpha is in the ideal, so the
    # staircase and every normal form stay as they are
    real = floer.invariant_ring
    gamma, alpha = monomial(0, 0, 1), monomial(1, 0, 0)
    divisors = tuple((gamma, 1, ((alpha, 1),), GUARD - gamma) if d[0] == gamma else d
                     for d in real(1).gb.divisors)
    bad = QuotientRing(GroebnerBasis(divisors))
    monkeypatch.setattr(floer, "invariant_ring", lambda r: bad if r == 1 else real(r))


class TestLevelBlocks:
    """The spectra of F_r and Fbar_r from one r x r block per level, against
    the multiplication matrices and the elimination route as oracles."""

    def test_product_rule_matches_the_multiplication_matrices(self):
        for obj, top in (("F", 8), ("Fbar", 10)):
            for r in range(top + 1):
                for name in VAR_NAMES:
                    product = UniPoly([1])
                    for i in range(1, r + 1):
                        level_block(obj, i)  # its guards hold the blocks to recursion_block(i)
                        block = Matrix(recursion_block(i)[name], i)
                        for _ in range(r - i + 1 if obj == "F" else 1):
                            product = product * block.charpoly()
                    want = level_ring(obj, r).mult_matrix(name).charpoly()
                    assert product == want, (obj, r, name)

    def test_reports_match_the_multiplication_matrices(self):
        for obj in ("F", "Fbar"):
            for r in range(8):
                want = eigen_reports(level_ring(obj, r).mult_matrix, r + 1)
                assert level_reports(obj, r) == want, (obj, r)

    def test_blocks_have_the_spectra_of_the_subquotients(self):
        for r in range(1, 7):
            assert psi1_block(r) == torsion_block(r), r
            assert filtration_step(r - 1) == filtration_layer(r - 1), r

    def test_blocks_of_f_and_fbar_agree_entry_for_entry(self):
        # guard 5 holds the blocks of both objects to the one recursion_block(r)
        for r in range(1, 9):
            assert level_block("F", r) == level_block("Fbar", r), r

    @pytest.mark.parametrize("corrupt, message", [
        (staircase_corrupted, "the staircase of F_2 is not the monomials of degree < 2"),
        (relation_corrupted(3, lambda tri: {"p1": tri.p1 + 1}),
         "the level-3 relations of F are not in the ideal of level 2"),
        (relation_corrupted(2, lambda tri: {"p3": ALPHA}),
         "gamma times the level-2 relations of F is not in the ideal of level 3"),
        (groebner_element_corrupted,
         "gamma times the level-0 Groebner element of F led by 1 is not the level-1 one"),
        # a consistent recursion, built level by level: guards 1-4 hold
        (lambda monkeypatch: monkeypatch.setattr(floer, "relations", k_squared_mutant(1, 2)),
         "the alpha block of F at level 2 is not the one of the recursion"),
    ])
    def test_each_guard_fails_on_a_corrupted_input(self, monkeypatch, capsys, fresh_level_rings,
                                                   corrupt, message):
        corrupt(monkeypatch)
        with pytest.raises(FalsificationError, match=f"^{message}$"):
            level_reports("F", 3)
        level_block.cache_clear()
        assert cli.main(["ring", "--genus", "3", "--format", "json"]) == cli.EXIT_FALSIFIED
        out, err = capsys.readouterr()
        assert out == "" and err == f"falsified: {message}\n"

    def test_ring_and_eigen_build_no_multiplication_matrix(self, monkeypatch, capsys,
                                                          fresh_level_rings, charpoly_sizes):
        def no_mult_matrix(ring, var):
            raise AssertionError("a multiplication matrix was built")

        monkeypatch.setattr(QuotientRing, "mult_matrix", no_mult_matrix)
        for argv in (["ring", "--genus", "6", "--format", "json"],
                     ["eigen", "--object", "F", "--r", "6"]):
            level_block.cache_clear()
            charpoly_sizes.clear()
            assert cli.main(argv) == cli.EXIT_OK
            assert charpoly_sizes == [], argv
        capsys.readouterr()

    def test_check_takes_no_charpoly_past_the_genus_bound(self, capsys, fresh_level_rings,
                                                          charpoly_sizes):
        # Matrix.charpoly runs Berkowitz over the whole matrix, which is
        # cheap only while every matrix stays small: check --max-genus N
        # takes none larger than max(N + 3, 2N - 1): the socle quotients of
        # level r <= N + 2 have dimension r + 1, and the reduced rings of
        # genus g <= N dimension 2g - 1
        assert cli.main(["check", "--max-genus", "6"]) == cli.EXIT_OK
        assert max(charpoly_sizes) == max(6 + 3, 2 * 6 - 1) == 11
        capsys.readouterr()


@pytest.mark.parametrize("k0, factor", [
    pytest.param(k0, factor, id=f"k^2 times {factor} at k={k0}")
    for k0 in (1, 2, 3) for factor in (2, -1, Fraction(3, 2))
])
def test_every_k_squared_mutant_fails_a_claim(monkeypatch, fresh_level_rings, k0, factor):
    # the first rows of a mutation table: the k^2 coefficient of the
    # recursion, changed at one step, is watched by some claim of check
    mutant = k_squared_mutant(k0, factor)
    monkeypatch.setattr(floer, "relations", mutant)
    monkeypatch.setattr(checks, "relations", mutant)
    assert [result.name for result in checks.run_all(3) if not result.passed]


def doubled_weight(g, h):
    """product_series with its weight doubled when both genera are >= 2."""
    series = product_series(g, h)
    if min(g, h) < 2:
        return series
    return DonaldsonSeries(series.basis_names, series.q, [(2 * a, k) for a, k in series.terms])


# the other rows of the mutation table: one value of a closed form the model
# reads, changed, and patched in every module that imports the name
CLOSED_FORM_MUTANTS = {
    "alpha_eigenvalue(3) = 20": ("alpha_eigenvalue", (floer, checks, fukaya),
                                 lambda k: GR(20) if k == 3 else alpha_eigenvalue(k)),
    "alpha_eigenvalue(2) = 12i": ("alpha_eigenvalue", (floer, checks, fukaya),
                                  lambda k: GR(0, 12) if k == 2 else alpha_eigenvalue(k)),
    "beta_eigenvalue(2) = -8": ("beta_eigenvalue", (floer, checks, fukaya),
                                lambda k: GR(-8) if k == 2 else beta_eigenvalue(k)),
    "primitive_dim(3, 1) + 1": ("primitive_dim", (floer, checks, fukaya),
                                lambda g, k: primitive_dim(g, k) + ((g, k) == (3, 1))),
    "product_series weight doubled": ("product_series", (donaldson,), doubled_weight),
}


@pytest.mark.parametrize("row", CLOSED_FORM_MUTANTS)
def test_every_closed_form_mutant_fails_a_claim(monkeypatch, fresh_level_rings, row):
    name, modules, mutant = CLOSED_FORM_MUTANTS[row]
    for module in modules:
        monkeypatch.setattr(module, name, mutant)
    assert [result.name for result in checks.run_all(3) if not result.passed]


def greedy_independent(vectors, seed):
    """Keep a vector exactly when it raises the rank of what is kept so far."""
    kept, out = list(seed), []
    rank = from_columns(kept).rank() if kept else 0
    for v in vectors:
        r = from_columns(kept + [v]).rank()
        if r > rank:
            kept, rank = kept + [v], r
            out.append(v)
    return out


# mostly zero entries, so that zero and dependent columns are common
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def column_families(draw):
    """(seed, vectors) over Q^n drawn from a small pool, so vectors
    repeat; the pool holds the zero vector, and a seed of two or more
    vectors gets their sum appended, so it is dependent."""
    n = draw(st.integers(1, 4))
    column = st.lists(sparse_entries, min_size=n, max_size=n)
    pool = draw(st.lists(column, min_size=1, max_size=4)) + [[0] * n]
    vectors = draw(st.lists(st.sampled_from(pool), max_size=7))
    seed = draw(st.lists(st.sampled_from(pool), max_size=3))
    if len(seed) >= 2:
        seed.append([a + b for a, b in zip(seed[0], seed[1])])
    return seed, vectors


class TestLayerFailures:
    """checks.layer_failures on hand-built modules of dim 2, against layer 1:
    alpha eigenvalues 4 and -4, beta acting as -8, gamma zero."""

    @staticmethod
    def layer(alpha, beta):
        zero = Matrix([[0, 0], [0, 0]])
        actions = {"alpha": Matrix(alpha), "beta": Matrix(beta), "gamma": zero}
        return SubquotientModule(2, eigen_reports(actions.get, 2))

    def test_layer_one_passes(self):
        assert layer_failures("step 1", self.layer([[4, 0], [0, -4]], [[-8, 0], [0, -8]]), 1) == []

    def test_wrong_beta(self):
        layer = self.layer([[4, 0], [0, -4]], [[8, 0], [0, 8]])
        assert layer_failures("step 1", layer, 1) == ["step 1: beta does not act as -8"]

    def test_unexplained_alpha_factor(self):
        layer = self.layer([[0, 1], [3, 0]], [[-8, 0], [0, -8]])
        assert layer_failures("block 2", layer, 1) == [
            "block 2: alpha spectrum has unexplained factor x^2-3",
            "block 2: alpha spectrum mismatch",
        ]

    def test_wrong_dim_stops_early(self):
        layer = self.layer([[4, 0], [0, -4]], [[-8, 0], [0, -8]])
        assert layer_failures("step 2", layer, 2) == ["step 2 dim 2 != 3"]


class TestSubquotientReadout:
    @settings(max_examples=150, deadline=None)
    @given(column_families())
    def test_independent_subset_is_greedy_choice(self, family):
        seed, vectors = family
        assert independent_subset(vectors, seed) == greedy_independent(vectors, seed)

    def test_action_leaving_subquotient_raises(self):
        e1, e2 = [1, 0], [0, 1]
        shift = from_columns([e2, [0, 0]])  # e1 -> e2, e2 -> 0
        with pytest.raises(FalsificationError):
            induced_action(shift, [e1], [])

    def test_action_on_quotient_by_a_line(self):
        # Q^3/span(e1 + e3), classes of e1 and e2; the denominator is
        # given twice over, as d and 2d
        e1, e2 = [1, 0, 0], [0, 1, 0]
        d = [1, 0, 1]
        # m e1 = e2 + e3 = -e1 + e2 + d,  m e2 = 2 e1 + e3 = e1 + d,  m e3 = 0
        m = from_columns([[0, 1, 1], [2, 0, 1], [0, 0, 0]])
        got = induced_action(m, [e1, e2], [d, [2 * x for x in d]])
        assert got == Matrix([[-1, 1], [1, 0]])


class TestGammaStructure:
    def test_kernel_dims(self):
        assert gamma_kernel_dims(1) == (1, 1)
        assert gamma_kernel_dims(2) == (3, 4)
        assert gamma_kernel_dims(3) == (6, 9)

    def test_ideal_shift_and_nilpotency(self):
        for r in range(1, 5):
            ring = invariant_ring(r)
            for gen in relations("R", r - 1).generators():
                assert not ring.normal_form(GAMMA * gen)
            assert not ring.normal_form(GAMMA**r)
            if r >= 2:
                assert ring.normal_form(GAMMA ** (r - 1))


class TestPrimitiveParts:
    def test_closed_form_values(self):
        assert primitive_dim(1, 0) == 1
        assert primitive_dim(2, 1) == 4
        assert primitive_dim(3, 2) == 14
        assert primitive_dim(4, 0) == 1

    def test_exact_agrees_small(self):
        for g in range(1, 8):
            for k in range(g + 1):
                assert primitive_dim_exact(g, k) == primitive_dim(g, k)

    def test_planes_match_the_dense_wedge_kernel(self):
        for g in range(5):
            for k in range(g + 1):
                assert primitive_dim_exact(g, k) == wedge_kernel_dim(g, k)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            primitive_dim_exact(2, 3)


class TestAssembledRing:
    def test_totals(self):
        assert floer_cohomology(1).total_dim == 1
        assert floer_cohomology(2).total_dim == 8
        assert floer_cohomology(3).total_dim == 48

    def test_top_summand_vanishes(self):
        ring = floer_cohomology(3)
        top = ring.summands[-1]
        assert top.k == 3 and top.ring.dim == 0 and top.dim == 0

    def test_json_shape(self):
        blob = floer_cohomology(2).to_json()
        assert blob["total_dim"] == 8
        assert [s["dim"] for s in blob["summands"]] == [4, 4, 0]


class TestPsi1Homology:
    """The homology of multiplication by a degree-3 generator: for each
    k < g, primitive_dim(g-1, k) copies of the torsion block psi1_block(g-k),
    which the loop module lists one line per root."""

    def test_totals(self):
        totals = [sum(primitive_dim(g - 1, k) * psi1_block(g - k).dim for k in range(g))
                  for g in (1, 2, 3)]
        assert totals == [1, 4, 16]

    def test_summands_genus_two(self):
        # block 2 has alpha roots +-4 and beta -8, block 1 the roots 0 and 8
        lines = {(k, mult, c.alpha.constant_term(), c.beta)
                 for k, mult, part in delta_module(2).parts() for c in part}
        assert lines == {(0, 1, GR(4), GR(-8)), (0, 1, GR(-4), GR(-8)), (1, 2, GR(0), GR(8))}
        assert psi1_block(2).eigen["alpha"].root_set() == {GR(4): 1, GR(-4): 1}
        assert psi1_block(1).eigen["beta"].root_set() == {GR(8): 1}

    def test_block_dims_match_concrete_blocks(self):
        for g in range(1, 5):
            parts = list(delta_module(g).parts())
            assert [k for k, _, _ in parts] == list(range(g))
            for k, mult, lines in parts:
                assert len(lines) == psi1_block(g - k).dim == g - k
                assert mult == primitive_dim(g - 1, k)


# Each call passes a bool or a float as a genus, level or order.  lru_cache
# gave True and 1, or 2.0 and 2, one key, so once the int call had run, a
# cached builder answered with the int's record; the uncached calls returned
# a record of size True, or raised a bare TypeError from range() or comb()
NON_INTEGER_SIZES = {
    "relations-bool": (lambda: relations("R", True), lambda: relations("R", 1), "level"),
    "relations-float": (lambda: relations("R", 2.0), lambda: relations("R", 2), "level"),
    "invariant-ring-bool": (lambda: invariant_ring(True), lambda: relations("R", 1), "level"),
    "gamma-quotient-ring-float": (lambda: gamma_quotient_ring(2.0),
                                  lambda: gamma_quotient_ring(2), "level"),
    "classical-ring-bool": (lambda: classical_ring(True), lambda: classical_ring(1), "level"),
    "level-block-bool": (lambda: level_block("F", True), lambda: level_block("F", 1), "level"),
    "level-reports-bool": (lambda: level_reports("F", True), lambda: level_reports("F", 1),
                           "level"),
    "psi1-block-bool": (lambda: psi1_block(True), lambda: psi1_block(1), "level"),
    "filtration-step-bool": (lambda: filtration_step(True), lambda: filtration_step(1), "level"),
    "socle-charpoly-bool": (lambda: socle_quotient_charpoly(True),
                            lambda: socle_quotient_charpoly(1), "level"),
    "floer-cohomology-bool": (lambda: floer_cohomology(True), lambda: floer_cohomology(1),
                              "genus"),
    "floer-cohomology-float": (lambda: floer_cohomology(2.0), lambda: floer_cohomology(2),
                               "genus"),
    "primitive-dim-float": (lambda: primitive_dim(2.5, 1), lambda: primitive_dim(2, 1), "genus"),
    "primitive-dim-k-bool": (lambda: primitive_dim(2, True), lambda: primitive_dim(2, 1), "k"),
    "primitive-dim-exact-float": (lambda: primitive_dim_exact(2.0, 1),
                                  lambda: primitive_dim_exact(2, 1), "genus"),
    "reduced-order-float": (lambda: fukaya.reduced_module(2, 1, 2.5),
                            lambda: fukaya.reduced_module(2, 1, 2), "order"),
    "effective-order-float": (lambda: fukaya.effective_eigenvalues(2, 2.5),
                              lambda: fukaya.effective_eigenvalues(2, 2), "order"),
    "mu-order-float": (lambda: fukaya.mu_action(1, fukaya.YHomologyClass.point(), 2.5),
                       lambda: fukaya.mu_action(1, fukaya.YHomologyClass.point(), 2), "order"),
    "evaluate-order-float": (lambda: donaldson.evaluate(product_series(2, 2), (1, 0), 2.5),
                             lambda: donaldson.evaluate(product_series(2, 2), (1, 0), 2),
                             "order"),
    "evaluate-order-bool": (lambda: donaldson.evaluate(product_series(2, 2), (1, 0), order=True),
                            lambda: donaldson.evaluate(product_series(2, 2), (1, 0), order=1),
                            "order"),
}


@pytest.mark.parametrize("cache", ["warm", "cold"])
@pytest.mark.parametrize("case", NON_INTEGER_SIZES)
def test_a_non_integer_size_is_refused_whatever_the_cache_holds(case, cache):
    call, int_call, field = NON_INTEGER_SIZES[case]
    if cache == "warm":
        int_call()
    else:
        for builder in (relations, invariant_ring, gamma_quotient_ring, classical_ring,
                        level_block):
            builder.cache_clear()
    with pytest.raises(ValueError, match=rf"^{field} must be an integer$"):
        call()
