from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from floercas.exactalg import GaussianRational as GR
from floercas.floer import (
    FalsificationError,
    SubquotientModule,
    _independent_subset,
    alpha_eigenvalue,
    basis_matrix,
    beta_eigenvalue,
    classical_ring,
    default_candidates,
    eigen_reports,
    filtration_step,
    floer_cohomology,
    gamma_kernel_dims,
    gamma_quotient_ring,
    induced_action,
    invariant_ring,
    monomial_simplex,
    primitive_dim,
    primitive_dim_exact,
    psi1_block,
    psi1_homology_dims,
    relations,
    socle_quotient_charpoly,
    socle_quotient_ring,
)
from floercas.checks import (
    expected_filtration_alpha,
    expected_socle_charpoly,
    layer_failures,
)
from floercas.linalg import Matrix, UniPoly
from floercas.poly import ALPHA, BETA, GAMMA, SparsePoly


def spectrum(report):
    return {root: mult for root, mult in report.roots}


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
            assert tri.p1.leading_monomial() == (r, 0, 0)
            assert tri.p2.leading_monomial() == (r - 1, 1, 0)
            assert tri.p3.leading_monomial() == (r - 1, 0, 1)

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            relations("S", 1)
        with pytest.raises(ValueError):
            relations("R", -1)


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
        assert set(invariant_ring(2).basis) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_monomial_simplex_is_basis(self):
        for r in range(1, 6):
            ring = invariant_ring(r)
            simplex = monomial_simplex(r, 3)
            assert len(simplex) == ring.dim
            assert basis_matrix(ring, simplex).rank() == ring.dim

    def test_gamma_quotient_presentations_agree(self):
        # quotient by the two-term recursion + gamma equals F_r modulo gamma
        for r in range(1, 5):
            direct = gamma_quotient_ring(r)
            via_f = invariant_ring(r).extend([GAMMA])
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
        for r in range(1, 9):
            product = UniPoly([1])
            for v, mult in expected_filtration_alpha(r).items():
                assert mult == 1
                product = product * UniPoly([-v, GR(1)])
            assert expected_socle_charpoly(r) == product


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
            assert step.complete()
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
            assert block.complete()
            assert spectrum(block.eigen["alpha"]) == expected_filtration_alpha(r - 1)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            psi1_block(0)


def greedy_independent(vectors, seed):
    """Keep a vector exactly when it raises the rank of what is kept so far."""
    kept, out = list(seed), []
    rank = Matrix.from_columns(kept).rank() if kept else 0
    for v in vectors:
        r = Matrix.from_columns(kept + [v]).rank()
        if r > rank:
            kept, rank = kept + [v], r
            out.append(v)
    return out


# mostly zero entries, so that zero and dependent columns are common
sparse_entries = st.sampled_from(
    [GR(0), GR(0), GR(0), GR(0), GR(1), GR(-1), GR(2), GR(0, 1), GR(1, -1)]
)


@st.composite
def column_families(draw):
    """(seed, vectors) over Q(i)^n drawn from a small pool, so vectors
    repeat; the pool holds the zero vector, and a seed of two or more
    vectors gets their sum appended, so it is dependent."""
    n = draw(st.integers(1, 4))
    column = st.lists(sparse_entries, min_size=n, max_size=n)
    pool = draw(st.lists(column, min_size=1, max_size=4)) + [[GR(0)] * n]
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
        actions = {"alpha": Matrix(alpha), "beta": Matrix(beta), "gamma": Matrix.zero(2, 2)}
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
        assert _independent_subset(vectors, seed) == greedy_independent(vectors, seed)

    def test_action_leaving_subquotient_raises(self):
        e1, e2 = [GR(1), GR(0)], [GR(0), GR(1)]
        shift = Matrix.from_columns([e2, [GR(0), GR(0)]])  # e1 -> e2, e2 -> 0
        with pytest.raises(FalsificationError):
            induced_action(shift, [e1], [])

    def test_action_on_quotient_by_a_line(self):
        # Q^3/span(e1 + e3), classes of e1 and e2; the denominator is
        # given twice over, as d and 2d
        e1, e2 = [GR(1), GR(0), GR(0)], [GR(0), GR(1), GR(0)]
        d = [GR(1), GR(0), GR(1)]
        # m e1 = e2 + e3 = -e1 + e2 + d,  m e2 = 2 e1 + e3 = e1 + d,  m e3 = 0
        m = Matrix.from_columns([[0, 1, 1], [2, 0, 1], [0, 0, 0]])
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
        for g in range(1, 4):
            for k in range(g + 1):
                assert primitive_dim_exact(g, k) == primitive_dim(g, k)

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
    def test_totals(self):
        assert psi1_homology_dims(1)["total"] == 1
        assert psi1_homology_dims(2)["total"] == 4
        assert psi1_homology_dims(3)["total"] == 16

    def test_summands_genus_two(self):
        rows = psi1_homology_dims(2)["summands"]
        assert rows == [
            {"k": 0, "multiplicity": 1, "block_dim": 2},
            {"k": 1, "multiplicity": 2, "block_dim": 1},
        ]

    def test_block_dims_match_concrete_blocks(self):
        for g in range(1, 5):
            for row in psi1_homology_dims(g)["summands"]:
                assert psi1_block(g - row["k"]).dim == row["block_dim"]
