import pytest
from hypothesis import given, settings, strategies as st

from floercas.exactalg import GaussianRational as GR
from floercas.floer import (
    classical_ring,
    default_candidates,
    gamma_quotient_ring,
    invariant_ring,
    relations,
)
from floercas.groebner import (
    InfiniteStaircaseError,
    buchberger,
    normal_form,
    staircase_basis,
)
from floercas.linalg import Matrix, UniPoly, factor_over_candidates
from floercas.poly import ALPHA, BETA, GAMMA, GREVLEX, GRLEX, WGREVLEX, Monomial, SparsePoly

J2_GENS = [ALPHA**2 + BETA - 8, ALPHA * BETA + 8 * ALPHA + GAMMA, ALPHA * GAMMA]

# reduced grlex basis of the level-2 ideal, frozen from an independent CAS run
J2_REDUCED = [
    ALPHA**2 + BETA - 8,
    ALPHA * BETA + 8 * ALPHA + GAMMA,
    ALPHA * GAMMA,
    BETA**2 - 64,
    BETA * GAMMA - 8 * GAMMA,
    GAMMA**2,
]


class TestBuchberger:
    def test_linear_ideal_already_reduced(self):
        gb = buchberger([ALPHA, BETA - 8, GAMMA])
        assert set(gb.generators) == {ALPHA, BETA - 8, GAMMA}

    def test_unit_ideal(self):
        gb = buchberger([SparsePoly.constant(1)])
        assert list(gb.generators) == [SparsePoly.constant(1)]

    def test_level_two_staircase(self):
        gb = buchberger(J2_GENS)
        stairs = staircase_basis(gb)
        assert len(stairs) == 4
        assert set(stairs) == {
            Monomial(0, 0, 0),
            Monomial(1, 0, 0),
            Monomial(0, 1, 0),
            Monomial(0, 0, 1),
        }

    def test_level_two_reduced_basis_frozen(self):
        gb = buchberger(J2_GENS)
        assert sorted(gb.generators, key=lambda p: GRLEX.key(p.leading_monomial())) == sorted(
            J2_REDUCED, key=lambda p: GRLEX.key(p.leading_monomial())
        )

    def test_every_spoly_reduces_to_zero(self):
        gb = buchberger(J2_GENS)
        gens = list(gb.generators)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                li = gens[i].leading_monomial()
                lj = gens[j].leading_monomial()
                lcm = li.lcm(lj)
                s = gens[i].mul_monomial(lcm.divide(li)) - gens[j].mul_monomial(lcm.divide(lj))
                assert not normal_form(s, gb)

    def test_basis_is_reduced(self):
        gb = buchberger(J2_GENS)
        lms = gb.leading_monomials()
        for k, g in enumerate(gb.generators):
            for m in g.monomials():
                for j, lm in enumerate(lms):
                    if j != k:
                        assert not lm.divides(m)
            assert g.leading_coeff() == GR(1)

    def test_series_coefficients_rejected(self):
        from floercas.exactalg import TruncatedSeries

        p = SparsePoly({Monomial(1, 0, 0): TruncatedSeries([1, 1], 4)})
        with pytest.raises(TypeError):
            buchberger([p])


class TestNormalForm:
    def test_one_survives(self):
        for r in range(1, 5):
            ring = invariant_ring(r)
            assert ring.normal_form(SparsePoly.constant(1)) == SparsePoly.constant(1)

    def test_alpha_squared_level_two(self):
        gb = buchberger(J2_GENS)
        assert normal_form(ALPHA**2, gb) == 8 - BETA

    def test_generator_reduces_to_zero(self):
        gb = buchberger(J2_GENS)
        assert not normal_form(ALPHA * GAMMA, gb)

    def test_series_coefficients_against_scalar_basis(self):
        from floercas.exactalg import TruncatedSeries

        t = TruncatedSeries.t(4)
        p = SparsePoly({Monomial(2, 0, 0): 1 + t, Monomial(0, 0, 0): 2 * t})
        nf = normal_form(p, buchberger(J2_GENS))
        assert nf.coeff_kind() is TruncatedSeries
        assert str(nf) == "(-1-t)*beta+8+10*t"

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.builds(Monomial, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            st.builds(GR, st.integers(-5, 5)),
            max_size=3,
        ).map(SparsePoly),
        st.dictionaries(
            st.builds(Monomial, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            st.builds(GR, st.integers(-5, 5)),
            max_size=3,
        ).map(SparsePoly),
    )
    def test_normal_form_is_multiplicative(self, p, q):
        gb = invariant_ring(3).gb
        lhs = normal_form(p * q, gb)
        rhs = normal_form(normal_form(p, gb) * normal_form(q, gb), gb)
        assert lhs == rhs


class TestStaircase:
    def test_level_one(self):
        gb = buchberger([ALPHA, BETA - 8, GAMMA])
        assert staircase_basis(gb) == (Monomial(0, 0, 0),)

    def test_zero_ring(self):
        gb = buchberger([SparsePoly.constant(1)])
        assert staircase_basis(gb) == ()

    def test_infinite_staircase_names_witness(self):
        gb = buchberger([ALPHA])
        with pytest.raises(InfiniteStaircaseError) as err:
            staircase_basis(gb)
        assert err.value.variable == "beta"

    def test_cardinality_equals_quotient_dim(self):
        for r in (1, 2, 3):
            ring = invariant_ring(r)
            cols = [ring.nf_coords(SparsePoly({m: 1})) for m in ring.basis]
            assert Matrix.from_columns(cols).rank() == len(ring.basis)


class TestMultMatrices:
    def test_alpha_on_level_one_is_zero(self):
        ring = invariant_ring(1)
        assert ring.mult_matrix("alpha") == Matrix.zero(1, 1)

    def test_gamma_column_on_level_two(self):
        ring = invariant_ring(2)
        one = ring.basis.index(Monomial(0, 0, 0))
        gam = ring.basis.index(Monomial(0, 0, 1))
        col = ring.mult_matrix("gamma").column(one)
        expect = [GR(0)] * 4
        expect[gam] = GR(1)
        assert col == expect

    def test_alpha_squared_column(self):
        ring = invariant_ring(2)
        al = ring.basis.index(Monomial(1, 0, 0))
        col = ring.mult_matrix("alpha").column(al)
        assert ring.element_from_coords(col) == 8 - BETA

    def test_matrices_commute(self):
        for r in range(1, 5):
            ring = invariant_ring(r)
            ma, mb, mg = (ring.mult_matrix(v) for v in ("alpha", "beta", "gamma"))
            assert ma.commutes_with(mb)
            assert ma.commutes_with(mg)
            assert mb.commutes_with(mg)


class TestCharPoly:
    def test_identity(self):
        assert Matrix.identity(2).charpoly() == UniPoly([1, -2, 1])

    def test_alpha_on_gamma_quotient_two(self):
        cp = gamma_quotient_ring(2).mult_matrix("alpha").charpoly()
        assert cp == UniPoly([0, -16, 0, 1])  # x^3 - 16x

    def test_gamma_nilpotent_on_level_two(self):
        cp = invariant_ring(2).mult_matrix("gamma").charpoly()
        assert cp == UniPoly([0, 0, 0, 0, 1])  # x^4

    def test_order_independence(self):
        for ring_of in (invariant_ring, gamma_quotient_ring, classical_ring):
            for r in range(1, 6):
                a = ring_of(r, GRLEX)
                for order in (WGREVLEX, GREVLEX):
                    b = ring_of(r, order)
                    assert a.dim == b.dim
                    for v in ("alpha", "beta", "gamma"):
                        assert a.mult_matrix(v).charpoly() == b.mult_matrix(v).charpoly()

    def test_empty_matrix(self):
        assert Matrix([]).charpoly() == UniPoly([1])


class TestFactorOverCandidates:
    def test_cubic(self):
        cp = UniPoly([0, -16, 0, 1])
        rep = factor_over_candidates(cp, [GR(0), GR(4), GR(-4)])
        assert rep.complete()
        assert rep.root_set() == {GR(0): 1, GR(4): 1, GR(-4): 1}

    def test_double_root(self):
        rep = factor_over_candidates(UniPoly([1, -2, 1]), [GR(1)])
        assert rep.root_set() == {GR(1): 2}
        assert rep.complete()

    def test_imaginary_pair(self):
        rep = factor_over_candidates(UniPoly([64, 0, 1]), [GR(0, 8), GR(0, -8)])
        assert rep.complete()
        assert rep.root_set() == {GR(0, 8): 1, GR(0, -8): 1}

    def test_nonunit_remainder_reported(self):
        rep = factor_over_candidates(UniPoly([-3, 0, 1]), default_candidates(2))
        assert not rep.complete()
        assert rep.remainder == UniPoly([-3, 0, 1])

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            factor_over_candidates(UniPoly([0, 2]), [GR(0)])

    def test_product_reconstructs_charpoly(self):
        # (x - root)^mult over all roots, times the remainder, is the input
        for r in range(1, 5):
            cp = invariant_ring(r).mult_matrix("alpha").charpoly()
            rep = factor_over_candidates(cp, default_candidates(r + 1))
            product = rep.remainder
            for root, mult in rep.roots:
                for _ in range(mult):
                    product = product * UniPoly([-root, GR(1)])
            assert product == cp

    def test_synthetic_division_identity(self):
        # q*(x - root) + rem == p
        p = UniPoly([GR(3), GR(-1), GR(0, 2), GR(1)])
        for root in (GR(2), GR(0, 1), GR(-5)):
            q, rem = p.synthetic_division(root)
            total = list((q * UniPoly([-root, GR(1)])).coeffs)
            total[0] = total[0] + rem
            assert UniPoly(total) == p


class TestKernelRank:
    def test_identity(self):
        m = Matrix.identity(3)
        rank, basis = m.rank(), m.kernel_basis()
        assert rank == 3 and basis == []

    def test_zero(self):
        m = Matrix.zero(3, 3)
        rank, basis = m.rank(), m.kernel_basis()
        assert rank == 0 and len(basis) == 3

    def test_gamma_kernel_level_two(self):
        mg = invariant_ring(2).mult_matrix("gamma")
        rank, basis = mg.rank(), mg.kernel_basis()
        assert len(basis) == 3
        for v in basis:
            assert all(x == GR(0) for x in mg.matvec(v))

    def test_solve(self):
        m = Matrix([[1, 2], [3, 4]])
        x = m.solve([GR(5), GR(11)])
        assert m.matvec(x) == [GR(5), GR(11)]
        with pytest.raises(ValueError):
            Matrix([[1, 1], [1, 1]]).solve([GR(0), GR(1)])


class TestAgainstIndependentCAS:
    """Cross-checks against sympy as the independent oracle."""

    def _to_sympy(self, p):
        import sympy as sp

        al, be, ga = sp.symbols("al be ga")
        expr = sp.Integer(0)
        for m, c in p.terms.items():
            q = sp.Rational(str(c.re)) + sp.Rational(str(c.im)) * sp.I
            expr += q * al ** m[0] * be ** m[1] * ga ** m[2]
        return sp.expand(expr)

    def _assert_same_basis(self, gens, order, domain=None):
        import sympy as sp

        al, be, ga = sp.symbols("al be ga")
        options = {} if domain is None else {"domain": domain}
        oracle = sp.groebner([self._to_sympy(p) for p in gens], al, be, ga, order=order.kind, **options)
        mine = {self._to_sympy(p) for p in buchberger(gens, order).generators}
        assert mine == {sp.expand(g) for g in oracle.exprs}

    def test_level_three_reduced_basis(self):
        # levels 3..5, in grlex and grevlex
        for r in (3, 4, 5):
            for order in (GRLEX, GREVLEX):
                self._assert_same_basis(relations("R", r).generators(), order)

    def test_gaussian_reduced_basis(self):
        import sympy as sp

        i = GR(0, 1)
        ideals = [
            [ALPHA**2 + i * BETA - 2, ALPHA * BETA + GAMMA, i * GAMMA**2 - ALPHA],
            # leading coefficients 1+2i and 3-i
            [GR(1, 2) * ALPHA * BETA - GAMMA, ALPHA**2 + i * BETA, GR(3, -1) * BETA**2 + ALPHA],
        ]
        for gens in ideals:
            for order in (GRLEX, GREVLEX):
                self._assert_same_basis(gens, order, sp.QQ_I)

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.builds(Monomial, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.builds(GR, st.integers(-5, 5), st.integers(-5, 5)),
            max_size=4,
        ).map(SparsePoly)
    )
    def test_gaussian_normal_form_mod_real_basis(self, p):
        import sympy as sp

        al, be, ga = sp.symbols("al be ga")
        gb = invariant_ring(3).gb
        basis = [self._to_sympy(g) for g in gb.generators]
        _, rem = sp.reduced(self._to_sympy(p), basis, al, be, ga, order="grlex", domain=sp.QQ_I)
        assert self._to_sympy(normal_form(p, gb)) == sp.expand(rem)

    def test_dims_match_oracle(self):
        import sympy as sp

        al, be, ga = sp.symbols("al be ga")
        for r in range(1, 5):
            gens = [self._to_sympy(p) for p in relations("R", r).generators()]
            oracle = sp.groebner(gens, al, be, ga, order="grevlex")
            lts = [g.as_poly(al, be, ga).LM(order="grevlex") for g in oracle.exprs]
            lt_exps = [tuple(m.as_expr().as_powers_dict().get(v, 0) for v in (al, be, ga)) for m in lts]
            count = 0
            bound = 3 * r + 2
            for a in range(bound):
                for b in range(bound):
                    for c in range(bound):
                        if not any(
                            a >= e[0] and b >= e[1] and c >= e[2] for e in lt_exps
                        ):
                            count += 1
            assert count == invariant_ring(r).dim
