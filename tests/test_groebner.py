from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from floercas import groebner
from floercas.exactalg import GaussianRational as GR
from floercas.floer import (
    classical_ring,
    default_candidates,
    gamma_quotient_ring,
    invariant_ring,
    relations,
    socle_quotient_ring,
)
from floercas.groebner import (
    InfiniteStaircaseError,
    buchberger,
    normal_form,
    staircase_basis,
)
from floercas.linalg import Matrix, UniPoly, factor_over_candidates
from floercas.poly import ALPHA, BETA, GAMMA, SparsePoly, exponents, monomial

from elimination import assert_canonical, from_columns, kernel_basis, matvec, monomial_matrix

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

MONOMIALS = st.builds(monomial, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
SMALL_RATIONALS = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
SMALL_POLYS = st.dictionaries(MONOMIALS, SMALL_RATIONALS, min_size=1, max_size=4).map(SparsePoly)
#: c * m1 + m2: a monic basis of binomials has coefficients off Z, so the
#: integer reduction has to scale what it has already reduced
BINOMIALS = st.builds(
    lambda c, m1, m2: SparsePoly([(m1, c), (m2, 1)]), SMALL_RATIONALS, MONOMIALS, MONOMIALS
)
#: polynomials to take normal forms of, of up to degree 12
POLYS = st.dictionaries(
    st.builds(monomial, st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    max_size=5,
).map(SparsePoly)


# The oracle below works on exponent triples with its own grlex key, so it
# does not depend on how poly packs a monomial into an int.


def grlex(e: tuple) -> tuple:
    """Sort key of grlex on an exponent triple: total degree, then lex."""
    return (sum(e), *e)


def divides(d: tuple, m: tuple) -> bool:
    return all(a <= b for a, b in zip(d, m))


def quotient(m: tuple, d: tuple) -> tuple:
    """m / d; d must divide m."""
    return tuple(map(sub, m, d))


def lcm(x: tuple, y: tuple) -> tuple:
    return tuple(map(max, x, y))


def mul_monomial(p: SparsePoly, m: int) -> SparsePoly:
    return SparsePoly({mm + m: c for mm, c in p.terms.items()})


def reference_reduce(work: dict, divisors) -> dict:
    """Full remainder of the term map `work` (consumed) by monic divisors
    (lm, tail), over Q with Fraction coefficients and with exponent triples
    as monomials: the reduction that the integer engine replaced, kept as
    its oracle."""
    heap = [(tuple(map(neg, grlex(m))), m) for m in work]
    heapify(heap)
    rem: dict = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        for lm, tail in divisors:
            if divides(lm, m):
                q = quotient(m, lm)
                for tm, tc in tail:
                    t = tuple(map(add, tm, q))
                    d = work.get(t)
                    if d is None:
                        work[t] = -(c * tc)
                        heappush(heap, (tuple(map(neg, grlex(t))), t))
                    else:
                        d = d - c * tc
                        if d:
                            work[t] = d
                        else:
                            del work[t]
                break
        else:
            rem[m] = c
    return rem


def reference_normal_form(p: SparsePoly, gb) -> SparsePoly:
    divisors = []
    for g in gb.generators:
        terms = {exponents(m): c for m, c in g.terms.items()}
        lm = max(terms, key=grlex)
        divisors.append((lm, [(m, c) for m, c in terms.items() if m != lm]))
    rem = reference_reduce({exponents(m): c for m, c in p.terms.items()}, divisors)
    return SparsePoly({monomial(*m): c for m, c in rem.items()})


@st.composite
def small_ideals(draw):
    """2-4 generators, most of them not zero-dimensional in three variables;
    a drawn fourth generator m * g0 + c * g1 is redundant."""
    gens = draw(st.lists(SMALL_POLYS, min_size=2, max_size=3))
    if draw(st.booleans()):
        m = draw(st.builds(monomial, st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
        gens.append(mul_monomial(gens[0], m) + draw(SMALL_RATIONALS) * gens[1])
    return gens


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
            monomial(0, 0, 0),
            monomial(1, 0, 0),
            monomial(0, 1, 0),
            monomial(0, 0, 1),
        }

    def test_level_two_reduced_basis_frozen(self):
        gb = buchberger(J2_GENS)
        assert sorted(gb.generators, key=lambda p: p.leading_monomial()) == sorted(
            J2_REDUCED, key=lambda p: p.leading_monomial()
        )

    def test_every_spoly_reduces_to_zero(self):
        gb = buchberger(J2_GENS)
        gens = list(gb.generators)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                li = exponents(gens[i].leading_monomial())
                lj = exponents(gens[j].leading_monomial())
                l = lcm(li, lj)
                s = (mul_monomial(gens[i], monomial(*quotient(l, li)))
                     - mul_monomial(gens[j], monomial(*quotient(l, lj))))
                assert not normal_form(s, gb)

    def test_basis_is_reduced(self):
        gb = buchberger(J2_GENS)
        lms = gb.leading_monomials()
        for k, g in enumerate(gb.generators):
            for m in g.terms:
                for j, lm in enumerate(lms):
                    if j != k:
                        assert not divides(exponents(lm), exponents(m))
            assert g.terms[g.leading_monomial()] == 1

    def test_pair_criteria_spare_zero_reductions(self, monkeypatch):
        # without any pair rule 576 of the S-polynomials at level 7 reduce to
        # zero; with the new-pair rule 30 do.  (_reduce calls, zero
        # remainders) of one run, counted while Buchberger also had the chain
        # criterion and retired basis elements: the same counts without them
        # show that those rules never acted on these ideals
        counts = {
            ("R", 1): (6, 0), ("R", 2): (17, 5), ("R", 3): (28, 8), ("R", 4): (42, 12),
            ("R", 5): (59, 17), ("R", 6): (79, 23), ("R", 7): (102, 30), ("R", 8): (128, 38),
            ("R", 9): (157, 47), ("R", 10): (189, 57),
            ("Rbar", 3): (11, 1), ("Rbar", 6): (17, 1), ("Rbar", 9): (23, 1),
            ("q", 3): (28, 8), ("q", 6): (79, 23), ("q", 9): (157, 47),
        }
        reduce, remainders = groebner._reduce, []

        def recording(*args):
            remainders.append(reduce(*args))
            return remainders[-1]

        monkeypatch.setattr(groebner, "_reduce", recording)
        for (flavor, r), want in counts.items():
            gens = relations(flavor, r).generators() + ([GAMMA] if flavor == "Rbar" else [])
            remainders.clear()
            buchberger(gens)
            assert (len(remainders), sum(not rem for rem, _ in remainders)) == want, (flavor, r)

    def test_series_coefficients_rejected(self):
        from floercas.exactalg import TruncatedSeries

        with pytest.raises(TypeError):
            buchberger([SparsePoly({monomial(1, 0, 0): TruncatedSeries([1, 1], 4)})])


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

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.builds(monomial, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            st.builds(GR, st.integers(-5, 5)),
            max_size=3,
        ).map(SparsePoly),
        st.dictionaries(
            st.builds(monomial, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            st.builds(GR, st.integers(-5, 5)),
            max_size=3,
        ).map(SparsePoly),
    )
    def test_normal_form_is_multiplicative(self, p, q):
        gb = invariant_ring(3).gb
        lhs = normal_form(p * q, gb)
        rhs = normal_form(normal_form(p, gb) * normal_form(q, gb), gb)
        assert lhs == rhs


class TestAgainstFractionReduction:
    """The integer engine against the Fraction reduction it replaced."""

    @staticmethod
    def assert_matches(ring, polys):
        for p in polys:
            assert normal_form(p, ring.gb) == reference_normal_form(p, ring.gb)
        for v in range(3):
            matrix = ring.mult_matrix(v)
            assert_canonical(matrix)
            for j, m in enumerate(ring.basis):
                nf = reference_normal_form(mul_monomial(SparsePoly.variable(v), m), ring.gb)
                col = [Fraction(0)] * ring.dim
                for mm, c in nf.terms.items():
                    col[ring.basis.index(mm)] = c
                assert [row[j] for row in matrix.rows] == col

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.lists(POLYS, min_size=1, max_size=3))
    def test_level_rings(self, r, polys):
        for ring in (invariant_ring(r), gamma_quotient_ring(r), classical_ring(r)):
            self.assert_matches(ring, polys)

    @settings(max_examples=60, deadline=None)
    @given(small_ideals() | st.lists(BINOMIALS, min_size=1, max_size=3),
           st.lists(POLYS, min_size=1, max_size=3))
    # beta^2 = alpha/3 cancels only once the remainder already holds alpha*gamma
    @example([3 * BETA**2 - ALPHA], [ALPHA * GAMMA + BETA**2])
    def test_random_ideals(self, gens, polys):
        # pure powers of the variables make every such ideal zero-dimensional
        gb = buchberger(gens + [ALPHA**4, BETA**4, GAMMA**4])
        self.assert_matches(groebner.QuotientRing(gb), polys)

    def test_exponent_bound(self):
        # an exponent of 2^15 is refused where the polynomial is made, so
        # neither normal_form nor Buchberger is handed one
        with pytest.raises(ValueError, match="2\\^15"):
            SparsePoly({monomial(0, 2**15, 0): 1})
        # a product reaching 2^15 is refused, not carried into a guard bit
        half = GAMMA ** (2**14)
        with pytest.raises(ValueError, match="2\\^15"):
            half * half
        # an S-polynomial can reach 2^15 from smaller exponents: gamma^(2^14)
        # times the tail of the first generator is left as a remainder
        with pytest.raises(ValueError, match="2\\^15"):
            buchberger([ALPHA ** (2**14) * BETA + half, ALPHA * half])
        # one below the bound is made and reduced
        top = SparsePoly({monomial(0, 0, 2**15 - 1): 1})
        assert GAMMA ** (2**15 - 1) == top
        assert not normal_form(top, invariant_ring(2).gb)


class TestDivisorRule:
    """_reduce tests a term only against divisors that can divide it: none
    for a term below the least leading monomial, and divisors in list order
    up to the first that divides."""

    # the least of them is alpha*beta
    LMS = (monomial(1, 1, 0), monomial(2, 0, 0), monomial(0, 3, 0))

    class Spy(tuple):
        """A divisor that counts the reads of its guard, index 3."""

        reads = [0]

        def __getitem__(self, i):
            if i == 3:
                self.reads[0] += 1
            return tuple.__getitem__(self, i)

    def reduce_counting(self, work):
        self.Spy.reads[0] = 0
        divisors = [self.Spy(groebner._divisor({lm: 1})) for lm in self.LMS]
        rem, scale = groebner._reduce(work, divisors)
        return rem, scale, self.Spy.reads[0]

    def test_no_divisor_read_below_the_least_leading_monomial(self):
        work = {monomial(1, 0, 0): 3, monomial(0, 1, 1): 2, monomial(0, 2, 0): -1, 0: 7}
        assert self.reduce_counting(dict(work)) == (work, 1, 0)

    def test_a_term_above_stops_at_its_first_divisor(self):
        # alpha^2 beta: the first divisor, alpha*beta, divides it
        assert self.reduce_counting({monomial(2, 1, 0): 5}) == ({}, 1, 1)
        # beta^3 gamma: the third
        assert self.reduce_counting({monomial(0, 3, 1): 5}) == ({}, 1, 3)
        # beta^2 gamma^3 above every leading monomial: none divides it
        m = monomial(0, 2, 3)
        assert self.reduce_counting({m: 5}) == ({m: 5}, 1, 3)


class TestLcm:
    EXPONENTS = st.tuples(*[st.integers(0, 2**15 - 1) | st.integers(0, 3)] * 3)

    @given(EXPONENTS, EXPONENTS)
    def test_is_the_max_of_the_exponent_triples(self, e1, e2):
        assert groebner._lcm(monomial(*e1), monomial(*e2)) == monomial(*lcm(e1, e2))


class TestStaircase:
    def test_level_one(self):
        gb = buchberger([ALPHA, BETA - 8, GAMMA])
        assert staircase_basis(gb) == (monomial(0, 0, 0),)

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
            assert monomial_matrix(ring, ring.basis).rank() == len(ring.basis)


class TestMultMatrices:
    def test_alpha_on_level_one_is_zero(self):
        ring = invariant_ring(1)
        assert ring.mult_matrix("alpha") == Matrix([[0]])

    def test_gamma_column_on_level_two(self):
        ring = invariant_ring(2)
        one = ring.basis.index(monomial(0, 0, 0))
        gam = ring.basis.index(monomial(0, 0, 1))
        col = [row[one] for row in ring.mult_matrix("gamma").rows]
        expect = [Fraction(0)] * 4
        expect[gam] = Fraction(1)
        assert col == expect

    def test_alpha_squared_column(self):
        ring = invariant_ring(2)
        al = ring.basis.index(monomial(1, 0, 0))
        col = [row[al] for row in ring.mult_matrix("alpha").rows]
        assert SparsePoly(dict(zip(ring.basis, col))) == 8 - BETA

    def test_matrices_commute(self):
        for r in range(1, 5):
            ring = invariant_ring(r)
            ma, mb, mg = (ring.mult_matrix(v) for v in ("alpha", "beta", "gamma"))
            for m in (ma, mb, mg):
                assert_canonical(m)
            assert ma @ mb == mb @ ma
            assert ma @ mg == mg @ ma
            assert mb @ mg == mg @ mb


class TestCharPoly:
    def test_identity(self):
        assert Matrix.identity(2).charpoly() == UniPoly([1, -2, 1])

    def test_alpha_on_gamma_quotient_two(self):
        cp = gamma_quotient_ring(2).mult_matrix("alpha").charpoly()
        assert cp == UniPoly([0, -16, 0, 1])  # x^3 - 16x

    def test_gamma_nilpotent_on_level_two(self):
        cp = invariant_ring(2).mult_matrix("gamma").charpoly()
        assert cp == UniPoly([0, 0, 0, 0, 1])  # x^4

    def test_empty_matrix(self):
        assert Matrix([]).charpoly() == UniPoly([1])


def _value_at(p: UniPoly, z: GR) -> GR:
    value = GR(0)
    for c in reversed(p.coeffs):
        value = value * z + c
    return value


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
        # (x - root)^mult over all roots, times the remainder, is the input;
        # a root z off the real line and its conjugate give (x^2 + |z|^2)^mult
        for r in range(1, 5):
            cp = invariant_ring(r).mult_matrix("alpha").charpoly()
            rep = factor_over_candidates(cp, default_candidates(r + 1))
            roots = rep.root_set()
            product = rep.remainder
            for root, mult in rep.roots:
                if root.im:
                    assert root.re == 0 and roots[root.conjugate()] == mult
                factor = UniPoly([-root.re, 1]) if not root.im else UniPoly([root.im**2, 0, 1])
                if root.im >= 0:
                    for _ in range(mult):
                        product = product * factor
            assert product == cp

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(RATIONALS, RATIONALS.map(abs)), max_size=5, unique=True),
        st.lists(st.integers(0, 3), min_size=5, max_size=5),
        st.lists(RATIONALS, max_size=3),
        st.data(),
    )
    def test_recovers_a_built_factorization(self, parts, mults, rest, data):
        # cp is the product of factor^m over the parts times a monic remainder
        # with no candidate root; a part (a, 0) is the real root a, a part
        # (a, b) with b > 0 the pair a +- bi, stripped as one quadratic
        remainder = UniPoly([*rest, 1])
        cp, want = remainder, {}
        for (a, b), m in zip(parts, mults):
            zs = [GR(a, b), GR(a, -b)] if b else [GR(a)]
            assume(all(_value_at(remainder, z) for z in zs))
            factor = UniPoly([a * a + b * b, -2 * a, 1]) if b else UniPoly([-a, 1])
            for _ in range(m):
                cp = cp * factor
            want.update(dict.fromkeys(zs, m))
        candidates = data.draw(st.permutations(list(want)))
        rep = factor_over_candidates(cp, candidates)
        assert rep.roots == tuple((z, want[z]) for z in candidates if want[z])
        assert rep.remainder == remainder

    def test_pair_multiplicity_two(self):
        # (x - 4)(x^2 + 16)^2: the pair +-4i is stripped as x^2 + 16, twice
        cp = UniPoly([-4, 1]) * UniPoly([16, 0, 1]) * UniPoly([16, 0, 1])
        rep = factor_over_candidates(cp, default_candidates(2))
        assert rep.complete()
        assert rep.roots == ((GR(4), 1), (GR(0, 4), 2), (GR(0, -4), 2))

    def test_conjugate_first_gives_same_multiplicities(self):
        cp = UniPoly([-4, 1]) * UniPoly([16, 0, 1]) * UniPoly([16, 0, 1])
        rep = factor_over_candidates(cp, [GR(0, -4), GR(4), GR(0, 4)])
        assert rep.complete()
        assert rep.roots == ((GR(0, -4), 2), (GR(4), 1), (GR(0, 4), 2))

    def test_irreducible_quadratic_stays_in_remainder(self):
        rep = factor_over_candidates(UniPoly([-2, 0, 1]) * UniPoly([0, 1]), default_candidates(3))
        assert rep.roots == ((GR(0), 1),)
        assert rep.remainder == UniPoly([-2, 0, 1])
        assert not rep.complete()

    def test_lone_nonreal_candidate_strips_nothing(self):
        # without its conjugate among the candidates, x - 4i has no factor over Q
        rep = factor_over_candidates(UniPoly([16, 0, 1]), [GR(0, 4)])
        assert rep.roots == ()
        assert rep.remainder == UniPoly([16, 0, 1])

    def test_list_and_tuple_give_equal_reports(self):
        # a list, or candidates made from other parts, give the report of
        # the equal tuple
        cp = UniPoly([-4, 1]) * UniPoly([16, 0, 1]) * UniPoly([64, 0, 1])
        cands = default_candidates(2)
        want = factor_over_candidates(cp, cands)
        assert factor_over_candidates(cp, list(cands)) == want
        assert factor_over_candidates(cp, [GR(str(z.re), Fraction(z.im)) for z in cands]) == want
        assert want.roots == ((GR(4), 1), (GR(0, 4), 1), (GR(0, -4), 1), (GR(0, 8), 1),
                              (GR(0, -8), 1))

    def test_duplicate_candidates_reported_once(self):
        rep = factor_over_candidates(UniPoly([16, 0, 1]), [GR(0, 4), GR(0, 4), GR(0, -4)])
        assert rep.roots == ((GR(0, 4), 1), (GR(0, -4), 1))


class TestKernelRank:
    def test_identity(self):
        m = Matrix.identity(3)
        rank, basis = m.rank(), kernel_basis(m)
        assert rank == 3 and basis == []

    def test_zero(self):
        m = Matrix([[0] * 3 for _ in range(3)])
        rank, basis = m.rank(), kernel_basis(m)
        assert rank == 0 and len(basis) == 3

    def test_no_rows(self):
        # three empty columns make a 0 x 3 matrix, whose kernel is everything
        m = from_columns([[], [], []])
        assert (m.nrows, m.ncols) == (0, 3)
        assert m.rank() == 0
        assert kernel_basis(m) == [list(r) for r in Matrix.identity(3).rows]

    def test_gamma_kernel_level_two(self):
        mg = invariant_ring(2).mult_matrix("gamma")
        rank, basis = mg.rank(), kernel_basis(mg)
        assert len(basis) == 3
        for v in basis:
            assert not any(matvec(mg, v))


class TestAgainstIndependentCAS:
    """Cross-checks against sympy as the independent oracle."""

    def _to_sympy(self, p):
        import sympy as sp

        al, be, ga = sp.symbols("al be ga")
        expr = sp.Integer(0)
        for m, c in p.terms.items():
            q = sp.Rational(str(c))
            ea, eb, ec = exponents(m)
            expr += q * al**ea * be**eb * ga**ec
        return sp.expand(expr)

    def _assert_same_basis(self, gens, gb=None):
        import sympy as sp

        al, be, ga = sp.symbols("al be ga")
        oracle = sp.groebner(
            [self._to_sympy(p) for p in gens], al, be, ga,
            order="grlex", domain="QQ", method="f5b",
        )
        gb = buchberger(gens) if gb is None else gb
        mine = {self._to_sympy(p) for p in gb.generators}
        assert mine == {sp.expand(g) for g in oracle.exprs}

    def test_level_three_reduced_basis(self):
        for r in (3, 4, 5):
            self._assert_same_basis(relations("R", r).generators())

    def test_level_ring_bases(self):
        for r in range(1, 6):
            self._assert_same_basis(relations("R", r).generators(), invariant_ring(r).gb)
            gens = relations("Rbar", r).generators() + [GAMMA]
            self._assert_same_basis(gens, gamma_quotient_ring(r).gb)
            self._assert_same_basis(relations("q", r).generators(), classical_ring(r).gb)

    def test_socle_quotient_bases(self):
        # the extend() bases that check reads, against the relations themselves
        for r in range(1, 5):
            shift = BETA + (-1) ** (r + 1) * 8
            gens = relations("R", r + 1).generators() + [shift, GAMMA]
            self._assert_same_basis(gens, socle_quotient_ring(r).gb)

    # derandomized: sympy itself takes up to 25 s on some of these ideals,
    # so a fresh draw on every run would make the suite's time erratic
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(small_ideals())
    @example([ALPHA * BETA - GAMMA, BETA * GAMMA])  # not zero-dimensional
    @example([ALPHA**2 - BETA, ALPHA * BETA - GAMMA, ALPHA**3 - GAMMA])  # alpha*g0 + g1
    def test_random_ideals(self, gens):
        self._assert_same_basis(gens)

    def test_gaussian_reduced_basis(self):
        # ideals over Q(i) cannot be stated: a nonreal coefficient is refused
        # when the generator is built, before Buchberger sees it
        i = GR(0, 1)
        ideals = [
            lambda: [ALPHA**2 + i * BETA - 2, ALPHA * BETA + GAMMA, i * GAMMA**2 - ALPHA],
            # leading coefficients 1+2i and 3-i
            lambda: [GR(1, 2) * ALPHA * BETA - GAMMA, ALPHA**2 + i * BETA, GR(3, -1) * BETA**2],
        ]
        for gens in ideals:
            with pytest.raises(TypeError):
                buchberger(gens())

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.builds(monomial, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.builds(GR, st.integers(-5, 5), st.integers(-5, 5).filter(bool)),
            min_size=1,
            max_size=4,
        )
    )
    def test_gaussian_normal_form_mod_real_basis(self, terms):
        # a polynomial with a coefficient off the real line is refused
        with pytest.raises(TypeError):
            normal_form(SparsePoly(terms), invariant_ring(3).gb)

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.builds(monomial, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5, max_denominator=7),
            max_size=4,
        ).map(SparsePoly)
    )
    def test_normal_form_matches_sympy_reduced(self, p):
        import sympy as sp

        al, be, ga = sp.symbols("al be ga")
        gb = invariant_ring(3).gb
        basis = [self._to_sympy(g) for g in gb.generators]
        _, rem = sp.reduced(self._to_sympy(p), basis, al, be, ga, order="grlex")
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
