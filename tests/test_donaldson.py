from fractions import Fraction

import pytest

from floercas.exactalg import GaussianRational as GR, TruncatedSeries as TS, rational
from floercas.donaldson import (
    DonaldsonSeries,
    FiberSumInput,
    SplitClass,
    congruence_check,
    evaluate,
    fiber_sum,
    finite_type_order,
    product_series,
    product_sum_input,
    rotated_combination,
    w_sigma_combine,
)

Q_HYP = ((0, 1), (1, 0))


def series(terms, simple_type=True):
    return DonaldsonSeries(("E", "F"), Q_HYP, terms, simple_type)


class TestProductSeries:
    def test_two_tori(self):
        s = product_series(1, 1)
        assert s.terms == ((rational(4), (0, 0)),)

    def test_two_genus_two(self):
        s = product_series(2, 2)
        assert s.terms == (
            (rational(-512), (-2, -2)),
            (rational(512), (2, 2)),
        )

    def test_genus_two_times_torus(self):
        s = product_series(2, 1)
        assert set(s.terms) == {
            (rational(4), (0, 2)),
            (rational(-8), (0, 0)),
            (rational(4), (0, -2)),
        }

    def test_torus_first_argument(self):
        s = product_series(1, 2)
        assert set(s.terms) == {
            (rational(4), (2, 0)),
            (rational(-8), (0, 0)),
            (rational(4), (-2, 0)),
        }

    def test_cosh_when_one_genus_odd(self):
        s = product_series(2, 3)
        assert s.terms == (
            (rational(2**16), (-4, -2)),
            (rational(2**16), (4, 2)),
        )

    def test_canonical_class_pairings(self):
        for g in range(2, 5):
            for h in range(2, 5):
                s = product_series(g, h)
                k = max(s.classes())
                assert s.pair(k, (1, 0)) == 2 * g - 2
                assert s.pair(k, (0, 1)) == 2 * h - 2

    def test_bad_genus(self):
        with pytest.raises(ValueError):
            product_series(0, 1)


class TestEvaluate:
    def test_sinh_2t(self):
        got = evaluate(product_series(2, 2), (1, 0), 6)
        want = TS([0, 2048, 0, Fraction(4096, 3), 0, Fraction(4096, 15)], 6)
        assert got == want

    def test_flat_constant(self):
        got = evaluate(product_series(1, 1), (1, 0), 4)
        assert got == TS.constant(4, 4)

    def test_pure_quadratic_factor(self):
        s = DonaldsonSeries(("D",), ((2,),), [(1, (1,))])
        # K = D with Q(D) = 2: e^{t^2} * e^{2t}; evaluate at D=0 instead for
        # the pure quadratic: use the zero class
        s0 = DonaldsonSeries(("D",), ((2,),), [(1, (0,))])
        got = evaluate(s0, (1,), 5)
        assert got == TS([1, 0, 1, 0, Fraction(1, 2)], 5)

    def test_denominators_divide_factorial(self):
        from math import factorial

        for g in range(1, 4):
            for h in range(1, 4):
                s = product_series(g, h)
                for d in ((1, 0), (0, 1), (1, 1), (2, -1)):
                    val = evaluate(s, d, 8)
                    for c in val.coeffs:
                        assert c.im == 0
                        assert factorial(8) % c.re.denominator == 0


class TestFiberSum:
    def test_glue_two_one_alongside_two_two(self):
        inp = product_sum_input(2, 1, 2)
        got = fiber_sum(inp)
        assert got.terms == product_series(2, 3).terms

    def test_glue_two_two_alongside_two_two(self):
        inp = product_sum_input(2, 2, 2)
        got = fiber_sum(inp)
        assert got.terms == product_series(2, 4).terms

    def test_weights(self):
        got = fiber_sum(product_sum_input(2, 1, 2))
        coeffs = {k: a for a, k in got.terms}
        assert coeffs[(4, 2)] == rational(2**16)
        assert coeffs[(-4, -2)] == rational(2**16)

    def test_genus_one_branch(self):
        got = fiber_sum(product_sum_input(1, 1, 1))
        assert got.terms == product_series(1, 2).terms

    def test_genus_three_glue(self):
        assert fiber_sum(product_sum_input(3, 1, 1)).terms == product_series(3, 2).terms
        assert fiber_sum(product_sum_input(3, 1, 2)).terms == product_series(3, 3).terms

    def test_associativity(self):
        first = fiber_sum(product_sum_input(2, 1, 1))  # genus-2 x genus-2 base
        three_left = fiber_sum(
            FiberSumInput(
                a=first,
                b=product_series(2, 1),
                genus=2,
                sigma_in_a=(1, 0),
                sigma_in_b=(1, 0),
                basis_names=("E", "F"),
                q=Q_HYP,
                splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
            )
        )
        three_right = fiber_sum(
            FiberSumInput(
                a=product_series(2, 1),
                b=first,
                genus=2,
                sigma_in_a=(1, 0),
                sigma_in_b=(1, 0),
                basis_names=("E", "F"),
                q=Q_HYP,
                splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
            )
        )
        assert three_left.terms == three_right.terms == product_series(2, 3).terms

    def test_associativity_genus_three(self):
        pieces = product_series(3, 1)
        first = fiber_sum(product_sum_input(3, 1, 1))
        left = fiber_sum(
            FiberSumInput(
                a=first, b=pieces, genus=3,
                sigma_in_a=(1, 0), sigma_in_b=(1, 0),
                basis_names=("E", "F"), q=Q_HYP,
                splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
            )
        )
        right = fiber_sum(
            FiberSumInput(
                a=pieces, b=first, genus=3,
                sigma_in_a=(1, 0), sigma_in_b=(1, 0),
                basis_names=("E", "F"), q=Q_HYP,
                splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
            )
        )
        assert left.terms == right.terms == product_series(3, 3).terms

    def test_no_survivors_gives_empty_series(self):
        # side b has only the zero class, which pairs to 0 != +-2
        inp = FiberSumInput(
            a=product_series(2, 2),
            b=series([(1, (0, 0))]),
            genus=2,
            sigma_in_a=(1, 0),
            sigma_in_b=(1, 0),
            basis_names=("E", "F"),
            q=Q_HYP,
            splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
        )
        assert not fiber_sum(inp).terms

    def test_non_simple_type_rejected(self):
        bad = DonaldsonSeries(("E", "F"), Q_HYP, [(1, (0, 0))], simple_type=False)
        inp = FiberSumInput(
            a=bad,
            b=product_series(2, 1),
            genus=2,
            sigma_in_a=(1, 0),
            sigma_in_b=(1, 0),
            basis_names=("E", "F"),
            q=Q_HYP,
            splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
        )
        with pytest.raises(ValueError):
            fiber_sum(inp)

    def test_square_mismatch_rejected(self):
        inp = FiberSumInput(
            a=product_series(2, 1),
            b=product_series(2, 1),
            genus=2,
            sigma_in_a=(1, 0),
            sigma_in_b=(1, 0),
            basis_names=("E", "F"),
            q=Q_HYP,
            # wrong: F splits with a nonzero square defect
            splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((1, 1), (0, 1), 1)),
        )
        with pytest.raises(ValueError):
            fiber_sum(inp)

    def test_nonzero_sigma_square_rejected(self):
        inp = FiberSumInput(
            a=product_series(2, 1),
            b=product_series(2, 1),
            genus=2,
            sigma_in_a=(1, 1),
            sigma_in_b=(1, 0),
            basis_names=("E", "F"),
            q=Q_HYP,
            splits=(SplitClass((1, 0), (0, 0), 0), SplitClass((0, 1), (0, 1), 1)),
        )
        with pytest.raises(ValueError):
            fiber_sum(inp)


class TestFiniteTypeOrder:
    def test_known_values(self):
        assert finite_type_order(1, False) == 1
        assert finite_type_order(1, True) == 1
        assert finite_type_order(2, False) == 2
        assert finite_type_order(2, True) == 1
        assert finite_type_order(3, False) == 4
        assert finite_type_order(0, False) == 0

    def test_b1_zero_never_larger(self):
        for g in range(11):
            assert finite_type_order(g, True) <= finite_type_order(g, False)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            finite_type_order(-1)


class TestCongruence:
    def test_product_two_three_passes(self):
        report = congruence_check(product_series(2, 3), (1, 0), 2)
        assert report.passed
        assert {v[1] for v in report.verdicts} == {2, -2}

    def test_fabricated_odd_pairing_fails(self):
        s = series([(1, (1, 0))])  # K.F = 1, odd
        report = congruence_check(s, (0, 1), 2)
        assert not report.passed

    def test_empty_series_passes(self):
        report = congruence_check(series([]), (1, 0), 3)
        assert report.passed and report.verdicts == ()

    def test_torus_factor_middle_classes_breach_congruence(self):
        # the middle basic classes of a torus-factor product genuinely
        # violate the congruence against the higher-genus factor: no sum
        # decomposition exists along that surface, so nothing forbids it
        report = congruence_check(product_series(2, 1), (1, 0), 2)
        assert not report.passed
        failing = {v[0] for v in report.verdicts if not v[3]}
        assert failing == {(0, 0)}
        # and (3,1): pairings {0,+-2,+-4} can satisfy no single residue
        report31 = congruence_check(product_series(3, 1), (1, 0), 3)
        residues = {v[2] for v in report31.verdicts}
        assert residues == {0, 2}

    def test_splitting_directions_pass(self):
        for g in range(1, 5):
            for h in range(1, 5):
                s = product_series(g, h)
                if h >= 2 or (g, h) == (1, 1):
                    assert congruence_check(s, (1, 0), g).passed
                if g >= 2 or (g, h) == (1, 1):
                    assert congruence_check(s, (0, 1), h).passed

    def test_requires_square_zero(self):
        with pytest.raises(ValueError):
            congruence_check(product_series(2, 2), (1, 1), 2)


class TestCombine:
    def test_add_zero(self):
        s = product_series(2, 2)
        assert w_sigma_combine(s, series([])).terms == s.terms

    def test_merge_same_class(self):
        got = w_sigma_combine(series([(1, (2, 0))]), series([(2, (2, 0))]))
        assert got.terms == ((rational(3), (2, 0)),)

    def test_cancel_class(self):
        got = w_sigma_combine(series([(1, (2, 0))]), series([(-1, (2, 0))]))
        assert not got.terms

    def test_lattice_mismatch(self):
        other = DonaldsonSeries(("A",), ((0,),), [])
        with pytest.raises(ValueError):
            w_sigma_combine(series([]), other)


class TestRotatedCombination:
    def test_even_powers_double(self):
        s = TS([1, 0, 3, 0, 5], 5)
        got = rotated_combination(s, 0, GR(Fraction(1, 2)))
        # odd powers cancel, t^2 picks up (1 + i^2)/2 = 0, t^4 doubles
        assert got == TS([1, 0, 0, 0, 5], 5)

    def test_linear(self):
        a = TS([1, 2], 4)
        b = TS([0, 1, 1], 4)
        n = GR(3)
        assert rotated_combination(a + b, 2, n) == rotated_combination(a, 2, n) + rotated_combination(b, 2, n)


class TestSerialization:
    def test_round_trip(self):
        s = product_series(2, 2)
        blob = s.to_json()
        assert blob["terms"] == [
            {"a": "-512", "K": [-2, -2]},
            {"a": "512", "K": [2, 2]},
        ]
        assert DonaldsonSeries.from_json(blob).terms == s.terms

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            DonaldsonSeries(("E", "F"), ((0, 1), (2, 0)), [])
