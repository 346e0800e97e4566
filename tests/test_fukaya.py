import random

import pytest

from floercas.exactalg import GaussianRational as GR, TruncatedSeries as TS
from floercas.floer import default_candidates, invariant_ring
from floercas.fukaya import (
    YHomologyClass,
    delta_module,
    effective_eigenvalues,
    mu_action,
    reduced_module,
)
from floercas.linalg import factor_over_candidates
from floercas.poly import BETA, GAMMA


def ts(*coeffs, order=16):
    return TS(list(coeffs), order)


class TestReducedModule:
    def test_genus_two(self):
        module = reduced_module(2, 1)
        got = {(c.i, c.alpha, c.beta) for c in module.components}
        assert got == {
            (-1, ts(-4, 2), GR(-8)),
            (0, ts(0, -2), GR(8)),
            (1, ts(4, 2), GR(-8)),
        }

    def test_genus_one(self):
        module = reduced_module(1, 1)
        assert module.rank == 1
        (c,) = module.components
        assert c.i == 0 and c.alpha == ts(0, -2) and c.beta == GR(8)

    def test_rank(self):
        for g in range(1, 6):
            assert reduced_module(g).rank == 2 * g - 1

    def test_loop_multiple_scales_slope(self):
        module = reduced_module(2, 3)
        by_i = {c.i: c.alpha for c in module.components}
        assert by_i[1] == ts(4, 6)
        assert by_i[0] == ts(0, -6)

    def test_n_zero_is_t_free_and_matches_exact_spectrum(self):
        module = reduced_module(2, 0)
        vals = sorted(str(c.alpha) for c in module.components)
        assert vals == ["-4", "0", "4"]
        ring = invariant_ring(2).extend([GAMMA, BETA * BETA - 64])
        rep = factor_over_candidates(ring.mult_matrix("alpha").charpoly(), default_candidates(2))
        assert rep.complete()
        assert {r: m for r, m in rep.roots} == {GR(-4): 1, GR(0): 1, GR(4): 1}

    def test_beta_squared_is_64(self):
        for g in range(1, 6):
            for c in reduced_module(g).components:
                assert c.beta * c.beta == GR(64)

    def test_t_zero_spectrum_matches_ring_for_all_genera(self):
        for g in range(1, 5):
            ring = invariant_ring(g).extend([GAMMA, BETA * BETA - 64])
            assert ring.dim == 2 * g - 1
            rep = factor_over_candidates(
                ring.mult_matrix("alpha").charpoly(), default_candidates(g)
            )
            assert rep.complete()
            want = {}
            for c in reduced_module(g).components:
                v = c.alpha.constant_term()
                want[v] = want.get(v, 0) + 1
            assert {r: m for r, m in rep.roots} == want


class TestEffectiveEigenvalues:
    def test_genus_one(self):
        (v,) = effective_eigenvalues(1)
        assert (v.alpha, v.beta, v.gamma) == (ts(0, -2), GR(8), GR(0))

    def test_genus_two_list(self):
        vals = effective_eigenvalues(2)
        got = [(v.alpha, v.beta, v.gamma) for v in vals]
        assert got == [
            (ts(0, -2), GR(8), GR(0)),
            (ts(4, 2), GR(-8), GR(0)),
            (ts(-4, 2), GR(-8), GR(0)),
        ]

    def test_genus_three_adds_imaginary_pair(self):
        vals = effective_eigenvalues(3)
        extra = {(v.alpha, v.beta) for v in vals} - {
            (v.alpha, v.beta) for v in effective_eigenvalues(2)
        }
        assert extra == {
            (TS([GR(0, 8), GR(-2)], 16), GR(8)),
            (TS([GR(0, -8), GR(-2)], 16), GR(8)),
        }

    def test_matches_reduced_module(self):
        for g in range(1, 5):
            eff = {(v.i, v.alpha, v.beta) for v in effective_eigenvalues(g)}
            red = {(c.i, c.alpha, c.beta) for c in reduced_module(g, 1).components}
            assert eff == red
            assert all(v.gamma == GR(0) for v in effective_eigenvalues(g))


class TestDeltaModule:
    def test_genus_one(self):
        module = delta_module(1)
        assert [(c.k, c.i, c.multiplicity) for c in module.components] == [(0, 0, 1)]
        assert module.total_rank == 1

    def test_genus_two(self):
        module = delta_module(2)
        assert [(c.k, c.i, c.multiplicity) for c in module.components] == [
            (0, -1, 1),
            (0, 1, 1),
            (1, 0, 2),
        ]
        assert module.total_rank == 4

    def test_genus_three_rank(self):
        assert delta_module(3).total_rank == 16

    def test_eigen_data(self):
        for c in delta_module(4).components:
            if c.i % 2:
                assert c.alpha == GR(4 * c.i)
                assert c.beta == GR(-8)
            else:
                assert c.alpha == GR(0, 4 * c.i)
                assert c.beta == GR(8)

    def test_index_parity(self):
        for g in range(1, 6):
            for c in delta_module(g).components:
                assert abs(c.i) <= g - c.k - 1
                assert (c.i - (g - c.k - 1)) % 2 == 0


class TestMuAction:
    def test_surface_class_on_odd_line(self):
        assert mu_action(1, YHomologyClass.surface(1, ())) == ts(4)

    def test_dual_torus_class(self):
        g = 2
        coeffs = [0] * (2 * g)
        coeffs[g] = 1  # the curve dual to the loop
        got = mu_action(1, YHomologyClass.surface(0, coeffs))
        assert got == ts(0, -2)

    def test_point_class_even_line(self):
        assert mu_action(2, YHomologyClass.point()) == ts(8)

    def test_point_class_odd_line(self):
        assert mu_action(1, YHomologyClass.point()) == ts(-8)

    def test_grade_one_vanishes(self):
        assert not mu_action(1, YHomologyClass.curve(1, (1, 0, 0, 1)))
        assert not mu_action(0, YHomologyClass.curve(0, (0, 1)))

    def test_even_line_surface(self):
        got = mu_action(2, YHomologyClass.surface(1, ()))
        assert got == TS([GR(0, 8)], 16)

    def test_linearity_random(self):
        rng = random.Random(7)
        g = 3
        for _ in range(25):
            u = [rng.randint(-4, 4) for _ in range(2 * g)]
            v = [rng.randint(-4, 4) for _ in range(2 * g)]
            su, sv = rng.randint(-3, 3), rng.randint(-3, 3)
            i = rng.choice([-2, -1, 0, 1, 2])
            a = YHomologyClass.surface(su, u)
            b = YHomologyClass.surface(sv, v)
            total = YHomologyClass.surface(su + sv, [x + y for x, y in zip(u, v)])
            assert mu_action(i, total) == mu_action(i, a) + mu_action(i, b)

    def test_odd_torus_length_rejected(self):
        with pytest.raises(ValueError):
            mu_action(1, YHomologyClass.surface(0, (1, 0, 0)))


class TestCrossTotals:
    def test_delta_rank_equals_psi1_total(self):
        from floercas.floer import psi1_homology_dims

        for g in range(1, 5):
            assert delta_module(g).total_rank == psi1_homology_dims(g)["total"]
