"""Acceptance gate: every structural claim at its exact tolerance, one
printed pass/fail line per criterion, with the stated wall-clock budgets.

All comparisons are exact (integers, rationals, Gaussian rationals);
there are no numerical tolerances anywhere in this suite.
"""

import subprocess
import sys
import time
from math import comb

from floercas import checks, donaldson, fukaya
from floercas.checks import CheckResult
from floercas.exactalg import GaussianRational as GR
from floercas.floer import (
    basis_matrix,
    default_candidates,
    filtration_step,
    gamma_quotient_ring,
    invariant_ring,
    monomial_simplex,
    primitive_dim,
    primitive_dim_exact,
    psi1_block,
    psi1_homology_dims,
    socle_quotient_charpoly,
)
from floercas.linalg import factor_over_candidates
from floercas.poly import BETA, GAMMA


def report(result: CheckResult, elapsed: float, budget: float | None = None):
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"{result.line()}  ({elapsed:.2f}s{budget_note})")
    assert result.passed, result.detail
    if budget is not None:
        assert elapsed < budget, f"{result.name} exceeded its {budget:.0f}s budget"


def test_criterion_01_dimension_suite():
    t0 = time.monotonic()
    result = checks.check_dimensions(max_level=6)
    report(result, time.monotonic() - t0, budget=30)


def test_criterion_02_grading_suite():
    t0 = time.monotonic()
    result = checks.check_grading(max_level=6)
    report(result, time.monotonic() - t0)


def test_criterion_03_filtration_spectra():
    t0 = time.monotonic()
    result = checks.check_filtration(max_step=4)
    report(result, time.monotonic() - t0, budget=30)


def test_criterion_04_socle_quotient_charpolys():
    t0 = time.monotonic()
    result = checks.check_socle_charpoly(max_step=5)
    report(result, time.monotonic() - t0)


def test_criterion_05_torsion_block_suite():
    t0 = time.monotonic()
    result = checks.check_blocks(max_level=5, max_genus=4)
    report(result, time.monotonic() - t0)


def test_criterion_06_gamma_nilpotency_and_inclusion():
    t0 = time.monotonic()
    result = checks.check_gamma_nilpotency(max_level=5)
    report(result, time.monotonic() - t0)


def test_criterion_07_reduced_module_consistency():
    t0 = time.monotonic()
    result = checks.check_reduced_consistency(max_genus=5)
    report(result, time.monotonic() - t0)


def test_criterion_08_primitive_parts():
    t0 = time.monotonic()
    result = checks.check_primitive_parts(max_genus=4)
    elapsed = time.monotonic() - t0
    # the top wedge-kernel case alone must also fit its budget
    t1 = time.monotonic()
    assert primitive_dim_exact(4, 4) == primitive_dim(4, 4) == comb(8, 4) - comb(8, 2)
    top_elapsed = time.monotonic() - t1
    report(result, elapsed, budget=60)
    assert top_elapsed < 60


def test_criterion_09_finite_type_orders():
    t0 = time.monotonic()
    result = checks.check_finite_type_orders(max_genus=10)
    report(result, time.monotonic() - t0)


def test_criterion_10_fiber_sum_consistency():
    t0 = time.monotonic()
    result = checks.check_fiber_sum()
    report(result, time.monotonic() - t0, budget=10)


def test_criterion_11_congruence():
    t0 = time.monotonic()
    result = checks.check_congruence(max_genus=4)
    report(result, time.monotonic() - t0)


def test_criterion_12_determinism_and_runtime():
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "floercas.cli", "check", "--max-genus", "3"]
    first = subprocess.run(cmd, capture_output=True, timeout=180)
    second = subprocess.run(cmd, capture_output=True, timeout=180)
    elapsed = time.monotonic() - t0
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    result = CheckResult(
        "determinism",
        "two runs of the full verification suite exit 0 with byte-identical reports",
        ok,
        "" if ok else f"exit codes {first.returncode}/{second.returncode}",
    )
    report(result, elapsed, budget=180)


# -- spot values quoted directly by the criteria, asserted independently of
#    the check functions so a bug there cannot mask one here


def test_dimension_values_spot():
    for r in range(1, 7):
        assert invariant_ring(r).dim == comb(r + 2, 3)
        assert gamma_quotient_ring(r).dim == comb(r + 1, 2)
        simplex = monomial_simplex(r, 3)
        assert basis_matrix(invariant_ring(r), simplex).rank() == comb(r + 2, 3)


def test_filtration_values_spot():
    step = filtration_step(1)
    assert step.dim == 2
    assert {root for root, _ in step.eigen["alpha"].roots} == {GR(4), GR(-4)}
    assert {root for root, _ in step.eigen["beta"].roots} == {GR(-8)}


def test_socle_values_spot():
    assert str(socle_quotient_charpoly(1)) == "x^2-16"
    assert str(socle_quotient_charpoly(2)) == "x^3+64*x"


def test_block_and_loop_totals_spot():
    assert psi1_block(5).dim == 5
    for g in range(1, 5):
        assert psi1_homology_dims(g)["total"] == fukaya.delta_module(g).total_rank


def test_reduced_spot():
    ring = invariant_ring(5).extend([GAMMA, BETA * BETA - 64])
    assert ring.dim == 9
    rep = factor_over_candidates(ring.mult_matrix("alpha").charpoly(), default_candidates(5))
    assert rep.complete()
    want = {GR(0), GR(4), GR(-4), GR(0, 8), GR(0, -8), GR(12), GR(-12), GR(0, 16), GR(0, -16)}
    assert {root for root, _ in rep.roots} == want


def test_fiber_sum_weight_spot():
    got = donaldson.fiber_sum(donaldson.product_sum_input(2, 1, 2))
    coeffs = dict((k, a) for a, k in got.terms)
    assert coeffs[(4, 2)] == 2**16 and coeffs[(-4, -2)] == 2**16
    got22 = donaldson.fiber_sum(donaldson.product_sum_input(2, 2, 2))
    coeffs22 = dict((k, a) for a, k in got22.terms)
    assert coeffs22[(6, 2)] == 2**23 and coeffs22[(-6, -2)] == -(2**23)
