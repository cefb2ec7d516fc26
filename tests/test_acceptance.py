"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Two sub-claims of the reference material are unattainable and are
marked as strict expected failures (see the assertions for the exact
analysis): the 1.7649 spectral-radius figure (the correct value under the
stated update formula is 1.7299) and strict diagonal dominance of the zero-
reaction benchmark matrix (its interior rows are only weakly dominant).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from gsolve import (
    IterationConfig,
    SquareMatrix,
    build_step,
    classify,
    extract_splitting,
    iteration_matrix,
    read_matrix,
    solve,
    spectral_radius,
)
from generators import random_h_matrix, random_m_matrix, random_sdd_matrix
from gsolve.pde import LAYOUT_BENCH, LAYOUT_SQUARE, assemble

SPD3 = read_matrix(Path(__file__).resolve().parents[1] / "fixtures/spd3.mtx")
LMAT3 = read_matrix(Path(__file__).resolve().parents[1] / "fixtures/lmat3.mtx")
SPD4 = read_matrix(Path(__file__).resolve().parents[1] / "fixtures/spd4.mtx")

# (matrix, method, m, omega) -> reference spectral radius, 4 d.p.
RHO_FIXTURES = [
    ("spd3", SPD3, "gj", 1, None, 1.5883),
    ("spd3", SPD3, "ggs", 1, None, 30.1584),
    ("lmat3", LMAT3, "gj", 1, None, 2.8689),
    ("lmat3", LMAT3, "ggs", 1, None, 3.0952),
    ("spd4", SPD4, "gsor", 2, 1.8, 1.1511),
    ("lmat3", LMAT3, "gsor", 1, 0.9, 2.6705),
    ("lmat3", LMAT3, "gsor", 1, 0.4, 0.6000),
]

# Reference iteration counts, (GJ, GGS, SOR, GSOR) at m=1, omega=1.5,
# tol=1e-7, x0=0, for the three benchmark sizes of each reaction term.
TABLE_COUNTS = {
    "xplusy": {20: (619, 322, 211, 105), 30: (1336, 695, 466, 240), 40: (2312, 1204, 815, 422)},
    "zero": {20: (652, 339, 222, 112), 30: (1405, 731, 491, 253), 40: (2429, 1264, 856, 444)},
    "expxy": {20: (611, 318, 208, 104), 30: (1319, 687, 460, 237), 40: (2282, 1188, 804, 417)},
    "negexp4xy": {20: (824, 427, 282, 143), 30: (1736, 899, 606, 313), 40: (2972, 1540, 1045, 543)},
}
METHOD_PLAN = (("gj", 1, None), ("ggs", 1, None), ("gsor", 0, 1.5), ("gsor", 1, 1.5))


def _rho(A: SquareMatrix, method: str, m: int, omega=None) -> float:
    op = build_step(extract_splitting(A, m), method, omega)
    return spectral_radius(iteration_matrix(op))


@pytest.fixture(scope="module")
def table_runs():
    """Iteration counts for all 48 benchmark cells, computed once."""
    t0 = time.perf_counter()
    counts = {}
    for g_id, per_size in TABLE_COUNTS.items():
        for n in per_size:
            problem = assemble(n, g_id, layout=LAYOUT_BENCH)
            cell = []
            for method, m, omega in METHOD_PLAN:
                report = solve(
                    problem.A, problem.b,
                    IterationConfig(method, m=m, omega=omega),
                    x_exact=problem.x_exact,
                )
                assert report.converged, (g_id, n, method, m)
                cell.append(report.iterations)
            counts[(g_id, n)] = tuple(cell)
    return counts, time.perf_counter() - t0


def test_criterion_1_spectral_radius_regression():
    start = time.perf_counter()
    worst = 0.0
    for name, A, method, m, omega, want in RHO_FIXTURES:
        got = _rho(A, method, m, omega)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 5e-5, (name, method, m, omega, got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 spectral-radius regression: PASS "
          f"(7 fixtures, worst dev {worst:.2e}, {elapsed:.3f}s; "
          f"eighth fixture is a known reference erratum, see below)")


@pytest.mark.xfail(
    strict=True,
    reason="reference erratum: the stated update formula gives rho = 1.7299 "
    "(confirmed in exact rational arithmetic) for the 3x3 SPD fixture at "
    "m=1, omega=0.6; the published 1.7649 is not reproducible by any "
    "(matrix, m, omega) combination of the fixture set, and its qualitative "
    "claim rho > 1 holds either way",
)
def test_criterion_1_erratum_fixture():
    got = _rho(SPD3, "gsor", 1, 0.6)
    assert abs(got - 1.7649) <= 5e-5, f"got {got}"


def test_criterion_1_erratum_fixture_correct_value():
    # lock the behavior of the disputed fixture at its recomputed value
    assert abs(_rho(SPD3, "gsor", 1, 0.6) - 1.7299) <= 5e-5


def test_criterion_2_table_reproduction(table_runs):
    counts, elapsed = table_runs
    checked = 0
    exact = 0
    for (g_id, n), want in (
        ((g, n), TABLE_COUNTS[g][n]) for g in TABLE_COUNTS for n in TABLE_COUNTS[g]
    ):
        got = counts[(g_id, n)]
        for col, (g_val, w_val) in enumerate(zip(got, want)):
            checked += 1
            exact += g_val == w_val
            assert abs(g_val - w_val) <= 1, (g_id, n, METHOD_PLAN[col], g_val, w_val)
    assert checked == 48
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2 table reproduction: PASS "
          f"(48/48 cells within +-1, {exact} exact, {elapsed:.1f}s)")


def test_criterion_3_method_ordering(table_runs):
    counts, _ = table_runs
    for (g_id, n), (gj, ggs, sor, gsor) in counts.items():
        assert gsor < sor < ggs < gj, (g_id, n, (gj, ggs, sor, gsor))
    print(f"\nACCEPTANCE 3 ordering GSOR < SOR < GGS < GJ: PASS "
          f"({len(counts)} instances)")


def test_criterion_4_theorem_property_suites():
    margin = 1.0 - 1e-10
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    overrelaxed_checked = 0

    for suite, generator in (
        ("sdd", random_sdd_matrix),
        ("m", random_m_matrix),
        ("h", random_h_matrix),
    ):
        for _ in range(100):
            n = int(rng.integers(5, 31))
            A = generator(n, rng)
            m = int(rng.integers(0, n))
            omega = float(rng.uniform(1e-6, 1.0))
            splitting = extract_splitting(A, m)
            rho_gj = spectral_radius(iteration_matrix(build_step(splitting, "gj")))
            rho_ggs = spectral_radius(iteration_matrix(build_step(splitting, "ggs")))
            rho_gsor = spectral_radius(
                iteration_matrix(build_step(splitting, "gsor", omega))
            )
            assert rho_gj <= margin, (suite, n, m)
            assert rho_ggs <= margin, (suite, n, m)
            assert rho_gsor <= margin, (suite, n, m, omega)

            if suite == "m":
                # overrelaxation window: omega < 2/(1 + rho_gj) and
                # rho(band^{-1} lower) < 1/omega
                upper = 2.0 / (1.0 + rho_gj)
                omega_over = float(rng.uniform(1.0, upper))
                gate = spectral_radius(
                    np.linalg.solve(
                        splitting.band.csr.toarray(), splitting.lower.csr.toarray()
                    )
                )
                if gate < 1.0 / omega_over:
                    rho_over = spectral_radius(
                        iteration_matrix(build_step(splitting, "gsor", omega_over))
                    )
                    assert rho_over <= margin, (n, m, omega_over)
                    overrelaxed_checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 theorem suites: PASS (3 x 100 instances, "
          f"{overrelaxed_checked} overrelaxed checks, {elapsed:.1f}s)")


def test_criterion_5_equivalence_oracles():
    rng = np.random.default_rng(99)
    worst_classical = 0.0
    worst_ggs = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 12))
        dense = rng.uniform(-1.0, 1.0, size=(n, n))
        np.fill_diagonal(dense, np.sign(np.diag(dense) + 0.5) * (np.abs(dense).sum(axis=1) + 1.0))
        A = SquareMatrix(dense)
        omega = float(rng.uniform(0.2, 1.8))

        # classical diagonal-splitting formulas, computed independently
        diag = np.diag(np.diag(dense))
        low = -np.tril(dense, -1)
        up = -np.triu(dense, 1)
        classical = {
            "gj": np.linalg.solve(diag, low + up),
            "ggs": np.linalg.solve(diag - low, up),
            "gsor": np.linalg.solve(diag - omega * low, (1 - omega) * diag + omega * up),
        }
        s0 = extract_splitting(A, 0)
        for method, want in classical.items():
            om = omega if method == "gsor" else None
            got = iteration_matrix(build_step(s0, method, om))
            worst_classical = max(worst_classical, float(np.max(np.abs(got - want))))

        # GSOR at omega = 1 coincides with GGS for any bandwidth
        m = int(rng.integers(0, n))
        sm = extract_splitting(A, m)
        h_ggs = iteration_matrix(build_step(sm, "ggs"))
        h_gsor1 = iteration_matrix(build_step(sm, "gsor", 1.0))
        worst_ggs = max(worst_ggs, float(np.max(np.abs(h_ggs - h_gsor1))))

        # splitting reconstruction is exact
        assert (SquareMatrix(sm.band.csr - sm.lower.csr - sm.upper.csr).csr != A.csr).nnz == 0

    assert worst_classical <= 1e-14
    assert worst_ggs <= 1e-14
    print(f"\nACCEPTANCE 5 equivalence oracles: PASS (50 matrices, "
          f"classical dev {worst_classical:.1e}, GSOR(1)=GGS dev {worst_ggs:.1e})")


def _convergence_fixture_set():
    """Instances with explicit iteration matrices, spanning rho < 1 and rho > 1."""
    rng = np.random.default_rng(7)
    sdd = random_sdd_matrix(8, rng)
    poisson = assemble(5, "zero", layout=LAYOUT_SQUARE).A
    cases = [
        (SquareMatrix(np.eye(6)), "gj", 0, None),
        (LMAT3, "gsor", 1, 0.4),
        (poisson, "gj", 1, None),
        (poisson, "ggs", 1, None),
        (poisson, "gsor", 1, 1.5),
        (poisson, "gsor", 0, 1.5),
        (sdd, "gj", 2, None),
        (sdd, "ggs", 2, None),
        (sdd, "gsor", 2, 0.9),
        (SPD3, "gj", 1, None),
        (SPD3, "ggs", 1, None),
        (SPD3, "gsor", 1, 0.6),
        (LMAT3, "gj", 1, None),
        (LMAT3, "ggs", 1, None),
        (LMAT3, "gsor", 1, 0.9),
        (SPD4, "gsor", 2, 1.8),
    ]
    return cases


def test_criterion_6_convergence_iff_contractive():
    max_iter = 10000
    n_convergent = 0
    for A, method, m, omega in _convergence_fixture_set():
        rho = _rho(A, method, m, omega)
        assert abs(rho - 1.0) > 1e-6, "fixture too close to the boundary"
        b = A.csr @ np.ones(A.n)
        x_direct = np.linalg.solve(A.csr.toarray(), b)
        report = solve(A, b, IterationConfig(method, m=m, omega=omega, max_iter=max_iter))
        if rho < 1.0 - 1e-6:
            n_convergent += 1
            assert report.converged, (method, m, omega, rho)
            err = np.max(np.abs(report.solution - x_direct))
            assert err <= 1e-5, (method, m, omega, rho, err)
        else:
            assert not report.converged, (method, m, omega, rho)
            assert report.note == "diverged" or report.iterations == max_iter
    total = len(_convergence_fixture_set())
    print(f"\nACCEPTANCE 6 convergence iff rho < 1: PASS "
          f"({n_convergent} contractive / {total - n_convergent} divergent fixtures)")


def test_criterion_7_classifier_on_fixtures():
    rep = classify(SPD3)
    assert (rep.is_spd, rep.is_l, rep.is_m, rep.is_h) == (True, False, False, False)

    rep = classify(LMAT3)
    assert (rep.is_l, rep.is_m, rep.is_h, rep.is_sdd) == (True, False, False, False)

    for layout in (LAYOUT_BENCH, LAYOUT_SQUARE):
        for g_id in ("xplusy", "expxy"):
            rep = classify(assemble(20, g_id, layout=layout).A)
            assert rep.is_sdd and rep.is_m, (layout, g_id)
        rep = classify(assemble(20, "zero", layout=layout).A)
        assert rep.is_m, layout

    print("\nACCEPTANCE 7 classifier on fixtures: PASS "
          "(SPD/L counterexamples + benchmark matrices at n=20; "
          "zero-reaction SDD sub-claim is a known reference erratum, see below)")


@pytest.mark.xfail(
    strict=True,
    reason="reference erratum: the zero-reaction benchmark matrix has "
    "interior rows with |diagonal| exactly equal to the off-diagonal row sum "
    "(4 = 4), so it is weakly but not strictly diagonally dominant; the "
    "SDD=true expectation cannot hold under the strict definition",
)
def test_criterion_7_erratum_zero_reaction_sdd():
    from gsolve import is_sdd

    assert is_sdd(assemble(20, "zero", layout=LAYOUT_BENCH).A)
