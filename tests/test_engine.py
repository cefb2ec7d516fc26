import dataclasses
import math
import re
import time
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, splu

import gsolve.engine
import gsolve.matrices
import gsolve.solvers
from gsolve import (
    ConvergenceVerdict,
    IterationConfig,
    Method,
    PowerEstimate,
    SolveReport,
    SquareMatrix,
    StepOperator,
    build_step,
    classify,
    extract_splitting,
    is_m_matrix,
    is_z_matrix,
    iteration_matrix,
    predict,
    solve,
    spectral_radius,
)
from gsolve.cli import main
from gsolve.engine import SMALL_ORDER, TAG_OVERRELAXED_M, _operator_radius, _regular_factor
from generators import random_h_matrix, random_m_matrix, random_sdd_matrix
from gsolve.matrices import certify_m, positive_witness
from gsolve.pde import G_BUILTINS, LAYOUT_BENCH, LAYOUTS, assemble
from gsolve.solvers import TridiagonalLDLT
from test_acceptance import METHOD_PLAN, TABLE_COUNTS

GENERATORS = (random_sdd_matrix, random_m_matrix, random_h_matrix)


def _explicit_h(A, method, m, omega=None):
    return iteration_matrix(build_step(extract_splitting(A, m), method, omega))


def _zero_row_sum_laplacian(n):
    """Tridiagonal [-1, 2, -1] with 1 in both corners: a singular Z-matrix."""
    laplacian = np.diag(np.full(n, 2.0)) - np.eye(n, k=1) - np.eye(n, k=-1)
    laplacian[0, 0] = laplacian[-1, -1] = 1.0
    return SquareMatrix(laplacian)


def _shifted_z_matrix(n, rng):
    """s*I - B with B >= 0, zero diagonal, 0 < s < rho(B): a Z-matrix, not an M-matrix."""
    b = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(b, 0.0)
    s = float(np.max(np.abs(np.linalg.eigvals(b)))) * rng.uniform(0.3, 0.95)
    return SquareMatrix(s * np.eye(n) - b)


def _margin_certified(splitting, omega):
    """The overrelaxed-GSOR certificate: (2/omega - 1) band - lower - upper is an M-matrix."""
    return is_m_matrix(SquareMatrix(
        (2.0 / omega - 1.0) * splitting.band.csr - splitting.lower.csr
        - splitting.upper.csr))[0]


def _m_part_certified(op):
    """GSOR's M part band/omega - lower is an M-matrix, witnessed through op's factor."""
    witness = positive_witness(SquareMatrix(op.m_part), op.solve_m(np.ones(op.n)))
    return witness[0] is not None


def _operator_of(H):
    """GJ at m = 0 of A = I - H, a step operator whose M is I and N is H (zero diagonal)."""
    A = SquareMatrix(np.eye(len(H)) - np.asarray(H, dtype=np.float64))
    return build_step(extract_splitting(A, 0), "gj")


def _arpack_radius(op, seed):
    """The ARPACK answer for a step operator at any order, as spectral_radius gives
    it above SMALL_ORDER: on A^{-1} N for a certified regular splitting,
    else on H."""
    with mock.patch.object(gsolve.engine, "SMALL_ORDER", 0):
        return spectral_radius(op, mode="power", seed=seed)


def _no_convergence(*args, **kwargs):
    """Stand-in for ``eigs`` that never converges."""
    raise ArpackNoConvergence("no convergence", np.array([]), np.empty((0, 0)))


class TestIterationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IterationConfig("gj", m=1, tol=0.0)
        with pytest.raises(ValueError):
            IterationConfig("gj", m=1, max_iter=0)
        with pytest.raises(ValueError):
            IterationConfig("gj", m=-1)
        with pytest.raises(ValueError):
            IterationConfig("nope", m=0)
        with pytest.raises(ValueError, match="omega"):
            IterationConfig("gsor", m=1)

    @given(st.floats(max_value=0.0) | st.sampled_from([float("nan"), float("inf")]))
    def test_non_positive_or_nan_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            IterationConfig("gj", m=1, tol=tol)

    @pytest.mark.parametrize("omega", [float("nan"), float("inf"), float("-inf"), 0.0, 1j, True])
    def test_non_finite_or_zero_gsor_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="omega must be finite and nonzero for gsor"):
            IterationConfig("gsor", m=1, omega=omega)

    @pytest.mark.parametrize("method", [None, 3, 1.5, b"gj", ["gj"]])
    def test_non_string_method_rejected(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            IterationConfig(method, m=1)

    def test_method_normalized(self):
        assert IterationConfig("GGS", m=0).method is Method.GGS
        assert all(Method.parse(method) is method for method in Method)

    @pytest.mark.parametrize("field, value, message", [
        ("max_iter", 10.5, "max_iter=10.5 is not an integer"),
        ("max_iter", float("nan"), "max_iter=nan is not an integer"),
        ("max_iter", float("inf"), "max_iter=inf is not an integer"),
        ("m", 1.5, "half-bandwidth m=1.5 is not an integer"),
        ("m", "1", "half-bandwidth m=1 is not an integer"),
        ("m", True, "half-bandwidth m=True is not an integer"),
        ("max_iter", True, "max_iter=True is not an integer"),
        ("tol", True, "tol must be positive and finite, got True"),
        ("tol", 1j, "tol must be positive and finite, got 1j"),
        ("tol", None, "tol must be positive and finite, got None"),
        ("tol", "x", "tol must be positive and finite, got x"),
    ])
    def test_non_integral_m_or_max_iter_rejected(self, monkeypatch, field, value, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the splitting was extracted for an invalid config")

        monkeypatch.setattr(gsolve.engine, "extract_splitting", refuse)
        with pytest.raises(ValueError, match=message):
            config = IterationConfig("gj", **{"m": 1, field: value})
            solve(SquareMatrix(np.eye(3)), np.ones(3), config)

    def test_whole_float_counts_are_stored_as_int(self):
        for whole in (float, np.float32):
            config = IterationConfig("gj", m=whole(1.0), max_iter=whole(10.0))
            assert (config.m, config.max_iter) == (1, 10)
            assert type(config.m) is int and type(config.max_iter) is int

    def test_tol_is_stored_as_float(self):
        for tol in (1, np.float32(0.5), np.int64(2)):
            config = IterationConfig("gj", m=1, tol=tol)
            assert type(config.tol) is float and config.tol == tol

    def test_omega_is_dropped_for_gj_and_ggs(self):
        assert IterationConfig("gj", m=1, omega=1.5).omega is None
        assert IterationConfig("ggs", m=1, omega=float("nan")).omega is None
        assert IterationConfig("gsor", m=1, omega=1).omega == 1.0


class TestSolve:
    def test_identity_converges_within_two_iterations(self):
        A = SquareMatrix(np.eye(5))
        report = solve(A, np.ones(5), IterationConfig("gj", m=0))
        assert report.converged
        assert report.iterations <= 2
        assert report.final_diff_norm <= 1e-7

    def test_reference_iteration_counts(self):
        # reproduction grid, stopping rule ||dx||_2 <= 1e-7 from the zero vector:
        # every one of the paper's 48 counts, exactly
        for g_id, per_size in TABLE_COUNTS.items():
            for n, want in per_size.items():
                problem = assemble(n, g_id, layout=LAYOUT_BENCH)
                got = tuple(solve(problem.A, problem.b,
                                  IterationConfig(method, m=m, omega=omega)).iterations
                            for method, m, omega in METHOD_PLAN)
                assert got == want, (g_id, n)

        problem = assemble(20, "zero", layout=LAYOUT_BENCH)
        report = solve(problem.A, problem.b, IterationConfig("gj", m=1),
                       x_exact=problem.x_exact)
        assert report.converged
        assert report.iterations == 652
        assert report.final_error_norm is not None
        assert report.final_error_norm < 1e-4

    @pytest.mark.parametrize("method, m, omega", [
        ("gj", 1, None), ("ggs", 1, None), ("gsor", 0, 1.5), ("gsor", 1, 1.5),
        ("gj", 2, None), ("ggs", 2, None), ("gsor", 2, 1.5),
    ])
    def test_loop_is_bitwise_the_apply_loop(self, method, m, omega):
        # The solve loop reproduces, bit for bit, a loop of M^{-1}(N x + b)
        # with N in CSR, stopped by np.linalg.norm, on the n = 20 grids; the
        # reported norm is the last difference's, summed by math.fsum.
        config = IterationConfig(method, m=m, omega=omega)
        for layout in LAYOUTS:
            for g_id in G_BUILTINS:
                problem = assemble(20, g_id, layout=layout)
                A, b = problem.A, problem.b
                report = solve(A, b, config)
                op = build_step(extract_splitting(A, m), method, omega)
                n_csr = sp.csr_array(op.n_part)
                x = np.zeros(A.n)
                for k in range(1, config.max_iter + 1):
                    x_next = op.lu.solve(n_csr @ x + b)
                    d = x_next - x
                    x = x_next
                    if np.linalg.norm(d) <= config.tol:
                        break
                assert report.converged
                assert report.iterations == k
                assert report.final_diff_norm == math.sqrt(math.fsum(d * d))
                np.testing.assert_array_equal(report.solution, x)

    @pytest.mark.parametrize("method, m, omega", [
        ("gj", 1, None), ("gsor", 1, 1.5), ("gsor", 0, 1.5),
    ], ids=["ldlt", "permuted", "superlu"])
    def test_caller_vectors_are_only_read(self, method, m, omega):
        # require_real_array hands the loop the caller's own float64 arrays
        problem = assemble(6, "negexp4xy", layout=LAYOUT_BENCH)
        rng = np.random.default_rng(3)
        for A in (problem.A, random_sdd_matrix(problem.A.n, rng)):  # N in DIA and in CSR
            b, x_exact = rng.standard_normal(A.n), rng.standard_normal(A.n)
            copies = b.copy(), x_exact.copy()
            b.flags.writeable = x_exact.flags.writeable = False
            solve(A, b, IterationConfig(method, m=m, omega=omega, max_iter=50), x_exact)
            np.testing.assert_array_equal(b, copies[0])
            np.testing.assert_array_equal(x_exact, copies[1])

    def test_divergence_guard_trips_early(self, spd3):
        b = spd3.csr.toarray() @ np.ones(3)
        report = solve(spd3, b, IterationConfig("ggs", m=1))
        assert not report.converged
        assert report.note == "diverged"
        assert report.iterations < 10000

    def test_report_invariants(self, lmat3):
        problem = assemble(4, "zero")
        config = IterationConfig("ggs", m=1)
        report = solve(problem.A, problem.b, config, x_exact=problem.x_exact)
        assert report.converged
        assert report.final_diff_norm <= config.tol
        assert report.iterations <= config.max_iter
        assert np.max(np.abs(report.solution - problem.x_exact)) < 1e-5
        assert report.elapsed_seconds >= 0.0

    @given(st.integers(0, 12), st.booleans())
    def test_misshapen_x_exact_rejected_before_iterating(self, length, as_column):
        problem = assemble(2, "zero")  # order 4
        shape = (length, 1) if as_column else (length,)
        assume(shape != (4,))
        started = AssertionError("solve set up the iteration before checking x_exact")
        with mock.patch.object(gsolve.engine, "build_step", side_effect=started):
            with pytest.raises(ValueError, match="x_exact"):
                solve(problem.A, problem.b, IterationConfig("gj", m=1),
                      x_exact=np.ones(shape))

    @staticmethod
    def _solve_without_set_up(name, vec):
        """Solve with ``vec`` as b or x_exact, failing if build_step is reached; or, as
        the "dense matrix", take the dense radius of ``vec`` laid out as a 2 x 2 matrix."""
        if name == "dense matrix":
            spectral_radius(np.reshape(vec, (2, 2)))
            return
        problem = assemble(2, "zero")  # order 4
        args = {"b": problem.b, "x_exact": None, name: vec}
        started = AssertionError(f"solve set up the iteration before checking {name}")
        with mock.patch.object(gsolve.engine, "build_step", side_effect=started):
            solve(problem.A, args["b"], IterationConfig("gj", m=1), x_exact=args["x_exact"])

    @given(st.integers(0, 12), st.booleans())
    def test_misshapen_b_or_x0_rejected_before_set_up(self, length, as_column):
        shape = (length, 1) if as_column else (length,)
        assume(shape != (4,))
        with pytest.raises(ValueError, match=r"^b has shape"):
            self._solve_without_set_up("b", np.ones(shape))

    @given(st.sampled_from(["b", "x_exact", "dense matrix"]),
           st.sampled_from([float("nan"), float("inf"), float("-inf")]),
           st.integers(0, 3))
    def test_non_finite_vector_rejected_before_set_up(self, name, value, index):
        vec = np.ones(4)
        vec[index] = value
        with pytest.raises(ValueError, match=rf"^{name} has non-finite"):
            self._solve_without_set_up(name, vec)

    @given(st.sampled_from(["b", "x_exact", "dense matrix"]), st.sampled_from([1j, 0j]),
           st.integers(0, 3))
    def test_complex_vector_rejected_before_set_up(self, name, value, index):
        vec = np.ones(4, dtype=complex)
        vec[index] += value
        with pytest.raises(ValueError, match=rf"^{name} has complex entries"):
            self._solve_without_set_up(name, vec)
        with pytest.raises(ValueError, match=rf"^{name} has complex entries"):
            self._solve_without_set_up(name, vec.tolist())

    @pytest.mark.parametrize("name", ["b", "x_exact"])
    def test_non_array_vector_rejected_before_set_up(self, name):
        with pytest.raises(ValueError, match=rf"^{name} is not an array of real numbers"):
            self._solve_without_set_up(name, object())
        with pytest.raises(ValueError, match=rf"^{name} is not an array of real numbers: "):
            self._solve_without_set_up(name, [[1.0], [2.0, 3.0]])  # ragged

    @pytest.mark.parametrize("name", ["b", "x_exact", "dense matrix"])
    @pytest.mark.parametrize("text", [["3", "3", "3", "3"], [b"3", b"3", b"3", b"3"]],
                             ids=["str", "bytes"])
    def test_string_vector_rejected_before_set_up(self, name, text):
        # numpy would read "3" as 3.0, and b = ["3", ...] would be solved
        with pytest.raises(ValueError, match=rf"^{name} has string entries$"):
            self._solve_without_set_up(name, text)

    def test_norm_within_the_window_of_tol_is_decided_by_fsum(self):
        # tol is the ddot norm of step 3's difference, so that norm lies within
        # gamma_{n+2} * tol of tol, where BLAS orders may disagree: _fsum_norm decides it
        problem = assemble(2, "zero")  # order 4
        op = build_step(extract_splitting(problem.A, 1), "gj")
        x = np.zeros(problem.A.n)
        for _ in range(3):
            x_next = op.step(x, problem.b)
            x, d = x_next, x_next - x
        tol = math.sqrt(d.dot(d))
        fsum = gsolve.engine._fsum_norm
        config = IterationConfig("gj", m=1, tol=tol)
        with mock.patch.object(gsolve.engine, "_fsum_norm", wraps=fsum) as spy:
            report = solve(problem.A, problem.b, config)
        assert spy.call_count == 2  # step 3's norm, then the reported final norm
        np.testing.assert_array_equal(spy.call_args_list[0].args[0], d)
        assert report.iterations == (3 if fsum(d) <= tol else 4)
        # an fsum norm above tol carries the solve past step 3
        with mock.patch.object(gsolve.engine, "_fsum_norm", side_effect=[2 * tol, 0.0]):
            assert solve(problem.A, problem.b, config).iterations == 4

    def test_fsum_norm_of_an_overflowing_sum_is_inf(self):
        # each square, 1.69e308, is finite; their sum is not
        assert gsolve.engine._fsum_norm(np.full(2, 1.3e154)) == math.inf

    def test_max_iter_is_respected(self, spd3):
        b = spd3.csr.toarray() @ np.ones(3)
        report = solve(spd3, b, IterationConfig("gj", m=1, max_iter=5))
        assert not report.converged
        assert report.iterations <= 5

    def test_capped_run_says_max_iter(self):
        problem = assemble(20, "zero", layout=LAYOUT_BENCH)
        report = solve(problem.A, problem.b, IterationConfig("gj", m=1, max_iter=5))
        assert (report.converged, report.iterations, report.note) == (False, 5, "max_iter")
        report = solve(problem.A, problem.b, IterationConfig("gj", m=1))
        assert report.converged and report.note == ""
        report = solve(problem.A, problem.b, IterationConfig("gj", m=1, max_iter=1))
        assert (report.converged, report.iterations, report.note) == (False, 1, "max_iter")
        report = solve(problem.A, np.zeros(problem.A.n), IterationConfig("gj", m=1))
        assert (report.converged, report.iterations, report.final_diff_norm) == (True, 1, 0.0)

    def test_setup_and_loop_times_fit_in_the_wall_time(self):
        problem = assemble(20, "negexp4xy", layout=LAYOUT_BENCH)
        start = time.perf_counter()
        report = solve(problem.A, problem.b, IterationConfig("gsor", m=1, omega=1.5))
        wall = time.perf_counter() - start
        assert report.setup_seconds >= 0.0 and report.elapsed_seconds >= 0.0
        assert report.setup_seconds + report.elapsed_seconds <= wall


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_against_symmetric_eigenvalue_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            base = rng.normal(size=(n, n))
            sym = (base + base.T) / 2
            want = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
            got = spectral_radius(sym)
            assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_bad_input(self):
        for target, message in (
            (np.zeros((2, 3)), r"has shape \(2, 3\), expected \(2, 2\)"),
            (np.zeros(3), r"has shape \(3,\), expected \(3, 3\)"),
            (np.float64(1.0), r"has shape \(\), expected \(0, 0\)"),
            (np.array([[1j]]), "has complex entries"),
            (np.array([[np.nan]]), "has non-finite entries"),
            ([[1.0], [2.0, 3.0]], "is not an array of real numbers: .*"),  # ragged
        ):
            with pytest.raises(ValueError, match=rf"^dense matrix {message}$"):
                spectral_radius(target)
        with pytest.raises(ValueError, match="^dense matrix is not an array of real numbers"):
            spectral_radius(object())
        op = build_step(extract_splitting(SquareMatrix(np.eye(2)), 0), "gj")
        with pytest.raises(ValueError, match='^a StepOperator needs mode="power"$'):
            spectral_radius(op)
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 2)), mode="magic")
        for target in (object(), lambda v: v):
            with pytest.raises(ValueError, match="StepOperator"):
                spectral_radius(target, mode="power")

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed=1.5 is not an integer"),
        ("3", "seed=3 is not an integer"),
        (True, "seed=True is not an integer"),
    ])
    @pytest.mark.parametrize("n", [5, 15])
    def test_seed_is_checked_on_every_route(self, n, seed, message):
        op = build_step(extract_splitting(assemble(n, "zero", layout=LAYOUT_BENCH).A, 1), "gj")
        assert (op.n <= SMALL_ORDER) == (n == 5)  # orders 20 (dense) and 210 (ARPACK)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            spectral_radius(op, mode="power", seed=seed)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            spectral_radius(iteration_matrix(op), seed=seed)

    @pytest.mark.parametrize("n", [5, 15])  # orders 20 (dense route) and 210 (ARPACK)
    def test_every_refusal_is_a_value_error_at_every_order(self, n):
        A = assemble(n, "zero", layout=LAYOUT_BENCH).A
        op = build_step(extract_splitting(A, 1), "gj")
        H = iteration_matrix(op)
        refusals = [
            ((op,), {}, 'a StepOperator needs mode="power"'),
            ((H, "power"), {}, "power mode needs a StepOperator"),
            ((op, "magic"), {}, "unknown mode 'magic'; expected 'dense' or 'power'"),
            ((op, "power"), {"seed": -1}, "seed must be >= 0, got -1"),
            ((H,), {"seed": -1}, "seed must be >= 0, got -1"),
        ]
        for certificate in (object(), tuple(certify_m(A))):
            name = type(certificate).__name__
            for args in ((op, "power"), (H,)):
                refusals.append((args, {"certificate": certificate},
                                 f"certificate must be an MCertificate, got {name}"))
        for args, kwargs, message in refusals:
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                spectral_radius(*args, **kwargs)
        estimate = spectral_radius(op, mode="power", certificate=certify_m(A))
        assert estimate.reliable and type(estimate.error_bound) is float

    def test_whole_float_seed_is_its_integer(self):
        op = build_step(extract_splitting(assemble(15, "zero", layout=LAYOUT_BENCH).A, 1), "gj")
        want = spectral_radius(op, mode="power", seed=3)
        for seed in (3.0, np.float32(3.0)):
            assert spectral_radius(op, mode="power", seed=seed) == want

    def test_power_matches_dense_on_separated_fixtures(self, lmat3, spd3):
        cases = [
            (lmat3, "gj", 1, None),
            (lmat3, "ggs", 1, None),
            (spd3, "gj", 1, None),
            (lmat3, "gsor", 1, 0.4),
        ]
        for A, method, m, omega in cases:
            dense_value = spectral_radius(_explicit_h(A, method, m, omega))
            op = build_step(extract_splitting(A, m), method, omega)
            estimate = spectral_radius(op, mode="power", seed=123)
            assert isinstance(estimate, PowerEstimate)
            assert estimate.reliable
            assert estimate.value == pytest.approx(dense_value, rel=1e-4)

    def test_power_on_nilpotent_operator(self):
        op = _operator_of([[0.0, 1.0], [0.0, 0.0]])
        estimate = spectral_radius(op, mode="power")
        assert estimate.value == 0.0
        assert estimate.reliable

    def test_power_flags_no_convergence(self, monkeypatch):
        monkeypatch.setattr(gsolve.engine, "eigs", _no_convergence)
        n = SMALL_ORDER + 10
        estimate = _operator_radius(_operator_of(0.5 * np.eye(n, k=1)), 0)
        assert not estimate.reliable
        assert estimate.error_bound == np.inf

    def test_power_flags_arpack_error(self, monkeypatch):
        def no_shifts(*args, **kwargs):
            raise ArpackError(3)  # no shifts could be applied during a cycle

        monkeypatch.setattr(gsolve.engine, "eigs", no_shifts)
        estimate = _operator_radius(_operator_of(0.5 * np.eye(SMALL_ORDER + 10, k=1)), 0)
        assert not estimate.reliable and np.isnan(estimate.value)
        assert estimate.error_bound == np.inf

    def test_power_handles_complex_dominant_pair(self):
        # rotation: eigenvalues +-i, modulus exactly 1, no real eigenpair
        op = _operator_of([[0.0, -1.0], [1.0, 0.0]])
        estimate = spectral_radius(op, mode="power", seed=1)
        assert estimate.reliable
        assert estimate.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arpack_handles_complex_dominant_pair(self, seed):
        # +-0.9i from a rotation block beside a nilpotent chain; N < 0, so the H route
        n = SMALL_ORDER + 10
        H = 0.5 * np.roll(np.eye(n), 1, axis=1)
        H[:2, :] = H[:, :2] = 0.0
        H[0, 1], H[1, 0] = -0.9, 0.9
        estimate = spectral_radius(_operator_of(H), mode="power", seed=seed)
        assert estimate.reliable
        assert estimate.value == pytest.approx(0.9, abs=1e-12)
        assert estimate.error_bound <= 1e-12

    def test_result_types_store_only_what_was_measured(self):
        fields = {cls: [f.name for f in dataclasses.fields(cls)]
                  for cls in (PowerEstimate, SolveReport, StepOperator)}
        assert fields == {
            PowerEstimate: ["value", "error_bound", "steps"],
            SolveReport: ["iterations", "final_diff_norm", "final_error_norm",
                          "elapsed_seconds", "setup_seconds", "solution", "note"],
            StepOperator: ["m_part", "n_part", "lu"],
        }
        assert not PowerEstimate(float("nan"), np.inf, 0).reliable
        report = SolveReport(5, 1.0, None, 0.0, 0.0, np.zeros(2), "max_iter")
        op = _operator_of([[0.0, 1.0], [0.0, 0.0]])
        assert not report.converged and op.n == 2
        for obj, name in ((PowerEstimate(0.5, 0.0, 3), "reliable"), (report, "converged"),
                          (op, "n")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)

    def test_power_on_empty_n_part_is_zero(self, spd3):
        # full bandwidth: GJ is a direct solve, N = 0
        op = build_step(extract_splitting(spd3, 2), "gj")
        assert spectral_radius(op, mode="power") == PowerEstimate(0.0, 0.0, 0)

    @pytest.mark.parametrize("g, n, method, m, omega", [
        ("zero", 10, "gsor", 1, 1.5), ("negexp4xy", 8, "gj", 1, None),
        ("xplusy", 14, "ggs", 2, None), ("expxy", 6, "gsor", 0, 0.7),
    ])
    def test_dense_route_is_the_dense_radius_of_the_iteration_matrix(self, g, n, method,
                                                                      m, omega):
        A = assemble(n, g, layout=LAYOUT_BENCH).A
        assert A.n <= SMALL_ORDER
        op = build_step(extract_splitting(A, m), method, omega)
        H = iteration_matrix(op)
        estimate = spectral_radius(op, mode="power", seed=4)
        assert estimate == PowerEstimate(spectral_radius(H),
                                         np.finfo(np.float64).eps * np.linalg.norm(H, 1),
                                         A.n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(GENERATORS),
        st.integers(3, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["gj", "ggs", "gsor"]),
        st.floats(0.1, 1.9),
        st.data(),
    )
    def test_operator_radius_matches_dense_oracle(self, generator, n, seed, method,
                                                  omega, data):
        A = generator(n, np.random.default_rng(seed))
        m = data.draw(st.integers(0, n - 1), label="m")
        if method != "gsor":
            omega = None
        want = spectral_radius(_explicit_h(A, method, m, omega))
        op = build_step(extract_splitting(A, m), method, omega)
        assume(op.n_part.nnz > 0)  # spectral_radius answers an empty N without ARPACK
        estimate = _arpack_radius(op, seed)
        scale = max(want, 1.0)
        if estimate.reliable:
            assert estimate.value == pytest.approx(want, abs=1e-8 * scale)
            assert estimate.error_bound <= 1e-8 * scale
        else:
            # ARPACK may give up on near-equal dominant moduli; it must say so
            assert np.isnan(estimate.value) and estimate.error_bound == np.inf


class TestRegularSplittingRoute:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["gj", "ggs", "sor"]),
        st.floats(0.05, 1.0),
        st.data(),
    )
    def test_matches_dense_oracle_on_m_matrices(self, n, seed, method, omega, data):
        A = random_m_matrix(n, np.random.default_rng(seed))
        if method == "sor":
            method, m = "gsor", 0
        else:
            m, omega = data.draw(st.integers(0, n - 2), label="m"), None
        op = build_step(extract_splitting(A, m), method, omega)
        assert _regular_factor(op) is not None
        assume(op.n_part.nnz > 0)  # spectral_radius answers an empty N without ARPACK
        want = spectral_radius(_explicit_h(A, method, m, omega))
        estimate = _arpack_radius(op, seed)
        assert estimate.reliable
        assert estimate.value == pytest.approx(want, abs=1e-10 * max(want, 1.0))
        assert estimate.error_bound <= 1e-12

    def test_steps_below_small_order(self):
        A = random_m_matrix(SMALL_ORDER, np.random.default_rng(3))
        op = build_step(extract_splitting(A, 1), "gj")
        # one application of H per column of the explicit H
        assert spectral_radius(op, mode="power").steps == SMALL_ORDER

    def test_bench_gj_is_seed_independent(self):
        A = assemble(100, "zero", layout=LAYOUT_BENCH).A
        op = build_step(extract_splitting(A, 1), "gj")
        estimates = [spectral_radius(op, mode="power", seed=seed) for seed in range(9)]
        assert {e.steps for e in estimates} == {estimates[0].steps}
        assert estimates[0].steps <= 30
        for estimate in estimates:
            assert estimate.reliable
            assert round(estimate.value, 6) == 0.999023

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(("m-matrix", "shifted z", "singular")),
        st.integers(2, 20),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["gj", "ggs", "sor"]),
        # above 1, N has a negative diagonal and the splitting is not regular
        st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        st.data(),
    )
    def test_route_agrees_with_is_m_matrix(self, family, n, seed, method, omega, data):
        rng = np.random.default_rng(seed)
        if family == "m-matrix":
            A = random_m_matrix(n, rng)
        elif family == "shifted z":
            A = _shifted_z_matrix(n, rng)
        else:
            A = _zero_row_sum_laplacian(n)
        if method == "sor":
            method, m = "gsor", 0
        else:
            # at m >= 1 the Laplacian's M is the singular A itself
            top = 0 if family == "singular" else n - 1
            m, omega = data.draw(st.integers(0, top), label="m"), None
        splitting = extract_splitting(A, m)
        if omega is not None:
            # at m = 0, M and N hold band/omega and (1/omega - 1)*band beside
            # A's own off-diagonal entries
            d = splitting.band.csr.data
            with np.errstate(over="ignore"):
                finite = np.isfinite(d / omega).all() and np.isfinite((1.0 / omega - 1.0) * d).all()
            if not finite:
                with pytest.raises(ValueError, match="band/omega overflows"):
                    build_step(splitting, method, omega)
                return
        op = build_step(splitting, method, omega)
        regular = (bool(np.all(op.n_part.data >= 0.0))
                   and is_z_matrix(SquareMatrix(op.m_part))
                   and is_m_matrix(SquareMatrix(op.m_part - op.n_part))[0])
        assert (_regular_factor(op) is not None) == regular

    @staticmethod
    def _assert_certificate_changes_no_answer(A, method, m, omega, seed):
        op = build_step(extract_splitting(A, m), method, omega)
        assert _regular_factor(op) is not None
        handed = spectral_radius(op, mode="power", seed=seed, certificate=certify_m(A))
        own = spectral_radius(op, mode="power", seed=seed)
        if omega is None:
            np.testing.assert_equal(dataclasses.astuple(handed), dataclasses.astuple(own))
        else:  # the route certifies GSOR's M - N, A to rounding
            assert handed.reliable and own.reliable
            assert handed.value == pytest.approx(own.value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("g, n", [("zero", 15), ("negexp4xy", 20), ("xplusy", 30)])
    @pytest.mark.parametrize("method, m, omega", [
        ("gj", 1, None), ("ggs", 2, None), ("gsor", 0, 0.9), ("gsor", 0, 1.0)])
    def test_handed_certificate_on_bench(self, g, n, method, m, omega):
        A = assemble(n, g, layout=LAYOUT_BENCH).A
        assert A.n > SMALL_ORDER
        self._assert_certificate_changes_no_answer(A, method, m, omega, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.sampled_from(["gj", "ggs", "sor"]),
           st.floats(0.05, 1.0), st.data())
    def test_handed_certificate_on_m_matrices(self, n, seed, method, omega, data):
        A = random_m_matrix(n, np.random.default_rng(seed))
        if method == "sor":
            method, m = "gsor", 0
        else:
            m, omega = data.draw(st.integers(0, n - 2), label="m"), None
        with mock.patch.object(gsolve.engine, "SMALL_ORDER", 0):
            self._assert_certificate_changes_no_answer(A, method, m, omega, seed)

    @pytest.mark.parametrize("argv", [
        ("classify", "--pde", "g=zero", "n=40", "--predict", "gj", "--m", "1"),
        ("classify", "--pde", "g=zero", "n=40", "--predict", "ggs", "--m", "1"),
        ("classify", "--pde", "g=zero", "n=40", "--predict", "sor", "--omega", "0.9"),
        ("rho", "--pde", "g=zero", "n=100", "--method", "gj", "--power"),
        None,  # predict without a report
    ])
    def test_a_is_factorized_once(self, capsys, argv):
        with mock.patch.object(gsolve.matrices, "splu", wraps=splu) as a_spy, \
                mock.patch.object(gsolve.solvers, "splu", wraps=splu) as m_spy:
            if argv is None:
                A = assemble(40, "zero", layout=LAYOUT_BENCH).A
                assert predict(A, IterationConfig("gj", 1)).rho_estimate is not None
            else:
                assert main(list(argv)) == 0
        specs = [c.kwargs["permc_spec"] for c in a_spy.call_args_list + m_spy.call_args_list]
        assert specs.count("MMD_AT_PLUS_A") == 1

    @staticmethod
    def _refusals(spd3):
        """(name, step operator, certificate handed to the radius or None)."""
        # Below omega_opt, where ARPACK's answer does not depend on its history.
        bench = assemble(20, "zero", layout=LAYOUT_BENCH).A
        overrelaxed = build_step(extract_splitting(bench, 1), "gsor", 1.5)
        yield "gsor omega=1.5", overrelaxed, None
        # A is certified, but N = (1 - omega) band + omega upper has a negative diagonal
        yield "negative N, certified A", overrelaxed, certify_m(bench)
        yield "spd3", build_step(extract_splitting(spd3, 1), "gj"), None
        dense = assemble(6, "zero", layout=LAYOUT_BENCH).A.csr.toarray()
        dense[0, 7] = 0.5  # above the band of m = 1: N = upper gets one negative entry
        yield "negative N", build_step(extract_splitting(SquareMatrix(dense), 1),
                                       "ggs"), None
        laplacian = _zero_row_sum_laplacian(40)
        yield "singular", build_step(extract_splitting(laplacian, 0), "ggs"), None
        # GGS splits bench - 0.1 I with N >= 0 and a Z-matrix M, but lambda_min(bench)
        # is 0.047, so this Z-matrix is no M-matrix and its certificate has no factor
        shifted = SquareMatrix(bench.csr - 0.1 * sp.eye_array(bench.n))
        yield ("uncertified certificate", build_step(extract_splitting(shifted, 1), "ggs"),
               certify_m(shifted))
        # A = I is certified, but omega < 0 gives N = (1/omega - 1) I = -3 I < 0
        identity = SquareMatrix(np.eye(40))
        yield ("gsor omega<0", build_step(extract_splitting(identity, 0), "gsor", -0.5),
               certify_m(identity))

    def test_refusals_return_the_h_route_answer(self, spd3):
        refusals = {name: (op, cert) for name, op, cert in self._refusals(spd3)}
        assert refusals["negative N"][0].n_part.data.min() < 0
        assert refusals["gsor omega=1.5"][0].n > SMALL_ORDER
        assert refusals["negative N, certified A"][1].lu is not None
        assert refusals["uncertified certificate"][1].lu is None
        assert refusals["gsor omega<0"][1].lu is not None
        for name, (op, certificate) in refusals.items():
            assert _regular_factor(op, certificate) is None, name
            if op.n > SMALL_ORDER:
                got = spectral_radius(op, mode="power", seed=5, certificate=certificate)
                as_h = _operator_radius(op, 5)
                np.testing.assert_equal(dataclasses.astuple(got),
                                        dataclasses.astuple(as_h), err_msg=name)
        assert spectral_radius(refusals["spd3"][0], mode="power").value == pytest.approx(
            1.5883, abs=5e-5)
        assert spectral_radius(refusals["singular"][0], mode="power", seed=0).value == (
            pytest.approx(1.0, abs=1e-8))


def _radius_and_n(A, method, m, omega=None):
    """Dense rho(H) and the dense N of the method's splitting of A."""
    op = build_step(extract_splitting(A, m), method, omega)
    return spectral_radius(iteration_matrix(op)), op.n_part.toarray()


def _assert_ordered(smaller, larger):
    """The comparison theorem for regular splittings N2 <= N1 of a nonsingular
    M-matrix with A^{-1} > 0: rho2 <= rho1, strictly when N2 != N1 and rho1 > 0."""
    (rho2, n2), (rho1, n1) = smaller, larger
    assert n2.min() >= 0.0 and np.all(n2 <= n1)  # the theorem's hypotheses
    assert rho2 <= rho1 + 1e-12
    if rho1 > 0.0 and not np.array_equal(n2, n1):
        assert rho2 < rho1


class TestComparisonTheorems:
    """Varga, Matrix Iterative Analysis, ch. 3; Csordas & Varga, "Comparisons
    of regular splittings of matrices", Numer. Math. 44 (1984).  Every B that
    random_m_matrix draws is positive, so A is irreducible and A^{-1} > 0."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 29), st.integers(0, 2**32 - 1), st.integers(1, 20))
    def test_orderings_on_m_matrices(self, n, seed, twentieths):
        A = random_m_matrix(n, np.random.default_rng(seed))
        gj = [_radius_and_n(A, "gj", m) for m in range(n)]
        ggs = [_radius_and_n(A, "ggs", m) for m in range(n)]
        for m in range(n - 1):
            _assert_ordered(ggs[m], gj[m])  # N_GGS = upper <= lower + upper = N_GJ
            _assert_ordered(gj[m + 1], gj[m])  # a wider band leaves less in N
            _assert_ordered(ggs[m + 1], ggs[m])
        # SOR at omega <= 1: N = (1/omega - 1) D + upper >= upper = N_GS
        omega = twentieths / 20
        _assert_ordered(ggs[0], _radius_and_n(A, "gsor", 0, omega))
        # At m >= 1, N_GSOR holds (1/omega - 1) times band's negative off-diagonal
        # entries, so that splitting is not regular and no ordering is asserted.
        if omega < 1.0:
            assert _radius_and_n(A, "gsor", 1, omega)[1].min() < 0.0

    @pytest.mark.parametrize("g", sorted(TABLE_COUNTS))
    def test_orderings_on_the_table_matrices(self, g):
        # The 12 matrices of `gsolve table all`, at orders 380-1560, by power-mode radii.
        # Its omega = 1.5 splittings are not regular, so no ordering is asserted for them.
        for n in TABLE_COUNTS[g]:
            A = assemble(n, g, layout=LAYOUT_BENCH).A
            report = classify(A)
            assert report.is_m  # a nonsingular M-matrix: the theorems' hypothesis
            rho = {(method, m): spectral_radius(build_step(extract_splitting(A, m), method),
                                                mode="power", certificate=report.m)
                   for method in ("gj", "ggs") for m in (0, 1)}
            assert all(estimate.reliable for estimate in rho.values())
            for smaller, larger in ((("ggs", 1), ("gj", 1)), (("gj", 1), ("gj", 0)),
                                    (("ggs", 1), ("ggs", 0))):
                low, high = rho[smaller], rho[larger]
                assert high.value - low.value > low.error_bound + high.error_bound, (
                    g, n, smaller, larger)


class TestPredict:
    def test_spd_counterexample(self, spd3):
        verdict = predict(spd3, IterationConfig("gj", m=1))
        assert not verdict.guaranteed
        assert verdict.guarantee_source == ()
        assert verdict.rho_estimate == pytest.approx(1.5883, abs=5e-5)
        assert verdict.predicted_converges is False

    def test_m_matrix_with_underrelaxed_gsor(self):
        problem = assemble(10, "zero")
        verdict = predict(problem.A, IterationConfig("gsor", m=1, omega=0.8))
        assert verdict.guaranteed
        assert "M+GSOR(0<omega<=1)" in verdict.guarantee_source
        assert verdict.predicted_converges is True
        assert verdict.rho_estimate is not None and verdict.rho_estimate < 1

    def test_l_matrix_converges_without_guarantee(self, lmat3):
        verdict = predict(lmat3, IterationConfig("gsor", m=1, omega=0.4))
        assert not verdict.guaranteed
        assert verdict.rho_estimate == pytest.approx(0.6, abs=5e-5)
        assert verdict.predicted_converges is True

    def test_sdd_tags_for_gj_and_ggs(self):
        rng = np.random.default_rng(21)
        A = random_sdd_matrix(6, rng)
        for method in ("gj", "ggs"):
            verdict = predict(A, IterationConfig(method, m=2))
            assert f"SDD+{method.upper()}" in verdict.guarantee_source
            assert verdict.predicted_converges is True

    def test_overrelaxed_m_matrix_tag(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            A = random_m_matrix(8, rng)
            rho_gj = spectral_radius(_explicit_h(A, "gj", 1))
            limit = 2.0 / (1.0 + rho_gj)
            if limit <= 1.05:
                continue
            omega = min(1.0 + (limit - 1.0) / 2, 1.9)
            splitting = extract_splitting(A, 1)
            gate = spectral_radius(
                np.linalg.solve(splitting.band.csr.toarray(), splitting.lower.csr.toarray())
            )
            verdict = predict(A, IterationConfig("gsor", m=1, omega=omega))
            if gate < 1.0 / omega:
                assert TAG_OVERRELAXED_M in verdict.guarantee_source
                assert verdict.rho_estimate < 1.0
            else:
                assert TAG_OVERRELAXED_M not in verdict.guarantee_source

    def test_overrelaxed_tag_on_an_ldlt_operator(self):
        # Symmetric tridiagonal at m = 1: lower is empty, M = band = A gets
        # the LDL^T factor, and the margin (2/omega - 1) A is an M-matrix
        # exactly for omega < 2.
        n = 30
        A = SquareMatrix(4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
        report = classify(A)
        for omega, covered in ((1.2, True), (1.9, True), (2.0, False)):
            assert isinstance(build_step(extract_splitting(A, 1), "gsor", omega).lu,
                              TridiagonalLDLT)
            with mock.patch.object(gsolve.matrices, "splu", wraps=splu) as margin_spy, \
                    mock.patch.object(gsolve.solvers, "splu", wraps=splu) as m_spy:
                verdict = predict(A, IterationConfig("gsor", m=1, omega=omega), report=report)
            assert (TAG_OVERRELAXED_M in verdict.guarantee_source) == covered, omega
            assert margin_spy.call_count == 1 and m_spy.call_count == 0
            assert verdict.rho_estimate == pytest.approx(abs(omega - 1.0), abs=1e-12)

    def test_overrelaxed_certificate_factorizes_the_margin_only(self):
        A = assemble(40, "zero", layout=LAYOUT_BENCH).A
        report = classify(A)
        with mock.patch.object(gsolve.matrices, "splu", wraps=splu) as margin_spy, \
                mock.patch.object(gsolve.solvers, "splu", wraps=splu) as m_spy:
            verdict = predict(A, IterationConfig("gsor", m=1, omega=1.001), report=report)
        assert TAG_OVERRELAXED_M in verdict.guarantee_source
        specs = [c.kwargs["permc_spec"] for c in
                 margin_spy.call_args_list + m_spy.call_args_list]
        assert specs == ["MMD_AT_PLUS_A", "NATURAL"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 11), st.integers(0, 2**32 - 1), st.floats(1.0, 2.2,
           exclude_min=True), st.data())
    def test_overrelaxed_certificates_match_dense_test(self, n, seed, omega, data):
        A = random_m_matrix(n, np.random.default_rng(seed))
        m = data.draw(st.integers(0, n - 1), label="m")
        rho_gj = spectral_radius(_explicit_h(A, "gj", m))
        splitting = extract_splitting(A, m)
        gate = spectral_radius(
            np.linalg.solve(splitting.band.csr.toarray(), splitting.lower.csr.toarray())
        )
        want = omega < 2.0 / (1.0 + rho_gj) and gate < 1.0 / omega
        verdict = predict(A, IterationConfig("gsor", m=m, omega=omega))
        assert (TAG_OVERRELAXED_M in verdict.guarantee_source) == want

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.booleans(),
           st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), st.data())
    def test_margin_certificate_implies_m_part_certificate(self, n, seed, sparse, omega,
                                                           data):
        rng = np.random.default_rng(seed)
        a = random_m_matrix(n, rng).csr.toarray()
        if sparse:  # dropping off-diagonal entries keeps an M-matrix one
            a[(rng.random((n, n)) < 0.5) & ~np.eye(n, dtype=bool)] = 0.0
        A = SquareMatrix(a)
        m = data.draw(st.integers(0, n - 1), label="m")
        splitting = extract_splitting(A, m)
        margin = _margin_certified(splitting, omega)
        if margin:
            assert _m_part_certified(build_step(splitting, "gsor", omega))
        report = classify(A)
        assert report.is_m
        verdict = predict(A, IterationConfig("gsor", m=m, omega=omega), report=report)
        assert (TAG_OVERRELAXED_M in verdict.guarantee_source) == margin

    @pytest.mark.parametrize("g_id", ["xplusy", "zero", "expxy", "negexp4xy"])
    def test_margin_certificate_implies_m_part_certificate_on_bench(self, g_id):
        certified = 0
        for n in (6, 10, 20, 40):
            A = assemble(n, g_id, layout=LAYOUT_BENCH).A
            for m in (0, 1, 2):
                splitting = extract_splitting(A, m)
                for omega in (1.0001, 1.001, 1.01, 1.1, 1.5):
                    if _margin_certified(splitting, omega):
                        certified += 1
                        op = build_step(splitting, "gsor", omega)
                        assert _m_part_certified(op), (n, m, omega)
        assert certified > 0

    def test_guaranteed_is_derived_from_the_sources(self):
        assert [f.name for f in dataclasses.fields(ConvergenceVerdict)] == [
            "rho_estimate", "guarantee_source"]
        assert ConvergenceVerdict(0.5, ("M+GJ",)).guaranteed
        assert not ConvergenceVerdict(0.5).guaranteed
        with pytest.raises(AttributeError):
            ConvergenceVerdict(0.5).guaranteed = True
        # rho decides when known; else a theorem's guarantee; else undetermined
        assert ConvergenceVerdict(1.2, ("M+GJ",)).predicted_converges is False
        assert ConvergenceVerdict(None, ("M+GJ",)).predicted_converges is True
        assert ConvergenceVerdict(None).predicted_converges is None
        with pytest.raises(AttributeError):
            ConvergenceVerdict(0.5).predicted_converges = False

    @pytest.mark.parametrize(
        "config",
        [IterationConfig("gj", m=1), IterationConfig("ggs", m=2),
         IterationConfig("gsor", m=1, omega=0.8), IterationConfig("gsor", m=1, omega=1.5)],
    )
    def test_given_report_gives_the_same_verdict(self, config, spd3, lmat3):
        for A in (assemble(8, "zero").A, assemble(8, "negexp4xy").A, spd3, lmat3):
            assert predict(A, config, report=classify(A)) == predict(A, config)

    def test_rho_reported_above_spd_limit(self, spd3):
        def spd_undetermined(A):
            return dataclasses.replace(classify(A), is_spd=None)

        problem = assemble(15, "zero")  # order 225: the ARPACK path
        verdict = predict(
            problem.A, IterationConfig("ggs", m=1), report=spd_undetermined(problem.A)
        )
        want = spectral_radius(_explicit_h(problem.A, "ggs", 1))
        assert verdict.rho_estimate == pytest.approx(want, rel=1e-10)
        assert verdict.guaranteed
        assert verdict.predicted_converges is True

        verdict = predict(spd3, IterationConfig("gj", m=1), report=spd_undetermined(spd3))
        assert verdict.rho_estimate == pytest.approx(1.5883, abs=5e-5)
        assert not verdict.guaranteed
        assert verdict.predicted_converges is False

    def test_unreliable_radius_keeps_theorem_verdict(self, monkeypatch):
        monkeypatch.setattr(gsolve.engine, "eigs", _no_convergence)
        problem = assemble(15, "zero")  # order 225: the ARPACK path
        verdict = predict(problem.A, IterationConfig("ggs", m=1))
        assert verdict.rho_estimate is None
        assert verdict.guaranteed
        assert verdict.predicted_converges is True

        # omega far beyond 2 / (1 + rho(H_GJ)): no theorem applies
        verdict = predict(problem.A, IterationConfig("gsor", m=1, omega=1.95))
        assert verdict.rho_estimate is None
        assert not verdict.guaranteed
        assert verdict.predicted_converges is None


class TestSparseLUPanel:
    """Every sparse LU factorizes one column at a time, on each route to SuperLU."""

    @pytest.fixture(scope="class")
    def bench40(self):
        A = assemble(40, "negexp4xy", layout=LAYOUT_BENCH).A  # order 1560
        return A, classify(A)

    @pytest.mark.parametrize("route, module", [
        ("classify", "matrices"),
        ("build_step natural", "solvers"),
        ("build_step permuted", "solvers"),
        ("predict margin", "matrices"),
        ("regular power", "matrices"),
    ])
    def test_every_factorization_has_panel_size_one(self, bench40, route, module):
        A, report = bench40
        with mock.patch.object(gsolve.matrices, "splu", wraps=splu) as a_spy, \
                mock.patch.object(gsolve.solvers, "splu", wraps=splu) as m_spy:
            if route == "classify":
                classify(A)
            elif route == "build_step natural":
                build_step(extract_splitting(A, 0), "gsor", 1.5)
            elif route == "build_step permuted":
                build_step(extract_splitting(A, 1), "ggs")
            elif route == "predict margin":
                predict(A, IterationConfig("gsor", m=1, omega=1.001), report=report)
            else:
                op = build_step(extract_splitting(A, 1), "gj")  # LDL^T, no splu
                assert op.n > SMALL_ORDER
                spectral_radius(op, mode="power")
        assert {"matrices": a_spy, "solvers": m_spy}[module].call_count >= 1
        calls = a_spy.call_args_list + m_spy.call_args_list
        assert [c.kwargs["panel_size"] for c in calls] == [1] * len(calls)
        # certify_m eliminates without row pivoting; build_step's factors pivot
        certified = a_spy.call_args_list
        assert [c.kwargs["diag_pivot_thresh"] for c in certified] == [0.0] * len(certified)

    @pytest.mark.parametrize("omega", [1.5, 1.85])
    def test_predict_margin_keeps_the_fill_of_a(self, bench40, omega):
        # The margin (2/omega - 1) band - lower - upper has A's pattern and is
        # no M-matrix here; elimination without row pivoting keeps A's fill.
        A, report = bench40
        factors = []

        def recording_splu(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        skip_radius = PowerEstimate(float("nan"), np.inf, 0)
        with mock.patch.object(gsolve.matrices, "splu", side_effect=recording_splu), \
                mock.patch.object(gsolve.engine, "spectral_radius", return_value=skip_radius):
            verdict = predict(A, IterationConfig("gsor", m=1, omega=omega), report=report)
        assert verdict.guarantee_source == ()
        lu_a = certify_m(A)[0]
        (margin,) = factors
        assert margin.L.nnz + margin.U.nnz == lu_a.L.nnz + lu_a.U.nnz
        np.testing.assert_array_equal(margin.perm_r, margin.perm_c)
