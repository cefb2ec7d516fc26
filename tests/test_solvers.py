import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import SuperLU, splu

from gsolve import (
    FactorizationError,
    IterationConfig,
    SquareMatrix,
    build_step,
    extract_splitting,
    iteration_matrix,
    solve,
    spectral_radius,
)
from generators import random_h_matrix, random_m_matrix, random_sdd_matrix
from gsolve.matrices import certify_m
from gsolve.pde import G_BUILTINS, LAYOUT_BENCH, LAYOUTS, assemble
from gsolve.solvers import PermutedLU, TridiagonalLDLT, _dissection_order


def random_strong_diag(rng, n):
    """Random matrix with dominant diagonal: all M parts stay well conditioned."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, np.sign(np.diag(a) + 0.5) * (np.abs(a).sum(axis=1) + 1.0))
    return a


def natural_lu(op):
    """Reference factor of the operator's M part in natural column order."""
    return splu(sp.csc_matrix(op.m_part), permc_spec="NATURAL")


def fill(lu):
    return lu.L.nnz + lu.U.nnz


def build_at(A, method, m, omega=None):
    return build_step(extract_splitting(A, m), method, omega)


def classical_iteration_matrix(dense, method, omega=None):
    """Textbook diagonal-splitting formulas, independent of the banded code path."""
    diag = np.diag(np.diag(dense))
    low = -np.tril(dense, -1)
    up = -np.triu(dense, 1)
    if method == "gj":
        return np.linalg.solve(diag, low + up)
    if method == "ggs":
        return np.linalg.solve(diag - low, up)
    return np.linalg.solve(diag - omega * low, (1 - omega) * diag + omega * up)


class TestBuildStep:
    def test_method_parsing(self, spd3):
        s = extract_splitting(spd3, 1)
        # GJ's M is the band; GGS's would also subtract spd3's nonzero corner
        np.testing.assert_array_equal(build_step(s, "GJ").m_part.toarray(),
                                      s.band.csr.toarray())
        for token in ("sor", None, 3, b"gj"):
            with pytest.raises(ValueError, match="unknown method"):
                build_step(s, token)

    def test_gsor_needs_nonzero_omega(self, spd3):
        s = extract_splitting(spd3, 1)
        with pytest.raises(ValueError):
            build_step(s, "gsor")
        with pytest.raises(ValueError):
            build_step(s, "gsor", 0.0)

    @given(st.sampled_from([float("nan"), float("inf"), float("-inf")]),
           st.integers(0, 2))
    def test_non_finite_omega_rejected(self, omega, m):
        s = extract_splitting(SquareMatrix(np.eye(3) * 4.0 - 1.0), m)
        with pytest.raises(ValueError, match="finite"):
            build_step(s, "gsor", omega)

    @pytest.mark.parametrize("omega", [1e-320, -1e-320, 1e-307])
    def test_gsor_omega_whose_band_quotient_overflows_rejected(self, omega):
        s = extract_splitting(SquareMatrix(np.eye(3) * 40.0 - 1.0), 1)
        with pytest.raises(ValueError, match="band/omega overflows"):
            build_step(s, "gsor", omega)

    def test_singular_m_part_reports_method_and_bandwidth(self):
        A = SquareMatrix([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(FactorizationError, match=r"method=gj, m=0"):
            build_step(extract_splitting(A, 0), "gj")

    def test_splitting_identity(self, lmat3):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            A = SquareMatrix(random_strong_diag(rng, n))
            m = int(rng.integers(0, n))
            s = extract_splitting(A, m)
            gj = build_step(s, "gj")
            ggs = build_step(s, "ggs")
            # M - N recovers A exactly for GJ/GGS
            assert (SquareMatrix(gj.m_part - gj.n_part).csr != A.csr).nnz == 0
            assert (SquareMatrix(ggs.m_part - ggs.n_part).csr != A.csr).nnz == 0
            # and for GSOR at assembly precision
            omega = rng.uniform(0.1, 1.0)
            gsor = build_step(s, "gsor", omega)
            np.testing.assert_allclose(
                (gsor.m_part - gsor.n_part).toarray(),
                A.csr.toarray(),
                rtol=1e-14,
                atol=1e-13,
            )


class TestApplyStep:
    def test_identity_converges_in_one_application(self):
        A = SquareMatrix(np.eye(4))
        op = build_step(extract_splitting(A, 0), "gj")
        b = np.ones(4)
        np.testing.assert_array_equal(op.step(np.zeros(4), b), b)

    def test_first_iterate_matches_direct_band_solve(self, spd3):
        # b chosen so the fixed point is the ones vector
        b = spd3.csr.toarray() @ np.ones(3)
        op = build_step(extract_splitting(spd3, 1), "gj")
        got = op.step(np.zeros(3), b)
        oracle = np.linalg.solve(extract_splitting(spd3, 1).band.csr.toarray(), b)
        np.testing.assert_allclose(got, oracle, rtol=1e-13)

    def test_input_not_modified(self, lmat3):
        # read-only inputs: a write by the kernel or an in-place solve raises
        bench = assemble(6, "zero", layout=LAYOUT_BENCH).A
        rng = np.random.default_rng(9)
        for op, factor in ((build_step(extract_splitting(lmat3, 1), "ggs"), PermutedLU),
                           (build_at(bench, "gj", 1), TridiagonalLDLT),
                           (build_at(bench, "gsor", 1, 1.5), PermutedLU),
                           (build_at(bench, "gsor", 0, 1.5), SuperLU)):
            assert isinstance(op.lu, factor)
            x, b, v = (rng.standard_normal(op.n) for _ in range(3))
            before = x.copy(), b.copy(), v.copy()
            for vec in (x, b, v):
                vec.flags.writeable = False
            op.step(x, b)
            op.solve_m(v)
            for vec, copy in zip((x, b, v), before):
                np.testing.assert_array_equal(vec, copy)

    def test_gsor_omega_one_equals_ggs_application(self, lmat3):
        rng = np.random.default_rng(4)
        s = extract_splitting(lmat3, 1)
        ggs = build_step(s, "ggs")
        gsor = build_step(s, "gsor", 1.0)
        for _ in range(5):
            x, b = rng.normal(size=3), rng.normal(size=3)
            a, c = ggs.step(x, b), gsor.step(x, b)
            np.testing.assert_allclose(a, c, rtol=1e-14)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(6)
        for g_id in ("xplusy", "zero", "expxy", "negexp4xy"):
            problem = assemble(6, g_id)
            dense = problem.A.csr.toarray()
            b = rng.normal(size=problem.A.n)
            x_star = np.linalg.solve(dense, b)
            s = extract_splitting(problem.A, 1)
            for method, omega in (("gj", None), ("ggs", None), ("gsor", 0.8)):
                op = build_step(s, method, omega)
                drift = np.linalg.norm(op.step(x_star, b) - x_star)
                assert drift <= 1e-10 * np.linalg.norm(x_star)


def assert_steps_as_csr(op, rng):
    """op.step(x, b) is bitwise the reference update M^{-1}(N x + b) with N in CSR."""
    x, b = rng.standard_normal(op.n), rng.standard_normal(op.n)
    np.testing.assert_array_equal(op.step(x, b), op.lu.solve(sp.csr_array(op.n_part) @ x + b))


class TestDiagonalStorage:
    """N is stored by its diagonals when that takes at most 1.25 nnz(N) + n values."""

    @pytest.mark.parametrize("n, layout, m, methods", [
        *(pytest.param(12, layout, m, (("gj", None), ("ggs", None), ("gsor", 1.5)),
                       id=f"{m}-{layout}") for m in (0, 1, 2) for layout in LAYOUTS),
        # SOR and GSOR m = 1 of the grid150 benchmark, at order 22 350
        pytest.param(150, LAYOUT_BENCH, 0, (("gsor", 1.9),), id="0-bench-150"),
        pytest.param(150, LAYOUT_BENCH, 1, (("gsor", 1.9),), id="1-bench-150"),
    ])
    def test_grid_n_is_diagonal(self, n, layout, m, methods):
        A = assemble(n, "negexp4xy", layout=layout).A
        rng = np.random.default_rng(m)
        for method, omega in methods:
            op = build_at(A, method, m, omega)
            assert isinstance(op.n_part, sp.dia_array), (method, m)
            assert_steps_as_csr(op, rng)

    def test_unstructured_n_stays_csr(self):
        rng = np.random.default_rng(14)
        op = build_at(SquareMatrix(random_strong_diag(rng, 40)), "ggs", 1)
        assert isinstance(op.n_part, sp.csr_array)
        assert_steps_as_csr(op, rng)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((random_sdd_matrix, random_m_matrix, random_h_matrix)),
        st.integers(2, 40),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["gj", "ggs", "gsor"]),
        st.floats(0.5, 1.0),
        st.data(),
    )
    def test_banded_random_n(self, generator, n, seed, method, omega, data):
        # Dropping the entries beyond a bandwidth keeps an SDD, M- or H-matrix
        # in its class, so every M part stays nonsingular for omega <= 1.
        rng = np.random.default_rng(seed)
        width = data.draw(st.integers(0, n - 1), label="width")
        dense = generator(n, rng).csr.toarray()
        rows, cols = np.indices((n, n))
        A = SquareMatrix(np.where(np.abs(rows - cols) <= width, dense, 0.0))
        op = build_at(A, method, data.draw(st.integers(0, n - 1), label="m"),
                      omega if method == "gsor" else None)
        coo = sp.coo_array(op.n_part.toarray())
        diagonals = np.unique(coo.col - coo.row).size
        assert isinstance(op.n_part, sp.dia_array) == (diagonals * n <= 1.25 * coo.nnz + n)
        assert_steps_as_csr(op, rng)


def random_tridiagonal_m_matrix(rng, n):
    """Random symmetric, strictly diagonally dominant tridiagonal M-matrix."""
    e = -rng.uniform(0.0, 1.0, size=n - 1)
    margin = np.abs(np.concatenate([e, [0.0]])) + np.abs(np.concatenate([[0.0], e]))
    return np.diag(margin + rng.uniform(0.01, 2.0, size=n)) + np.diag(e, 1) + np.diag(e, -1)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(("sdd", "m", "h", "tridiagonal", *LAYOUTS)),
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 1.95),
    st.data(),
)
def test_gsor_step_is_the_papers_iteration(source, n, seed, omega, data):
    """op.step(x, b) solves the paper's (band - omega lower) x+ =
    ((1 - omega) band + omega upper) x + omega b, on every factor route."""
    rng = np.random.default_rng(seed)
    if source in LAYOUTS:
        A, m = assemble(n + 2, sorted(G_BUILTINS)[seed % 4], layout=source).A, seed % 3
    elif source == "tridiagonal":
        A, m = SquareMatrix(random_tridiagonal_m_matrix(rng, n)), 1
    else:
        generator = {"sdd": random_sdd_matrix, "m": random_m_matrix, "h": random_h_matrix}
        A = generator[source](n, rng)
        m = data.draw(st.integers(0, n - 1), label="m")
    s = extract_splitting(A, m)
    band, lower, upper = s.band.csr.toarray(), s.lower.csr.toarray(), s.upper.csr.toarray()
    paper_m = band - omega * lower
    cond = np.linalg.cond(paper_m)
    assume(cond < 1e3)
    op = build_step(s, "gsor", omega)
    if source == "tridiagonal":
        assert isinstance(op.lu, TridiagonalLDLT)
    else:
        assert isinstance(op.lu, PermutedLU) == (m > 0 and s.lower.nnz > 0)
    np.testing.assert_allclose((op.m_part - op.n_part).toarray(), A.csr.toarray(),
                               rtol=1e-14, atol=0)
    x, b = rng.standard_normal(A.n), rng.standard_normal(A.n)
    want = np.linalg.solve(paper_m, ((1.0 - omega) * band + omega * upper) @ x + omega * b)
    assert np.linalg.norm(op.step(x, b) - want) <= 1e-12 * np.linalg.norm(want)


class TestIterationMatrix:
    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(8)
        A = SquareMatrix(random_strong_diag(rng, 6))
        s = extract_splitting(A, 2)
        op = build_step(s, "ggs")
        oracle = np.linalg.solve(op.m_part.toarray(), op.n_part.toarray())
        np.testing.assert_allclose(iteration_matrix(op), oracle, atol=1e-13)

    def test_identity_gives_zero_matrix(self):
        op = build_step(extract_splitting(SquareMatrix(np.eye(3)), 0), "gj")
        np.testing.assert_array_equal(iteration_matrix(op), np.zeros((3, 3)))

    def test_full_band_makes_gj_direct(self, spd3):
        s = extract_splitting(spd3, 2)
        op = build_step(s, "gj")
        assert np.max(np.abs(iteration_matrix(op))) == 0.0
        b = spd3.csr.toarray() @ np.ones(3)
        np.testing.assert_allclose(op.step(np.zeros(3), b), np.ones(3),
                                   rtol=1e-12)

    def test_dense_limit_enforced(self):
        A = assemble(46, "zero", layout=LAYOUT_BENCH).A  # order 2070
        op = build_step(extract_splitting(A, 1), "gj")
        with pytest.raises(ValueError, match="power"):
            iteration_matrix(op)

    def test_reduction_to_classical_methods_at_m_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            dense = random_strong_diag(rng, n)
            A = SquareMatrix(dense)
            s = extract_splitting(A, 0)
            omega = rng.uniform(0.2, 1.8)
            cases = [
                ("gj", None, build_step(s, "gj")),
                ("ggs", None, build_step(s, "ggs")),
                ("gsor", omega, build_step(s, "gsor", omega)),
            ]
            for name, om, op in cases:
                got = iteration_matrix(op)
                want = classical_iteration_matrix(dense, name, om)
                assert np.max(np.abs(got - want)) <= 1e-14

    def test_classical_sor_necessary_condition(self):
        # det(H_SOR) = (1-omega)^n forces rho >= |omega - 1|
        rng = np.random.default_rng(12)
        for omega in (2.0, 2.5, 3.0):
            for _ in range(5):
                n = int(rng.integers(2, 8))
                A = SquareMatrix(random_strong_diag(rng, n))
                op = build_step(extract_splitting(A, 0), "gsor", omega)
                rho = spectral_radius(iteration_matrix(op))
                assert rho >= abs(omega - 1.0) - 1e-12


@pytest.mark.parametrize("method, m, omega, source, factor", [
    ("ggs", 3, None, "random", PermutedLU),
    ("gsor", 1, 0.8, "random", PermutedLU),
    ("gj", 1, None, "symmetric", TridiagonalLDLT),
    ("gj", 1, None, "bench", TridiagonalLDLT),
    ("gsor", 1, 1.5, "bench", PermutedLU),
], ids=["ggs-superlu", "gsor-permuted", "gj-ldlt", "gj-ldlt-diagonal-n", "gsor-diagonal-n"])
def test_concurrent_apply_is_safe(method, m, omega, source, factor):
    # the prepared factorization is read-only; parallel step calls on one
    # operator must give the same iterates as a sequential run and leave
    # the callers' vectors as they were
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(14)
    if source == "bench":  # N by its diagonals, applied by dia_array @
        A = assemble(8, "negexp4xy", layout=LAYOUT_BENCH).A
    else:
        dense = random_strong_diag(rng, 40)
        if source == "symmetric":  # symmetric SDD with positive diagonal
            dense = dense + dense.T
            np.fill_diagonal(dense, 0.0)
            np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        A = SquareMatrix(dense)
    op = build_step(extract_splitting(A, m), method, omega)
    assert isinstance(op.lu, factor)
    assert isinstance(op.n_part, sp.dia_array) == (source == "bench")
    b = rng.normal(size=A.n)
    starts = [rng.normal(size=A.n) for _ in range(32)]
    copies = [x.copy() for x in starts]
    sequential = [op.step(x, b) for x in starts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda x: op.step(x, b), starts))
        solved = list(pool.map(op.solve_m, starts))
    for got, want in zip(threaded, sequential):
        np.testing.assert_array_equal(got, want)
    for x, copy in zip(starts, copies):
        np.testing.assert_array_equal(x, copy)
    for x, got in zip(starts, solved):
        np.testing.assert_array_equal(got, op.solve_m(x))


def random_spd_tridiagonal(rng, n):
    """Random symmetric, strictly diagonally dominant tridiagonal matrix with positive diagonal."""
    e = rng.uniform(-1.0, 1.0, size=n - 1)
    margin = np.abs(np.concatenate([e, [0.0]])) + np.abs(np.concatenate([[0.0], e]))
    d = margin + rng.uniform(0.01, 2.0, size=n)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestTridiagonalFactor:
    """An SPD tridiagonal M is factorized as LDL^T; every other M by SuperLU."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    def test_solve_m_matches_dense_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        dense_m = random_spd_tridiagonal(rng, n)
        # entries outside the band go to N and leave M as it is
        far = np.triu(rng.uniform(-0.1, 0.1, size=(n, n)), 2)
        op = build_step(extract_splitting(SquareMatrix(dense_m + far + far.T), 1), "gj")
        assert isinstance(op.lu, TridiagonalLDLT)
        cond = np.linalg.cond(dense_m)
        v = rng.standard_normal(n)
        want = np.linalg.solve(dense_m, v)
        assert np.linalg.norm(op.solve_m(v) - want) <= 1e-12 * cond * np.linalg.norm(want)
        V = rng.standard_normal((n, 3))
        W = np.linalg.solve(dense_m, V)
        got = op.solve_m(V)
        assert got.shape == (n, 3)
        assert np.linalg.norm(got - W) <= 1e-12 * cond * np.linalg.norm(W)
        np.testing.assert_allclose((op.lu.L @ op.lu.U).toarray(), dense_m, rtol=0,
                                   atol=1e-12 * np.abs(dense_m).max())

    @pytest.mark.parametrize("dense", [
        pytest.param([[4.0, -1.0, 0.0], [-2.0, 4.0, -1.0], [0.0, -1.0, 4.0]], id="non-symmetric"),
        pytest.param([[1.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 3.0]], id="indefinite"),
        pytest.param([[3.0]], id="order-1"),
    ])
    def test_refusals_fall_back_to_superlu(self, dense):
        dense = np.array(dense)
        m = min(1, dense.shape[0] - 1)
        op = build_step(extract_splitting(SquareMatrix(dense), m), "gj")
        assert isinstance(op.lu, SuperLU)
        v = np.arange(1.0, dense.shape[0] + 1)
        np.testing.assert_allclose(op.solve_m(v), np.linalg.solve(dense, v), rtol=1e-14)

    @pytest.mark.parametrize("method", ["gj", "ggs"])
    def test_singular_symmetric_tridiagonal_m(self, method):
        dense = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]])
        s = extract_splitting(SquareMatrix(dense), 1)
        with pytest.raises(FactorizationError, match=rf"method={method}, m=1"):
            build_step(s, method)


def assert_nested(order, start, stop, width):
    """``order`` lists [start, stop) with each separator of ``width`` consecutive
    indices after both of its halves; runs of at most 2 * width keep natural order."""
    np.testing.assert_array_equal(np.sort(order), np.arange(start, stop))
    if stop - start <= max(2 * width, 1):
        np.testing.assert_array_equal(order, np.arange(start, stop))
        return
    sep = order[-width:]
    np.testing.assert_array_equal(sep, np.arange(sep[0], sep[0] + width))
    assert start < sep[0] and sep[-1] < stop - 1
    rest = order[:-width]
    assert_nested(rest[rest < sep[0]], start, sep[0], width)
    assert_nested(rest[rest > sep[-1]], sep[-1] + 1, stop, width)


def scatter_max_dissection_order(splitting):
    """Reference for _dissection_order: block widths by np.maximum.at over the
    band entries, then the same recursion, without memoization."""
    bounds = splitting.blocks()
    coo = splitting.band.csr.tocoo()
    width = np.zeros(bounds.size - 1, dtype=np.intp)
    np.maximum.at(width, np.searchsorted(bounds, coo.row, side="right") - 1,
                  np.abs(coo.row - coo.col))

    def order(length, w):
        if length <= max(2 * w, 1):
            return np.arange(length)
        half = (length - w) // 2
        return np.concatenate([order(half, w), half + w + order(length - w - half, w),
                               half + np.arange(w)])

    return np.concatenate([start + order(length, w) for start, length, w in
                           zip(bounds[:-1], np.diff(bounds), width)])


class TestOrdering:
    """M is factorized in natural order unless that order fills its envelope;
    GGS and GSOR at m > 0 are then reordered by nested dissection."""

    @pytest.fixture(scope="class")
    def bench100(self):
        return assemble(100, "xplusy", layout=LAYOUT_BENCH).A  # order 9900

    @pytest.mark.parametrize("method, m, omega", [("gsor", 0, 1.5)])
    def test_natural_order_where_it_adds_no_fill(self, bench100, method, m, omega):
        op = build_at(bench100, method, m, omega)
        np.testing.assert_array_equal(op.lu.perm_c, np.arange(bench100.n))
        assert fill(op.lu) == fill(natural_lu(op))

    def test_ldlt_factor_for_gj_at_m_one(self, bench100):
        op = build_at(bench100, "gj", 1)
        assert isinstance(op.lu, TridiagonalLDLT)
        assert fill(op.lu) == fill(natural_lu(op))

    @pytest.mark.parametrize("method, omega", [("ggs", None), ("gsor", 1.5)])
    def test_fill_reducing_order_for_ggs_and_gsor(self, bench100, method, omega):
        op = build_at(bench100, method, 1, omega)
        assert isinstance(op.lu, PermutedLU)
        mmd = splu(sp.csc_matrix(op.m_part), permc_spec="MMD_AT_PLUS_A")
        assert fill(op.lu) <= 0.6 * fill(mmd)
        assert fill(op.lu) < fill(natural_lu(op))

    def test_same_fill_for_ggs_and_gsor_at_every_m(self):
        # the band of the bench grid holds only the tridiagonal line entries,
        # so m = 2 and m = 20 split off the same M as m = 1
        A = assemble(40, "negexp4xy", layout=LAYOUT_BENCH).A
        fills = {fill(build_at(A, method, m, omega).lu)
                 for m in (1, 2, 20) for method, omega in (("ggs", None), ("gsor", 1.5))}
        assert len(fills) == 1

    @pytest.mark.parametrize("A, m, width", [
        pytest.param(assemble(40, "zero", layout=LAYOUT_BENCH).A, 0, 0, id="bench-m0"),
        pytest.param(assemble(40, "zero", layout=LAYOUT_BENCH).A, 1, 1, id="bench-m1"),
        pytest.param(assemble(40, "zero", layout=LAYOUT_BENCH).A, 2, 1, id="bench-m2"),
        pytest.param(SquareMatrix(sp.diags_array(
            [-1.0, -1.0, -1.0, 7.0, -1.0, -1.0, -1.0], offsets=[-7, -2, -1, 0, 1, 2, 7],
            shape=(57, 57))), 2, 2, id="pentadiagonal-m2"),
    ])
    def test_dissection_order_puts_each_separator_after_its_halves(self, A, m, width):
        s = extract_splitting(A, m)
        perm = _dissection_order(s)
        np.testing.assert_array_equal(np.sort(perm), np.arange(A.n))
        bounds = s.blocks()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert_nested(perm[lo:hi], lo, hi, width)

    @pytest.mark.parametrize("length, width, want", [
        (10, 1, [0, 2, 3, 1, 5, 6, 8, 9, 7, 4]),
        (17, 2, [0, 1, 4, 5, 6, 2, 3, 9, 10, 11, 14, 15, 16, 12, 13, 7, 8]),
    ])
    def test_dissection_order_of_one_block(self, length, width, want):
        offsets = list(range(-width, width + 1))
        A = SquareMatrix(sp.diags_array([2.0 * width + 1.0 if k == 0 else -1.0 for k in offsets],
                                        offsets=offsets, shape=(length, length)))
        s = extract_splitting(A, width)
        np.testing.assert_array_equal(s.blocks(), [0, length])
        np.testing.assert_array_equal(_dissection_order(s), want)

    @pytest.mark.parametrize("source", [*LAYOUTS, "generators", "empty-blocks"])
    def test_dissection_order_matches_the_scatter_max_reference(self, source):
        rng = np.random.default_rng(21)
        if source in LAYOUTS:
            cases = [(assemble(12, g, layout=source).A, m) for g in ("zero", "expxy")
                     for m in (1, 2)]
        elif source == "generators":
            cases = [(gen(n, rng), int(rng.integers(0, n))) for gen in
                     (random_sdd_matrix, random_m_matrix, random_h_matrix) for n in (5, 17, 30)]
        else:  # rows 2, 5 and 6 hold no band entry; no entry follows rows 5 and 6
            dense = np.diag([4.0, 4.0, 0.0, 4.0, 4.0, 0.0, 0.0])
            dense[0, 1] = dense[1, 0] = dense[3, 4] = dense[4, 3] = -1.0
            dense[5, 0] = dense[0, 5] = dense[2, 4] = dense[6, 3] = -1.0
            cases = [(SquareMatrix(dense), 1)]
        for A, m in cases:
            s = extract_splitting(A, m)
            np.testing.assert_array_equal(_dissection_order(s), scatter_max_dissection_order(s))

    def test_two_point_blocks_keep_natural_order(self):
        n = 40
        pairs = sp.diags_array([np.tile([-1.0, 0.0], n // 2)[:-1]], offsets=[1], shape=(n, n))
        A = SquareMatrix(4.0 * sp.eye_array(n) + pairs + pairs.T - sp.eye_array(n, k=-2))
        s = extract_splitting(A, 1)
        assert s.lower.nnz > 0
        np.testing.assert_array_equal(s.blocks(), np.arange(0, n + 1, 2))
        np.testing.assert_array_equal(_dissection_order(s), np.arange(n))

    @pytest.mark.parametrize("method, omega", [("ggs", None), ("gsor", 1.5)])
    def test_iteration_matrix_matches_dense(self, method, omega):
        A = assemble(20, "negexp4xy", layout=LAYOUT_BENCH).A  # order 380
        op = build_at(A, method, 1, omega)
        assert isinstance(op.lu, PermutedLU)
        dense_m = op.m_part.toarray()
        want = np.linalg.solve(dense_m, op.n_part.toarray())
        err = np.linalg.norm(iteration_matrix(op) - want)
        assert err <= 1e-12 * np.linalg.cond(dense_m) * np.linalg.norm(want)

    def test_factor_is_lu_of_the_permuted_m_without_pivoting(self):
        A = assemble(20, "negexp4xy", layout=LAYOUT_BENCH).A
        op = build_at(A, "gsor", 1, 1.9)
        np.testing.assert_array_equal(op.lu.lu.perm_r, np.arange(A.n))
        want = op.m_part.toarray()[np.ix_(op.lu.perm, op.lu.perm)]
        np.testing.assert_allclose((op.lu.L @ op.lu.U).toarray(), want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("g_id", sorted(G_BUILTINS))
    def test_iteration_counts_match_natural_order_reference(self, g_id):
        problem = assemble(60, g_id, layout=LAYOUT_BENCH)
        A, b = problem.A, problem.b
        for method, m, omega in (("gsor", 0, 1.9), ("gsor", 1, 1.9), ("ggs", 1, None),
                                 ("gj", 1, None)):
            config = IterationConfig(method, m=m, omega=omega)
            report = solve(A, b, config)
            op = build_at(A, method, m, omega)
            reference = natural_lu(op)
            x = np.zeros(A.n)
            for k in range(1, config.max_iter + 1):
                x_next = reference.solve(op.n_part @ x + b)
                diff = np.linalg.norm(x_next - x)
                x = x_next
                if diff <= config.tol:
                    break
            assert report.converged
            assert report.iterations == k, (method, m)
            np.testing.assert_allclose(report.solution, x, rtol=0, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from((random_sdd_matrix, random_m_matrix, random_h_matrix)),
        st.integers(2, 30),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["gj", "ggs", "gsor"]),
        st.floats(0.01, 1.99),
        st.data(),
    )
    def test_solve_m_matches_dense_solve(self, generator, n, seed, method, omega, data):
        rng = np.random.default_rng(seed)
        A = generator(n, rng)
        m = data.draw(st.integers(0, n - 1), label="m")
        s = extract_splitting(A, m)
        band, lower = s.band.csr.toarray(), s.lower.csr.toarray()
        dense_m = {"gj": band, "ggs": band - lower, "gsor": band / omega - lower}[method]
        cond = np.linalg.cond(dense_m)
        assume(cond < 1e10)
        op = build_at(A, method, m, omega if method == "gsor" else None)
        v = rng.standard_normal(n)
        want = np.linalg.solve(dense_m, v)
        got = op.solve_m(v)
        assert np.linalg.norm(got - want) <= 1e-12 * cond * np.linalg.norm(want)


@pytest.mark.parametrize("n", [40, 100])
@pytest.mark.parametrize("g_id", sorted(G_BUILTINS))
def test_one_column_panels_keep_fill_and_solves(n, g_id):
    """Each factor equals a default-panel SuperLU of the same matrix and order."""
    A = assemble(n, g_id, layout=LAYOUT_BENCH).A
    v = np.random.default_rng(n).standard_normal(A.n)
    pairs = [(certify_m(A)[0], splu(sp.csc_array(A.csr), permc_spec="MMD_AT_PLUS_A"), np.arange(A.n))]
    for method, m, omega in (("gsor", 0, 1.5), ("ggs", 1, None), ("gsor", 1, 1.5)):
        op = build_at(A, method, m, omega)
        p = op.lu.perm if isinstance(op.lu, PermutedLU) else np.arange(A.n)
        reference = splu(sp.csc_matrix(op.m_part[p][:, p]), permc_spec="NATURAL")
        pairs.append((op.lu.lu if isinstance(op.lu, PermutedLU) else op.lu, reference, p))
    for factor, reference, p in pairs:
        assert fill(factor) == fill(reference)
        np.testing.assert_array_equal(factor.perm_c, reference.perm_c)
        np.testing.assert_array_equal(factor.perm_r, reference.perm_r)
        want = reference.solve(v[p])
        assert np.linalg.norm(factor.solve(v[p]) - want) <= 1e-12 * np.linalg.norm(want)
