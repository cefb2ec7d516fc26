import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.linalg import splu, spsolve

import gsolve.matrices
from gsolve import (
    IterationConfig,
    SquareMatrix,
    classify,
    comparison_matrix,
    extract_splitting,
    is_h_matrix,
    is_m_matrix,
    is_sdd,
    is_spd,
    is_z_matrix,
    solve,
)
from generators import random_h_matrix, random_m_matrix, random_sdd_matrix
from gsolve.matrices import MCertificate, certify_m, positive_witness
from gsolve.pde import G_BUILTINS, LAYOUT_BENCH, LAYOUT_SQUARE, assemble


@st.composite
def matrix_and_bandwidth(draw, max_n=7, elements=None):
    n = draw(st.integers(2, max_n))
    if elements is None:
        elements = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    arr = draw(hnp.arrays(np.float64, (n, n), elements=elements))
    m = draw(st.integers(0, n - 1))
    return SquareMatrix(arr), m


def _from_triples(n, rows, cols, vals):
    """SquareMatrix of 0-based (row, col, value) triples."""
    return SquareMatrix(sp.coo_array((vals, (rows, cols)), shape=(n, n)))


class TestSquareMatrix:
    def test_duplicate_entries_are_summed(self):
        A = _from_triples(2, [0, 0, 1], [0, 0, 0], [2.0, 3.0, -1.0])
        assert A.csr[0, 0] == 5.0
        assert A.csr[1, 0] == -1.0
        assert A.nnz == 2

    def test_zero_entries_dropped(self):
        A = _from_triples(2, [0, 1, 0, 1], [1, 1, 0, 0], [0.0, 1.0, 1.0, -1.0])
        assert A.nnz == 3
        assert A.csr[0, 1] == 0.0

    def test_cancelling_duplicates_dropped(self):
        A = _from_triples(2, [0, 0, 0], [1, 1, 0], [4.0, -4.0, 1.0])
        assert A.nnz == 1

    @given(matrix_and_bandwidth(), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.data())
    def test_non_finite_entries_rejected(self, case, bad, data):
        A, _ = case
        dense = A.csr.toarray()
        i = data.draw(st.integers(0, A.n - 1), label="i")
        j = data.draw(st.integers(0, A.n - 1), label="j")
        dense[i, j] = bad
        with pytest.raises(ValueError, match="finite"):
            SquareMatrix(dense)
        with pytest.raises(ValueError, match="finite"):
            _from_triples(A.n, [i], [j], [bad])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            SquareMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ValueError, match="matrix must be square"):
            SquareMatrix(sp.csr_array(np.ones((2, 3))))
        for bad in (np.ones((3, 4)), np.ones(3)):
            with pytest.raises(ValueError, match="must be square"):
                SquareMatrix(bad)

    @pytest.mark.parametrize("value, message", [
        (None, "^matrix has non-finite entries$"),  # a missing entry, read as NaN
        (5, r"^matrix must be square, got shape \(\)$"),
        (object(), "^matrix is not an array of real numbers"),
        ({}, "^matrix is not an array of real numbers"),
        ([[1.0, None], [None, 2.0]], "^matrix has non-finite entries$"),  # not diag(1, 2)
        ([["4", "-1"], ["-1", "4"]], "^matrix has string entries$"),  # not read as numbers
        ([[b"4", b"-1"], [b"-1", b"4"]], "^matrix has string entries$"),
        ([[4.0, "-1"], [None, 4.0]], "^matrix has string entries$"),
        ([[1.0, 2.0], [3.0]], "^matrix is not an array of real numbers: "),
    ], ids=["None", "5", "object", "dict", "missing-entries", "str", "bytes", "mixed", "ragged"])
    def test_non_array_or_missing_entries_rejected(self, value, message):
        with pytest.raises(ValueError, match=message):
            SquareMatrix(value)

    @pytest.mark.parametrize("build", [list, np.array, sp.csr_array, sp.coo_matrix],
                             ids=["list", "ndarray", "csr", "coo"])
    def test_complex_entries_rejected(self, build):
        # casting to float64 would drop the imaginary part and leave the identity
        for dense in ([[1 + 2j, 0], [0, 1]], np.eye(2, dtype=complex)):
            with pytest.raises(ValueError, match="^matrix has complex entries$"):
                SquareMatrix(build(dense))

    def test_constructor_takes_any_square_array(self):
        A = SquareMatrix(np.eye(3))
        assert A.n == 3
        assert (A.csr != SquareMatrix(sp.eye_array(3)).csr).nnz == 0
        # (0, 0) appears twice and (1, 0) is stored as an explicit zero
        coo = sp.coo_array(([1.0, 2.0, 0.0, 4.0], ([0, 0, 1, 1], [0, 0, 0, 1])), shape=(2, 2))
        assert (SquareMatrix(coo).csr != SquareMatrix([[3.0, 0.0], [0.0, 4.0]]).csr).nnz == 0

    def test_constructor_keeps_no_reference_to_its_argument(self):
        csr = sp.csr_array(np.eye(2))
        A = SquareMatrix(csr)
        csr.data[:] = 7.0
        assert (A.csr != SquareMatrix(np.eye(2)).csr).nnz == 0

    def test_order_zero_rejected_by_every_constructor(self):
        for build in (
            lambda: SquareMatrix(sp.csr_array((0, 0))),
            lambda: SquareMatrix(np.zeros((0, 0))),
            lambda: SquareMatrix(sp.eye_array(0)),
        ):
            with pytest.raises(ValueError, match="order must be positive, got 0"):
                build()

    def test_same_entries_and_transpose(self):
        A = SquareMatrix([[1.0, 2.0], [0.0, 3.0]])
        transpose = SquareMatrix(A.csr.T)
        assert transpose.csr[0, 1] == 0.0
        assert transpose.csr[1, 0] == 2.0

    def test_is_symmetric_is_exact(self):
        A = SquareMatrix([[1.0, 2.0], [2.0, 1.0]])
        assert A.is_symmetric()
        B = SquareMatrix([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
        assert not B.is_symmetric()


class TestExtractSplitting:
    def test_spd3_bandwidth_one(self, spd3):
        s = extract_splitting(spd3, 1)
        band = np.array([[410.0, -195.0, 0.0], [-195.0, 151.0, 112.0], [0.0, 112.0, 132.0]])
        assert np.array_equal(s.band.csr.toarray(), band)
        assert np.array_equal(s.lower.csr.toarray(), [[0.0] * 3, [0.0] * 3, [90.0, 0.0, 0.0]])
        assert (s.upper.csr != SquareMatrix(s.lower.csr.T).csr).nnz == 0
        assert (SquareMatrix(s.band.csr - s.lower.csr - s.upper.csr).csr != spd3.csr).nnz == 0

    def test_full_band_is_whole_matrix(self, lmat3):
        s = extract_splitting(lmat3, 2)
        assert (s.band.csr != lmat3.csr).nnz == 0
        assert s.lower.nnz == 0
        assert s.upper.nnz == 0

    def test_bandwidth_zero_is_classical_split(self, lmat3):
        s = extract_splitting(lmat3, 0)
        dense = lmat3.csr.toarray()
        assert np.array_equal(s.band.csr.toarray(), np.diag(np.diag(dense)))
        assert np.array_equal(s.lower.csr.toarray(), -np.tril(dense, -1))
        assert np.array_equal(s.upper.csr.toarray(), -np.triu(dense, 1))

    def test_random_dense_splits_exactly(self):
        rng = np.random.default_rng(7)
        dense = rng.uniform(-5, 5, size=(5, 5))
        A = SquareMatrix(dense)
        s = extract_splitting(A, 2)
        # independent entrywise recomputation of the three parts
        i, j = np.indices((5, 5))
        assert np.array_equal(s.band.csr.toarray(), np.where(np.abs(i - j) <= 2, dense, 0.0))
        assert np.array_equal(s.lower.csr.toarray(), np.where(i - j > 2, -dense, 0.0))
        assert np.array_equal(s.upper.csr.toarray(), np.where(j - i > 2, -dense, 0.0))
        assert (SquareMatrix(s.band.csr - s.lower.csr - s.upper.csr).csr != A.csr).nnz == 0

    def test_bandwidth_out_of_range(self, spd3):
        with pytest.raises(ValueError):
            extract_splitting(spd3, -1)
        with pytest.raises(ValueError):
            extract_splitting(spd3, 3)

    def test_non_integral_bandwidth_rejected(self, spd3):
        with pytest.raises(ValueError, match="m=1.5 is not an integer"):
            extract_splitting(spd3, 1.5)
        b = spd3.csr @ np.ones(3)
        with pytest.raises(ValueError, match="m=1.5 is not an integer"):
            solve(spd3, b, IterationConfig("gj", m=1.5))
        whole = extract_splitting(spd3, 1).band.csr
        assert (extract_splitting(spd3, 1.0).band.csr != whole).nnz == 0

    @settings(max_examples=60)
    @given(matrix_and_bandwidth())
    def test_reconstruction_and_band_structure(self, case):
        A, m = case
        s = extract_splitting(A, m)
        assert (SquareMatrix(s.band.csr - s.lower.csr - s.upper.csr).csr != A.csr).nnz == 0
        band, lower, upper = (p.csr.tocoo() for p in (s.band, s.lower, s.upper))
        assert np.all(np.abs(band.row - band.col) <= m)
        assert np.all(lower.row > lower.col + m)
        assert np.all(upper.col > upper.row + m)


class TestBandBlocks:
    @pytest.mark.parametrize("m", [1, 2, 20])
    @pytest.mark.parametrize("layout, lines", [(LAYOUT_BENCH, 39), (LAYOUT_SQUARE, 40)])
    def test_grid_lines_at_every_positive_m(self, layout, lines, m):
        A = assemble(40, "xplusy", layout=layout).A
        np.testing.assert_array_equal(extract_splitting(A, m).blocks(),
                                      np.arange(lines + 1) * 40)

    def test_single_points_at_m_zero(self):
        A = assemble(40, "xplusy", layout=LAYOUT_BENCH).A
        np.testing.assert_array_equal(extract_splitting(A, 0).blocks(), np.arange(A.n + 1))

    def test_band_entry_across_a_line_boundary_merges_the_lines(self):
        csr = sp.lil_array(assemble(40, "xplusy", layout=LAYOUT_BENCH).A.csr)
        csr[39, 40] = -0.5  # last point of line 0, first point of line 1
        blocks = extract_splitting(SquareMatrix(csr), 1).blocks()
        assert blocks.size - 1 == 38
        np.testing.assert_array_equal(blocks[:3], [0, 80, 120])

    @settings(max_examples=60)
    @given(matrix_and_bandwidth(max_n=9, elements=st.sampled_from([0.0, 0.0, 1.0])))
    def test_cuts_are_the_gaps_no_band_entry_spans(self, case):
        A, m = case
        s = extract_splitting(A, m)
        coo = s.band.csr.tocoo()
        spans = list(zip(np.minimum(coo.row, coo.col), np.maximum(coo.row, coo.col)))
        cuts = [g for g in range(1, A.n) if not any(lo < g <= hi for lo, hi in spans)]
        np.testing.assert_array_equal(s.blocks(), [0, *cuts, A.n])


class TestComparisonMatrix:
    def test_z_matrix_is_fixed_point(self, lmat3, spd3):
        assert comparison_matrix(lmat3) is lmat3
        assert comparison_matrix(spd3) is not spd3  # a positive off-diagonal entry

    def test_small_example(self):
        A = SquareMatrix([[4.0, 2.0], [-1.0, 3.0]])
        assert np.array_equal(
            comparison_matrix(A).csr.toarray(), np.array([[4.0, -2.0], [-1.0, 3.0]])
        )

    def test_idempotent_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 9)
            A = SquareMatrix(rng.uniform(-3, 3, size=(n, n)))
            once = comparison_matrix(A)
            assert (comparison_matrix(once).csr != once.csr).nnz == 0

    @settings(max_examples=40)
    @given(matrix_and_bandwidth())
    def test_fixed_point_iff_z_with_nonnegative_diagonal(self, case):
        A, _ = case
        dense = A.csr.toarray()
        z_form = -np.abs(dense)
        np.fill_diagonal(z_form, np.abs(np.diag(dense)))
        Z = SquareMatrix(z_form)
        assert comparison_matrix(Z) is Z


def _offdiag_row_sums(A: SquareMatrix) -> np.ndarray:
    """Each row's |off-diagonal| sum, added one CSR entry at a time in column order."""
    csr = A.csr
    sums = np.zeros(A.n)
    for i in range(A.n):
        for k in range(csr.indptr[i], csr.indptr[i + 1]):
            if csr.indices[k] != i:
                sums[i] += abs(csr.data[k])
    return sums


class TestPredicates:
    def test_sdd_hand_examples(self, lmat3):
        assert is_sdd(SquareMatrix([[3.0, 1.0, 1.0], [0.0, 2.0, -1.0], [1.0, 0.0, 5.0]]))
        assert not is_sdd(lmat3)  # row 1: 1 < 6
        assert not is_sdd(SquareMatrix(np.zeros((3, 3))))
        # row 0 is only weakly dominant: |a_00| = 2 equals its off-diagonal sum
        assert not is_sdd(SquareMatrix([[2.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]]))

    def test_l_matrix(self, lmat3, spd3):
        assert classify(lmat3).is_l
        assert classify(SquareMatrix(np.eye(4))).is_l
        assert not classify(spd3).is_l  # positive off-diagonal entry

    @pytest.mark.parametrize("corner", [0.0, -1.0], ids=["zero", "negative"])
    def test_l_matrix_needs_a_positive_diagonal(self, corner):
        A = SquareMatrix([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, corner]])
        report = classify(A)
        assert report.is_z and not report.is_l

    def test_z_matrix(self, lmat3, spd3):
        assert is_z_matrix(lmat3)
        assert not is_z_matrix(spd3)

    def test_m_matrix_simple(self):
        ok, witness = is_m_matrix(SquareMatrix([[2.0, -1.0], [-1.0, 2.0]]))
        assert ok
        np.testing.assert_allclose(witness, [1.0, 1.0])

    def test_l_but_not_m(self, lmat3):
        ok, witness = is_m_matrix(lmat3)
        assert not ok and witness is None

    def test_non_z_is_not_m(self, spd3):
        assert is_m_matrix(spd3) == (False, None)

    def test_singular_z_is_not_m(self):
        ok, _ = is_m_matrix(SquareMatrix([[1.0, -1.0], [-1.0, 1.0]]))
        assert not ok
        report = classify(SquareMatrix([[1.0, -1.0], [-1.0, 1.0]]))
        assert any("singular" in note for note in report.notes)

    def test_positive_witness_reasons(self):
        A = SquareMatrix([[2.0, -1.0], [-1.0, 2.0]])
        witness, note = positive_witness(A, [3.0, 3.0])
        np.testing.assert_array_equal(witness, [1.0, 1.0])
        assert note is None
        for x, reason in (([np.inf, 1.0], "singular"), ([0.0, 0.0], "singular"),
                          ([1.0, 0.0], "witness has nonpositive components"),
                          ([1.0, 1e-13], "witness image not strictly positive"),
                          ([1.0, 0.4], "witness image not strictly positive")):
            assert positive_witness(A, x) == (None, reason)

    def test_certificate_does_not_depend_on_the_units_of_an_unknown(self):
        A = assemble(20, "zero", layout=LAYOUT_BENCH).A
        scale = np.ones(A.n)
        scale[0] = 1e13
        for B in (SquareMatrix(A.csr @ sp.diags_array(scale)),
                  SquareMatrix(np.diag([1.0, 1e13]))):
            report = classify(B)
            assert report.is_m and report.is_h
            assert report.notes == ()

    def test_poisson_reaction_system_is_m(self):
        problem = assemble(5, "zero")
        ok, witness = is_m_matrix(problem.A)
        assert ok
        assert witness is not None and np.all(witness > 0)
        # dense inversion oracle on the 25x25 system
        assert np.all(np.linalg.inv(problem.A.csr.toarray()) >= -1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0),
           st.sampled_from([0.3, 0.6, 0.9, 0.97, 1.03, 1.1, 1.5, 3.0]))
    def test_m_verdict_matches_eigenvalue_test_on_shifted_matrices(
            self, n, seed, density, shift):
        # A Z-matrix is a nonsingular M-matrix iff every eigenvalue has a
        # positive real part; for s*I - B with B >= 0 the smallest real part is
        # s - rho(B), so s on either side of rho(B) decides the verdict.  A
        # cycle makes B irreducible, so that rho(B) is a simple eigenvalue.
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
        b[np.arange(n), (np.arange(n) + 1) % n] += rng.uniform(0.5, 1.0, n)
        rho_b = np.max(np.abs(np.linalg.eigvals(b)))
        a = shift * rho_b * np.eye(n) - b
        dense_verdict = bool(np.min(np.linalg.eigvals(a).real) > 0.0)
        assert dense_verdict == (shift > 1.0)
        assert is_m_matrix(SquareMatrix(a))[0] == dense_verdict

    def test_m_agrees_with_inverse_oracle_on_z_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 20))
            b = rng.uniform(0.0, 1.0, size=(n, n))
            rho_b = np.max(np.abs(np.linalg.eigvals(b)))
            # shift above rho(B) half the time (M-matrix), below otherwise
            if rng.uniform() < 0.5:
                s = rho_b * (1.0 + rng.uniform(0.05, 1.0))
            else:
                s = rho_b * rng.uniform(0.3, 0.95)
            A = SquareMatrix(s * np.eye(n) - b)
            ok, _ = is_m_matrix(A)
            dense = A.csr.toarray()
            if abs(np.linalg.det(dense)) > 1e-10:
                oracle = bool(np.all(np.linalg.inv(dense) >= -1e-12))
                assert ok == oracle

    def test_h_matrix(self, lmat3):
        assert not is_h_matrix(lmat3)  # its own comparison matrix, not M
        A = SquareMatrix([[4.0, 1.0], [2.0, 3.0]])
        assert is_h_matrix(A)
        # hand oracle: comparison [[4,-2],[-1,3]] has inverse [[0.3,0.1],[0.2,0.4]] >= 0
        inv = np.linalg.inv(comparison_matrix(A).csr.toarray())
        np.testing.assert_allclose(inv, [[0.3, 0.1], [0.2, 0.4]])

    def test_sdd_implies_h(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = rng.uniform(-1, 1, size=(n, n))
            np.fill_diagonal(a, 0.0)
            np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, n))
            A = SquareMatrix(a)
            offdiag = _offdiag_row_sums(A)
            assert is_sdd(A) == bool(np.all(np.abs(A.csr.diagonal()) > offdiag))
            assert is_sdd(A)
            assert is_h_matrix(A)
            # equality on one row, to the last bit of the column-order sum
            a[0, 0] = offdiag[0]
            assert not is_sdd(SquareMatrix(a))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 2**32 - 1), st.floats(1e-9, 1.0))
    def test_sdd_claims_hold_in_exact_row_sums(self, n, seed, margin):
        # Row i's diagonal lies within 2 ulps of its floating-point row sum, on
        # either side; every other row is dominant by its whole off-diagonal sum.
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        np.fill_diagonal(a, 0.0)
        sums = np.abs(a).sum(axis=1)
        i, signs = rng.integers(n), rng.choice([-1.0, 1.0], n)
        diagonal = 2.0 * sums
        diagonal[i] = sums[i] + rng.integers(-2, 3) * np.spacing(sums[i])
        np.fill_diagonal(a, signs * diagonal)
        if is_sdd(SquareMatrix(a)):
            for k, row in enumerate(a):
                off = sum(Fraction(abs(x)) for j, x in enumerate(row) if j != k)
                assert Fraction(abs(row[k])) > off, k
        # a relative margin far above roundoff is always seen
        a[i, i] = signs[i] * sums[i] * (1.0 + margin)
        assert is_sdd(SquareMatrix(a))

    def test_spd_fixtures(self, spd3, spd4):
        assert is_spd(spd3)
        assert is_spd(spd4)
        assert not is_spd(SquareMatrix([[1.0, 2.0], [2.0, 1.0]]))

    def test_spd_requires_exact_symmetry(self):
        A = SquareMatrix([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        assert not is_spd(A)

    def test_spd_agrees_with_eigenvalue_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 20))
            base = rng.uniform(-2, 2, size=(n, n))
            sym = (base + base.T) / 2.0
            if rng.uniform() < 0.5:
                sym += n * np.eye(n)  # push towards positive definite
            A = SquareMatrix(sym)
            oracle = bool(np.all(np.linalg.eigvalsh(sym) > 0))
            assert is_spd(A) == oracle

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_banded_spd_verdict_matches_dense_cholesky(self, n, seed, definite, data):
        kd = data.draw(st.integers(0, n - 1), label="kd")
        rng = np.random.default_rng(seed)
        base = rng.uniform(-1.0, 1.0, size=(n, n))
        sym = np.triu(np.tril(base + base.T, kd), -kd)
        # shift the spectrum so the smallest eigenvalue is +-[0.1, 1]
        target = rng.uniform(0.1, 1.0) * (1.0 if definite else -1.0)
        sym += (target - np.linalg.eigvalsh(sym)[0]) * np.eye(n)
        try:
            np.linalg.cholesky(sym)
            dense_verdict = True
        except np.linalg.LinAlgError:
            dense_verdict = False

        report = classify(SquareMatrix(sym))
        assert report.is_spd == dense_verdict == definite


def _negative_diagonal_z_matrix(n, rng):
    """A Z-matrix that is not an M-matrix although its comparison matrix is."""
    a = random_m_matrix(n, rng).csr.toarray()
    i = int(rng.integers(n))
    a[i, i] = -a[i, i]
    return SquareMatrix(a)


class TestClassify:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(
            (random_sdd_matrix, random_m_matrix, random_h_matrix, _negative_diagonal_z_matrix)
        ),
        st.integers(2, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_h_verdict_matches_comparison_certificate(self, generator, n, seed):
        A = generator(n, np.random.default_rng(seed))
        report = classify(A)
        want = is_m_matrix(comparison_matrix(A))[0]
        assert report.is_h == is_h_matrix(A) == want
        # every generator's comparison matrix is an M-matrix
        assert report.is_h
        if generator is _negative_diagonal_z_matrix:
            assert report.is_z and not report.is_m

    @pytest.mark.parametrize("g", sorted(G_BUILTINS))
    def test_minimum_degree_witness_at_bench_n60(self, g):
        A = assemble(60, g, layout=LAYOUT_BENCH).A
        with mock.patch.object(gsolve.matrices, "splu", wraps=splu) as spy:
            ok, w = is_m_matrix(A)
        assert spy.call_args.kwargs["permc_spec"] == "MMD_AT_PLUS_A"
        assert ok and np.all(w > 0) and np.all(A.csr @ w > 0)
        ref = spsolve(sp.csc_array(A.csr), np.ones(A.n), permc_spec="COLAMD")
        np.testing.assert_allclose(w, ref / np.abs(ref).max(), rtol=0, atol=1e-10)

    def test_only_the_m_certificate_keeps_a_factor(self):
        for g in sorted(G_BUILTINS):
            report = classify(assemble(20, g, layout=LAYOUT_BENCH).A)
            assert report.h is report.m and report.m.lu is not None
        coo = assemble(20, "zero", layout=LAYOUT_BENCH).A.csr.tocoo()
        flipped = SquareMatrix(sp.coo_array(
            (np.where(coo.row == coo.col, coo.data, -coo.data), (coo.row, coo.col)),
            shape=coo.shape))
        report = classify(flipped)
        assert report.is_h and not report.is_m
        assert report.h.lu is None

    def test_report_keeps_the_certificate_witness(self):
        A = assemble(40, "zero", layout=LAYOUT_BENCH).A
        lu, witness, note = certify_m(A)
        assert lu is not None and note is None
        np.testing.assert_array_equal(classify(A).m.witness, witness)

    def test_certificate_returns_a_factor_only_when_certified(self, lmat3, spd3):
        singular = SquareMatrix([[1.0, -1.0], [-1.0, 1.0]])
        # elimination without row pivoting meets a zero first pivot, a zero
        # Schur pivot and a negative pivot in these three
        bad_pivots = [SquareMatrix(d) for d in (
            [[0.0, -1.0], [-1.0, 0.0]],
            [[1.0, -1.0, 0.0], [-1.0, 1.0, -1.0], [0.0, -1.0, 1.0]],
            [[-1.0, 0.0], [0.0, 1.0]],
        )]
        for A, note in ((spd3, "not a Z-matrix"), (singular, "singular"),
                        *((B, "witness has nonpositive components") for B in (lmat3, *bad_pivots))):
            assert certify_m(A) == (None, None, note)
        lu, witness, _ = certify_m(SquareMatrix([[2.0, -1.0], [-1.0, 2.0]]))
        np.testing.assert_array_equal(lu.solve(np.ones(2)), [1.0, 1.0])
        np.testing.assert_array_equal(witness, [1.0, 1.0])

    def test_report_consistency(self, lmat3, spd3):
        for A in (lmat3, spd3, SquareMatrix(np.eye(4))):
            report = classify(A)
            if report.is_m:
                assert report.is_z
                w = report.m.witness
                assert w is not None and np.all(w > 0) and np.all(A.csr @ w > 0)
            if report.is_sdd:
                assert report.is_h
            assert report.is_h == is_h_matrix(A)

    def test_identity_belongs_everywhere(self):
        report = classify(SquareMatrix(np.eye(3)))
        assert report.is_sdd and report.is_z and report.is_l
        assert report.is_m and report.is_h and report.is_spd

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
    def test_spd_of_a_symmetric_z_matrix_is_its_m_verdict(self, n, seed, definite):
        # a symmetric Z-matrix is positive definite iff it is a nonsingular M-matrix
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        a = np.diag(rng.uniform(0.0, 2.0, n)) - np.triu(b, 1) - np.triu(b, 1).T
        # shift the spectrum so the smallest eigenvalue is +-[0.1, 1]
        target = rng.uniform(0.1, 1.0) * (1.0 if definite else -1.0)
        A = SquareMatrix(a + (target - np.linalg.eigvalsh(a)[0]) * np.eye(n))
        report = classify(A)
        assert report.is_spd == report.is_m == is_spd(A) == definite

    @pytest.mark.parametrize("corner", [-1.0, 1.0])
    def test_spd_of_far_entries_needs_no_band_storage(self, corner):
        n = 2000
        A = SquareMatrix(sp.diags_array([np.full(n, 4.0), [corner], [corner]],
                                        offsets=[0, n - 1, 1 - n]))
        tracemalloc.start()
        try:
            report = classify(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.is_spd is True
        assert report.is_m == (corner < 0)
        assert peak < 4 * 2**20  # an n^2 band would take 32 MB

    def test_classify_factorizes_a_bench_matrix_once(self):
        A = assemble(40, "zero", layout=LAYOUT_BENCH).A
        with mock.patch.object(gsolve.matrices, "splu", wraps=splu) as spy:
            report = classify(A)
        assert report.is_m and report.is_h and report.is_spd
        assert spy.call_count == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans())
    def test_spd_of_a_symmetric_m_matrix_comes_from_its_certificate(self, n, seed, definite):
        # s*I - S with S = (B + B^T)/2 >= 0 has smallest eigenvalue s - rho(S):
        # an M-matrix, hence SPD, above rho(S); below it the certificate fails
        # and the verdict comes from is_spd's pivots.
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 1.0, size=(n, n))
        sym = (b + b.T) / 2.0
        rho = np.linalg.eigvalsh(sym)[-1]
        shift = rng.uniform(1.05, 2.0) if definite else rng.uniform(0.3, 0.95)
        A = SquareMatrix(shift * rho * np.eye(n) - sym)
        with mock.patch.object(gsolve.matrices, "is_spd", wraps=is_spd) as spy:
            report = classify(A)
        assert spy.called != definite
        assert report.is_m == definite
        oracle = bool(np.linalg.eigvalsh(A.csr.toarray()).min() > 0.0)
        assert report.is_spd == is_spd(A) == oracle == definite

    def test_sdd_matrix_failing_h_certification_is_noted(self, monkeypatch):
        A = SquareMatrix([[3.0, 1.0], [1.0, 3.0]])  # SDD, not a Z-matrix
        note = "cross-check violated: SDD matrix failed H certification"
        assert note not in classify(A).notes
        comparison = comparison_matrix(A)

        def failing(B):
            if (B.csr != comparison.csr).nnz == 0:
                return MCertificate(None, None, "forced failure")
            return certify_m(B)

        monkeypatch.setattr(gsolve.matrices, "certify_m", failing)
        report = classify(A)
        assert report.is_sdd and not report.is_h
        assert note in report.notes

    def test_spd_undetermined_above_dense_limit(self):
        A = assemble(46, "zero", layout=LAYOUT_BENCH).A  # order 2070
        report = classify(A)
        assert report.is_m and report.is_spd is None
        assert any("dense limit" in note for note in report.notes)
