"""Sparse square matrices, banded splittings, and matrix-class certification.

Matrices are stored as 0-based CSR.  All types here are immutable after
construction and safe to share across threads; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

#: Fixed largest order for an explicit iteration matrix (``iteration_matrix``,
#: the CLI's dense ``rho``, which needs ``--power`` above it).  ``classify``
#: also reports SPD as undetermined above it, although its SPD test costs no
#: more than the LU ``certify_m`` already makes: the benchmark's recorded
#: verdicts at order 22 350 (``perfbench/workloads.py``) pin that output.
DEFAULT_DENSE_LIMIT = 2000

#: Smallest admissible component of an M-matrix witness after scaling the
#: witness to unit max-norm.  Direct solves carry roundoff, so demanding
#: plain positivity would be too brittle.
WITNESS_TOL = 1e-12

#: SuperLU panel width (columns factorized together) for every sparse LU in
#: the package.  Our A and M hold 3-5 entries per column, too few for the
#: default panel of 10 to pay.  One column gives the same fill and
#: permutations and equal solves to roundoff, with 15-40 % faster
#: factorizations and 35-70 % less work memory: on the 22 350-unknown
#: bench grid, A under minimum degree took 64-67 ms instead of 76-94 ms and
#: 12.2 MB instead of 18.7 MB, GSOR's m = 1 M took 9 ms instead of 14-15 ms,
#: and SOR's M 2.7 MB instead of 9.2 MB (2 vCPUs, 1 BLAS thread).
SPLU_PANEL_SIZE = 1


@dataclass(frozen=True, eq=False)
class SquareMatrix:
    """Real n-by-n matrix in sparse CSR form.

    The constructor takes any 2-D array that ``scipy.sparse.csr_array``
    accepts (dense, COO, CSR, ...) and stores a float64 CSR copy with
    duplicate coordinates summed (Matrix Market convention), zeros dropped
    and indices sorted.  It rejects a non-square array, order 0 and NaN or
    infinite entries, so every instance has a positive order and finite,
    nonzero entries, one per coordinate.
    """

    csr: sp.csr_array

    def __post_init__(self) -> None:
        csr = sp.csr_array(self.csr, dtype=np.float64, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if csr.ndim != 2 or csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        if csr.shape[0] < 1:
            raise ValueError(f"order must be positive, got {csr.shape[0]}")
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix entries must be finite, got NaN or inf")
        object.__setattr__(self, "csr", csr)

    @classmethod
    def from_dense(cls, arr) -> "SquareMatrix":
        return cls(np.asarray(arr, dtype=np.float64))

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls(sp.eye_array(n, format="csr"))

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def same_entries(self, other: "SquareMatrix") -> bool:
        """Exact equality of stored values (bitwise, no tolerance)."""
        if self.n != other.n:
            return False
        a, b = self.csr, other.csr
        return (
            np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )

    def is_symmetric(self) -> bool:
        """Exact symmetry of stored entries, without tolerance."""
        return (self.csr != self.csr.T).nnz == 0


@dataclass(frozen=True, eq=False)
class BandedSplitting:
    """Band/outside-band decomposition of a square matrix.

    ``band`` keeps the entries with |i - j| <= m.  ``lower`` and ``upper``
    hold the strictly-outside-band lower and upper entries *negated*, so

        band - lower - upper == source matrix   (exactly, entry by entry)

    and the step formulas combine the three parts with plain ``+``/``-``
    without further sign bookkeeping.  m = 0 reduces to the classical
    diagonal / strict-triangle decomposition.
    """

    m: int
    band: SquareMatrix
    lower: SquareMatrix
    upper: SquareMatrix

    @property
    def n(self) -> int:
        return self.band.n

    def reassemble(self) -> SquareMatrix:
        """The original matrix, reconstructed as band - lower - upper."""
        return SquareMatrix(self.band.csr - self.lower.csr - self.upper.csr)

    def blocks(self) -> np.ndarray:
        """Bounds of the diagonal blocks of the band: block k is [b[k], b[k+1]).

        The blocks are the maximal index runs that no band entry crosses:
        i is a cut when no band entry (r, c) has min(r, c) <= i < max(r, c).
        On both PDE grid layouts they are the grid lines at every m >= 1, and
        single points at m = 0.
        """
        coo = self.band.csr.tocoo()
        lo, hi = np.minimum(coo.row, coo.col), np.maximum(coo.row, coo.col)
        # cover[i] counts the band entries that span the gap between i and i + 1
        cover = np.cumsum(np.bincount(lo, minlength=self.n) - np.bincount(hi, minlength=self.n))
        cuts = np.flatnonzero(cover[:-1] == 0) + 1
        return np.concatenate(([0], cuts, [self.n]))


def require_integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is a whole number."""
    if isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name}={value} is not an integer")


def extract_splitting(A: SquareMatrix, m: int) -> BandedSplitting:
    """Split A into band part and negated outside-band triangles.

    m is the half-bandwidth: the band part has width 2m + 1.  Requires an
    integral m with 0 <= m <= n - 1.
    """
    m = require_integer("half-bandwidth m", m)
    if not 0 <= m <= A.n - 1:
        raise ValueError(f"half-bandwidth m={m} outside [0, {A.n - 1}]")
    coo = A.csr.tocoo()
    diff = coo.row.astype(np.int64) - coo.col.astype(np.int64)

    def part(mask: np.ndarray, negate: bool) -> SquareMatrix:
        data = -coo.data[mask] if negate else coo.data[mask]
        rows, cols = coo.row[mask], coo.col[mask]
        return SquareMatrix(sp.coo_array((data, (rows, cols)), shape=(A.n, A.n)))

    return BandedSplitting(
        m=m,
        band=part(np.abs(diff) <= m, negate=False),
        lower=part(diff > m, negate=True),
        upper=part(-diff > m, negate=True),
    )


def comparison_matrix(A: SquareMatrix) -> SquareMatrix:
    """|diagonal|, negated absolute off-diagonal: the associated Z-matrix.

    Idempotent, and exactly the identity map on Z-matrices with nonnegative
    diagonal.
    """
    coo = A.csr.tocoo()
    on_diag = coo.row == coo.col
    data = np.where(on_diag, np.abs(coo.data), -np.abs(coo.data))
    return SquareMatrix(sp.coo_array((data, (coo.row, coo.col)), shape=(A.n, A.n)))


# -- class predicates --------------------------------------------------


def _offdiag_abs_rowsums(A: SquareMatrix) -> np.ndarray:
    coo = A.csr.tocoo()
    off = coo.row != coo.col
    sums = np.zeros(A.n)
    np.add.at(sums, coo.row[off], np.abs(coo.data[off]))
    return sums


def is_sdd(A: SquareMatrix) -> bool:
    """Strict row diagonal dominance: |a_ii| > sum of |a_ij|, j != i."""
    diag = np.abs(A.csr.diagonal())
    return bool(np.all(diag > _offdiag_abs_rowsums(A)))


def is_z_matrix(A: SquareMatrix) -> bool:
    """All off-diagonal entries nonpositive."""
    coo = A.csr.tocoo()
    off = coo.row != coo.col
    return bool(np.all(coo.data[off] <= 0.0))


def is_l_matrix(A: SquareMatrix) -> bool:
    """Strictly positive diagonal and nonpositive off-diagonal."""
    return is_z_matrix(A) and bool(np.all(A.csr.diagonal() > 0.0))


def _unpivoted_lu(A: SquareMatrix) -> SuperLU | None:
    """Sparse LU of A without row pivoting; None when A is exactly singular.

    Columns are ordered by minimum degree on A^T + A, which suits the
    structurally symmetric PDE matrices better than the default COLAMD
    (Davis, Direct Methods for Sparse Linear Systems, SIAM 2006, ch. 7), and
    factorized one at a time (``SPLU_PANEL_SIZE``).  With
    ``diag_pivot_thresh=0`` the rows follow the column order: SuperLU swaps a
    row only at a zero pivot.
    """
    try:
        return splu(sp.csc_array(A.csr), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, panel_size=SPLU_PANEL_SIZE)
    except RuntimeError:
        return None


def _positive_pivots(lu: SuperLU | None) -> bool:
    """An elimination that swapped no row and met only positive pivots."""
    return (lu is not None and np.array_equal(lu.perm_r, lu.perm_c)
            and bool(np.all(lu.U.diagonal() > 0.0)))


def certify_m(A: SquareMatrix) -> tuple[SuperLU | None, np.ndarray | None, str | None]:
    """Nonsingular M-matrix certificate: (factor, witness, note).

    Factorizes A by one sparse LU without row pivoting (:func:`_unpivoted_lu`)
    and solves A x = e (all-ones) with it.  For a Z-matrix, x strictly
    positive (see :func:`positive_witness`) is equivalent to A being a
    nonsingular M-matrix, and (x, Ax = e) is then a storable witness pair;
    the witness is scaled to unit max-norm.  A certified A returns (its
    SuperLU factor, the witness, None), which the regular-splitting radius
    and the SPD test reuse; any other A returns (None, None, the reason).

    A Z-matrix is a nonsingular M-matrix iff elimination without pivoting
    meets only positive pivots, and on an M-matrix that elimination is
    stable (Funderlic & Plemmons, Linear Algebra Appl. 41, 1981); a poor
    pivot on any other input can only fail the witness test.  Rows follow
    the column order, so the LU keeps that order's fill.
    """
    if not is_z_matrix(A):
        return None, None, "not a Z-matrix"
    lu = _unpivoted_lu(A)
    if lu is None:
        return None, None, "singular"
    witness, note = positive_witness(A, lu.solve(np.ones(A.n)))
    return (None if witness is None else lu), witness, note


def positive_witness(A: SquareMatrix, x) -> tuple[np.ndarray | None, str | None]:
    """Check a computed solution x of A x = e as an M-matrix witness.

    For a Z-matrix A, a finite x that is strictly positive after scaling to
    unit max-norm (every component above ``WITNESS_TOL``) and whose image
    A x is strictly positive certifies A as a nonsingular M-matrix.  Returns
    (scaled witness, None) or (None, the reason it fails).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        return None, "singular"
    scale = np.abs(x).max()
    if scale == 0.0:
        return None, "singular"
    witness = x / scale
    if np.min(witness) <= WITNESS_TOL:
        return None, "witness has nonpositive components"
    if not np.all(A.csr @ witness > 0.0):
        return None, "witness image not strictly positive"
    return witness, None


def is_m_matrix(A: SquareMatrix) -> tuple[bool, np.ndarray | None]:
    """Nonsingular M-matrix test; returns (verdict, positive witness or None)."""
    witness = certify_m(A)[1]
    return witness is not None, witness


def is_h_matrix(A: SquareMatrix) -> bool:
    """True iff the comparison matrix is a nonsingular M-matrix."""
    return certify_m(comparison_matrix(A))[1] is not None


def is_spd(A: SquareMatrix) -> bool:
    """Exact symmetry plus only positive pivots in :func:`_unpivoted_lu`.

    A symmetric matrix is positive definite iff elimination without
    pivoting meets only positive pivots (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., SIAM 2002, ch. 10).  A zero pivot makes
    SuperLU swap a row, so it reads as "not SPD".  Symmetry is exact
    equality of stored entries, not tolerance-based; nearly-symmetric inputs
    are rejected on purpose.
    """
    return A.is_symmetric() and _positive_pivots(_unpivoted_lu(A))


@dataclass(frozen=True)
class ClassificationReport:
    """Class memberships with certification witnesses.

    ``is_spd`` is ``None`` (undetermined) when the order exceeds
    ``DEFAULT_DENSE_LIMIT``; the scan- and solve-based predicates are always
    decided.
    """

    is_sdd: bool
    is_z: bool
    is_l: bool
    is_m: bool
    is_h: bool
    is_spd: bool | None
    m_witness: np.ndarray | None
    notes: tuple[str, ...]


def classify(A: SquareMatrix) -> ClassificationReport:
    """Run every class predicate and collect witnesses and notes.

    The SPD test runs up to order ``DEFAULT_DENSE_LIMIT`` and reads the
    pivots of ``certify_m``'s factor of A when there is one.
    """
    notes: list[str] = []
    sdd = is_sdd(A)
    z = is_z_matrix(A)
    l_ok = is_l_matrix(A)
    # the factor is dropped after the SPD test: the report keeps the witness
    lu, m_witness, m_note = certify_m(A)
    m_ok = m_witness is not None
    if m_note:
        notes.append(f"m: {m_note}")
    # a Z-matrix with nonnegative diagonal is its own comparison matrix
    h_ok, h_note = m_ok, m_note
    if not (z and np.all(A.csr.diagonal() >= 0.0)):
        h_witness, h_note = certify_m(comparison_matrix(A))[1:]
        h_ok = h_witness is not None
    if h_note:
        notes.append(f"h (comparison matrix): {h_note}")

    spd: bool | None = None
    if A.n <= DEFAULT_DENSE_LIMIT:
        spd = A.is_symmetric() and _positive_pivots(lu if lu is not None else _unpivoted_lu(A))
    else:
        notes.append(
            f"spd: undetermined, order {A.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}"
        )

    if sdd and not h_ok:
        notes.append("cross-check violated: SDD matrix failed H certification")

    return ClassificationReport(
        is_sdd=sdd,
        is_z=z,
        is_l=l_ok,
        is_m=m_ok,
        is_h=h_ok,
        is_spd=spd,
        m_witness=m_witness,
        notes=tuple(notes),
    )
