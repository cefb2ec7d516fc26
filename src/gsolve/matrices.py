"""Sparse square matrices, banded splittings, and matrix-class certification.

Matrices are stored as 0-based CSR.  All types here are immutable after
construction and safe to share across threads; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

#: Fixed largest order for an explicit iteration matrix (``iteration_matrix``,
#: the CLI's dense ``rho``, which needs ``--power`` above it).  ``classify``
#: also reports SPD as undetermined above it, although a certified M-matrix
#: needs only the symmetry scan: the benchmark's recorded verdicts at order
#: 22 350 (``perfbench/workloads.py``) pin that output.
DEFAULT_DENSE_LIMIT = 2000

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

    ``SquareMatrix(array)`` is the only constructor.  It takes any 2-D array
    that ``scipy.sparse.csr_array`` accepts (nested lists, dense, COO, CSR,
    ...) and stores a float64 CSR copy with duplicate coordinates summed
    (Matrix Market convention), zeros dropped and indices sorted.  It rejects
    a non-square array, order 0 and NaN or infinite entries, so every
    instance has a positive order and finite, nonzero entries, one per
    coordinate.  The identity is ``SquareMatrix(sp.eye_array(n))`` and the
    dense form ``A.csr.toarray()``.
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

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

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

    def blocks(self) -> np.ndarray:
        """Bounds of the diagonal blocks of the band: block k is [b[k], b[k+1]).

        The blocks are the maximal index runs that no band entry crosses:
        i is a cut when no band entry (r, c) has min(r, c) <= i < max(r, c).
        On both PDE grid layouts they are the grid lines at every m >= 1, and
        single points at m = 0.
        """
        n = self.band.n
        coo = self.band.csr.tocoo()
        lo, hi = np.minimum(coo.row, coo.col), np.maximum(coo.row, coo.col)
        # cover[i] counts the band entries that span the gap between i and i + 1
        cover = np.cumsum(np.bincount(lo, minlength=n) - np.bincount(hi, minlength=n))
        cuts = np.flatnonzero(cover[:-1] == 0) + 1
        return np.concatenate(([0], cuts, [n]))


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


def is_sdd(A: SquareMatrix) -> bool:
    """Strict row diagonal dominance: |a_ii| > sum of |a_ij|, j != i."""
    coo = A.csr.tocoo()
    off = coo.row != coo.col
    offdiag = np.bincount(coo.row[off], weights=np.abs(coo.data[off]), minlength=A.n)
    return bool(np.all(np.abs(A.csr.diagonal()) > offdiag))


def is_z_matrix(A: SquareMatrix) -> bool:
    """All off-diagonal entries nonpositive."""
    coo = A.csr.tocoo()
    off = coo.row != coo.col
    return bool(np.all(coo.data[off] <= 0.0))


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


class MCertificate(NamedTuple):
    """:func:`certify_m`'s (factor, witness, note)."""

    lu: SuperLU | None
    witness: np.ndarray | None
    note: str | None


def certify_m(A: SquareMatrix) -> MCertificate:
    """Nonsingular M-matrix certificate of A.

    Factorizes A by one sparse LU without row pivoting (:func:`_unpivoted_lu`)
    and solves A x = e (all-ones) with it.  For a Z-matrix, x strictly
    positive (see :func:`positive_witness`) is equivalent to A being a
    nonsingular M-matrix, and (x, Ax = e) is then a storable witness pair;
    the witness is scaled to unit max-norm.  A certified A keeps its SuperLU
    factor in the certificate, which the regular-splitting radius reuses; any
    other A gets (None, None, the reason).

    A Z-matrix is a nonsingular M-matrix iff elimination without pivoting
    meets only positive pivots, and on an M-matrix that elimination is
    stable (Funderlic & Plemmons, Linear Algebra Appl. 41, 1981); a poor
    pivot on any other input can only fail the witness test.  Rows follow
    the column order, so the LU keeps that order's fill.
    """
    if not is_z_matrix(A):
        return MCertificate(None, None, "not a Z-matrix")
    lu = _unpivoted_lu(A)
    if lu is None:
        return MCertificate(None, None, "singular")
    witness, note = positive_witness(A, lu.solve(np.ones(A.n)))
    return MCertificate(None if witness is None else lu, witness, note)


def positive_witness(A: SquareMatrix, x) -> tuple[np.ndarray | None, str | None]:
    """Check a computed solution x of A x = e as an M-matrix witness.

    Accepts w = x / max|x| when w > 0 and fl(A w) > 2 gamma_k fl(|A| w),
    with gamma_k = k u / (1 - k u), u = 2^-53 and k the longest row's entry
    count: then A w > 0 exactly (Higham, 2nd ed., ch. 3), which certifies a
    Z-matrix as a nonsingular M-matrix (Berman & Plemmons, ch. 6), whatever
    the units of an unknown.  A row scaled 1e14 or more times the others is
    refused.  Returns (w, None) or (None, the reason it fails).
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        return None, "singular"
    scale = np.abs(x).max()
    if scale == 0.0:
        return None, "singular"
    witness = x / scale
    if np.min(witness) <= 0.0:
        return None, "witness has nonpositive components"
    csr = A.csr
    ku = np.diff(csr.indptr).max() * 2.0**-53
    magnitude = sp.csr_array((np.abs(csr.data), csr.indices, csr.indptr), shape=csr.shape)
    if not np.all(csr @ witness > 2.0 * ku / (1.0 - ku) * (magnitude @ witness)):
        return None, "witness image not strictly positive"
    return witness, None


def is_m_matrix(A: SquareMatrix) -> tuple[bool, np.ndarray | None]:
    """Nonsingular M-matrix test; returns (verdict, positive witness or None)."""
    witness = certify_m(A).witness
    return witness is not None, witness


def is_h_matrix(A: SquareMatrix) -> bool:
    """True iff the comparison matrix is a nonsingular M-matrix."""
    return certify_m(comparison_matrix(A)).witness is not None


def is_spd(A: SquareMatrix) -> bool:
    """Exact symmetry plus only positive pivots in :func:`_unpivoted_lu`.

    A symmetric matrix is positive definite iff elimination without
    pivoting meets only positive pivots (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., SIAM 2002, ch. 10).  A zero pivot makes
    SuperLU swap a row, so it reads as "not SPD".  Symmetry is exact
    equality of stored entries, not tolerance-based; nearly-symmetric inputs
    are rejected on purpose.
    """
    lu = _unpivoted_lu(A) if A.is_symmetric() else None
    return (lu is not None and np.array_equal(lu.perm_r, lu.perm_c)
            and bool(np.all(lu.U.diagonal() > 0.0)))


@dataclass(frozen=True)
class ClassificationReport:
    """Class memberships with their certificates.

    ``m`` and ``h`` are the :func:`certify_m` certificates of A and of its
    comparison matrix, one object when A is a Z-matrix with nonnegative
    diagonal; a separate ``h`` keeps no factor.  ``is_spd`` is ``None``
    (undetermined) above order ``DEFAULT_DENSE_LIMIT``; the other predicates
    are always decided.
    """

    is_sdd: bool
    is_z: bool
    is_l: bool
    is_spd: bool | None
    m: MCertificate
    h: MCertificate
    notes: tuple[str, ...]

    @property
    def is_m(self) -> bool:
        return self.m.witness is not None

    @property
    def is_h(self) -> bool:
        return self.h.witness is not None


def classify(A: SquareMatrix) -> ClassificationReport:
    """Run every class predicate and collect certificates and notes.

    SPD is decided up to order ``DEFAULT_DENSE_LIMIT``: a certified M-matrix
    is SPD iff it is symmetric (Berman & Plemmons, ch. 6), any other A by :func:`is_spd`.
    """
    m = certify_m(A)
    z = is_z_matrix(A)
    diag = A.csr.diagonal()
    # a Z-matrix with nonnegative diagonal is its own comparison matrix
    h = (m if z and np.all(diag >= 0.0)
         else certify_m(comparison_matrix(A))._replace(lu=None))
    notes = [f"{name}: {c.note}" for name, c in (("m", m), ("h (comparison matrix)", h))
             if c.note]

    spd: bool | None = None
    if A.n <= DEFAULT_DENSE_LIMIT:
        spd = A.is_symmetric() if m.witness is not None else is_spd(A)
    else:
        notes.append(
            f"spd: undetermined, order {A.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}"
        )

    sdd = is_sdd(A)
    if sdd and h.witness is None:
        notes.append("cross-check violated: SDD matrix failed H certification")

    return ClassificationReport(
        is_sdd=sdd,
        is_z=z,
        is_l=z and bool(np.all(diag > 0.0)),
        is_spd=spd,
        m=m,
        h=h,
        notes=tuple(notes),
    )
