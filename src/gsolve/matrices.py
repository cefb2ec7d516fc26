"""Sparse square matrices, banded splittings, and matrix-class certification.

Matrices are stored as 0-based CSR.  All types here are immutable after
construction and safe to share across threads; every operation is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

#: Fixed largest order for an explicit iteration matrix (``iteration_matrix``,
#: the CLI's dense ``rho``, which takes the ``--power`` route above it).  ``classify``
#: also reports SPD as undetermined above it, although a certified H-matrix
#: with a positive diagonal needs only the symmetry scan: the benchmark's
#: recorded verdicts at order 22 350 (``perfbench/workloads.py``) pin that output.
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

    ``SquareMatrix(array)`` is the only constructor.  It takes a scipy sparse
    array or matrix, or anything numpy reads as a 2-D float64 array (nested
    lists, dense), and stores a float64 CSR copy with duplicate coordinates
    summed (Matrix Market convention), zeros dropped and indices sorted.  It
    rejects a non-array, a complex or non-square array, order 0 and string,
    NaN, infinite or missing (``None``) entries, so every instance has a positive
    order and finite, nonzero entries, one per coordinate.  The identity is
    ``SquareMatrix(sp.eye_array(n))`` and the dense form ``A.csr.toarray()``.
    """

    csr: sp.csr_array

    def __post_init__(self) -> None:
        array = self.csr if sp.issparse(self.csr) else require_real_array("matrix", self.csr)
        if np.iscomplexobj(array):  # sparse; the float64 cast would drop the imaginary part
            raise ValueError("matrix has complex entries")
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError(f"matrix must be square, got shape {array.shape}")
        csr = sp.csr_array(array, dtype=np.float64, copy=True)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        if csr.shape[0] < 1:
            raise ValueError(f"order must be positive, got {csr.shape[0]}")
        require_real_array("matrix", csr.data)  # a sparse input's NaN or inf, or an overflowed sum
        object.__setattr__(self, "csr", csr)

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

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


def require_integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int; ValueError unless a whole number, not a bool, ``>= low`` if given."""
    if isinstance(value, bool) or not (isinstance(value, Integral) or isinstance(
            value, (float, np.floating)) and float(value).is_integer()):
        raise ValueError(f"{name}={value} is not an integer")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


def require_real_array(name: str, value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``value`` as a finite float64 array, of ``shape`` if given; a float64 array is not copied.

    ValueError if ``value`` is unreadable or has complex, string, NaN, inf
    or missing (``None``) entries, or another shape.
    """
    try:
        array = np.asarray(value)
    except ValueError as err:  # a ragged sequence
        raise ValueError(f"{name} is not an array of real numbers: {err}") from None
    if np.iscomplexobj(array):
        raise ValueError(f"{name} has complex entries")
    if array.dtype.kind in "SU" or array.dtype == object and any(
            isinstance(x, (str, bytes)) for x in array.flat):
        raise ValueError(f"{name} has string entries")  # the float64 cast would read "4" as 4.0
    try:
        array = array.astype(np.float64, copy=False)
    except TypeError as err:  # object(), {}, a sequence holding a non-number
        raise ValueError(f"{name} is not an array of real numbers: {err}") from None
    if shape is not None and array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has non-finite entries")
    return array


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
    """|diagonal|, negated absolute off-diagonal: the associated Z-matrix <A>.

    Idempotent, and exactly the identity map on Z-matrices with nonnegative
    diagonal, for which it returns A itself.
    """
    coo = A.csr.tocoo()
    on_diag = coo.row == coo.col
    data = np.where(on_diag, np.abs(coo.data), -np.abs(coo.data))
    if np.array_equal(data, coo.data):
        return A
    return SquareMatrix(sp.coo_array((data, (coo.row, coo.col)), shape=(A.n, A.n)))


# -- class predicates --------------------------------------------------


def is_sdd(A: SquareMatrix) -> bool:
    """Strict row diagonal dominance, |a_ii| > sum of |a_ij| over j != i, decided exactly:
    <A> 1 > 0 (:func:`comparison_matrix`) by the sign test of the M and H certificates,
    :func:`positive_witness`.  A row within 2 gamma_k of weak dominance is not SDD."""
    return positive_witness(comparison_matrix(A), np.ones(A.n))[0] is not None


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
    the witness is scaled to unit max-norm.  If x fails but e passes, A e > 0
    exactly proves the same (Berman & Plemmons, ch. 6), so an SDD <A> is always
    certified, with witness e.  A certified A keeps its SuperLU factor, if any,
    in the certificate, which the regular-splitting radius reuses; any
    other A gets (None, None, the reason).

    A Z-matrix is a nonsingular M-matrix iff elimination without pivoting
    meets only positive pivots, and on an M-matrix that elimination is
    stable (Funderlic & Plemmons, Linear Algebra Appl. 41, 1981); a poor
    pivot on any other input can only fail the witness test.  Rows follow
    the column order, so the LU keeps that order's fill.
    """
    if not is_z_matrix(A):
        return MCertificate(None, None, "not a Z-matrix")
    lu, ones = _unpivoted_lu(A), np.ones(A.n)
    witness, note = (None, "singular") if lu is None else positive_witness(A, lu.solve(ones))
    if witness is None and positive_witness(A, ones)[0] is not None:
        witness, note = ones, None  # A e > 0 exactly: A is SDD
    return MCertificate(None if witness is None else lu, witness, note)


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the relative error bound
    of a k-term sum or dot product in any order (Higham, 2nd ed., ch. 3)."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def positive_witness(A: SquareMatrix, x) -> tuple[np.ndarray | None, str | None]:
    """Check a computed solution x of A x = e as an M-matrix witness.

    Accepts w = x / max|x| when w > 0 and fl(A w) > 2 gamma_k fl(|A| w)
    (:func:`gamma`, k the longest row's entry count): then A w > 0 exactly,
    which certifies a Z-matrix as a nonsingular M-matrix (Berman & Plemmons,
    ch. 6), whatever the units of an unknown.  A row scaled 1e14 or more times the others
    is refused, unless strictly dominant: :func:`certify_m` then tries e.  Returns
    (w, None) or (None, the reason it fails).
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
    slack = 2.0 * gamma(np.diff(csr.indptr).max())
    magnitude = sp.csr_array((np.abs(csr.data), csr.indices, csr.indptr), shape=csr.shape)
    if not np.all(csr @ witness > slack * (magnitude @ witness)):
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
    comparison matrix, one object when :func:`comparison_matrix` returns A
    itself; a separate ``h`` keeps no factor.  ``is_sdd`` implies ``is_h``.
    ``is_spd`` is ``None`` (undetermined) above order ``DEFAULT_DENSE_LIMIT``;
    the other predicates are always decided.
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

    <A> is built once, before A is factorized: SDD is :func:`is_sdd`'s test on it, and
    A's M certificate serves for H when <A> is A.  SPD is decided up to order
    ``DEFAULT_DENSE_LIMIT``: a certified H-matrix with a positive diagonal D is SPD
    iff symmetric, as D^-1/2 A D^-1/2 = I - D^-1/2 B D^-1/2 with rho(D^-1/2 |B| D^-1/2)
    < 1 (B off-diagonal), M-matrices included; any other A by :func:`is_spd`.
    """
    comparison = comparison_matrix(A)
    sdd = positive_witness(comparison, np.ones(A.n))[0] is not None  # is_sdd(A), one scan
    m = certify_m(A)
    z = is_z_matrix(A)
    h = m if comparison is A else certify_m(comparison)._replace(lu=None)
    notes = [f"{name}: {c.note}" for name, c in (("m", m), ("h (comparison matrix)", h))
             if c.note]
    positive_diagonal = bool(np.all(A.csr.diagonal() > 0.0))

    spd: bool | None = None
    if A.n <= DEFAULT_DENSE_LIMIT:
        spd = A.is_symmetric() if h.witness is not None and positive_diagonal else is_spd(A)
    else:
        notes.append(
            f"spd: undetermined, order {A.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}"
        )

    return ClassificationReport(
        is_sdd=sdd,
        is_z=z,
        is_l=z and positive_diagonal,
        is_spd=spd,
        m=m,
        h=h,
        notes=tuple(notes),
    )
