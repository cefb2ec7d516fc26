"""One-step operators for the banded stationary iterations.

The three methods share the splitting A = band - lower - upper (see
:class:`~gsolve.matrices.BandedSplitting` for the sign convention) and
differ only in how the parts are assigned to the M/N pair, M - N = A:

* GJ:   M = band,                N = lower + upper
* GGS:  M = band - lower,        N = upper
* GSOR: M = band/omega - lower,  N = (1/omega - 1)*band + upper, the paper's
        band - omega*lower and (1-omega)*band + omega*upper over omega.

Each operator factorizes its M part once and then applies the update
x -> M^{-1}(N x + b) any number of times.  An SPD tridiagonal M (GJ at
m <= 1 on a symmetric M-matrix, say) gets an LDL^T factor without
pivoting, LAPACK pttrf/pttrs, which is backward stable on such matrices
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
2002, ch. 9).  Every other M gets a sparse LU with partial pivoting
(SuperLU): in natural order, or for GGS and GSOR at m > 0 after a
nested-dissection permutation inside each diagonal block of the band
(George, SIAM J. Numer. Anal. 10, 1973; see :func:`build_step`).  At m = 0
the methods reduce to classical Jacobi, Gauss-Seidel, and SOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from numbers import Real

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import SuperLU, splu

from .matrices import DEFAULT_DENSE_LIMIT, SPLU_PANEL_SIZE, BandedSplitting


class Method(str, Enum):
    GJ = "gj"
    GGS = "ggs"
    GSOR = "gsor"

    @classmethod
    def parse(cls, name: "Method | str") -> "Method":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):  # AttributeError: not a string
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown method {name!r}; expected one of {valid}") from None


def relaxation_factor(method: Method, omega: float | None) -> float | None:
    """The omega a method uses: None for GJ and GGS; for GSOR, ``omega`` as a
    float, which must be given, finite and nonzero."""
    if method is not Method.GSOR:
        return None
    if omega is None:
        raise ValueError("gsor requires a relaxation factor omega")
    value = float(omega) if isinstance(omega, Real) else math.nan
    if isinstance(omega, bool) or value == 0.0 or not math.isfinite(value):
        raise ValueError(f"omega must be finite and nonzero for gsor, got {omega}")
    return value


class FactorizationError(ValueError):
    """The M part of a splitting is singular, a property of the input like any ValueError."""


class TridiagonalLDLT:
    """LDL^T factor of an SPD tridiagonal matrix, with SuperLU's solve/L/U surface.

    ``d`` and ``e`` are LAPACK pttrf's output: the diagonal of D and the
    subdiagonal of the unit lower bidiagonal L.
    """

    def __init__(self, d: np.ndarray, e: np.ndarray) -> None:
        self.d, self.e = d, e

    def solve(self, v: np.ndarray) -> np.ndarray:
        """M^{-1} v for a vector or for matrix columns; v is not modified."""
        return dpttrs(self.d, self.e, v)[0]

    # Built when read; the conversion from DIA format drops zero entries.
    @property
    def L(self) -> sp.csc_array:
        return sp.csc_array(sp.diags_array([self.e, np.ones(self.d.size)], offsets=[-1, 0]))

    @property
    def U(self) -> sp.csc_array:
        """D L^T, the upper factor of M = L (D L^T)."""
        return sp.csc_array(sp.diags_array([self.d, self.d[:-1] * self.e], offsets=[0, 1]))


class PermutedLU:
    """SuperLU factor of M[p][:, p], with SuperLU's solve/L/U surface for M.

    ``L`` and ``U`` are the factors of the permuted matrix; ``perm`` is p.
    """

    def __init__(self, lu: SuperLU, perm: np.ndarray) -> None:
        self.lu, self.perm = lu, perm
        self.inverse = np.argsort(perm)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """M^{-1} v for a vector or for matrix columns; v is not modified."""
        return self.lu.solve(v[self.perm])[self.inverse]

    @property
    def L(self) -> sp.csc_array:
        return self.lu.L

    @property
    def U(self) -> sp.csc_array:
        return self.lu.U


def _dissection_order(splitting: BandedSplitting) -> np.ndarray:
    """Nested-dissection order of the indices inside each diagonal block of the band.

    A block whose band entries reach at most w off the diagonal is split at a
    separator of w consecutive indices, so that no band entry joins the two
    halves: a run of L indices lists its first (L - w) // 2 indices, then the
    indices after the separator, each part ordered the same way, and then the
    separator.  Runs of at most max(2w, 1) indices keep natural order.  The
    order of a run depends only on (L, w), so equal blocks, such as the lines
    of a PDE grid, share one recursion.
    """
    bounds = splitting.blocks()
    band = splitting.band.csr
    reach = np.abs(band.indices - np.repeat(np.arange(band.shape[0]), np.diff(band.indptr)))
    # CSR lists entries row by row, one run per block.  A block without band entries is a
    # single index, ordered alike at any width; the appended 0 keeps its run start in range.
    width = np.maximum.reduceat(np.append(reach, 0), band.indptr[bounds[:-1]])

    @cache
    def order(length: int, w: int) -> np.ndarray:
        if length <= max(2 * w, 1):
            return np.arange(length)
        half = (length - w) // 2
        return np.concatenate([order(half, w), half + w + order(length - w - half, w),
                               half + np.arange(w)])

    return np.concatenate([start + order(length, w) for start, length, w in
                           zip(bounds[:-1].tolist(), np.diff(bounds).tolist(), width.tolist())])


def _spd_tridiagonal_factor(m_part: sp.csr_array) -> TridiagonalLDLT | None:
    """The LDL^T factor of M when M is tridiagonal, symmetric and SPD, else None."""
    n = m_part.shape[0]
    if n < 2:
        return None
    rows = np.repeat(np.arange(n), np.diff(m_part.indptr))
    if np.any(np.abs(m_part.indices - rows) > 1):
        return None
    e = m_part.diagonal(1)
    if not np.array_equal(m_part.diagonal(-1), e):
        return None
    # For a symmetric tridiagonal M, pttrf succeeds (all pivots > 0) iff M is SPD.
    d, e, info = dpttrf(m_part.diagonal(), e)
    return TridiagonalLDLT(d, e) if info == 0 else None


@dataclass(frozen=True, eq=False)
class StepOperator:
    """Prepared single-step update for one (method, splitting, omega) triple.

    ``lu`` is the factor of M (:class:`TridiagonalLDLT`, :class:`PermutedLU` or
    SuperLU) and ``n_part`` a ``dia_array`` or ``csr_array``; see :func:`build_step`.
    The order ``n`` is derived from ``n_part``.  Immutable after construction; the
    factor is read-only, so concurrent :meth:`step` calls on one operator are safe.
    """

    m_part: sp.csr_array
    n_part: sp.csr_array | sp.dia_array
    lu: TridiagonalLDLT | PermutedLU | SuperLU

    @property
    def n(self) -> int:
        return self.n_part.shape[0]

    def solve_m(self, v: np.ndarray) -> np.ndarray:
        """Apply the prepared M^{-1} to a vector or to matrix columns."""
        return self.lu.solve(v)

    def step(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One update M^{-1}(N x + b) into a new array; x and b are only read, shapes
        unchecked.  scipy's DIA product sums the stored diagonals from zero in their
        ascending offset order, as CSR sums a row, so N x is bitwise CSR's for a finite x."""
        t = self.n_part @ x
        t += b
        if isinstance(self.lu, TridiagonalLDLT):
            return dpttrs(self.lu.d, self.lu.e, t, overwrite_b=True)[0]
        return self.lu.solve(t)


def build_step(
    splitting: BandedSplitting,
    method: Method | str,
    omega: float | None = None,
) -> StepOperator:
    """Assemble M and N for the method and factorize M once.

    M is factorized by LAPACK pttrf (LDL^T, no pivoting) when its order is at
    least 2, every stored entry lies within |i - j| <= 1, its sub- and
    superdiagonals are equal, and pttrf finds every pivot positive, i.e. M
    is SPD.  Every other M goes to SuperLU in natural column order, except
    for GGS/GSOR at m > 0 with a nonempty lower part.  That M is permuted
    symmetrically first, by a nested-dissection order inside each diagonal
    block of the band (:meth:`~gsolve.matrices.BandedSplitting.blocks`), and
    factorized as a :class:`PermutedLU`.  No band entry crosses a block, so
    where every outside-band entry joins two blocks, as on the PDE grids
    where the blocks are the grid lines, M = band/omega - lower is block
    lower triangular.  Natural elimination then fills each coupling block of
    L with the dense triangle U_k^{-1} of the previous block, b^2/2 entries
    for a block of order b; dissection leaves O(b log b) of them.  Both
    SuperLU routes factorize one column at a time (``SPLU_PANEL_SIZE``).  A
    singular M raises :class:`FactorizationError`.  N is stored by its full-length
    diagonals (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., sec. 3.4)
    when they hold at most 1.25 nnz(N) + n values, as on the PDE grids, else in CSR.

    GSOR requires a finite omega != 0, by the check
    :class:`~gsolve.engine.IterationConfig` makes (:func:`relaxation_factor`),
    and raises ValueError where band/omega overflows.  Which omega a
    convergence theorem covers on which matrix class is decided by
    :func:`~gsolve.engine.predict` (its ``guarantee_source``).
    """
    method = Method.parse(method)
    omega = relaxation_factor(method, omega)
    band, lower, upper = splitting.band.csr, splitting.lower.csr, splitting.upper.csr

    if method is Method.GSOR:
        with np.errstate(over="ignore"):  # reported below
            m_part = sp.csr_array(band / omega - lower)
            n_part = sp.csr_array((1.0 / omega - 1.0) * band + upper)
        if not (np.isfinite(m_part.data).all() and np.isfinite(n_part.data).all()):
            raise ValueError(f"omega={omega} is too small for gsor: band/omega overflows")
    elif method is Method.GJ:
        m_part, n_part = band, sp.csr_array(lower + upper)
    else:  # GGS
        m_part, n_part = sp.csr_array(band - lower), upper

    n = n_part.shape[0]
    offsets, which = np.unique(n_part.indices - np.repeat(np.arange(n), np.diff(n_part.indptr)),
                               return_inverse=True)
    if offsets.size * n <= 1.25 * n_part.nnz + n:
        data = np.zeros((offsets.size, n))
        data[which, n_part.indices] = n_part.data
        n_part = sp.dia_array((data, offsets), shape=(n, n))

    lu = _spd_tridiagonal_factor(m_part)
    if lu is None:
        permuted = method is not Method.GJ and splitting.m > 0 and lower.nnz > 0
        p = _dissection_order(splitting) if permuted else None
        try:
            lu = splu(sp.csc_matrix(m_part if p is None else m_part[p][:, p]),
                      permc_spec="NATURAL", panel_size=SPLU_PANEL_SIZE)
        except (RuntimeError, ValueError) as err:
            raise FactorizationError(
                f"M part is singular for method={method.value}, m={splitting.m}: {err}"
            ) from err
        if p is not None:
            lu = PermutedLU(lu, p)

    return StepOperator(m_part=m_part, n_part=n_part, lu=lu)


def iteration_matrix(op: StepOperator) -> np.ndarray:
    """Explicit dense H = M^{-1} N, column by column through the prepared solve.

    Refuses orders above ``DEFAULT_DENSE_LIMIT``; use power-mode spectral
    estimation on the operator instead for large systems.
    """
    if op.n > DEFAULT_DENSE_LIMIT:
        raise ValueError(
            f"order {op.n} exceeds dense limit {DEFAULT_DENSE_LIMIT}; "
            "use spectral_radius(op, mode='power') instead"
        )
    return op.lu.solve(op.n_part.toarray())
