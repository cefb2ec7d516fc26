"""Matrix Market coordinate I/O for square matrices (1-based indices)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .matrices import SquareMatrix


def read_matrix(path: str | Path) -> SquareMatrix:
    """Read a square real matrix from a Matrix Market file.

    Handles both ``general`` and ``symmetric`` coordinate files as well as
    array files; duplicate coordinates are summed.
    """
    path = Path(path)
    field = scipy.io.mminfo(path)[4]
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"{path}: unsupported field {field!r}, need real data")
    mat = scipy.io.mmread(path)
    mat = sp.csr_array(mat)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{path}: matrix is {mat.shape[0]}x{mat.shape[1]}, not square")
    return SquareMatrix.from_csr(mat)


def write_matrix(
    path: str | Path,
    A: SquareMatrix,
    symmetric: bool = False,
    comment: str = "",
) -> None:
    """Write a matrix in coordinate format; lower triangle only if symmetric."""
    if symmetric and not A.is_symmetric():
        raise ValueError("symmetric output requested for a non-symmetric matrix")
    open(path, "wb").close()  # mmwrite returns silently on a path it cannot open
    scipy.io.mmwrite(
        str(path),
        sp.coo_matrix(A.csr),
        comment=comment,
        field="real",
        symmetry="symmetric" if symmetric else "general",
    )


def write_vector(path: str | Path, v: np.ndarray) -> None:
    """Write a vector as whitespace-delimited text, one component per line."""
    np.savetxt(path, np.asarray(v, dtype=np.float64).reshape(-1), fmt="%.17g")


def read_vector(path: str | Path) -> np.ndarray:
    """Read a whitespace-delimited vector written by :func:`write_vector`."""
    return np.atleast_1d(np.loadtxt(path, dtype=np.float64))
