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
    return SquareMatrix(scipy.io.mmread(path))


def write_matrix(path: str | Path, A: SquareMatrix, comment: str = "") -> None:
    """Write a matrix as a general real coordinate file."""
    open(path, "wb").close()  # mmwrite returns silently on a path it cannot open
    scipy.io.mmwrite(
        str(path),
        sp.coo_matrix(A.csr),
        comment=comment,
        field="real",
        symmetry="general",
    )


def write_vector(path: str | Path, v: np.ndarray) -> None:
    """Write a vector as whitespace-delimited text, one component per line."""
    np.savetxt(path, np.asarray(v, dtype=np.float64).reshape(-1), fmt="%.17g")
