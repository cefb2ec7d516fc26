"""Matrix Market coordinate I/O for square matrices (1-based indices).

scipy.io is imported on first use, so commands without a file skip it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .matrices import SquareMatrix, require_real_array


def read_matrix(path: str | Path) -> SquareMatrix:
    """Read a square real matrix from a Matrix Market file.

    Handles both ``general`` and ``symmetric`` coordinate files as well as
    array files; duplicate coordinates are summed.
    """
    import scipy.io
    path = Path(path)
    field = scipy.io.mminfo(path)[4]
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"{path}: unsupported field {field!r}, need real data")
    return SquareMatrix(scipy.io.mmread(path))


def write_matrix(path: str | Path, A: SquareMatrix, comment: str = "") -> None:
    """Write a matrix as a general real coordinate file."""
    import scipy.io
    open(path, "wb").close()  # mmwrite returns silently on a path it cannot open
    scipy.io.mmwrite(
        str(path),
        sp.coo_matrix(A.csr),
        comment=comment,
        field="real",
        symmetry="general",
    )


def write_vector(path: str | Path, v: np.ndarray) -> None:
    """Write a finite real vector as whitespace-delimited text, one component per line."""
    np.savetxt(path, require_real_array("vector", v).reshape(-1), fmt="%.17g")
