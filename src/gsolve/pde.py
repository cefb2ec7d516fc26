"""Five-point reaction-diffusion benchmark systems on the unit square.

Discretizes -Laplace(u) + g(x, y) u = f with homogeneous Dirichlet data on
a uniform interior grid, giving a block-tridiagonal matrix whose diagonal
blocks are tridiagonal with diagonal entries 4 + h^2 g and off-diagonal -1,
coupled by negated identity blocks.  The right-hand side is manufactured as
b = A @ ones, so the exact discrete solution is the all-ones vector.

Two grid layouts are provided:

* ``"square"``: n interior points per side, h = 1/(n+1), g sampled at
  (i h, j h).  This is the textbook discretization and the library default.
* ``"bench"``: n - 1 grid lines of n points, h = 1/n, g sampled at
  ((i+1) h, j h) for the line index i.  This layout reproduces the
  reference iteration counts of the benchmark tables exactly (the published
  counts correspond to this grid, not to the square one); it is what the
  CLI ``table`` command and the ``--pde`` source use by default.

Unknowns are ordered row-major by grid line: x = [u_11..u_1n; u_21..; ...].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .matrices import SquareMatrix

LAYOUT_SQUARE = "square"
LAYOUT_BENCH = "bench"
LAYOUTS = (LAYOUT_SQUARE, LAYOUT_BENCH)

#: Reaction coefficients g(x, y) by name, evaluated on whole coordinate arrays.
G_BUILTINS = {
    "xplusy": lambda x, y: x + y,
    "zero": lambda x, y: 0.0 * (x + y),
    "expxy": lambda x, y: np.exp(x * y),
    "negexp4xy": lambda x, y: -np.exp(4.0 * x * y),
}


@dataclass(frozen=True, eq=False)
class PdeProblem:
    """Assembled benchmark system with its manufactured exact solution."""

    A: SquareMatrix
    b: np.ndarray
    x_exact: np.ndarray


def assemble(n: int, g: str, layout: str = LAYOUT_SQUARE) -> PdeProblem:
    """Assemble the benchmark system A x = b of size parameter n, x = ones.

    ``g`` names a reaction coefficient of ``G_BUILTINS`` (xplusy, zero,
    expxy, negexp4xy).  See the module docstring for the two layouts, their
    grid spacing h and their line counts.
    """
    if n < 2:
        raise ValueError(f"grid parameter n must be >= 2, got {n}")
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
    if g not in G_BUILTINS:
        raise ValueError(f"unknown g {g!r}; expected one of {', '.join(G_BUILTINS)}")

    if layout == LAYOUT_SQUARE:
        nx, ny = n, n
        h = 1.0 / (n + 1)
        line_x = np.arange(1, nx + 1) * h
    else:
        nx, ny = n - 1, n
        h = 1.0 / n
        line_x = (np.arange(1, nx + 1) + 1.0) * h
    point_y = np.arange(1, ny + 1) * h

    grid_x, grid_y = np.meshgrid(line_x, point_y, indexing="ij")
    main = 4.0 + h * h * G_BUILTINS[g](grid_x, grid_y).ravel()

    size = nx * ny
    within = -np.ones(size - 1)
    within[ny - 1 :: ny] = 0.0  # no coupling across line boundaries
    across = -np.ones(size - ny)
    mat = sp.diags_array(
        [main, within, within, across, across],
        offsets=[0, -1, 1, -ny, ny],
        format="csr",
    )
    A = SquareMatrix(mat)
    x_exact = np.ones(size)
    return PdeProblem(A=A, b=A.csr @ x_exact, x_exact=x_exact)
