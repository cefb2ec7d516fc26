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
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .matrices import SquareMatrix

LAYOUT_SQUARE = "square"
LAYOUT_BENCH = "bench"
LAYOUTS = (LAYOUT_SQUARE, LAYOUT_BENCH)

G_BUILTINS: dict[str, Callable[[float, float], float]] = {
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


def assemble(
    n: int,
    g: str | Callable[[float, float], float],
    layout: str = LAYOUT_SQUARE,
) -> PdeProblem:
    """Assemble the benchmark system A x = b of size parameter n, x = ones.

    ``g`` is a builtin name (xplusy, zero, expxy, negexp4xy) or any callable
    of (x, y); one that does not take arrays is evaluated point by point.
    See the module docstring for the two layouts, their grid spacing h and
    their line counts.
    """
    if n < 2:
        raise ValueError(f"grid parameter n must be >= 2, got {n}")
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; expected one of {LAYOUTS}")
    if callable(g):
        g_fn = g
    elif g in G_BUILTINS:
        g_fn = G_BUILTINS[g]
    else:
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
    try:
        g_vals = np.asarray(g_fn(grid_x, grid_y), dtype=np.float64)
    except (TypeError, ValueError):  # a callable of scalars only
        g_vals = None
    if g_vals is None or g_vals.shape != grid_x.shape:
        g_vals = np.array(
            [[g_fn(xv, yv) for yv in point_y] for xv in line_x], dtype=np.float64
        )
    main = 4.0 + h * h * g_vals.ravel()

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
