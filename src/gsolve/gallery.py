"""Small canonical matrices used by the tests, docs, and shipped .mtx fixtures.

The first two are the classic counterexamples showing that the banded
iterations may diverge even for symmetric positive definite and for
L-matrices; the 4x4 one shows the same for overrelaxed GSOR on an SPD
matrix.
"""

from __future__ import annotations

from .matrices import SquareMatrix


def spd_3x3() -> SquareMatrix:
    """Symmetric positive definite; GJ and GGS diverge for m = 1."""
    return SquareMatrix([[410.0, -195.0, -90.0], [-195.0, 151.0, 112.0], [-90.0, 112.0, 132.0]])


def l_3x3() -> SquareMatrix:
    """An L-matrix that is not an M-matrix; GJ and GGS diverge for m = 1."""
    return SquareMatrix([[1.0, -1.0, -5.0], [-2.0, 3.0, -4.0], [-1.0, -5.0, 3.0]])


def spd_4x4() -> SquareMatrix:
    """Symmetric positive definite; GSOR at m = 2, omega = 1.8 diverges."""
    return SquareMatrix(
        [
            [5.0, 1.0, 4.0, 2.0],
            [1.0, 5.0, 3.0, 2.0],
            [4.0, 3.0, 5.0, 4.0],
            [2.0, 2.0, 4.0, 5.0],
        ]
    )
