"""Seeded random matrix generators for the theorem property suites."""

from __future__ import annotations

import numpy as np

from .matrices import SquareMatrix


def random_sdd_matrix(n: int, rng: np.random.Generator) -> SquareMatrix:
    """Strictly diagonally dominant matrix with random off-diagonal signs."""
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    np.fill_diagonal(a, 0.0)
    margin = rng.uniform(0.1, 1.0, size=n)
    diag_sign = rng.choice([-1.0, 1.0], size=n)
    np.fill_diagonal(a, diag_sign * (np.abs(a).sum(axis=1) + margin))
    return SquareMatrix(a)


def random_m_matrix(n: int, rng: np.random.Generator) -> SquareMatrix:
    """Nonsingular M-matrix s*I - B with B >= 0 and s = rho(B)(1 + u), u in (0.05, 1)."""
    b = rng.uniform(0.0, 1.0, size=(n, n))
    rho_b = float(np.max(np.abs(np.linalg.eigvals(b))))
    s = rho_b * (1.0 + rng.uniform(0.05, 1.0))
    return SquareMatrix(s * np.eye(n) - b)


def random_h_matrix(n: int, rng: np.random.Generator) -> SquareMatrix:
    """H-matrix: an M-matrix with off-diagonal signs randomized.

    Sign flips leave the comparison matrix (the original M-matrix) unchanged.
    """
    a = random_m_matrix(n, rng).csr.toarray()
    flips = rng.choice([-1.0, 1.0], size=a.shape)
    np.fill_diagonal(flips, 1.0)
    return SquareMatrix(a * flips)
