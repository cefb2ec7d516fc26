import numpy as np

from gsolve import comparison_matrix, is_h_matrix, is_m_matrix, is_sdd
from gsolve.generators import random_h_matrix, random_m_matrix, random_sdd_matrix


def test_sdd_generator():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert is_sdd(random_sdd_matrix(int(rng.integers(2, 25)), rng))


def test_m_generator():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ok, witness = is_m_matrix(random_m_matrix(int(rng.integers(2, 25)), rng))
        assert ok and np.all(witness > 0)


def test_h_generator():
    rng = np.random.default_rng(2)
    for _ in range(20):
        A = random_h_matrix(int(rng.integers(2, 25)), rng)
        assert is_h_matrix(A)
        # the comparison matrix itself must certify as M
        ok, _ = is_m_matrix(comparison_matrix(A))
        assert ok


def test_generators_are_deterministic_for_fixed_seed():
    a = random_h_matrix(8, np.random.default_rng(42))
    b = random_h_matrix(8, np.random.default_rng(42))
    assert (a.csr != b.csr).nnz == 0
