from pathlib import Path

import pytest

from gsolve import read_matrix

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES_DIR


@pytest.fixture
def spd3():
    """Symmetric positive definite; GJ and GGS diverge for m = 1."""
    return read_matrix(FIXTURES_DIR / "spd3.mtx")


@pytest.fixture
def lmat3():
    """An L-matrix that is not an M-matrix; GJ and GGS diverge for m = 1."""
    return read_matrix(FIXTURES_DIR / "lmat3.mtx")


@pytest.fixture
def spd4():
    """Symmetric positive definite; GSOR at m = 2, omega = 1.8 diverges."""
    return read_matrix(FIXTURES_DIR / "spd4.mtx")
