import numpy as np
import pytest

from gsolve import extract_splitting, is_m_matrix, is_sdd
from gsolve.pde import G_BUILTINS, LAYOUT_BENCH, LAYOUT_SQUARE, assemble


def test_smallest_square_system_is_fully_determined():
    problem = assemble(2, "zero")
    want = np.array(
        [
            [4.0, -1.0, -1.0, 0.0],
            [-1.0, 4.0, 0.0, -1.0],
            [-1.0, 0.0, 4.0, -1.0],
            [0.0, -1.0, -1.0, 4.0],
        ]
    )
    assert np.array_equal(problem.A.csr.toarray(), want)
    np.testing.assert_array_equal(problem.b, [2.0, 2.0, 2.0, 2.0])
    # two grid lines of two points: the blocks of the band
    np.testing.assert_array_equal(extract_splitting(problem.A, 1).blocks(), [0, 2, 4])


def test_reaction_term_enters_diagonal():
    # h = 1/4, first grid point (h, h): diagonal 4 + h^2 (h + h) = 4.03125
    problem = assemble(3, "xplusy")
    assert problem.A.csr[0, 0] == 4.03125


def test_row_major_grid_ordering():
    # block index i moves slowest: unknown (i=2, j=1) sits at position ny + 1
    n = 3
    problem = assemble(n, "xplusy")
    h = 1.0 / (n + 1)
    expected = 4.0 + h * h * (2 * h + 1 * h)
    assert problem.A.csr[n, n] == pytest.approx(expected, rel=1e-15)


def test_builtin_g_values():
    assert G_BUILTINS["xplusy"](0.5, 0.25) == 0.75
    assert G_BUILTINS["zero"](0.3, 0.9) == 0.0
    assert G_BUILTINS["expxy"](0.0, 1.0) == 1.0
    assert G_BUILTINS["negexp4xy"](1.0, 1.0) == pytest.approx(-np.exp(4.0))


@pytest.mark.parametrize("layout", [LAYOUT_SQUARE, LAYOUT_BENCH])
@pytest.mark.parametrize("g_id", ["xplusy", "zero", "expxy", "negexp4xy"])
def test_assembled_matrix_exactly_symmetric(layout, g_id):
    problem = assemble(6, g_id, layout=layout)
    assert problem.A.is_symmetric()


@pytest.mark.parametrize("layout", [LAYOUT_SQUARE, LAYOUT_BENCH])
def test_whole_float_n_is_its_integer(layout):
    whole, exact = assemble(3.0, "zero", layout=layout), assemble(3, "zero", layout=layout)
    assert (whole.A.csr != exact.A.csr).nnz == 0
    np.testing.assert_array_equal(whole.b, exact.b)


@pytest.mark.parametrize("layout", [LAYOUT_SQUARE, LAYOUT_BENCH])
def test_manufactured_solution(layout):
    problem = assemble(7, "expxy", layout=layout)
    np.testing.assert_array_equal(problem.b, problem.A.csr @ problem.x_exact)
    direct = np.linalg.solve(problem.A.csr.toarray(), problem.b)
    rel = np.linalg.norm(direct - problem.x_exact) / np.linalg.norm(problem.x_exact)
    assert rel <= 1e-10


def test_bench_layout_geometry():
    problem = assemble(20, "zero", layout=LAYOUT_BENCH)
    # 19 grid lines of 20 points: the blocks of the band
    np.testing.assert_array_equal(extract_splitting(problem.A, 1).blocks(),
                                  np.arange(20) * 20)
    assert problem.A.n == 380
    # h = 1/n, and shifted line coordinates: the first diagonal entry samples g at (2h, h)
    shifted = assemble(5, "xplusy", layout=LAYOUT_BENCH)
    h = 1.0 / 5.0
    assert shifted.A.csr[0, 0] == pytest.approx(4.0 + h * h * (2 * h + h), rel=1e-15)


@pytest.mark.parametrize("g_id", ["xplusy", "expxy"])
@pytest.mark.parametrize("layout", [LAYOUT_SQUARE, LAYOUT_BENCH])
def test_positive_reaction_gives_sdd_m_matrix(g_id, layout):
    problem = assemble(8, g_id, layout=layout)
    assert is_sdd(problem.A)
    ok, witness = is_m_matrix(problem.A)
    assert ok and np.all(witness > 0)


@pytest.mark.parametrize("layout", [LAYOUT_SQUARE, LAYOUT_BENCH])
def test_zero_reaction_is_m_but_only_weakly_dominant(layout):
    # interior rows have |diagonal| equal to the off-diagonal sum (4 vs 4),
    # so strict dominance fails even though the matrix certifies as M
    problem = assemble(8, "zero", layout=layout)
    assert not is_sdd(problem.A)
    ok, _ = is_m_matrix(problem.A)
    assert ok


def test_negative_reaction_classification_recorded():
    problem = assemble(20, "negexp4xy", layout=LAYOUT_BENCH)
    assert not is_sdd(problem.A)
    ok, witness = is_m_matrix(problem.A)
    assert ok and np.all(witness > 0)


def test_invalid_parameters():
    with pytest.raises(ValueError, match="n must be"):
        assemble(1, "zero")
    for n in (5.5, "5", True):
        with pytest.raises(ValueError, match=f"^grid parameter n={n} is not an integer$"):
            assemble(n, "zero")
    for g in ("nope", lambda x, y: x + y):
        with pytest.raises(ValueError, match="unknown g"):
            assemble(4, g)
    with pytest.raises(ValueError, match="unknown layout"):
        assemble(4, "zero", layout="hex")
