import numpy as np
import pytest

from gsolve import SquareMatrix, read_matrix, write_matrix, write_vector


def test_round_trip_general(tmp_path, lmat3):
    path = tmp_path / "l.mtx"
    write_matrix(path, lmat3)
    back = read_matrix(path)
    assert (back.csr != lmat3.csr).nnz == 0


def test_indices_are_one_based_in_file(tmp_path):
    A = SquareMatrix([[0.0, 0.0, 2.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    data_lines = [l for l in path.read_text().splitlines() if not l.startswith("%")]
    assert data_lines[0].split() == ["3", "3", "1"]
    i, j, v = data_lines[1].split()
    assert (int(i), int(j), float(v)) == (1, 3, 2.5)


def test_duplicates_in_file_are_summed(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n"
        "1 1 1.0\n"
        "1 1 2.5\n"
        "2 2 1.0\n"
        "2 1 -3.0\n"
    )
    A = read_matrix(path)
    assert A.csr[0, 0] == 3.5
    assert A.nnz == 3


def test_rectangular_rejected(tmp_path):
    path = tmp_path / "rect.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 3 1\n"
        "1 1 1.0\n"
    )
    with pytest.raises(ValueError, match="must be square"):
        read_matrix(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_entry_rejected(tmp_path, bad):
    path = tmp_path / "nonfinite.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        f"1 1 {bad}\n"
        "2 2 1.0\n"
    )
    with pytest.raises(ValueError, match="finite"):
        read_matrix(path)


def test_garbage_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("this is not a matrix\n")
    with pytest.raises(ValueError):
        read_matrix(path)


@pytest.mark.parametrize("name, dense", [
    # a symmetric file storing 6 of the 9 entries
    ("spd3.mtx", [[410.0, -195.0, -90.0], [-195.0, 151.0, 112.0], [-90.0, 112.0, 132.0]]),
    ("identity3.mtx", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
], ids=["spd3", "identity3"])
def test_shipped_fixture_reads_as_its_dense_literal(name, dense, fixtures_dir):
    A = read_matrix(fixtures_dir / name)
    np.testing.assert_array_equal(A.csr.toarray(), dense)
    assert A.nnz == np.count_nonzero(dense)


def test_unwritable_path_raises(tmp_path, lmat3):
    with pytest.raises(OSError):
        write_matrix(tmp_path / "missing" / "x.mtx", lmat3)


def test_vector_round_trip(tmp_path):
    v = np.array([1.0, -2.5, 3.0e-17, 4.0])
    path = tmp_path / "v.txt"
    write_vector(path, v)
    np.testing.assert_array_equal(np.loadtxt(path), v)
    # whitespace-delimited, one component per line
    assert len(path.read_text().split()) == 4


@pytest.mark.parametrize("v, message", [
    (np.array([1 + 1j, 2.0]), "^vector has complex entries$"),
    (object(), "^vector is not an array of real numbers"),
    (["1"], "^vector has string entries$"),
    (np.array([1.0, np.nan]), "^vector has non-finite entries$"),
    ([np.inf], "^vector has non-finite entries$"),
    ([[1.0], [2.0, 3.0]], "^vector is not an array of real numbers: "),
], ids=["complex", "object", "string", "nan", "inf", "ragged"])
def test_vector_that_is_not_real_is_refused(tmp_path, v, message):
    # the float64 cast would drop the imaginary part, read '1' as 1.0 or raise numpy's TypeError
    path = tmp_path / "v.txt"
    with pytest.raises(ValueError, match=message):
        write_vector(path, v)
    assert not path.exists()
