import numpy as np
import pytest

from gsolve import SquareMatrix, read_matrix, write_matrix, write_vector
from gsolve import gallery


def test_round_trip_general(tmp_path, lmat3):
    path = tmp_path / "l.mtx"
    write_matrix(path, lmat3)
    back = read_matrix(path)
    assert back.same_entries(lmat3)


def test_indices_are_one_based_in_file(tmp_path):
    A = SquareMatrix.from_dense([[0.0, 0.0, 2.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
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
    with pytest.raises(Exception):
        read_matrix(path)


@pytest.mark.parametrize(
    "name, factory",
    [
        ("spd3.mtx", gallery.spd_3x3),
        ("lmat3.mtx", gallery.l_3x3),
        ("spd4.mtx", gallery.spd_4x4),
        ("identity3.mtx", lambda: SquareMatrix.identity(3)),
    ],
)
def test_shipped_fixture_files_match_gallery(name, factory, fixtures_dir):
    assert read_matrix(fixtures_dir / name).same_entries(factory())


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
