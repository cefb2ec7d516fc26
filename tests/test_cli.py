import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gsolve.cli
import gsolve.engine
from gsolve import classify, comparison_matrix, extract_splitting, read_matrix
from gsolve.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _swap_matrix_file(tmp_path) -> Path:
    """A Matrix Market file of [[0, 1], [1, 0]], whose diagonal M part is singular."""
    path = tmp_path / "singular-diag.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 2 1.0\n"
        "2 1 1.0\n"
    )
    return path


class TestRun:
    def test_identity_file_converges(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "run", "--mtx", str(fixtures_dir / "identity3.mtx"), "--method", "gj"
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["converged"] == "true"
        assert int(rows[0]["iterations"]) <= 2

    def test_benchmark_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--pde", "g=xplusy", "n=20",
            "--method", "gj,ggs,sor,gsor", "--m", "1", "--omega", "1.5",
        )
        assert code == 0
        rows = parse_csv(out)
        got = {row["method"]: int(row["iterations"]) for row in rows}
        assert got == {"gj": 619, "ggs": 322, "sor": 211, "gsor": 105}
        assert {row["m"] for row in rows} == {"1", "0"}
        assert all(row["converged"] == "true" for row in rows)

    def test_benchmark_cell_n30(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--pde", "g=xplusy", "n=30",
            "--method", "gsor", "--m", "1", "--omega", "1.5",
        )
        assert code == 0
        rows = parse_csv(out)
        assert int(rows[0]["iterations"]) == 240

    def test_square_layout_requested_explicitly(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--pde", "g=zero", "n=5", "layout=square",
            "--method", "ggs", "--m", "1",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["n"] == "25"
        assert rows[0]["source"].endswith("layout=square")

    def test_csv_round_trips_and_is_deterministic(self, capsys):
        args = ("run", "--pde", "g=expxy", "n=6", "--method", "gj,gsor",
                "--m", "1", "--omega", "0.9")
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert code == 0
        for row1, row2 in zip(parse_csv(out1), parse_csv(out2), strict=True):
            for key in row1:
                if key == "seconds":
                    continue
                assert row1[key] == row2[key]
            # numeric fields reparse to the emitted decimal string exactly
            for key in ("final_diff_norm", "final_error_norm", "omega"):
                if row1[key]:
                    assert repr(float(row1[key])) == row1[key]

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--pde", "g=zero", "n=4", "--method", "gj",
            "--format", "jsonl",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 1
        assert records[0]["method"] == "gj"
        assert records[0]["converged"] == "true"

    def test_divergent_run_exits_nonzero(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "run", "--mtx", str(fixtures_dir / "spd3.mtx"), "--method", "gj"
        )
        assert code == 1
        rows = parse_csv(out)
        assert rows[0]["converged"] == "false"
        assert rows[0]["note"] == "diverged"

    def test_capped_run_notes_max_iter(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--pde", "g=zero", "n=20", "--method", "gj", "--max-iter", "5"
        )
        assert code == 1
        rows = parse_csv(out)
        assert (rows[0]["iterations"], rows[0]["converged"], rows[0]["note"]) == (
            "5", "false", "max_iter")

    def test_gsor_without_omega_is_an_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--pde", "g=zero", "n=4", "--method", "gsor"
        )
        assert code == 2
        assert "omega" in err
        code, out, err = run_cli(capsys, "run", "--pde", "g=zero", "n=4", "--method", "sor")
        assert (code, out) == (2, "")
        assert "method sor needs --omega" in err

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--pde", "g=zero", "n=4", "--method", "gj,sor",
            "--omega", "1.5", "--format", "markdown",
        )
        assert code == 0
        header, rule, *rows = out.splitlines()
        assert header == "| " + " | ".join(gsolve.cli.RUN_FIELDS) + " |"
        assert rule == "|" + "---|" * len(gsolve.cli.RUN_FIELDS)
        cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows]
        assert [(c[1], c[6]) for c in cells] == [("gj", "true"), ("sor", "true")]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--mtx", "no-such.mtx", "--method", "gj")
        assert code == 2
        assert "cannot read" in err

    def test_complex_matrix_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "complex.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
            "2 2 2\n"
            "1 1 1.0 0.5\n"
            "2 2 1.0 0.0\n"
        )
        code, out, err = run_cli(capsys, "run", "--mtx", str(path), "--method", "gj")
        assert (code, out) == (2, "")
        assert "unsupported field 'complex', need real data" in err

    def test_fault_inside_the_reader_is_not_a_usage_error(self, monkeypatch, fixtures_dir):
        # only ValueError and OSError mean "cannot read"; anything else is a bug and propagates
        def faulty_reader(path):
            raise RuntimeError("reader fault")

        monkeypatch.setattr(gsolve.cli, "read_matrix", faulty_reader)
        with pytest.raises(RuntimeError, match="^reader fault$"):
            main(["run", "--mtx", str(fixtures_dir / "identity3.mtx"), "--method", "gj"])

    def test_factorization_failure_keeps_csv_parseable(self, capsys, tmp_path):
        path = tmp_path / "hollow.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 1.0\n"
            "2 1 1.0\n"
        )
        code, out, _ = run_cli(
            capsys, "run", "--mtx", str(path), "--method", "gj,ggs", "--m", "0"
        )
        assert code == 1
        rows = parse_csv(out)
        assert len(rows) == 2  # the comma-bearing note must stay in one cell
        assert all(r["converged"] == "false" for r in rows)
        assert all("factorization failed" in r["note"] for r in rows)

    def test_bad_pde_tokens(self, capsys):
        code, _, err = run_cli(capsys, "run", "--pde", "g=zero", "--method", "gj")
        assert code == 2
        assert "--pde needs" in err
        code, _, err = run_cli(
            capsys, "run", "--pde", "g=zero", "n=4", "k=1", "--method", "gj"
        )
        assert code == 2
        assert "unknown keys" in err
        code, _, err = run_cli(capsys, "run", "--pde", "g=zero", "n4", "--method", "gj")
        assert code == 2
        assert "--pde expects key=value tokens, got 'n4'" in err
        code, _, err = run_cli(capsys, "run", "--pde", "g=zero", "n=4.5", "--method", "gj")
        assert code == 2
        assert "--pde n must be an integer, got '4.5'" in err
        code, _, err = run_cli(capsys, "run", "--pde", "g=zero", "n=abc", "--method", "gj")
        assert code == 2
        assert "--pde n must be an integer, got 'abc'" in err

    def test_pde_n_is_read_as_the_library_reads_it(self, capsys):
        # assemble(5.0, ...) takes the whole number 5, and so does --pde n=5.0
        runs = [run_cli(capsys, "run", "--pde", "g=zero", n, "--method", "gj", "--format", "csv")
                for n in ("n=5", "n=5.0")]
        assert [code for code, _, _ in runs] == [0, 0]
        rows = [[{**row, "seconds": ""} for row in parse_csv(out)] for _, out, _ in runs]
        assert rows[0] == rows[1]
        assert rows[0][0]["source"] == "pde:g=zero:n=5:layout=bench"

    @pytest.mark.parametrize("tokens, key", [
        (("g=zero", "g=expxy", "n=3"), "g"),
        (("g=zero", "n=3", "n=4"), "n"),
        (("layout=square", "g=zero", "n=3", "layout=bench"), "layout"),
    ])
    def test_repeated_pde_key_is_a_usage_error(self, capsys, tokens, key):
        code, out, err = run_cli(capsys, "run", "--pde", *tokens, "--method", "gj")
        assert (code, out) == (2, "")
        assert f"--pde got key {key!r} twice" in err

    def test_unknown_g_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "--pde", "g=cubed", "n=5", "--method", "gj")
        assert code == 2
        assert "unknown g" in err

    @pytest.mark.parametrize("option, value, message", [
        ("--omega", "nan", "omega must be finite"),
        ("--omega", "inf", "omega must be finite"),
        ("--omega", "-inf", "omega must be finite"),
        ("--tol", "nan", "tol must be positive"),
        ("--tol", "inf", "tol must be positive and finite"),
    ])
    def test_non_finite_parameters_are_usage_errors(self, capsys, option, value, message):
        code, out, err = run_cli(
            capsys, "run", "--pde", "g=zero", "n=4", "--method", "gsor",
            "--omega", "1.2", f"{option}={value}",
        )
        assert code == 2
        assert out == ""
        assert message in err

    def test_bad_omega_is_rejected_before_the_first_solve(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a method was solved before every config was built")

        monkeypatch.setattr(gsolve.cli, "solve", refuse)
        code, out, err = run_cli(
            capsys, "run", "--pde", "g=zero", "n=4", "--method", "gj,gsor", "--omega", "nan"
        )
        assert (code, out) == (2, "")
        assert "omega must be finite and nonzero for gsor" in err

    def test_non_finite_matrix_entry_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nan.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 nan\n"
            "2 2 1.0\n"
        )
        code, _, err = run_cli(capsys, "classify", "--mtx", str(path))
        assert code == 2
        assert "finite" in err


class TestTable:
    def test_markdown_layout_and_counts(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2")
        assert code == 0
        assert "## Table 2: g = zero" in out
        assert "| n | GJ | GGS | SOR | GSOR |" in out
        for n, counts in ((20, (652, 339, 222, 112)),):
            line = next(l for l in out.splitlines() if l.startswith(f"| {n} |"))
            cells = [c.strip() for c in line.strip("|").split("|")][1:]
            got = tuple(int(cell.split("(")[0]) for cell in cells)
            assert got == counts

    @pytest.mark.parametrize("fmt", ["markdown", "csv"])
    def test_bad_bandwidth_prints_no_partial_table(self, capsys, fmt):
        code, out, err = run_cli(capsys, "table", "1", "--m", "500", "--format", fmt)
        assert (code, out) == (2, "")
        assert "half-bandwidth m=500 outside [0, 379]" in err

    def test_markdown_grid_uses_the_shared_writer(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2")
        assert code == 0
        assert "\n| n | GJ | GGS | SOR | GSOR |\n|---|---|---|---|---|\n| 20 | 652(" in out

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 12  # 3 sizes x 4 methods
        assert {row["g"] for row in rows} == {"expxy"}
        cell = next(r for r in rows if r["n"] == "20" and r["method"] == "gsor")
        assert int(cell["iterations"]) == 104

    def test_square_layout_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "--layout", "square", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 12
        assert all(row["converged"] == "true" for row in rows)
        cell = next(r for r in rows if r["n"] == "20" and r["method"] == "gj")
        assert int(cell["iterations"]) == 679  # the bench layout takes 652

    def test_seconds_are_written_unrounded(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3", "--format", "csv")
        assert code == 0
        seconds = [float(row["seconds"]) for row in parse_csv(out)]
        assert len(seconds) == 12
        assert all(s >= 0.0 for s in seconds)
        # Rounded to 2 d.p., most of these short solves would read 0.0.
        assert any(s != round(s, 2) for s in seconds)

    def test_counts_are_deterministic_across_runs(self, capsys):
        def strip_timings(text):
            return [
                {k: v for k, v in row.items() if k != "seconds"}
                for row in parse_csv(text)
            ]

        _, first, _ = run_cli(capsys, "table", "1", "--format", "csv")
        _, second, _ = run_cli(capsys, "table", "1", "--format", "csv")
        assert strip_timings(first) == strip_timings(second)

    def test_jsonl_has_the_csv_columns_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3", "--format", "jsonl")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        _, csv_out, _ = run_cli(capsys, "table", "3", "--format", "csv")
        rows = parse_csv(csv_out)
        assert len(records) == 12
        header = csv_out.splitlines()[0].split(",")
        assert all(list(record) == header for record in records)
        assert [{k: v for k, v in r.items() if k != "seconds"} for r in records] == [
            {k: v for k, v in r.items() if k != "seconds"} for r in rows
        ]


#: Output of ``classify --pde g=zero n=40 --predict gsor --m 1 --omega 1.5``
#: as recorded from the dense-Cholesky, COLAMD-ordered witness implementation.
RECORDED_PREDICT_N40 = """\
source: pde:g=zero:n=40:layout=bench (order 1560)
sdd: false
z: true
l: true
m: true
h: true
spd: true
m_witness_min: 0.018017110144593486
predict: method=gsor m=1 omega=1.5
guaranteed: false (none)
rho: 0.963655
predicted_converges: true
"""


class TestClassify:
    def test_spd_counterexample_file(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "classify", "--mtx", str(fixtures_dir / "spd3.mtx"))
        assert code == 0
        assert "spd: true" in out
        assert "l: false" in out
        assert "m: false" in out
        assert "h: false" in out

    def test_l_matrix_file(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "classify", "--mtx", str(fixtures_dir / "lmat3.mtx"))
        assert code == 0
        assert "l: true" in out
        assert "m: false" in out
        assert "sdd: false" in out

    def test_identity_belongs_everywhere(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "classify", "--mtx", str(fixtures_dir / "identity3.mtx")
        )
        assert code == 0
        for line in ("sdd: true", "z: true", "l: true", "m: true", "h: true", "spd: true"):
            assert line in out

    def test_predict_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pde", "g=zero", "n=10",
            "--predict", "gsor", "--m", "1", "--omega", "0.8",
        )
        assert code == 0
        assert "guaranteed: true" in out
        assert "M+GSOR(0<omega<=1)" in out
        assert "predicted_converges: true" in out

    @pytest.mark.parametrize("n", [6, 10, 12])
    def test_predict_past_omega_opt_on_small_grids(self, capsys, n):
        # Past omega_opt every GSOR eigenvalue has modulus omega - 1 = 0.5.
        source = ("--pde", "g=zero", f"n={n}", "--m", "1", "--omega", "1.5")
        code, out, _ = run_cli(capsys, "classify", *source, "--predict", "gsor")
        assert code == 0
        assert "rho: 0.5\npredicted_converges: true\n" in out
        code, out, _ = run_cli(capsys, "rho", *source, "--method", "gsor", "--power")
        assert code == 0
        assert out.startswith("rho: 0.5 mode=power reliable=yes ")

    def test_predict_classifies_once(self, capsys, monkeypatch):
        calls = []

        def counting_classify(A, *args, **kwargs):
            calls.append(A)
            return classify(A, *args, **kwargs)

        monkeypatch.setattr(gsolve.engine, "classify", counting_classify)
        monkeypatch.setattr(gsolve.cli, "classify", counting_classify)
        code, _, _ = run_cli(
            capsys, "classify", "--pde", "g=zero", "n=10",
            "--predict", "gsor", "--m", "1", "--omega", "1.5",
        )
        assert code == 0
        assert len(calls) == 1

    def test_predict_output_at_bench_n40(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pde", "g=zero", "n=40",
            "--predict", "gsor", "--m", "1", "--omega", "1.5",
        )
        assert code == 0
        got, want = out.splitlines(), RECORDED_PREDICT_N40.splitlines()
        assert len(got) == len(want)
        for got_line, want_line in zip(got, want):
            # the witness digits depend on the sparse solve's column ordering
            if want_line.startswith("m_witness_min: "):
                assert float(got_line.split(": ")[1]) == pytest.approx(
                    float(want_line.split(": ")[1]), rel=1e-12
                )
            else:
                assert got_line == want_line

    def test_overrelaxed_predict_at_bench_n40(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--pde", "g=zero", "n=40",
            "--predict", "gsor", "--m", "1", "--omega", "1.001",
        )
        assert code == 0
        assert out.splitlines()[-4:] == [
            "predict: method=gsor m=1 omega=1.001",
            "guaranteed: true (M+GSOR(overrelaxed))",
            "rho: 0.988014",
            "predicted_converges: true",
        ]

    @pytest.mark.parametrize("predict, message", [
        (("--predict", "gsor", "--omega", "nan"), "omega must be finite and nonzero for gsor"),
        (("--predict", "gsor"), "method gsor needs --omega"),
        (("--predict", "bogus"), "unknown method 'bogus'; expected one of gj, ggs, sor, gsor"),
    ])
    def test_bad_predict_is_rejected_before_the_report(self, capsys, predict, message):
        code, out, err = run_cli(capsys, "classify", "--pde", "g=zero", "n=5", *predict)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("token, line", [
        ("GSOR", "predict: method=gsor m=1 omega=1.5"),
        (" Sor", "predict: method=sor m=0 omega=1.5"),
    ])
    def test_predict_prints_the_normalized_method(self, capsys, token, line):
        code, out, _ = run_cli(capsys, "classify", "--pde", "g=zero", "n=5",
                               "--predict", token, "--omega", "1.5")
        assert code == 0
        assert line in out.splitlines()

    def test_singular_m_part_of_a_prediction_is_a_clean_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "classify", "--mtx", str(_swap_matrix_file(tmp_path)),
                                 "--predict", "gj", "--m", "0")
        assert (code, out) == (2, "")
        assert "M part is singular" in err

    def test_bad_bandwidth_is_rejected_before_the_report(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--pde", "g=zero", "n=3",
                                 "--predict", "gj", "--m", "99")
        assert (code, out) == (2, "")
        assert "half-bandwidth m=99 outside [0, 5]" in err

    def test_spd_undetermined_above_dense_limit(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--pde", "g=zero", "n=46")
        assert code == 0
        assert "(order 2070)" in out
        assert "spd: undetermined" in out
        assert "note: spd: undetermined, order 2070 exceeds dense limit 2000" in out


README = Path(__file__).resolve().parents[1] / "README.md"
#: A README radius line: ``gsolve rho --mtx <file> <options>   # <printed value>``.
README_RHO_LINE = re.compile(r"^gsolve (rho --mtx .*?)\s+# (\S+)$")


def _readme_block(heading: str) -> list[str]:
    """The lines of the first fenced block after a README heading."""
    text = README.read_text().split(f"\n{heading}\n", 1)[1]
    return text.split("```", 2)[1].splitlines()[1:]


def test_readme_examples_run_as_written(capsys, monkeypatch, tmp_path):
    shutil.copytree(README.parent / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)  # the lines name fixtures/ and write their outputs here
    commands = [line.split()[1:] for line in _readme_block("## CLI") if line.startswith("gsolve ")]
    assert len(commands) == 9
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv

    quick_start = _readme_block("## Quick start (API)")
    exec("\n".join(quick_start), {})
    printed = capsys.readouterr().out.splitlines()
    expected = [line.partition("# ")[2] for line in quick_start if line.startswith("print(")]
    assert len(printed) == len(expected) == 3
    for got, want in zip(printed, expected):
        assert want == "" or got == want, (got, want)


def test_readme_layout_lists_every_module():
    listed = {line.split()[0] for line in _readme_block("## Layout") if line.startswith("  ")}
    modules = {path.name for path in (README.parent / "src" / "gsolve").glob("*.py")}
    assert listed == modules - {"__init__.py"}


class TestRho:
    def test_readme_radius_values(self, capsys, monkeypatch):
        cases = [(match[1].split(), match[2]) for match in
                 map(README_RHO_LINE.match, README.read_text().splitlines()) if match]
        assert len(cases) == 8
        monkeypatch.chdir(README.parent)  # the lines name fixtures/ relative to the repo
        for argv, value in cases:
            assert run_cli(capsys, *argv) == (0, f"rho: {value} mode=dense reliable=yes\n",
                                              ""), argv
            code, out, _ = run_cli(capsys, *argv, "--power")
            assert code == 0, argv
            assert out.startswith(f"rho: {value} mode=power reliable=yes "), (argv, out)

    def test_dense_fixture_value(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "rho", "--mtx", str(fixtures_dir / "lmat3.mtx"),
            "--method", "gsor", "--m", "1", "--omega", "0.9",
        )
        assert code == 0
        assert "mode=dense" in out
        value = float(out.split()[1])
        assert value == pytest.approx(2.6705, abs=5e-5)

    def test_sor_alias_uses_bandwidth_zero(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "rho", "--mtx", str(fixtures_dir / "identity3.mtx"),
            "--method", "sor", "--omega", "1.5",
        )
        assert code == 0
        assert out.startswith("rho: 0.5")  # |1 - omega| on the identity

    def test_identity_radius_is_zero(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "rho", "--mtx", str(fixtures_dir / "identity3.mtx"),
            "--method", "gj", "--m", "0",
        )
        assert code == 0
        assert out.startswith("rho: 0 ")

    def test_power_mode(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "rho", "--mtx", str(fixtures_dir / "lmat3.mtx"),
            "--method", "gj", "--m", "1", "--power", "--seed", "7",
        )
        assert code == 0
        assert "mode=power" in out
        assert "reliable=yes" in out
        assert out.startswith("rho: 2.8689")

    def test_power_route_above_dense_limit(self, capsys):
        # order 2070 is above DEFAULT_DENSE_LIMIT, where only the power route runs
        argv = ("rho", "--pde", "g=zero", "n=46", "--method", "gj")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("rho: ") and " mode=power reliable=yes " in out
        assert run_cli(capsys, *argv, "--power") == (0, out, "")

    def test_power_without_seed_is_deterministic(self, capsys):
        argv = ("rho", "--pde", "g=zero", "n=20", "--method", "gsor", "--m", "1",
                "--omega", "1.5", "--power")
        first, second = (run_cli(capsys, *argv) for _ in range(2))
        assert first[0] == second[0] == 0
        assert first[1].startswith("rho: ") and first[1] == second[1]

    @pytest.mark.parametrize("n", ["5", "20"])
    def test_negative_seed_is_a_usage_error_at_every_order(self, capsys, n):
        # order 20 takes the dense route, order 380 ARPACK; both refuse the seed
        code, out, err = run_cli(capsys, "rho", "--pde", "g=zero", f"n={n}",
                                 "--method", "gj", "--power", "--seed", "-1")
        assert (code, out) == (2, "")
        assert "--seed must be >= 0, got -1" in err

    def test_half_bandwidth_beyond_order_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "rho", "--pde", "g=zero", "n=5", "--method", "gj", "--m", "99"
        )
        assert code == 2
        assert "half-bandwidth m=99 outside [0, 19]" in err

    def test_singular_m_part_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "rho", "--mtx", str(_swap_matrix_file(tmp_path)), "--method", "gj", "--m", "0"
        )
        assert code == 2
        assert "singular" in err


class TestExport:
    def test_comparison_matrix_export(self, capsys, tmp_path, fixtures_dir):
        out_path = tmp_path / "comp.mtx"
        code, out, _ = run_cli(
            capsys, "export", "--mtx", str(fixtures_dir / "spd3.mtx"),
            "--what", "comparison", "-o", str(out_path),
        )
        assert code == 0
        original = read_matrix(fixtures_dir / "spd3.mtx")
        assert (read_matrix(out_path).csr != comparison_matrix(original).csr).nnz == 0

    @pytest.mark.parametrize("part", ["band", "lower", "upper"])
    def test_splitting_part_export(self, capsys, tmp_path, fixtures_dir, part):
        out_path = tmp_path / f"{part}.mtx"
        code, _, _ = run_cli(
            capsys, "export", "--mtx", str(fixtures_dir / "lmat3.mtx"),
            "--what", part, "--m", "1", "-o", str(out_path),
        )
        assert code == 0
        original = read_matrix(fixtures_dir / "lmat3.mtx")
        want = getattr(extract_splitting(original, 1), part)
        assert (read_matrix(out_path).csr != want.csr).nnz == 0

    def test_assembled_system_export(self, capsys, tmp_path):
        from gsolve.pde import LAYOUT_BENCH, assemble

        matrix_path = tmp_path / "a.mtx"
        rhs_path = tmp_path / "b.txt"
        exact_path = tmp_path / "x.txt"
        for what, path in (("matrix", matrix_path), ("rhs", rhs_path),
                           ("exact", exact_path)):
            code, _, _ = run_cli(
                capsys, "export", "--pde", "g=expxy", "n=4",
                "--what", what, "-o", str(path),
            )
            assert code == 0
        problem = assemble(4, "expxy", layout=LAYOUT_BENCH)
        assert (read_matrix(matrix_path).csr != problem.A.csr).nnz == 0
        np.testing.assert_array_equal(np.loadtxt(rhs_path), problem.b)
        np.testing.assert_array_equal(np.loadtxt(exact_path), problem.x_exact)

    @pytest.mark.parametrize("what", ["matrix", "rhs"])
    def test_unwritable_path_is_a_usage_error(self, capsys, tmp_path, what):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, "export", "--pde", "g=zero", "n=5",
                                 "--what", what, "-o", str(path))
        assert code == 2
        assert "wrote" not in out
        assert err.startswith("gsolve: ") and str(path) in err
        assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["run", "--method", "gj"],
    ["rho", "--method", "gj"],
    ["export", "--what", "matrix", "-o", "unused.mtx"],
])
def test_order_zero_file_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
    code, out, err = run_cli(capsys, argv[0], "--mtx", str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert "order must be positive, got 0" in err


@pytest.mark.parametrize("argv, message", [
    (["run", "--method", "bogus"], "unknown method 'bogus'; expected one of gj, ggs, sor, gsor"),
    (["classify", "--predict", "gsor"], "method gsor needs --omega"),
    (["rho", "--method", "bogus"], "unknown method 'bogus'; expected one of gj, ggs, sor, gsor"),
    (["rho", "--method", "gsor", "--omega", "nan"], "omega must be finite and nonzero for gsor"),
], ids=["run-method", "classify-omega", "rho-method", "rho-omega"])
def test_bad_method_spec_is_rejected_before_the_source_is_assembled(
        capsys, monkeypatch, argv, message):
    assembled = []
    assemble = gsolve.cli.assemble
    monkeypatch.setattr(gsolve.cli, "assemble",
                        lambda *args, **kwargs: assembled.append(args) or assemble(*args, **kwargs))
    code, out, err = run_cli(capsys, argv[0], "--pde", "g=negexp4xy", "n=150", *argv[1:])
    assert (code, out) == (2, "")
    assert message in err
    assert assembled == []


@pytest.mark.parametrize("what", ["matrix", "band", "rhs"])
def test_negative_export_bandwidth_is_rejected_before_the_source_is_assembled(
        capsys, monkeypatch, tmp_path, what):
    assembled = []
    monkeypatch.setattr(gsolve.cli, "assemble", lambda *args, **kwargs: assembled.append(args))
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, "export", "--pde", "g=zero", "n=20",
                             "--what", what, "--m", "-1", "-o", str(path))
    assert (code, out) == (2, "")
    assert "half-bandwidth m must be >= 0, got -1" in err
    assert assembled == [] and not path.exists()


@pytest.mark.parametrize("command", ["classify", "rho"])
def test_no_dense_limit_option(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--dense-limit" not in capsys.readouterr().out


def test_main_leaves_the_warning_filters_as_it_found_them(capsys, fixtures_dir):
    before = list(warnings.filters)
    code, _, _ = run_cli(
        capsys, "rho", "--mtx", str(fixtures_dir / "identity3.mtx"),
        "--method", "sor", "--omega", "1.5",
    )
    assert code == 0
    assert warnings.filters == before


def _console_env() -> dict:
    """The environment with the package's source directory on PYTHONPATH."""
    src = str(Path(gsolve.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("argv", [
    ["run", "--pde", "g=zero", "n=10", "--method", "sor,gsor", "--m", "1", "--omega", "1.5"],
    ["table", "2", "--format", "csv"],
], ids=["run-overrelaxed", "table-2"])
def test_console_run_writes_nothing_to_stderr(argv):
    # A fresh interpreter with Python's default warning filters, as a shell user gets.
    env = _console_env()
    done = subprocess.run([sys.executable, "-W", "default", "-m", "gsolve.cli", *argv],
                          capture_output=True, text=True, env=env, check=False, timeout=60)
    assert done.returncode == 0
    assert done.stdout
    assert done.stderr == ""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_silently(unbuffered):
    # The reader closes the pipe before the first write.  Unbuffered, a write in
    # the handler fails; buffered, main's final flush does.
    env = _console_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen([sys.executable, "-m", "gsolve.cli", "table", "2", "--format", "csv"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == 141
    assert err == b""  # no traceback, no "[Errno 32] Broken pipe"


def test_table_starts_without_scipy_io_and_a_later_read_loads_it(fixtures_dir):
    # Matrix Market I/O imports scipy.io on first use, so table never loads it.
    script = "\n".join([
        "import contextlib, io, sys",
        "from gsolve.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert main(['table', '2', '--format', 'csv']) == 0",
        "print('scipy.io' in sys.modules)",
        "from gsolve import read_matrix",
        f"print(read_matrix({str(fixtures_dir / 'spd3.mtx')!r}).n, 'scipy.io' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_console_env(), check=True, timeout=60)
    assert done.stdout.split() == ["False", "3", "True"]


def test_run_prints_the_same_bytes_at_one_and_two_blas_threads():
    # Above order 10 000 OpenBLAS's ddot sums in an order that depends on its
    # thread count; the count and both printed norms must not.
    outputs = []
    for threads in ("1", "2"):
        env = {**_console_env(), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-m", "gsolve.cli", "run", "--pde", "g=negexp4xy", "n=101",
             "--method", "gsor", "--m", "1", "--omega", "1.9", "--format", "csv"],
            capture_output=True, text=True, env=env, check=True, timeout=120)
        lines = [line.split(",") for line in done.stdout.splitlines()]
        column = lines[0].index("seconds")
        for fields in lines[1:]:
            fields[column] = ""
        outputs.append("\n".join(",".join(fields) for fields in lines))
    assert outputs[0] == outputs[1]
    assert ",10100,1,1.9,493,true," in outputs[0]
