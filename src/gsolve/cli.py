"""Command-line front end: run solvers, reproduce benchmark tables, classify.

Sources are either a Matrix Market file (``--mtx path``) or an assembled
benchmark system (``--pde g=... n=... [layout=...]``).  For file sources the
right-hand side is manufactured as b = A @ ones, so the exact solution is
the all-ones vector, matching the benchmark convention.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .engine import IterationConfig, predict, solve, spectral_radius
from .matrices import (DEFAULT_DENSE_LIMIT, SquareMatrix, classify, comparison_matrix,
                       extract_splitting, require_integer)
from .mmio import read_matrix, write_matrix, write_vector
from .pde import LAYOUT_BENCH, LAYOUTS, assemble
from .solvers import FactorizationError, build_step, iteration_matrix

#: Benchmark tables: reaction coefficient per table number.
TABLE_G = {1: "xplusy", 2: "zero", 3: "expxy", 4: "negexp4xy"}
TABLE_SIZES = (20, 30, 40)
#: Method columns; the SOR column is GSOR pinned at m = 0.
TABLE_COLUMNS = ("gj", "ggs", "sor", "gsor")


def _fmt(value) -> str:
    """Round-trippable text for a CSV/markdown cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_pde_tokens(tokens: list[str]):
    params = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"--pde expects key=value tokens, got {token!r}")
        if key in params:
            raise ValueError(f"--pde got key {key!r} twice")
        params[key] = value
    unknown = set(params) - {"g", "n", "layout"}
    if unknown:
        raise ValueError(f"--pde got unknown keys: {', '.join(sorted(unknown))}")
    if "g" not in params or "n" not in params:
        raise ValueError("--pde needs g=<name> and n=<size>")
    try:  # a whole number, read as the library reads it: "5" and "5.0" are 5
        n = require_integer("--pde n", float(params["n"]))
    except ValueError:
        raise ValueError(f"--pde n must be an integer, got {params['n']!r}") from None
    return params["g"], n, params.get("layout", LAYOUT_BENCH)


def _load_source(args) -> tuple[str, SquareMatrix, np.ndarray, np.ndarray]:
    """Resolve (label, A, b, x_exact) from --mtx or --pde."""
    if getattr(args, "mtx", None):
        try:
            A = read_matrix(args.mtx)
        except (ValueError, OSError) as err:
            raise ValueError(f"cannot read {args.mtx}: {err}") from err
        ones = np.ones(A.n)
        return str(args.mtx), A, A.csr @ ones, ones
    g_id, n, layout = _parse_pde_tokens(args.pde)
    problem = assemble(n, g_id, layout=layout)
    return f"pde:g={g_id}:n={n}:layout={layout}", problem.A, problem.b, problem.x_exact


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--mtx", metavar="PATH", help="Matrix Market coordinate file")
    group.add_argument(
        "--pde",
        nargs="+",
        metavar="KEY=VALUE",
        help="assemble a benchmark system: g=<name> n=<size> [layout=bench|square]",
    )


def _method_plan(token: str, m: int, omega: float | None, **stopping):
    """Map a CLI method token to (label, config); ``sor`` is GSOR pinned at m = 0."""
    label = token.strip().lower()
    if label not in TABLE_COLUMNS:
        raise ValueError(f"unknown method {label!r}; expected one of {', '.join(TABLE_COLUMNS)}")
    if label in ("sor", "gsor") and omega is None:
        raise ValueError(f"method {label} needs --omega")
    sor = label == "sor"
    return label, IterationConfig("gsor" if sor else label, 0 if sor else m, omega, **stopping)


# -- run ------------------------------------------------------------------

RUN_FIELDS = (
    "source",
    "method",
    "n",
    "m",
    "omega",
    "iterations",
    "converged",
    "final_diff_norm",
    "final_error_norm",
    "seconds",
    "note",
)


def _emit_records(fields: tuple[str, ...], rows: list[tuple], fmt: str, out) -> None:
    """Write rows of values, in ``fields`` order, as csv, jsonl or a markdown table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(cells)
    elif fmt == "jsonl":
        for row in cells:
            print(json.dumps(dict(zip(fields, row))), file=out)
    else:  # markdown
        print("| " + " | ".join(fields) + " |", file=out)
        print("|" + "---|" * len(fields), file=out)
        for row in cells:
            print("| " + " | ".join(row) + " |", file=out)


def _cmd_run(args, out) -> int:
    plans = [_method_plan(name, args.m, args.omega, tol=args.tol, max_iter=args.max_iter)
             for name in args.method.split(",")]
    source, A, b, x_exact = _load_source(args)
    rows = []
    for label, config in plans:
        try:
            report = solve(A, b, config, x_exact=x_exact)
            outcome = (report.iterations, report.converged, report.final_diff_norm,
                       report.final_error_norm, report.elapsed_seconds, report.note)
        except FactorizationError as err:
            outcome = (0, False, float("nan"), None, 0.0, f"factorization failed: {err}")
        rows.append((source, label, A.n, config.m, config.omega, *outcome))
    _emit_records(RUN_FIELDS, rows, args.format, out)
    return 0 if all(row[6] for row in rows) else 1  # row[6] is "converged"


# -- table ----------------------------------------------------------------

TABLE_FIELDS = ("table", "g", "n", "method", "m", "omega", "iterations", "seconds", "converged")


def _cmd_table(args, out) -> int:
    numbers = sorted(TABLE_G) if args.which == "all" else [int(args.which)]
    markdown = args.format == "markdown"
    plans = [_method_plan(column, args.m, args.omega, tol=args.tol, max_iter=args.max_iter)
             for column in TABLE_COLUMNS]
    rows = []
    for number in numbers:
        g_id = TABLE_G[number]
        grid = []
        for n in TABLE_SIZES:
            problem = assemble(n, g_id, layout=args.layout)
            shown = []
            for column, config in plans:
                report = solve(problem.A, problem.b, config, x_exact=problem.x_exact)
                shown.append(f"{report.iterations}({report.elapsed_seconds:.2f})")
                rows.append((number, g_id, n, column, config.m, config.omega,
                             report.iterations, report.elapsed_seconds, report.converged))
            grid.append((n, *shown))
        if markdown:
            print(f"## Table {number}: g = {g_id} "
                  f"(m={args.m}, omega={args.omega}, tol={_fmt(args.tol)})", file=out)
            print("", file=out)
            _emit_records(("n", *(c.upper() for c in TABLE_COLUMNS)), grid, "markdown", out)
            print("", file=out)
    if not markdown:
        _emit_records(TABLE_FIELDS, rows, args.format, out)
    return 0 if all(row[-1] for row in rows) else 1


# -- classify / rho / export ----------------------------------------------


def _tristate(value: bool | None) -> str:
    return "undetermined" if value is None else _fmt(value)


def _cmd_classify(args, out) -> int:
    if args.predict:
        label, config = _method_plan(args.predict, args.m, args.omega)
    source, A, _, _ = _load_source(args)
    report = classify(A)
    verdict = predict(A, config, report=report) if args.predict else None
    print(f"source: {source} (order {A.n})", file=out)
    for name, value in (
        ("sdd", report.is_sdd), ("z", report.is_z), ("l", report.is_l),
        ("m", report.is_m), ("h", report.is_h), ("spd", report.is_spd),
    ):
        print(f"{name}: {_tristate(value)}", file=out)
    if report.m.witness is not None:
        print(f"m_witness_min: {_fmt(float(report.m.witness.min()))}", file=out)
    for note in report.notes:
        print(f"note: {note}", file=out)
    if verdict is not None:
        print(f"predict: method={label} m={config.m} omega={_fmt(config.omega)}",
              file=out)
        sources = ", ".join(verdict.guarantee_source) or "none"
        print(f"guaranteed: {_fmt(verdict.guaranteed)} ({sources})", file=out)
        rho = "unavailable" if verdict.rho_estimate is None else f"{verdict.rho_estimate:.6g}"
        print(f"rho: {rho}", file=out)
        print(f"predicted_converges: {_tristate(verdict.predicted_converges)}", file=out)
    return 0


def _cmd_rho(args, out) -> int:
    _, config = _method_plan(args.method, args.m, args.omega)
    require_integer("--seed", args.seed, 0)
    _, A, _, _ = _load_source(args)
    op = build_step(extract_splitting(A, config.m), config.method, config.omega)
    if args.power or A.n > DEFAULT_DENSE_LIMIT:  # only the power route runs above the limit
        estimate = spectral_radius(op, mode="power", seed=args.seed)
        reliable = "yes" if estimate.reliable else "no"
        print(f"rho: {estimate.value:.6g} mode=power reliable={reliable} "
              f"bound={estimate.error_bound:.3g} steps={estimate.steps}", file=out)
        return 0
    value = spectral_radius(iteration_matrix(op))
    print(f"rho: {value:.6g} mode=dense reliable=yes", file=out)
    return 0


def _cmd_export(args, out) -> int:
    require_integer("half-bandwidth m", args.m, 0)  # before the source is read
    source, A, b, x_exact = _load_source(args)
    if args.what in ("rhs", "exact"):
        vector = b if args.what == "rhs" else x_exact
        write_vector(args.output, vector)
        print(f"wrote {args.what} vector (length {len(vector)}) to {args.output}",
              file=out)
        return 0
    if args.what == "matrix":
        result = A
    elif args.what == "comparison":
        result = comparison_matrix(A)
    else:
        result = getattr(extract_splitting(A, args.m), args.what)  # band, lower or upper
    write_matrix(args.output, result, comment=f"{args.what} of {source}")
    print(f"wrote {args.what} ({result.nnz} entries) to {args.output}", file=out)
    return 0


# -- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsolve",
        description="Banded-splitting stationary solvers (GJ/GGS/GSOR): "
        "run, reproduce benchmark tables, classify matrices, estimate spectral radii.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def method_spec(p, omega=None):
        p.add_argument("--m", type=int, default=1, help="half-bandwidth (default 1)")
        p.add_argument("--omega", type=float, default=omega, help="relaxation factor")

    def common_iteration(p, default_format, omega=None):
        method_spec(p, omega)
        p.add_argument("--tol", type=float, default=IterationConfig.tol,
                       help="stopping tolerance")
        p.add_argument("--max-iter", type=int, default=IterationConfig.max_iter,
                       help="iteration cap")
        p.add_argument("--format", choices=("csv", "markdown", "jsonl"),
                       default=default_format)

    p_run = sub.add_parser("run", help="solve one system with one or more methods")
    p_run.set_defaults(handler=_cmd_run)
    _add_source_arguments(p_run)
    p_run.add_argument("--method", required=True,
                       help="comma-separated: gj, ggs, sor, gsor")
    common_iteration(p_run, default_format="csv")

    p_table = sub.add_parser("table", help="reproduce the benchmark iteration tables")
    p_table.set_defaults(handler=_cmd_table)
    p_table.add_argument("which", choices=("1", "2", "3", "4", "all"))
    p_table.add_argument("--layout", choices=LAYOUTS, default=LAYOUT_BENCH)
    common_iteration(p_table, default_format="markdown", omega=1.5)

    p_cls = sub.add_parser("classify", help="matrix-class certification report")
    p_cls.set_defaults(handler=_cmd_classify)
    _add_source_arguments(p_cls)
    p_cls.add_argument("--predict", metavar="METHOD",
                       help="also predict convergence for gj/ggs/sor/gsor")
    method_spec(p_cls)

    p_rho = sub.add_parser("rho", help="spectral radius of an iteration matrix")
    p_rho.set_defaults(handler=_cmd_rho)
    _add_source_arguments(p_rho)
    p_rho.add_argument("--method", required=True, help="gj, ggs, sor, or gsor")
    method_spec(p_rho)
    p_rho.add_argument("--power", action="store_true",
                       help="ARPACK above order 200, dense up to it; implied above 2000")
    p_rho.add_argument("--seed", type=int, default=0,
                       help="start-vector seed for --power (default 0)")

    p_exp = sub.add_parser(
        "export",
        help="write the matrix, its comparison matrix, splitting parts, "
        "or the rhs/exact-solution vectors",
    )
    p_exp.set_defaults(handler=_cmd_export)
    _add_source_arguments(p_exp)
    p_exp.add_argument(
        "--what",
        choices=("matrix", "comparison", "band", "lower", "upper", "rhs", "exact"),
        required=True,
    )
    p_exp.add_argument("--m", type=int, default=1)
    p_exp.add_argument("-o", "--output", required=True,
                       help="output path (.mtx for matrices, text for vectors)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.handler(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # exit as a writer killed by SIGPIPE, and let the interpreter's last flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as err:
        print(f"gsolve: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
