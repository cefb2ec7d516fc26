"""The benchmark's workloads: the gsolve CLI commands of one pass and the checks on their output.

Every expected value lives in this file.  The 48 table counts are the
paper's cells on the bench grid; they are copied here rather than imported
from the test suite so that the benchmark runs from its own files.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("table48", "grid150", "analysis")

#: Paper iteration counts per (g, n): GJ m=1, GGS m=1, SOR (GSOR m=0), GSOR m=1; omega = 1.5.
TABLE_COUNTS = {
    "xplusy": {20: (619, 322, 211, 105), 30: (1336, 695, 466, 240), 40: (2312, 1204, 815, 422)},
    "zero": {20: (652, 339, 222, 112), 30: (1405, 731, 491, 253), 40: (2429, 1264, 856, 444)},
    "expxy": {20: (611, 318, 208, 104), 30: (1319, 687, 460, 237), 40: (2282, 1188, 804, 417)},
    "negexp4xy": {20: (824, 427, 282, 143), 30: (1736, 899, 606, 313), 40: (2972, 1540, 1045, 543)},
}
TABLE_METHODS = ("gj", "ggs", "sor", "gsor")

#: Largest ||x - x*||_2 over a pass's solves, as the seed code reaches it at tol 1e-7.
SEED_ERROR_MAX = {"table48": 1.7147012706767337e-05, "grid150": 1.402153265082959e-05}
#: A pass fails its accuracy check when error_max exceeds the seed value by more than this share.
ERROR_SLACK = 0.01

#: Class verdicts of the negexp4xy n=150 matrix read back from Matrix Market (order 22350;
#: SPD is undetermined above the dense limit) and of the zero-reaction n=40 matrix (order 1560).
VERDICTS_22350 = {"sdd": "false", "z": "true", "l": "true", "m": "true", "h": "true",
                  "spd": "undetermined"}
VERDICTS_1560 = {**VERDICTS_22350, "spd": "true"}
EXPORT_ENTRIES = 111152
PREDICT_RHO = 0.963655
PREDICT_RHO_TOL = 5e-5  # 4 decimal places
POWER_RHO = 0.999023
POWER_RHO_TOL = 1e-4


@dataclass
class CommandResult:
    argv: list[str]
    code: int
    stdout: str
    stderr: str


@dataclass
class Checks:
    """Output checks attempted and the descriptions of those that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def commands(workload: str, tmpdir: Path, power_seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass of ``workload``."""
    if workload == "table48":
        return [["table", "all", "--format", "csv"]]
    if workload == "grid150":
        return [["run", "--pde", "g=negexp4xy", "n=150", "--method", "sor,gsor",
                 "--m", "1", "--omega", "1.9"]]
    if workload == "analysis":
        mtx = str(tmpdir / "negexp4xy-150.mtx")
        return [
            ["export", "--pde", "g=negexp4xy", "n=150", "--what", "matrix", "-o", mtx],
            ["classify", "--mtx", mtx],
            ["classify", "--pde", "g=zero", "n=40", "--predict", "gsor", "--m", "1",
             "--omega", "1.5"],
            ["rho", "--pde", "g=zero", "n=100", "--method", "gj", "--power",
             "--seed", str(power_seed)],
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def check_table(stdout: str, checks: Checks, counts=TABLE_COUNTS) -> None:
    """Every one of the 48 cells converged with exactly the paper's count."""
    rows = {(r["g"], int(r["n"]), r["method"]): r for r in csv.DictReader(io.StringIO(stdout))}
    checks.expect(len(rows) == 48, f"table printed {len(rows)} cells, expected 48")
    for g_id, per_size in counts.items():
        for n, cells in per_size.items():
            for method, want in zip(TABLE_METHODS, cells):
                row = rows.get((g_id, n, method))
                got = None if row is None else (int(row["iterations"]), row["converged"])
                checks.expect(got == (want, "true"),
                              f"table {g_id} n={n} {method}: got {got}, expected ({want}, 'true')")


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def check_classify(stdout: str, checks: Checks, order: int, verdicts: dict[str, str]) -> dict:
    """The source has the given order and every class verdict matches."""
    fields = _fields(stdout)
    checks.expect(f"(order {order})" in fields.get("source", ""),
                  f"classify: source line {fields.get('source')!r} lacks order {order}")
    for name, want in verdicts.items():
        checks.expect(fields.get(name) == want,
                      f"classify order {order}: {name} is {fields.get(name)}, expected {want}")
    return fields


def check_predict(fields: dict[str, str], checks: Checks) -> None:
    checks.expect(fields.get("predicted_converges") == "true",
                  f"predict: predicted_converges is {fields.get('predicted_converges')}")
    try:
        rho = float(fields.get("rho", "nan"))
    except ValueError:
        rho = float("nan")
    checks.expect(abs(rho - PREDICT_RHO) <= PREDICT_RHO_TOL,
                  f"predict: rho {fields.get('rho')}, expected {PREDICT_RHO}")


_POWER_LINE = re.compile(r"rho: (\S+) mode=power reliable=(\w+) bound=(\S+) steps=(\d+)")


def check_power(stdout: str, checks: Checks) -> float:
    """The power estimate is reliable and near the known radius; returns its error bound."""
    match = _POWER_LINE.search(stdout)
    if not checks.expect(match is not None, f"rho: unparsed output {stdout!r}"):
        return float("nan")
    value, reliable, bound = float(match[1]), match[2], float(match[3])
    checks.expect(abs(value - POWER_RHO) <= POWER_RHO_TOL,
                  f"rho: power value {value}, expected {POWER_RHO}")
    checks.expect(reliable == "yes", f"rho: reliable={reliable}")
    return bound


def check_pass(workload: str, results: list[CommandResult], error_norms: list[float],
               checks: Checks) -> float:
    """Check one pass's outputs; returns the pass's error figure.

    For the solve workloads the figure is the largest ||x - x*||_2 over the
    pass's solves (``error_norms``, taken from the solve reports).  For
    ``analysis``, which solves nothing, it is the error bound the power
    estimate of rho prints.
    """
    for res in results:
        checks.expect(res.code == 0, f"gsolve {' '.join(res.argv)} exited {res.code}: "
                                     f"{res.stderr.strip()[-300:]}")
    if workload == "table48":
        check_table(results[0].stdout, checks)
    elif workload == "grid150":
        rows = list(csv.DictReader(io.StringIO(results[0].stdout)))
        for method in ("sor", "gsor"):
            converged = [r["converged"] for r in rows if r["method"] == method]
            checks.expect(converged == ["true"], f"grid150 {method}: converged {converged}")
    else:
        export, classify_mtx, classify_pde, rho = (r.stdout for r in results)
        checks.expect(f"wrote matrix ({EXPORT_ENTRIES} entries)" in export,
                      f"export: {export.strip()!r}")
        check_classify(classify_mtx, checks, 22350, VERDICTS_22350)
        check_predict(check_classify(classify_pde, checks, 1560, VERDICTS_1560), checks)
        return check_power(rho, checks)
    error = max(error_norms, default=float("nan"))
    limit = SEED_ERROR_MAX[workload] * (1.0 + ERROR_SLACK)
    checks.expect(error <= limit, f"{workload}: error_max {error} above {limit}")
    return error
