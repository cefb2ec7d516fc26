#!/usr/bin/env python3
"""Benchmark of the gsolve CLI on three workloads.

Run from the root of a checkout that holds ``src/gsolve``:

    python3 perfbench/run.py --workload table48 --seed 1 --seconds 30 --trace 0

Each pass runs the workload's ``gsolve`` commands in this process through
``gsolve.cli.main`` and checks every output (see ``workloads.py``).  After
one untimed warm-up pass, passes repeat until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics: median wall and CPU seconds
per pass, the median of several cold ``import gsolve.cli`` runs in fresh
interpreters, the process's peak RSS, and the pass's error figure.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.  The last line
of standard output is one JSON object; the environment, per-pass samples
and (when traced) the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS/OpenMP threads of the benchmark process and its children (at most nproc).
#: One thread keeps a pass's work on one core of the shared host, and keeps the
#: floating-point reductions, hence the iterates, identical from run to run.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters timed per run for setup_s, and per traced run for the import split.
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
IMPORT_GROUPS = ("gsolve", "numpy", "scipy")


def _cold_import(extra_flags: tuple[str, ...] = ()) -> tuple[float, str]:
    """Seconds for a fresh interpreter to ``import gsolve.cli``, and its stderr."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *extra_flags, "-c", "import gsolve.cli"],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return time.perf_counter() - start, done.stderr


def import_split() -> dict[str, float]:
    """Self import seconds of gsolve, numpy, scipy and everything else (``-X importtime``)."""
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        totals = dict.fromkeys((*IMPORT_GROUPS, "other"), 0.0)
        for line in _cold_import(("-X", "importtime"))[1].splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            top = parts[2].strip().split(".")[0]
            totals[top if top in IMPORT_GROUPS else "other"] += int(parts[0]) * 1e-6
        for group, seconds in totals.items():
            samples[f"import.{group}_s"].append(seconds)
    return {name: statistics.median(values) for name, values in samples.items()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str | None:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(), "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
    }


@contextlib.contextmanager
def capture_error_norms(cli, sink: list[float]):
    """Collect ``final_error_norm`` of every solve the CLI runs (the table prints none)."""
    solve = cli.solve

    @functools.wraps(solve)
    def capturing(*args, **kwargs):
        report = solve(*args, **kwargs)
        sink.append(report.final_error_norm)
        return report

    cli.solve = capturing
    try:
        yield
    finally:
        cli.solve = solve


def run_commands(cli, argvs, tracer=None):
    """Run each argv through ``cli.main`` with its output captured."""
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is reported as a failed check
                traceback.print_exc()
                code = -1
        results.append(workloads.CommandResult(argv, code, out.getvalue(), err.getvalue()))
    return results


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gsolve.cli as cli
    import gsolve.engine as engine
    import spans

    checks = workloads.Checks()
    tracer = spans.Tracer()
    samples: dict[str, list[float]] = defaultdict(list)
    traced_passes: list[int] = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        def one_pass(index: int, traced: bool) -> float:
            error_norms: list[float] = []
            # Traced runs give each traced pass and the untraced one after it the
            # same power start vector, so that their difference is the tracing.
            power_seed = seed * 1000 + ((index + 1) // 2 if trace else index)
            argvs = workloads.commands(workload, Path(tmp), power_seed)
            tracer.pass_id = index
            patch = (spans.patched({"gsolve.cli": cli, "gsolve.engine": engine}, tracer.wrap)
                     if traced else contextlib.nullcontext())
            with capture_error_norms(cli, error_norms), patch:
                start_cpu = time.process_time()
                start = time.perf_counter()
                with tracer.span("pass") if traced else contextlib.nullcontext():
                    results = run_commands(cli, argvs, tracer if traced else None)
                wall = time.perf_counter() - start
                cpu = time.process_time() - start_cpu
            error = workloads.check_pass(workload, results, error_norms, checks)
            kind = "warmup" if index == 0 else "traced" if traced else "untraced"
            samples[f"{kind}.wall_s"].append(wall)
            if index > 0:
                samples[f"{kind}.cpu_s"].append(cpu)
                samples[f"{kind}.error_max"].append(error)
                if traced:
                    traced_passes.append(index)
            return wall

        one_pass(0, traced=False)  # warm-up: lazy imports, first factorizations
        start, index, wall = time.perf_counter(), 1, 0.0
        # Start a pass only if it should end in time; traced runs need one pass of each kind.
        while index <= (2 if trace else 1) or time.perf_counter() - start + wall <= seconds:
            wall = one_pass(index, traced=trace and index % 2 == 1)
            index += 1

    median = {name: statistics.median(values) for name, values in samples.items()}
    if trace:
        per_pass = [spans.pass_metrics(tracer.spans, p) for p in traced_passes]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics.update(spans.operator_metrics(tracer.spans, traced_passes[-1], seed,
                                              metrics["engine.step_us"]))
        metrics.update(import_split())
        metrics["trace.wall_s"] = median["traced.wall_s"]
        metrics["trace.overhead_s"] = median["traced.wall_s"] - median["untraced.wall_s"]
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        samples["setup_s"] = [_cold_import()[0] for _ in range(SETUP_SAMPLES)]
        metrics = {
            "wall_s": median["untraced.wall_s"],
            "cpu_s": median["untraced.cpu_s"],
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_max": median["untraced.error_max"],
        }
    return {"metrics": metrics, "checks": checks, "samples": samples}


def use_checkout_sources() -> None:
    """Pin the BLAS threads before numpy loads, and import gsolve from the checkout,
    in this process and in the interpreters it starts."""
    os.environ.update(dict.fromkeys(THREAD_VARS, str(BLAS_THREADS)))
    os.environ.pop("GSOLVE_DENSE_LIMIT", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def declared_units(trace: bool) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gsolve" / "cli.py").is_file():
        print(f"perfbench: no gsolve sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    use_checkout_sources()

    units = declared_units(bool(args.trace))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    checks, metrics = result["checks"], result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "environment": env,
              "metrics": metrics, "samples": result["samples"],
              "checks_attempted": checks.attempted, "check_failures": checks.failures}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env)}")
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_ratio = {checks.fail_ratio:.6g} ({checks.failed} of {checks.attempted} checks)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
