#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workloads table48,grid150,analysis --seeds 1-10

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and
prints for every end-to-end metric the median of the runs and the distance
between their first and third quartiles as a share of that median, beside
the metric's bound in BENCHMARK.json.  ``--out`` also writes the runs, the
summary and the environment of the last run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            environment = next((json.loads(line.split(": ", 1)[1]) for line in lines
                                if line.startswith("environment: ")), None)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            print(f"  {workload} {name}: median {median:.6g}, spread {(q3 - q1) / median:.3f} "
                  f"(bound {bound}, a third is {bound / 3:.3f})", flush=True)
        report[workload] = {"environment": environment, "runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
