#!/usr/bin/env python3
"""Shows that the benchmark's output checks bite.

    python3 perfbench/selftest.py

Runs ``gsolve table all --format csv`` and ``gsolve classify`` on the bench
n=40 zero-reaction matrix once, from the checkout's sources.  The real output
is checked three times: against the true expectations, which must give no
failure, and against one wrong expected table count and one wrong class
verdict, each of which must give exactly one failure and so a nonzero
fail_ratio.  Exits 1 if any of the three does not come out that way.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    if not (run.SRC / "gsolve" / "cli.py").is_file():
        print(f"selftest: no gsolve sources under {run.SRC}", file=sys.stderr)
        return 2
    run.use_checkout_sources()
    import gsolve.cli as cli
    from workloads import TABLE_COUNTS, VERDICTS_1560, Checks, check_classify, check_table

    table, classify = run.run_commands(
        cli, [["table", "all", "--format", "csv"], ["classify", "--pde", "g=zero", "n=40"]])
    wrong_counts = {g: dict(per_size) for g, per_size in TABLE_COUNTS.items()}
    gj, ggs, sor, gsor = wrong_counts["zero"][40]
    wrong_counts["zero"][40] = (gj, ggs, sor, gsor + 1)
    wrong_verdicts = {**VERDICTS_1560, "sdd": "true"}

    cases = (
        ("true expectations", 0, lambda c: (
            check_table(table.stdout, c),
            check_classify(classify.stdout, c, 1560, VERDICTS_1560))),
        ("one wrong expected count", 1, lambda c: check_table(table.stdout, c, wrong_counts)),
        ("one wrong class verdict", 1,
         lambda c: check_classify(classify.stdout, c, 1560, wrong_verdicts)),
    )
    bites = True
    for label, want_failed, check in cases:
        checks = Checks()
        check(checks)
        ok = checks.failed == want_failed
        bites = bites and ok
        print(f"{label}: {checks.failed} of {checks.attempted} checks failed, "
              f"fail_ratio {checks.fail_ratio:.4g} ({'as expected' if ok else 'WRONG'})")
        for failure in checks.failures:
            print(f"  {failure}")
    print("selftest passed" if bites else "selftest FAILED")
    return 0 if bites else 1


if __name__ == "__main__":
    raise SystemExit(main())
