#!/usr/bin/env python3
"""Run every verification suite and write one JSON report per suite.

Usage:
    python scripts/run_full_verification.py [--config CONFIG] [--out DIR]
                                            [--jobs N]

Exit status mirrors `simplexpoly verify`, the worst over the suites: 0
all green, 1 failures, 2 erratum candidates, 64 a usage error such as a
--jobs below 1 or an --out directory that cannot be made, 65 a config
error such as a config file that cannot be read or is not a JSON object, a
section or row of the wrong shape, or a suite section that yields no
checks.
"""

import os
import sys
import time

from simplexpoly import sweeps
from simplexpoly.cli import (EX_CONFIG, EX_ERRATUM, EX_FAIL, EX_OK, EX_USAGE, _jobs, _Parser,
                             exit_status)
from simplexpoly.operators import summarize


def main(argv=None) -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="reports")
    parser.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1)
    args = parser.parse_args(argv)

    # Every suite's section is checked before any suite runs, so a bad
    # late section costs no work and leaves no report behind.  The config's
    # "jobs" is checked as `simplexpoly verify` checks it, though --jobs
    # sets the process count here.
    try:
        _, plan = sweeps.plan(args.config, sweeps.SUITES)
    except sweeps.CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EX_USAGE

    exit_code = EX_OK
    grand = {"pass": 0, "fail": 0, "not_applicable": 0}
    wall = time.perf_counter()
    for suite, tasks in plan:
        start = time.perf_counter()
        reports = sweeps.run_suite_tasks(suite, tasks, jobs=args.jobs)
        elapsed = time.perf_counter() - start
        summary = summarize(reports)
        sweeps.write_report(os.path.join(args.out, f"{suite}.json"), reports, summary)
        totals = summary["totals"]
        for key in grand:
            grand[key] += totals[key]
        status = exit_status(summary)
        exit_code = max(exit_code, status)
        flag = {EX_ERRATUM: "  ERRATUM: " + ", ".join(summary["erratum_candidates"]),
                EX_FAIL: "  FAILURES"}.get(status, "")
        print(
            f"{suite:<14} {totals['pass']:>6} pass "
            f"{totals['fail']:>4} fail {totals['not_applicable']:>5} n/a "
            f"{elapsed:7.1f}s{flag}"
        )
    print(
        f"{'total':<14} {grand['pass']:>6} pass "
        f"{grand['fail']:>4} fail {grand['not_applicable']:>5} n/a "
        f"{time.perf_counter() - wall:7.1f}s"
    )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
