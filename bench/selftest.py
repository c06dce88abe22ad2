"""Self-test of the benchmark at tiny size.

Usage (from the root of a checkout): python3 bench/selftest.py

Runs every workload path on a tiny graph (karate for detect and
matrix-validate, three 20-vertex components for the sweep), untraced and
traced, and checks that each result carries exactly the metrics named in
BENCHMARK.json, that every iteration passes its check, and that each
per-layer metric is non-zero on at least one workload, so a misspelt span
or a layer the tracer misses shows. Then it corrupts one output per
workload and checks that the failure raises failed_frac. Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import shutil
import sys

from run import ROOT, benchmark_metrics, run_workload
from workloads import TINY_WORKLOADS

#: Per-layer metrics that are legitimately 0 on every correct tiny run.
MAY_BE_ZERO = {"rsm.validate_rsm.violations", "failed_frac", "trace.concurrent_child_s",
               "trace.overhead_frac"}


def main() -> int:
    end_to_end, per_layer = benchmark_metrics()
    problems = []
    nonzero = set()
    work = ROOT / ".bench_work" / "selftest"
    for full_name, w in TINY_WORKLOADS.items():
        for trace, corrupt_first in ((False, False), (True, False), (True, True)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                result, _ = run_workload(w, seed=7, seconds=0.1, trace=trace, work=work,
                                         corrupt_first=corrupt_first)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            label = f"{full_name} as {w.name}, trace={int(trace)}, corrupt={corrupt_first}"
            names = per_layer if trace else end_to_end
            if sorted(result["metrics"]) != sorted(names):
                problems.append(f"{label}: metrics {sorted(result['metrics'])}")
            expect_failed = 1 if corrupt_first else 0
            if result["failed"] != expect_failed or result["correct"] == corrupt_first:
                problems.append(f"{label}: {result['failed']} failed, expected {expect_failed}")
            if corrupt_first and not result["metrics"]["failed_frac"]["value"] > 0:
                problems.append(f"{label}: failed_frac did not rise")
            if trace and not corrupt_first:
                nonzero |= {k for k, v in result["metrics"].items() if v["value"]}
            print(f"ran {label}: attempted {result['attempted']}, failed {result['failed']}")
    with contextlib.suppress(OSError):
        work.parent.rmdir()
    never = sorted(set(per_layer) - nonzero - MAY_BE_ZERO)
    if never:
        problems.append(f"per-layer metrics zero on every workload: {never}")
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
