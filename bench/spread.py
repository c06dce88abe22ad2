"""Run the benchmark on several seeds and report each metric's median and spread.

Usage (from the root of a checkout):

    python3 bench/spread.py --runs 10 [--workload NAME ...] [--out FILE]

For every workload this makes --runs untraced runs, one per seed, and one
traced run, then prints for each end-to-end metric the median, the
quartiles and the spread (inter-quartile distance over the median) next to
the metric's bound from BENCHMARK.json. --out writes all of it, with the
environment, as JSON; bench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One benchmark run: (result line, environment line, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env, time.perf_counter() - start


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload in BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for name in workloads:
        values: dict[str, list[float]] = {}
        durations = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env, took = run(name, seed, seconds, 0)
            durations.append(took)
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        report["env"] = env
        rows = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": m["bound"], "values": vals}
            print(f"{name:20s} {m['name']:12s} median {med:10.4f} spread "
                  f"{(q3 - q1) / med:6.3f} (bound {m['bound']})", flush=True)
        traced, _, took = run(name, args.first_seed, seconds, 1)
        print(f"{name:20s} run seconds: max {max(durations):.1f}, traced {took:.1f}", flush=True)
        report["workloads"][name] = {
            "end_to_end": rows,
            "run_durations_s": durations,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
