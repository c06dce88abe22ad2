"""rsmc benchmark: CLI wall time end to end, per-layer spans traced from outside.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run sets up the seeded inputs and their reference answers three times
(``setup_s`` is the median, plus the time a fresh process takes to import
rsmc), then starts a fresh worker process (worker.py) that runs the
workload's CLI commands in-process, one iteration after another, until S
seconds have passed. Every iteration's outputs are checked against the
reference after the worker ends, outside the timed interval; a non-zero
exit code, an exception or a wrong output fails the iteration.

--trace 0 reports the end-to-end metrics: ``wall_s``, the median time of
one iteration; ``setup_s``; ``peak_rss_mb``, the worker's peak RSS after its
first iteration. --trace 1 alternates untraced and traced iterations and
reports per-layer metrics from the traced ones (medians over iterations),
``trace.overhead_frac`` and ``failed_frac``. The last line of standard
output is the JSON result; the lines before it record the environment and
sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import summarize
from workloads import WORKLOADS, Workload, build_inputs, check, corrupt

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
#: A run must end within 180 s; this leaves time for the checks after the worker.
WORKER_DEADLINE_S = 150.0
THREAD_VARS = ("RSMC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": deps.get("lapack", {}).get("name"),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def benchmark_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and of the per-layer metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, corrupt_first: bool = False) -> tuple[dict, dict]:
    """Set up, run and check one workload; return (result line, sample counts)."""
    started = time.perf_counter()
    end_to_end, per_layer = benchmark_metrics()
    src = ROOT / "src"
    if not (src / "rsmc" / "__init__.py").is_file():
        raise SystemExit(f"no rsmc package under {src}")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = build_inputs(w, seed, work)
        setup_times.append(time.perf_counter() - t0)

    config = {
        "src": str(src), "commands": inputs.commands, "seconds": seconds, "trace": trace,
        "records": str(work / "records.jsonl"), "spans": str(work / "spans.json"),
    }
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    budget = max(10.0, WORKER_DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "config.json")],
                              cwd=ROOT, timeout=budget, stdout=subprocess.DEVNULL)
        # a worker that died mid-iteration loses that iteration, which counts as failed
        lost = proc.returncode != 0
    except subprocess.TimeoutExpired:
        lost = True
    path = work / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    records = [json.loads(line) for line in lines[1:]]
    if not records:
        raise SystemExit(f"{w.name}: the worker finished no iteration within {budget:.0f} s")
    import_s = json.loads(lines[0])["import_s"]

    failed = int(lost)
    for r in records:
        if corrupt_first and r["i"] == 0 and not r["error"]:
            corrupt(w, work, 0)
        try:
            reason = check(w, inputs, work, r)
        except Exception as exc:  # an unreadable output is a wrong output
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failed += 1
            print(f"{w.name} iteration {r['i']} failed: {reason}", file=sys.stderr)
    attempted = len(records) + int(lost)

    plain = [r["seconds"] for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    samples = {"setup_each_s": setup_times, "import_s": import_s, "iteration_s": plain,
               "traced_iterations": len(traced), "worker_lost": lost}
    if not trace:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times) + import_s,
            "peak_rss_mb": records[0]["maxrss_kb"] / 1024.0,
        }
    else:
        spans_path = work / "spans.json"
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else []
        per_request = [summarize([s for s in spans if s["request"] == r["i"]]) for r in traced]
        metrics = {}
        for name in per_layer:
            values = [p.get(name, 0.0) for p in per_request]
            metrics[name] = statistics.median(values) if values else 0.0
        metrics["trace.overhead_frac"] = metrics["cli.main.s"] / statistics.median(plain) - 1.0
        metrics["failed_frac"] = failed / attempted
    unit = {**end_to_end, **per_layer}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    return result, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, samples = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                       bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("env " + json.dumps(environment()))
    print("samples " + json.dumps(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
