"""Runs one workload's CLI commands in a fresh process, closed loop, one caller.

Usage: python3 worker.py CONFIG.json

CONFIG names the checkout's ``src`` directory, the commands of one iteration
(``{i}`` in an argument becomes the iteration number), the seconds to keep
starting iterations, whether to trace, and where to write results. Each
iteration calls ``rsmc.cli.main(argv)`` in-process for every command and is
appended to the records file as one JSON line as soon as it ends. With
tracing on, iterations alternate untraced and traced, and the spans of the
traced ones are written to the spans file when the run ends.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_iteration(cli, i: int, commands: list[list[str]]) -> dict:
    rcs, stdout = [], []
    error = None
    seconds = 0.0
    try:
        for template in commands:
            argv = [a.replace("{i}", str(i)) for a in template]
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            seconds += time.perf_counter() - start
            rcs.append(rc)
            stdout.append(out.getvalue())
            if rc != 0:
                break
    except (Exception, SystemExit) as exc:  # a crash fails this iteration, not the run
        error = f"{type(exc).__name__}: {exc}"
    return {"i": i, "seconds": seconds, "rcs": rcs, "stdout": stdout, "error": error}


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    sys.path.insert(0, cfg["src"])
    import rsmc.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path(cfg["src"]).resolve()):
        raise SystemExit(f"rsmc imported from {cli.__file__}, not from {cfg['src']}")

    tracer = None
    if cfg["trace"]:
        import rsmc.community
        import rsmc.graph
        import rsmc.rsm
        from tracer import Tracer
        tracer = Tracer({"graph": rsmc.graph, "rsm": rsmc.rsm,
                         "community": rsmc.community, "cli": cli})

    min_iterations = 2 if tracer else 1
    with open(cfg["records"], "w", encoding="utf-8") as records:
        records.write(json.dumps({"import_s": import_s}) + "\n")
        loop_start = time.perf_counter()
        i = 0
        while i < min_iterations or time.perf_counter() - loop_start < cfg["seconds"]:
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.install(request=i)
            try:
                record = run_iteration(cli, i, cfg["commands"])
            finally:
                if traced:
                    tracer.uninstall()
            record["traced"] = traced
            record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            records.write(json.dumps(record) + "\n")
            records.flush()
            gc.collect()
            i += 1
    if tracer:
        Path(cfg["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
