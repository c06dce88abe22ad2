"""The benchmark's self-test passes on this checkout of the program.

``bench/selftest.py`` runs every workload at tiny size, untraced and traced,
and checks the outputs, the metric names and that every traced layer shows
up, so a program change that breaks what the benchmark measures fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    pytest.importorskip("networkx")  # the benchmark computes its references with it
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
