"""The benchmark runs end to end: one short traced run of each workload.

A change to the program that breaks the names the benchmark's tracer
wraps, or the outputs its checks accept, fails here.  Each run works in a
copy of ``bench/``, ``src/`` and ``BENCHMARK.json``, so the checkout gets no
``.bench_work/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_short_traced_run_is_correct(tmp_path, workload):
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", "*.egg-info")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
