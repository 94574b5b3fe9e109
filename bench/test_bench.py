"""Tests of the benchmark itself: its checks reject bad results, and spans
recorded inside pool workers reach the trace.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

EXPECTED = {"tolerance": 0.01, "rank_loss": {"w": {"pa": {"3": 0.20, "4": 0.24}}}}


def test_rank_loss_on_recorded_seed_must_match_within_tolerance():
    assert checks.check_rank_losses("w", 3, {"pa": 0.205}, EXPECTED) == []
    problems = checks.check_rank_losses("w", 3, {"pa": 0.2101}, EXPECTED)
    assert len(problems) == 1 and "recorded" in problems[0]
    assert checks.check_rank_losses("w", 3, {"pa": math.nan}, EXPECTED)


def test_rank_loss_on_unrecorded_seed_fails():
    problems = checks.check_rank_losses("w", 9, {"pa": 0.20}, EXPECTED)
    assert len(problems) == 1 and "record_expected.py" in problems[0]


def test_rank_loss_check_needs_every_recorded_algorithm():
    assert checks.check_rank_losses("w", 3, {}, EXPECTED)
    assert checks.check_rank_losses("other", 3, {"pa": 0.2}, EXPECTED)


def test_every_data_seed_of_every_workload_is_recorded():
    from workloads import DATA_SEEDS, WORKLOADS

    recorded = checks.load_expected()["rank_loss"]
    for name, w in WORKLOADS.items():
        assert set(recorded[name]) == set(w.algos)
        for by_seed in recorded[name].values():
            assert set(by_seed) == {str(s) for s in range(DATA_SEEDS)}


def test_drawn_labels_have_the_workload_cardinality():
    from workloads import WORKLOADS, draw

    for w in WORKLOADS.values():
        positives = (draw(w, 0).labels > 0).sum(axis=1)
        assert positives.min() >= 1 and positives.max() < w.c
        assert abs(positives.mean() - w.cardinality) < 0.05


def test_probe_below_reference_optimum_is_rejected():
    assert checks.check_probes([checks.Probe("ok", 0.5 + 1e-9, 0.5)]) == []
    assert checks.check_probes([checks.Probe("low", 0.5 - 1e-7, 0.5)])
    assert checks.check_probes([checks.Probe("nan", math.nan, 0.5)])


def test_reference_optimum_lies_below_a_default_fit():
    from mlrank import dataset, model, trainer
    from mlrank.losses import LOGISTIC

    data, _ = trainer.prepare_data(dataset.synthetic_linear(80, 5, 4, seed=1, noise=0.1))
    for algo in ("pa", "u3"):
        fit, _ = trainer.train_with_trace(data, algo, 1e-2)
        objective = model.Objective(data.features, data.labels,
                                    model.ObjectiveSpec(algo, LOGISTIC, 1e-2))
        probe = checks.Probe(algo, objective.value(fit.weights),
                             checks.reference_optimum(objective))
        assert checks.check_probes([probe]) == []
        assert 0.0 <= probe.gap < 1e-4


def test_host_speed_sampler_times_kernel_passes_until_stopped():
    sampler = hostspeed.Sampler()
    sampler.start()
    time.sleep(3.5 * hostspeed.INTERVAL_S)
    speed = sampler.stop()
    assert speed["passes"] >= 2 and speed["passes"] == len(sampler.cpu)
    assert 0 < speed["pass_cpu_s"] < 1
    time.sleep(2 * hostspeed.INTERVAL_S)
    assert len(sampler.cpu) == speed["passes"]


_TRACED_CV = """
import json, os, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
from tracing import Tracer
tracer = Tracer({out!r})
tracer.install()
from mlrank import dataset, trainer
data = dataset.synthetic_linear(60, 5, 4, seed=0, noise=0.1)
start = time.perf_counter()
trainer.cross_validate(data, "u3", [1e-2, 1e-1], k=2, workers=2)
tracer.flush()
print(json.dumps({{"pid": os.getpid(), "start": start}}))
"""


def test_spans_recorded_in_pool_workers_reach_the_trace(tmp_path):
    out = tmp_path / "spans"
    code = _TRACED_CV.format(src=str(ROOT / "src"), bench=str(BENCH), out=str(out))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    spans, counters = tracing.load(str(out))

    worker_names = {s["name"] for s in spans if s["pid"] != info["pid"]}
    assert {"prepare_data", "train_with_trace", "minimize_svrg_bb", "svrg_snapshot",
            "evaluate"} <= worker_names
    assert any(c["worker"] and c["counters"].get("inner_steps", 0) > 0 for c in counters)

    m = tracing.layer_metrics(spans, counters, info["pid"], info["start"], workers=2)
    # 2 folds x 2 lambdas to select, then 2 final fits
    assert m["optimizer.fits"] == 6
    assert m["trainer.task_busy_s"] > 0 and m["model.inner_steps"] > 0
    assert m["trainer.cv_s"] > 0
    records = tracing.fit_records(spans)
    assert len(records) == 6
    assert all(r["algo"] == "u3" and r["epochs"] >= 1 and r["stop_reason"] for r in records)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "emotions_cv",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
