"""mlrank benchmark: time-to-result of the paper's protocol on fixed workloads.

Usage::

    python3 bench/run.py --workload emotions_cv --seed 0 --seconds 32 --trace 0

Run from the root of a checkout.  The script writes the workload's dataset
files for data seed ``seed % workloads.DATA_SEEDS``, fits the probe models
and their reference optima (untimed), then runs operations, one workload run
each, in fresh child interpreters; it starts another only if it would end
within ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs pairs of an untraced and a traced operation and reports per-layer
metrics from the traced one, per-fit run records, and the tracing overhead.
Either way it checks the outputs and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workload
inputs and results go to ``.bench_work/`` in the checkout.

The host this benchmark was sized on, a shared 2-vCPU virtual machine, ran
the same instructions at speeds up to 50% apart within minutes.  So the
reported times are scaled to a fixed host speed: ``hostspeed.Sampler`` times
a fixed kernel in the driver while each operation runs, and every time is
multiplied by ``REFERENCE_PASS_S`` over the kernel's median CPU time per pass.
The wall times ``setup_s`` and ``solve_s`` are also multiplied by one less
the host's steal share over the operation (``/proc/stat``), the share of all
CPU ticks that the hypervisor gave to other guests.  The raw wall and CPU
times, the steal share and the kernel's pass time are printed beside them
and kept in the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import hostspeed
import tracing
from workloads import DATA_SEEDS, WORKLOADS, draw

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# a run must end within 180 s; children get what is left of this
RUN_LIMIT_S = 170.0
# kernel CPU time per pass at which scaled times equal raw ones: about its
# median on the sizing host, so scaled times read as seconds there
REFERENCE_PASS_S = 0.002


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- environment ------------------------------------------------------------


def environment(seed: int) -> dict:
    commit = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mlrank").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": tracing.blas_config(),
        "blas_threads_main": tracing.blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


# -- inputs and probes ------------------------------------------------------


def write_inputs(w, seed: int, inputs: Path):
    """Draw the workload's data from ``seed`` and write its sparse files."""
    from mlrank import dataset

    inputs.mkdir(parents=True)
    data = draw(w, seed)
    if w.n_test:
        sets = (data.subset(np.arange(w.n)), data.subset(np.arange(w.n, w.n + w.n_test)))
    else:
        sets = (data,)
    paths = []
    for name, part in zip(w.files, sets):
        path = inputs / name
        dataset.save_sparse(part, str(path))
        paths.append(str(path))
    return sets, paths


def objective_for(prepared, algo: str, lam: float):
    from mlrank import model
    from mlrank.losses import LOGISTIC

    return model.Objective(prepared.features, prepared.labels,
                           model.ObjectiveSpec(algo, LOGISTIC, lam))


def cv_probes(w, data) -> list:
    """Per algorithm, one default fit at the smallest lambda on all the data."""
    from mlrank import trainer

    prepared, _ = trainer.prepare_data(data)
    lam = min(w.grid)
    probes = []
    for algo in w.algos:
        model, _ = trainer.train_with_trace(prepared, algo, lam)
        objective = objective_for(prepared, algo, lam)
        probes.append(checks.Probe(f"{algo}@{lam:g}", objective.value(model.weights),
                                   checks.reference_optimum(objective)))
    return probes


def fit_optima(w, train) -> dict:
    """Per algorithm of a ``fit`` workload, the training objective and its
    reference optimum; every operation's fitted weights are probed on them."""
    optima = {}
    for algo in w.algos:
        objective = objective_for(train, algo, w.grid[0])
        optima[algo] = (objective, checks.reference_optimum(objective))
    return optima


# -- children ---------------------------------------------------------------


def host_cpu_ticks() -> tuple[int, int]:
    """Steal and total ticks of all CPUs from ``/proc/stat``.

    Steal is time the hypervisor ran something else on this machine's
    virtual CPUs.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:]]
    return ticks[7], sum(ticks[:8])


class Runner:
    """Launches child interpreters for one run and keeps their results."""

    def __init__(self, w, seed: int, files: list[str], work: Path, t_begin: float):
        self.w, self.seed, self.files, self.work = w, seed, files, work
        self.t_begin = t_begin
        self.count = 0
        self.sampler = hostspeed.Sampler()

    def launch(self, trace: bool = False) -> dict:
        """Run one child; returns its results, or ``{"error": ...}``."""
        self.count += 1
        out = self.work / f"child-{self.count}.json"
        job = {"src": str(SRC), "workload": self.w.name, "files": self.files,
               "seed": self.seed, "out": str(out),
               "trace_dir": str(self.work / f"spans-{self.count}") if trace else None}
        job_path = self.work / f"job-{self.count}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.t_begin))
        steal0, total0 = host_cpu_ticks()
        self.sampler.start()
        t_launch = time.perf_counter()
        # a session of its own, so a timeout can stop the child's pool too
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"child timed out after {timeout:.0f} s"}
        finally:
            speed = self.sampler.stop()
        wall = time.perf_counter() - t_launch
        steal1, total1 = host_cpu_ticks()
        if proc.returncode != 0:
            return {"error": f"child exited with {proc.returncode}: {err.strip()[-2000:]}"}
        result = json.loads(out.read_text(encoding="utf-8"))
        if Path(result["mlrank"]).resolve().parent != (SRC / "mlrank").resolve():
            return {"error": f"child imported mlrank from {result['mlrank']}, not {SRC}"}
        steal = (steal1 - steal0) / max(1, total1 - total0)
        scale = REFERENCE_PASS_S / speed["pass_cpu_s"]
        result |= speed
        result["host_steal_frac"] = steal
        result["wall_s"] = wall
        result["setup_wall_s"] = result["t_loaded"] - t_launch
        result["solve_wall_s"] = result["solve_end"] - result["solve_start"]
        result["cpu_raw_s"] = result["cpu_s"]
        result["setup_s"] = result["setup_wall_s"] * (1.0 - steal) * scale
        result["solve_s"] = result["solve_wall_s"] * (1.0 - steal) * scale
        result["cpu_s"] = result["cpu_raw_s"] * scale
        if trace:
            result["trace_dir"] = job["trace_dir"]
        return result


# -- reporting --------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median and upper percentile of ``values``, with the sample count.

    The upper percentile is the highest one with at least ten samples
    beyond it; below eleven samples that is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        label = f"p{int(100 * (1 - 10 / n))}"
        upper = ordered[n - 11]
    else:
        label, upper = "max", ordered[-1]
    return {"median": statistics.median(ordered), "upper": upper, "upper_label": label, "n": n}


def print_table(rows: dict[str, dict], units: dict[str, str]) -> None:
    print(f"{'metric':<28}{'median':>16}{'upper':>16}{'':>6}{'n':>4}  unit")
    for name, s in rows.items():
        print(f"{name:<28}{s['median']:>16.6g}{s['upper']:>16.6g}{s['upper_label']:>6}"
              f"{s['n']:>4}  {units[name]}")


def end_to_end(ops: list[dict], probes: list) -> dict[str, dict]:
    """Summary rows of the end-to-end metrics over a run's operations."""
    rows = {
        "setup_s": summary([r["setup_s"] for r in ops]),
        "solve_s": summary([r["solve_s"] for r in ops]),
        "cpu_s": summary([r["cpu_s"] for r in ops]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in ops]),
        "rank_loss": summary([statistics.fmean(a["rank_loss"] for a in r["algos"].values())
                              for r in ops]),
        # printed beside the timings scaled by them; not metrics
        "setup_wall_s": summary([r["setup_wall_s"] for r in ops]),
        "solve_wall_s": summary([r["solve_wall_s"] for r in ops]),
        "cpu_raw_s": summary([r["cpu_raw_s"] for r in ops]),
        "host_steal_frac": summary([r["host_steal_frac"] for r in ops]),
        "pass_cpu_s": summary([r["pass_cpu_s"] for r in ops]),
    }
    if probes:
        worst = max(p.gap for p in probes)
        # digits of F* the worst probe matches: steadier across seeds than
        # the gap itself, and capped where the probe check stops resolving
        digits = -math.log10(max(worst, checks.OBJECTIVE_EPS))
        for name, value in (("objective_gap", worst), ("objective_digits", digits)):
            rows[name] = {"median": value, "upper": value, "upper_label": "max",
                          "n": len(probes)}
    return rows


def traced_metrics(w, op: dict, untraced: list[dict], files: list[str]
                   ) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics and per-fit run records of one traced operation."""
    spans, counters = tracing.load(op["trace_dir"])
    layer = tracing.layer_metrics(spans, counters, op["pid"], op["solve_start"], w.workers)
    layer["dataset.file_mb"] = sum(os.path.getsize(f) for f in files) / 1e6
    # on a serial workload the traced process's spans cover the whole solve
    main_self = sum((s["end"] - s["start"]) - s["child_s"] for s in spans
                    if s["pid"] == op["pid"] and s["start"] >= op["solve_start"])
    main_self += sum(c["counters"].get("inner_step_s", 0.0) for c in counters
                     if c["pid"] == op["pid"])
    untraced_solve = statistics.median(r["solve_s"] for r in untraced)
    layer["trace.solve_s"] = op["solve_s"]
    layer["trace.untraced_solve_s"] = untraced_solve
    layer["trace.overhead_frac"] = op["solve_s"] / untraced_solve - 1.0
    layer["trace.accounted_frac"] = main_self / op["solve_wall_s"]
    return layer, tracing.fit_records(spans)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_begin = time.perf_counter()
    if not (SRC / "mlrank" / "__init__.py").is_file():
        print(f"error: no mlrank package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["objective_gap"] = "ratio"
    units.update(host_steal_frac="frac", setup_wall_s="s", solve_wall_s="s", cpu_raw_s="s",
                 pass_cpu_s="s")

    seed = args.seed % DATA_SEEDS
    work = WORK / f"{w.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    sets, files = write_inputs(w, seed, work / "inputs")
    env = environment(args.seed) | {"data_seed": seed}
    expected = checks.load_expected()
    print(f"mlrank benchmark: workload={w.name} seed={args.seed} (data seed {seed}) "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {w.why}")
    print("env " + json.dumps(env))

    # probes and reference optima are outside every timed region
    if w.kind == "cv":
        probes, optima = cv_probes(w, sets[0]), {}
    else:
        from mlrank import trainer

        probes, optima = [], fit_optima(w, trainer.prepare_data(sets[0])[0])
    problems = checks.check_probes(probes)

    runner = Runner(w, seed, files, work, t_begin)
    ops: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    t_measure = time.perf_counter()
    while True:
        batch = [runner.launch()] + ([runner.launch(trace=True)] if args.trace else [])
        batch_wall = 0.0
        for i, result in enumerate(batch):
            op = attempted = attempted + 1
            op_problems = []
            if "error" in result:
                op_problems.append(result["error"])
            else:
                batch_wall += result["wall_s"]
                losses = {a: r["rank_loss"] for a, r in result["algos"].items()}
                op_problems += checks.check_rank_losses(w.name, seed, losses, expected)
                for algo, (obj, optimum) in optima.items():
                    W = np.load(result["algos"][algo]["weights"])
                    probe = checks.Probe(f"{algo}@{w.grid[0]:g} op{op}",
                                         obj.value(W), optimum)
                    probes.append(probe)
                    op_problems += checks.check_probes([probe])
            failed += bool(op_problems)
            problems += [f"op {op}: {p}" for p in op_problems]
            if not op_problems:
                (traced if args.trace and i == 1 else ops).append(result)
        elapsed = time.perf_counter() - t_measure
        if not batch_wall or elapsed + batch_wall > args.seconds:
            break

    for p in probes:
        print(f"probe {p.name}: F(W)={p.value:.12g} F*={p.optimum:.12g} gap={p.gap:.3e}")
    for k, r in enumerate(ops + traced, start=1):
        kind = "traced" if r in traced else "untraced"
        losses = " ".join(f"{a}={v['rank_loss']:.6f}" for a, v in r["algos"].items())
        print(f"op {k} ({kind}): setup {r['setup_s']:.4f} s, solve {r['solve_s']:.4f} s "
              f"(wall {r['setup_wall_s']:.4f} s, {r['solve_wall_s']:.4f} s at host steal "
              f"{r['host_steal_frac']:.1%}), cpu {r['cpu_s']:.3f} s (raw {r['cpu_raw_s']:.3f} s; "
              f"kernel pass {1e3 * r['pass_cpu_s']:.3f} ms over {r['passes']}), "
              f"peak rss {r['peak_rss_mb']:.1f} MB; rank loss {losses}")

    values: dict[str, float] = {}
    fit_records: list[dict] = []
    if ops and not args.trace:
        rows = end_to_end(ops, probes)
        print_table(rows, units)
        values = {name: row["median"] for name, row in rows.items()}
    if traced:
        values, fit_records = traced_metrics(w, traced[0], ops, files)
        if "trainer.blas_threads" not in values:
            problems.append("trainer.blas_threads: OpenBLAS thread count could not be read")
        for rec in fit_records:
            print("fit " + json.dumps(rec))
        print(f"{'metric':<28}{'value':>16}  unit")
        for name in sorted(values):
            print(f"{name:<28}{values[name]:>16.6g}  {units.get(name, '')}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    measured = bool(ops) and (bool(traced) or not args.trace)
    if measured:
        problems += [f"metric {m['name']} was not measured" for m in wanted
                     if m["name"] not in values]
    correct = measured and not problems
    for p in problems:
        print(f"check failed: {p}")
    print(f"correct: {str(correct).lower()} (rank losses checked against the values recorded "
          f"for data seed {seed}, tolerance {expected['tolerance']})")

    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct, "attempted": attempted,
              "failed": failed, "problems": problems, "metrics": metrics,
              "probes": [p.__dict__ | {"gap": p.gap} for p in probes],
              "ops": ops + traced,
              "fits": fit_records}
    shutil.rmtree(work / "inputs", ignore_errors=True)
    for path in work.glob("spans-*"):
        shutil.rmtree(path, ignore_errors=True)
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str),
                                      encoding="utf-8")
    print(f"results: {work / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
