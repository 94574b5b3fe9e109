"""One benchmark operation in a fresh interpreter.

Usage: ``python3 child.py JOB.json``.  The job names the workload, its data
files, the ``src`` directory holding mlrank, the output path and, for a
traced operation, the span directory.  The child imports mlrank, parses the
files (set-up), and runs the workload through mlrank's public API (solve).
It writes its timings, resource use and results to the output path; any
exception exits non-zero.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    # the child's own threads plus its pool workers, which are joined before
    # each cross_validate call returns
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _own_peak_mib() -> float:
    # ru_maxrss of a process started by exec also counts the launching
    # process's memory (the kernel folds the replaced address space's
    # high-water mark into it), so read this address space's own mark
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy as np

    import mlrank
    from mlrank import dataset, trainer
    from workloads import WORKLOADS

    tracer = None
    if job["trace_dir"]:
        from tracing import Tracer

        tracer = Tracer(job["trace_dir"])
        tracer.install()

    w = WORKLOADS[job["workload"]]
    sets = [dataset.load_sparse(path) for path in job["files"]]
    out = {"t_loaded": time.perf_counter(), "mlrank": mlrank.__file__, "pid": os.getpid()}
    cpu0 = _cpu_seconds()
    out["solve_start"] = time.perf_counter()
    algos, weights = {}, {}
    if w.kind == "cv":
        for algo in w.algos:
            r = trainer.cross_validate(sets[0], algo, w.grid, k=w.folds, seed=job["seed"],
                                       workers=w.workers,
                                       select_on_test_folds=w.test_fold_protocol)
            algos[algo] = {"rank_loss": r.mean_ranking_loss,
                           "fold_losses": r.fold_ranking_losses.tolist(),
                           "best_lambda": r.best_lambda}
    else:
        train, params = trainer.prepare_data(sets[0])
        test, _ = trainer.prepare_data(sets[1], params=params)
        for algo in w.algos:
            model, trace = trainer.train_with_trace(train, algo, w.grid[0])
            report = trainer.evaluate(model, test)
            weights[algo] = model.weights
            algos[algo] = {"rank_loss": report.ranking_loss, "epochs": len(trace.records),
                           "converged": trace.converged, "stop_reason": trace.stop_reason}
    out["solve_end"] = time.perf_counter()
    out["cpu_s"] = _cpu_seconds() - cpu0
    # pool workers are forked, not exec'd, so their ru_maxrss is their own
    out["peak_rss_mb"] = max(_own_peak_mib(),
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    out["algos"] = algos
    for algo, W in weights.items():
        path = f"{job['out']}.{algo}.npy"
        np.save(path, W)
        algos[algo]["weights"] = path
    if tracer is not None:
        tracer.flush()
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
