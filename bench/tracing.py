"""Spans around mlrank's public functions, recorded from the benchmark's side.

``Tracer.install`` replaces the public functions of each layer (``dataset``,
``losses``, ``model``, ``optimizer``, ``trainer``) with wrappers that record
a span per call: layer, name, start, end, CPU time of the process, the time
covered by child spans, and the span that caused it.  ``svrg_direction`` runs
once per inner step, so it is aggregated into two counters instead of one
span per call.

Spans stay in memory.  Pool workers are forked from the traced process, so
they inherit the wrappers; a worker appends its spans to its own file each
time an outermost span ends, because a pool worker exits without running
``atexit`` hooks.  The traced process writes its spans with ``flush()``.
``load`` reads every file back and ``layer_metrics`` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("dataset", "losses", "model", "optimizer", "trainer")


def _openblas():
    """numpy's bundled scipy-openblas library, or None if it cannot be found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    for path in libs:
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_call(symbol: str, restype):
    lib = _openblas()
    fn = getattr(lib, symbol, None) if lib is not None else None
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = restype
    return fn()


def blas_threads() -> int | None:
    """OpenBLAS thread count in effect in this process, or None if unknown.

    Reads the count from numpy's bundled scipy-openblas through ``ctypes``;
    returns None rather than a guess when the library or symbol is absent.
    """
    return _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)


def blas_config() -> str | None:
    """Build string of numpy's bundled OpenBLAS, or None if unknown."""
    config = _openblas_call("scipy_openblas_get_config64_", ctypes.c_char_p)
    return config.decode() if config is not None else None


class _Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "cpu", "child_s", "attrs")

    def to_dict(self, pid: int) -> dict:
        return {"id": self.id, "parent": self.parent, "pid": pid, "layer": self.layer,
                "name": self.name, "start": self.start, "end": self.end, "cpu": self.cpu,
                "child_s": self.child_s, "attrs": self.attrs}


class Tracer:
    """Span recorder for one traced process and the workers it forks."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.done: list[dict] = []
        self.stack: list[_Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.next_id = 0
        self.blas_read = False

    # -- recording ----------------------------------------------------------

    def _open(self, layer: str, name: str) -> _Span:
        if not self.stack and not self.blas_read:
            # first outermost span in this process: note the BLAS threads
            # the work below runs with
            self.blas_read = True
            threads = blas_threads()
            if threads is not None:
                self.counters["blas_threads"] = threads
        span = _Span()
        span.id = self.next_id
        self.next_id += 1
        span.parent = self.stack[-1].id if self.stack else None
        span.layer, span.name, span.child_s, span.attrs = layer, name, 0.0, {}
        self.stack.append(span)
        span.cpu = time.process_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.end - span.start
        self.done.append(span.to_dict(os.getpid()))
        if not self.stack and os.getpid() != self.main_pid:
            self.flush()

    def wrap(self, layer: str, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span; ``on_result(span, args,
        kwargs, result)`` may attach attributes before the span closes."""

        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def flush(self) -> None:
        """Append this process's finished spans and counters to its file."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.done:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"pid": os.getpid(), "counters": dict(self.counters),
                                 "worker": os.getpid() != self.main_pid}) + "\n")
        self.done = []
        blas = self.counters.get("blas_threads")
        self.counters = defaultdict(float)
        if blas is not None:
            self.counters["blas_threads"] = blas

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace the public functions of every layer with traced wrappers."""
        from mlrank import dataset, losses, model, trainer

        dataset.load_sparse = self.wrap("dataset", "load_sparse", dataset.load_sparse)
        # prepare_data lives in trainer but does dataset work only
        # (standardize_fit, standardize_apply, append_bias)
        trainer.prepare_data = self.wrap("dataset", "prepare_data", trainer.prepare_data)

        pair_builder = losses.pairwise_batch_for

        def pairwise_batch_for(labels, base):
            Y = np.asarray(labels)
            a = (Y > 0).sum(axis=1)
            useful, total = float(np.sum(a * (Y.shape[1] - a))), float(Y.size * Y.shape[1])

            def attach(span, args, kwargs, result):
                span.attrs["useful_pairs"] = useful
                span.attrs["dense_pairs"] = total

            return self.wrap("losses", "pairwise_batch", pair_builder(labels, base), attach)

        losses.pairwise_batch_for = self.wrap("losses", "pairwise_batch_for", pairwise_batch_for)
        losses.univariate_batch = self.wrap("losses", "univariate_batch", losses.univariate_batch)
        losses.ranking_loss_batch = self.wrap("losses", "ranking_loss_batch",
                                              losses.ranking_loss_batch)
        grouper = losses.group_by_label_pattern

        def group_by_label_pattern(labels):
            groups = grouper(labels)
            self.counters["ranking_patterns"] += len(groups)
            return groups

        losses.group_by_label_pattern = group_by_label_pattern

        model.Objective.svrg_snapshot = self.wrap("model", "svrg_snapshot",
                                                  model.Objective.svrg_snapshot)
        direction = model.Objective.svrg_direction

        def svrg_direction(obj, W, i, snap):
            t0 = time.perf_counter()
            result = direction(obj, W, i, snap)
            dt = time.perf_counter() - t0
            self.counters["inner_step_s"] += dt
            self.counters["inner_steps"] += 1
            if self.stack:
                self.stack[-1].child_s += dt
            return result

        model.Objective.svrg_direction = svrg_direction

        def fit_record(span, args, kwargs, result):
            _, trace = result
            span.attrs.update(epochs=len(trace.records), converged=bool(trace.converged),
                              stop_reason=trace.stop_reason,
                              objective=trace.records[-1].objective if trace.records else None)

        trainer.minimize_svrg_bb = self.wrap("optimizer", "minimize_svrg_bb",
                                             trainer.minimize_svrg_bb, fit_record)

        def fit_args(span, args, kwargs, result):
            bound = dict(zip(("data", "algo", "lam"), args), **kwargs)
            span.attrs.update(algo=bound["algo"], lam=bound["lam"], n=bound["data"].n)

        trainer.train_with_trace = self.wrap("trainer", "train_with_trace",
                                             trainer.train_with_trace, fit_args)
        trainer.evaluate = self.wrap("trainer", "evaluate", trainer.evaluate)
        trainer.cross_validate = self.wrap("trainer", "cross_validate", trainer.cross_validate)


def load(out_dir: str) -> tuple[list[dict], list[dict]]:
    """All spans and counter records written under ``out_dir``."""
    spans, counters = [], []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                (counters if "counters" in rec else spans).append(rec)
    return spans, counters


def fit_records(spans: list[dict]) -> list[dict]:
    """One run record per ``minimize_svrg_bb`` call, joined with its fit's arguments."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    records = []
    for s in spans:
        if s["name"] != "minimize_svrg_bb":
            continue
        parent = by_key.get((s["pid"], s["parent"]), {"attrs": {}})
        records.append({**parent["attrs"], **s["attrs"], "seconds": s["end"] - s["start"],
                        "pid": s["pid"]})
    records.sort(key=lambda r: (r.get("algo", ""), r.get("lam", 0.0), r.get("n", 0)))
    return records


def layer_metrics(spans: list[dict], counters: list[dict], main_pid: int,
                  solve_start: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Only spans that start in the solve phase count, except ``load_sparse``,
    which is the set-up phase's parse.
    """
    solve = [s for s in spans if s["start"] >= solve_start]

    def total(name: str, rows=solve) -> float:
        return sum(s["end"] - s["start"] for s in rows if s["name"] == name)

    def calls(*names: str) -> int:
        return sum(1 for s in solve if s["name"] in names)

    counts: dict[str, float] = defaultdict(float)
    worker_blas, main_blas = [], []
    for rec in counters:
        for key, value in rec["counters"].items():
            if key == "blas_threads":
                (worker_blas if rec["worker"] else main_blas).append(value)
            else:
                counts[key] += value

    self_s = {layer: 0.0 for layer in LAYERS}
    for s in solve:
        self_s[s["layer"]] += (s["end"] - s["start"]) - s["child_s"]
    self_s["model"] += counts["inner_step_s"]

    pair_calls = [s for s in solve if s["name"] == "pairwise_batch"]
    useful = sum(s["attrs"]["useful_pairs"] for s in pair_calls)
    dense = sum(s["attrs"]["dense_pairs"] for s in pair_calls)
    fits = [s for s in solve if s["name"] == "minimize_svrg_bb"]
    snapshot_s = total("svrg_snapshot")
    fit_s = total("minimize_svrg_bb")
    cv_s = total("cross_validate")
    # a task is what a worker runs: its outermost spans (prepare, train,
    # evaluate); without a pool, the outermost spans of the solve phase
    pooled = any(s["pid"] != main_pid for s in solve)
    tasks = [s for s in solve if s["parent"] is None and (s["pid"] != main_pid or not pooled)]
    task_wall = sum(s["end"] - s["start"] for s in tasks)
    task_cpu = sum(s["cpu"] for s in tasks)
    task_busy = task_wall if pooled else 0.0
    blas = worker_blas if pooled else main_blas

    metrics = {
        "dataset.parse_s": total("load_sparse", spans),
        "dataset.prepare_s": total("prepare_data"),
        "dataset.prepare_calls": calls("prepare_data"),
        "losses.batch_s": total("pairwise_batch") + total("univariate_batch"),
        "losses.batch_calls": calls("pairwise_batch", "univariate_batch"),
        "losses.pair_useful_frac": useful / dense if dense else 0.0,
        "losses.ranking_s": total("ranking_loss_batch"),
        "losses.ranking_patterns": counts["ranking_patterns"],
        "model.snapshot_s": snapshot_s,
        "model.snapshot_calls": calls("svrg_snapshot"),
        "model.inner_step_s": counts["inner_step_s"],
        "model.inner_steps": counts["inner_steps"],
        "optimizer.fit_s": fit_s,
        "optimizer.fits": len(fits),
        "optimizer.self_s": sum((s["end"] - s["start"]) - s["child_s"] for s in fits),
        "optimizer.epochs": sum(s["attrs"]["epochs"] for s in fits),
        "optimizer.unconverged_frac": (sum(not s["attrs"]["converged"] for s in fits) / len(fits)
                                       if fits else 0.0),
        "trainer.cv_s": cv_s,
        "trainer.task_busy_s": task_busy,
        "trainer.pool_overhead_s": workers * cv_s - task_busy if pooled else 0.0,
        "trainer.evaluate_s": total("evaluate"),
        "trainer.evaluate_calls": calls("evaluate"),
        "trainer.task_cpu_per_wall": task_cpu / task_wall if task_wall else 0.0,
    }
    if blas:
        metrics["trainer.blas_threads"] = max(blas)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
