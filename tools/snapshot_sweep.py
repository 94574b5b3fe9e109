"""Time one SVRG snapshot per block budget, and the parts of its loss kernel.

Usage::

    python3 tools/snapshot_sweep.py [--seed 0] [--repeat 9] > sweep.json

Run from the root of a checkout.  For each benchmark workload
(``bench/workloads.py``) the script draws data seed ``--seed`` and prepares
the rows one of its fits trains on: the training side of fold 0 for a
cross-validation workload, the training file for a fit workload.  Then, with
numpy's OpenBLAS at one thread, it reports per surrogate of the workload:

* ``sweep_ms``: the best time of ``Objective.svrg_snapshot`` over ``--repeat``
  rounds at each block budget ``model._SNAPSHOT_VALUES`` of 2^15 to 2^18
  feature values, and with the whole of ``X`` one block (``one_block``);
* ``parts``: at the committed budget, the best summed time over the blocks
  of the kernel parts that later work may remove: for ``pa`` the rebuild of
  each chunk's label pairs (``_LabelLists.pairs``) and the pair count, for
  u1-u4 the row losses (``BaseLoss.value``, weighting and row sum) against
  their gradients (``BaseLoss.derivative`` and scaling), each into a fresh
  buffer and with its share of the snapshot.

It prints one JSON object.  Times are in milliseconds and depend on the
host; compare budgets within one run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from mlrank import losses, model, trainer  # noqa: E402
from mlrank.dataset import kfold_split  # noqa: E402
from workloads import WORKLOADS, draw  # noqa: E402

BUDGETS = {"one_block": None, **{f"2^{k}": 1 << k for k in range(15, 19)}}
LOOPS = 20  # snapshots per timed round


def training_rows(w, seed: int):
    """The prepared rows one fit of workload ``w`` trains on."""
    data = draw(w, seed)
    if w.kind == "cv":
        rows = np.flatnonzero(kfold_split(data.n, w.folds, seed) != 0)
    else:
        rows = np.arange(w.n)
    return trainer.prepare_data(data, rows=rows)[0]


def best_ms(fn, repeat: int, loops: int = LOOPS) -> float:
    best = np.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best / loops


def blocks(obj):
    """The snapshot's row blocks at the committed budget."""
    step = max(1, model._SNAPSHOT_VALUES // obj.d)
    return [slice(s, min(s + step, obj.n)) for s in range(0, obj.n, step)]


def part_times(obj, W, repeat: int) -> dict:
    loss, spans = obj.loss, blocks(obj)
    if loss.weights is None:
        lists = loss._lists

        def rebuild():
            for rows in spans:
                for lo, hi in losses._spans(lists.ends, rows.start, rows.stop):
                    lists.pairs(slice(lo, hi))

        return {"pair_rebuild_ms": best_ms(rebuild, repeat), "pairs": int(lists.ends[-1])}
    margins = [loss.Y[rows] * (obj.X[rows] @ W) for rows in spans]

    def row_losses():
        for rows, z in zip(spans, margins):
            ell = loss.base.value(z, out=np.empty_like(z))
            ell *= loss.weights[rows]
            ell.sum(axis=1)

    def gradients():
        for rows, z in zip(spans, margins):
            g = loss.base.derivative(z, out=np.empty_like(z))
            g *= loss._signed_weights[rows]

    return {"row_losses_ms": best_ms(row_losses, repeat),
            "gradients_ms": best_ms(gradients, repeat)}


def measure(w, seed: int, repeat: int) -> dict:
    data = training_rows(w, seed)
    W = np.random.default_rng(seed).normal(size=(data.d, data.c)) * 0.05
    out = {"n": data.n, "d": data.d, "c": data.c, "surrogates": {}}
    committed = model._SNAPSHOT_VALUES
    for algo in w.algos:
        obj = model.Objective(data.features, data.labels,
                              model.ObjectiveSpec(algo, losses.LOGISTIC, w.grid[0]))
        sweep = {}
        for name, budget in BUDGETS.items():
            model._SNAPSHOT_VALUES = budget or data.n * data.d
            sweep[name] = round(best_ms(lambda: obj.svrg_snapshot(W), repeat), 4)
        model._SNAPSHOT_VALUES = committed
        snapshot = best_ms(lambda: obj.svrg_snapshot(W), repeat)
        parts = {k: round(v, 4) for k, v in part_times(obj, W, repeat).items()}
        parts.update({k.replace("_ms", "_share"): round(v / snapshot, 3)
                      for k, v in list(parts.items()) if k.endswith("_ms")})
        out["surrogates"][algo] = {"sweep_ms": sweep, "blocks": len(blocks(obj)),
                                   "snapshot_ms": round(snapshot, 4), "parts": parts}
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=9)
    args = p.parse_args(argv)
    with trainer._one_blas_thread(), np.errstate(over="ignore"):
        result = {"seed": args.seed, "repeat": args.repeat, "loops": LOOPS,
                  "committed_budget": model._SNAPSHOT_VALUES,
                  "workloads": {name: measure(w, args.seed, args.repeat)
                                for name, w in WORKLOADS.items()}}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
