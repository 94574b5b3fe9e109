"""End-to-end benchmark protocol on synthetic data.

Runs the full cross-validated comparison of all five algorithms the same
way the command line's `bench` subcommand does (3-fold CV, lambda grid,
nested holdout selection, standardization), then demonstrates the runtime
gap between the pairwise and univariate surrogates as labels grow.

Run:  python3 demos/04_benchmark_synthetic.py   (a few seconds)
"""

import statistics
import time

import numpy as np

from mlrank.dataset import synthetic_linear
from mlrank.losses import LOGISTIC
from mlrank.model import SURROGATES, Objective, ObjectiveSpec
from mlrank.optimizer import OptimizerConfig
from mlrank.trainer import cross_validate

print("=" * 72)
print("Cross-validated comparison, five algorithms")
print("=" * 72)
data = synthetic_linear(300, 12, 5, seed=17, noise=0.15, name="synthetic")
print(f"dataset: n={data.n}, d={data.d}, c={data.c}, 15% label noise")
grid = [1e-8, 1e-6, 1e-4, 1e-2, 1.0]
cfg = OptimizerConfig(outer_epochs=12, seed=0)
print(f"lambda grid: {grid}")
print()
print(f"  {'algo':>4s} {'ranking loss':>16s} {'partial':>10s} "
      f"{'lambda':>8s} {'seconds':>8s}")
results = {}
for algo in SURROGATES:
    r = cross_validate(data, algo, grid, k=3, seed=0, optimizer_cfg=cfg,
                       workers=2)
    results[algo] = r
    print(f"  {algo:>4s} {r.mean_ranking_loss:>8.4f} ± {r.std_ranking_loss:.4f} "
          f"{r.mean_partial_ranking_loss:>10.4f} {r.best_lambda:>8.0e} "
          f"{r.selection_seconds + r.total_seconds:>8.2f}")
print()
best = min(results, key=lambda a: results[a].mean_ranking_loss)
print(f"best mean ranking loss here: {best}")
print("on linearly generated data all five surrogates land close together;")
print("their differences show on real datasets and in their running time")
print()

print("=" * 72)
print("Runtime: pairwise O(c^2) vs univariate O(c) per instance")
print("=" * 72)
print("median wall time of one full pass: loss, gradients and full gradient "
      "(n=600, d=30):")
print(f"  {'c':>4s} {'pa':>10s} {'u3':>10s} {'ratio':>7s}")
for c in (5, 20, 60):
    dd = synthetic_linear(600, 30, c, seed=1, noise=0.1)
    W = 0.01 * np.random.default_rng(2).standard_normal((30, c))
    times = {}
    for algo in ("pa", "u3"):
        obj = Objective(dd.features, dd.labels, ObjectiveSpec(algo, LOGISTIC, 1e-4))
        obj.svrg_snapshot(W)  # warm-up
        calls = []
        for _ in range(5):
            t0 = time.perf_counter()
            obj.svrg_snapshot(W)
            calls.append(time.perf_counter() - t0)
        times[algo] = statistics.median(calls)
    print(f"  {c:>4d} {times['pa'] * 1e3:>8.1f}ms {times['u3'] * 1e3:>8.1f}ms "
          f"{times['pa'] / times['u3']:>7.1f}")
print()
print("the univariate surrogates buy an order of magnitude at large c;")
print("whether they cost ranking accuracy is exactly what the consistency")
print("analysis (demo 02) answers per scheme")
