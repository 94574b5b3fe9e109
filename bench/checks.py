"""Correctness checks of a benchmark run.

Two outputs are checked:

* **Probe fits** against an independent optimum.  ``reference_optimum``
  minimizes the same ``Objective`` with scipy's L-BFGS-B from a zero start,
  far tighter than the gaps the benchmark reports.  Every probe needs a
  finite objective with ``F(W) >= F* - eps``.
* **Held-out ranking loss** per algorithm against the value recorded for the
  data seed in ``expected.json`` by ``record_expected.py``.  A data seed
  without a recording fails the check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# ``F(W) >= F* - OBJECTIVE_EPS * |F*|``: loose against the reference's own
# accuracy (about 1e-12 relative) and tight against the reported gaps
# (1e-9 and up).
OBJECTIVE_EPS = 1e-10
# L-BFGS-B stops when the relative objective reduction falls below this.
REFERENCE_FTOL = 1e-13


@dataclass
class Probe:
    """One probe fit: its objective and the reference optimum."""

    name: str
    value: float
    optimum: float

    @property
    def gap(self) -> float:
        return (self.value - self.optimum) / abs(self.optimum)


def reference_optimum(objective) -> float:
    """Minimum of ``objective`` by L-BFGS-B from ``W = 0``.

    ``svrg_snapshot`` returns ``Objective.value`` and
    ``Objective.full_gradient`` from one batch pass, halving the cost on
    large-label data; the returned optimum is re-evaluated with ``value``.
    """
    shape = (objective.d, objective.c)

    def value_and_gradient(w):
        snap = objective.svrg_snapshot(w.reshape(shape))
        return snap["value"], snap["mu"].ravel()

    res = minimize(value_and_gradient, np.zeros(shape).ravel(), jac=True, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": REFERENCE_FTOL, "gtol": 1e-10})
    if not res.success:
        raise RuntimeError(f"reference minimizer did not converge: {res.message}")
    return objective.value(res.x.reshape(shape))


def check_probes(probes: list[Probe]) -> list[str]:
    problems = []
    for p in probes:
        if not (math.isfinite(p.value) and math.isfinite(p.optimum)):
            problems.append(f"probe {p.name}: non-finite objective {p.value} or optimum {p.optimum}")
        elif p.value < p.optimum - OBJECTIVE_EPS * abs(p.optimum):
            problems.append(f"probe {p.name}: objective {p.value!r} below the reference "
                            f"optimum {p.optimum!r}")
    return problems


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_rank_losses(workload: str, seed: int, losses: dict[str, float],
                      expected: dict) -> list[str]:
    """Problems with one operation's per-algorithm rank losses on data seed
    ``seed``."""
    tol = expected["tolerance"]
    recorded = expected["rank_loss"].get(workload, {})
    problems = []
    for algo, value in sorted(losses.items()):
        by_seed = recorded.get(algo)
        if not by_seed:
            problems.append(f"{algo}: no recorded rank loss for workload {workload}")
            continue
        if not math.isfinite(value):
            problems.append(f"{algo}: rank loss {value} is not finite")
        elif str(seed) not in by_seed:
            problems.append(f"{algo}: no rank loss recorded for data seed {seed}; record it "
                            f"with bench/record_expected.py")
        elif abs(value - by_seed[str(seed)]) > tol:
            problems.append(f"{algo}: rank loss {value:.6f} differs from the recorded "
                            f"{by_seed[str(seed)]:.6f} for data seed {seed} by more than {tol}")
    missing = set(recorded) - set(losses)
    if missing:
        problems.append(f"algorithms {sorted(missing)} produced no rank loss")
    return problems
