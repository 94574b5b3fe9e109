"""Stochastic variance-reduced optimization with Barzilai-Borwein steps.

``minimize_svrg_bb`` consumes a duck-typed *oracle* with four members and
has no fallback:

* ``n`` - number of summands in the empirical term,
* ``lam`` - the weight ``lambda >= 0`` of the ``lambda ||W||^2`` term,
* ``svrg_snapshot(W)`` - a mapping ``snap`` holding the objective
  ``"value"`` and the full gradient ``"mu"`` at ``W``,
* ``svrg_epoch(snap, eta, rows) -> W`` - the last iterate of the mini-batch
  inner steps ``W -= eta * (mean_{i in R} (g_i(W) - g_i(W_snap)) + mu_snap)``
  from the snapshot point, one per row ``R`` of ``rows``, an integer array
  of shape ``(steps, b)``.

:class:`mlrank.model.Objective` runs an epoch through its score-space block
hook ``svrg_direction(scores_R, block_R, G_R)``, which returns the
``(b, c)`` loss-gradient differences ``Delta_R`` of the block's samples: the
gradient kernel of its one :class:`mlrank.losses.BatchSurrogate` on the
block's gathers ``block_R``, minus the snapshot's loss gradients ``G_R`` of
the block's rows; the step's direction is
``X_R^T Delta_R / b + mu_snap + 2 lambda (W - W_snap)``.

``minimize_svrg_bb`` runs epochs of ``m = ceil(2n / b)`` inner steps, each
on a block of ``b = 64`` samples it draws with replacement (mS2GD, Konecny
et al. 2016), so an epoch reads ``2n`` rows rounded up to whole blocks, the
epoch length of SVRG (Johnson & Zhang, NeurIPS 2013) and SVRG-BB (Tan et
al., NeurIPS 2016) for convex objectives.  When ``2n <= b`` an epoch is one
step, whose variance-reduced deltas are zero at the snapshot: the fit is
full-gradient descent with BB steps, and the seed does not enter it.  It
takes the last inner iterate as the next snapshot, and sets the epoch step
size from consecutive snapshots by the Barzilai-Borwein rule

    eta_k = ||dW||^2 / (m * <dW, dG>)

with the first epoch on ``_INITIAL_STEP``.  The epoch length and the first
step are solver rules like the clamp, which no option sets: in SVRG-BB, BB
sets every later step.  Steps are clamped to
``[_STEP_MIN, min(_STEP_MAX, 1 / (4 lam))]`` (``_STEP_MAX`` at ``lam = 0``),
which keeps the regularizer's shrink factor ``1 - 2 eta lam`` in
``[1/2, 1)``.  Because the inner recursion is not monotone, the returned
iterate is the best snapshot seen (including the initial point), so the
final objective never exceeds the starting one.

The objective is ``2 lam``-strongly convex, so at the returned iterate
``F - F* <= ||grad F||^2 / (4 lam)`` (Nesterov, *Introductory Lectures*,
2004, Thm 2.1.10).  The trace records that bound over ``|F|`` as
``certified_gap``, from the gradient ``mu`` of the returned snapshot; at
``lam = 0`` it is ``inf``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

_INITIAL_STEP = 0.1
_STEP_MIN = 1e-10
_STEP_MAX = 1e3
# BB denominators at or below this multiple of ||dW||^2 are treated as zero
# curvature and the previous step size is reused.
_CURVATURE_FLOOR = 1e-16
# samples per SVRG inner step: the step's fixed cost of numpy calls is paid
# once per block, not once per sample.  Chosen by a sweep of 16, 32, 64 and
# 128 on the benchmark workloads: 64 took 11-40% less CPU than 16; 128 took
# 3-6% less than 64 but fits every dataset of up to 64 rows by full-gradient
# steps (one step per epoch), so no stochastic step runs on small data
_BLOCK_ROWS = 64


@dataclass
class OptimizerConfig:
    """Knobs of ``minimize_svrg_bb``.  Construction raises ``ValueError``
    unless ``outer_epochs >= 1``, ``tolerance >= 0`` and ``seed >= 0``.
    """

    outer_epochs: int = 30
    tolerance: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.outer_epochs < 1:
            raise ValueError(f"outer_epochs must be >= 1, not {self.outer_epochs}")
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be >= 0, not {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")


@dataclass
class EpochRecord:
    """One outer epoch; ``seconds`` is the wall time since the fit started,
    not the epoch's own."""

    epoch: int
    objective: float
    step_size: float
    grad_norm: float
    seconds: float


@dataclass
class OptimizationTrace:
    """Objective trajectory, one record per outer epoch.  ``certified_gap``
    bounds the relative gap ``(F - F*) / |F|`` of the returned iterate; it
    stays ``inf`` at ``lam = 0`` and on a fit that raised."""

    records: list[EpochRecord] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""
    certified_gap: float = math.inf

    @property
    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,objective,step_size,grad_norm,seconds\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.objective:.17g},{r.step_size:.17g},"
                         f"{r.grad_norm:.17g},{r.seconds:.6f}\n")


class NonFiniteObjectiveError(RuntimeError):
    """Objective or gradient left the reals; carries the trace so far."""

    def __init__(self, message: str, trace: OptimizationTrace):
        super().__init__(message + " (trace attached as .trace)")
        self.message, self.trace = message, trace

    def __reduce__(self):  # so a pool worker's error reaches the parent whole
        return type(self), (self.message, self.trace)


def _clamp_step(eta: float, step_max: float) -> float:
    return min(max(eta, _STEP_MIN), step_max)


def _check_finite(value: float, what: str, trace: OptimizationTrace) -> None:
    if not np.isfinite(value):
        raise NonFiniteObjectiveError(f"{what} became non-finite", trace)


def minimize_svrg_bb(oracle, init: np.ndarray, cfg: OptimizerConfig | None = None
                     ) -> tuple[np.ndarray, OptimizationTrace]:
    """Minimize the oracle's objective; returns (best iterate, trace)."""
    cfg = cfg or OptimizerConfig()
    n = oracle.n
    m = -(-2 * n // _BLOCK_ROWS)  # inner steps per epoch: 2n samples
    step_max = min(_STEP_MAX, 1.0 / (4.0 * oracle.lam)) if oracle.lam > 0.0 else _STEP_MAX
    rng = np.random.default_rng(cfg.seed)
    trace = OptimizationTrace()
    t0 = time.perf_counter()

    W_snap = np.array(init, dtype=np.float64, copy=True)
    snap = oracle.svrg_snapshot(W_snap)
    value = snap["value"]
    best_W, best_value, best_mu = W_snap.copy(), value, snap["mu"]
    _check_finite(value, "initial objective", trace)

    eta = _clamp_step(_INITIAL_STEP, step_max)
    prev_W: np.ndarray | None = None
    prev_mu: np.ndarray | None = None

    for epoch in range(cfg.outer_epochs):
        if prev_W is not None:
            dW = (W_snap - prev_W).ravel()
            dG = (snap["mu"] - prev_mu).ravel()
            sq = float(dW @ dW)
            curv = float(dW @ dG)
            if curv > _CURVATURE_FLOOR * sq:
                eta = _clamp_step(sq / (m * curv), step_max)
            # else: keep the previous epoch's step size

        W = oracle.svrg_epoch(snap, eta, rng.integers(n, size=(m, _BLOCK_ROWS)))
        if not np.all(np.isfinite(W)):
            raise NonFiniteObjectiveError(f"iterate became non-finite in epoch {epoch}", trace)

        prev_W, prev_mu, prev_value = W_snap, snap["mu"], value
        W_snap = W
        snap = oracle.svrg_snapshot(W_snap)
        value = snap["value"]
        _check_finite(value, f"objective after epoch {epoch}", trace)
        if value < best_value:
            best_W, best_value, best_mu = W_snap.copy(), value, snap["mu"]

        trace.records.append(EpochRecord(epoch, value, eta, float(np.linalg.norm(snap["mu"])),
                                         time.perf_counter() - t0))

        rel_change = abs(prev_value - value) / max(abs(prev_value), 1.0)
        if rel_change < cfg.tolerance:
            trace.converged = True
            trace.stop_reason = f"relative objective change {rel_change:.3g} below tolerance"
            break
    else:
        trace.stop_reason = "epoch budget exhausted"

    if oracle.lam > 0.0:
        bound = float(np.vdot(best_mu, best_mu)) / (4.0 * oracle.lam)  # F - F* <= bound
        trace.certified_gap = bound / abs(best_value)
    return best_W, trace

