"""Stochastic variance-reduced optimization with Barzilai-Borwein steps.

Both minimizers consume a duck-typed *oracle* with:

* ``n`` - number of summands in the empirical term,
* ``value(W) -> float`` and ``full_gradient(W) -> ndarray``,
* ``svrg_snapshot(W)`` - a mapping ``snap`` holding the objective
  ``"value"`` and the full gradient ``"mu"`` at ``W``,
* ``svrg_direction(W, i, snap)`` - ``g_i(W) - g_i(W_snap) + mu_snap``.

``minimize_batch_gd`` calls ``value`` and ``full_gradient``;
``minimize_svrg_bb`` calls ``n`` and the two SVRG hooks, with no fallback.

``minimize_svrg_bb`` runs epochs of ``m`` inner steps on samples drawn with
replacement, takes the last inner iterate as the next snapshot, and sets the
epoch step size from consecutive snapshots by the Barzilai-Borwein rule

    eta_k = ||dW||^2 / (m * <dW, dG>)

with the first epoch on a fixed ``initial_step``.  Because the inner
recursion is not monotone, the returned iterate is the best snapshot seen
(including the initial point), so the final objective never exceeds the
starting one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

_STEP_MIN = 1e-10
_STEP_MAX = 1e3
# BB denominators at or below this multiple of ||dW||^2 are treated as zero
# curvature and the previous step size is reused.
_CURVATURE_FLOOR = 1e-16


@dataclass
class OptimizerConfig:
    """Knobs shared by both minimizers; ``inner_steps=None`` means ``2n``."""

    outer_epochs: int = 30
    inner_steps: int | None = None
    initial_step: float = 0.1
    tolerance: float = 1e-7
    seed: int = 0
    max_step: float | None = None
    max_wall_seconds: float | None = None


@dataclass
class EpochRecord:
    epoch: int
    objective: float
    step_size: float
    grad_norm: float
    seconds: float


@dataclass
class OptimizationTrace:
    """Objective trajectory, one record per outer epoch."""

    records: list[EpochRecord] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = ""

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
        self.trace = trace


def _clamp_step(eta: float, cfg: OptimizerConfig) -> float:
    eta = min(max(eta, _STEP_MIN), _STEP_MAX)
    if cfg.max_step is not None:
        eta = min(eta, cfg.max_step)
    return eta


def _check_finite(value: float, what: str, trace: OptimizationTrace) -> None:
    if not np.isfinite(value):
        raise NonFiniteObjectiveError(f"{what} became non-finite", trace)


def minimize_svrg_bb(oracle, init: np.ndarray, cfg: OptimizerConfig | None = None
                     ) -> tuple[np.ndarray, OptimizationTrace]:
    """Minimize the oracle's objective; returns (best iterate, trace)."""
    cfg = cfg or OptimizerConfig()
    n = oracle.n
    m = cfg.inner_steps if cfg.inner_steps is not None else 2 * n
    rng = np.random.default_rng(cfg.seed)
    trace = OptimizationTrace()
    t0 = time.perf_counter()

    W_snap = np.array(init, dtype=np.float64, copy=True)
    snap = oracle.svrg_snapshot(W_snap)
    value = snap["value"]
    best_W, best_value = W_snap.copy(), value
    _check_finite(value, "initial objective", trace)

    eta = _clamp_step(cfg.initial_step, cfg)
    prev_W: np.ndarray | None = None
    prev_mu: np.ndarray | None = None

    for epoch in range(cfg.outer_epochs):
        if prev_W is not None:
            dW = (W_snap - prev_W).ravel()
            dG = (snap["mu"] - prev_mu).ravel()
            sq = float(dW @ dW)
            curv = float(dW @ dG)
            if curv > _CURVATURE_FLOOR * sq:
                eta = _clamp_step(sq / (m * curv), cfg)
            # else: keep the previous epoch's step size

        W = W_snap.copy()
        for i in rng.integers(n, size=m):
            W -= eta * oracle.svrg_direction(W, int(i), snap)
        if not np.all(np.isfinite(W)):
            raise NonFiniteObjectiveError(f"iterate became non-finite in epoch {epoch}", trace)

        prev_W, prev_mu, prev_value = W_snap, snap["mu"], value
        W_snap = W
        snap = oracle.svrg_snapshot(W_snap)
        value = snap["value"]
        _check_finite(value, f"objective after epoch {epoch}", trace)
        if value < best_value:
            best_W, best_value = W_snap.copy(), value

        elapsed = time.perf_counter() - t0
        trace.records.append(EpochRecord(epoch, value, eta,
                                         float(np.linalg.norm(snap["mu"])), elapsed))

        rel_change = abs(prev_value - value) / max(abs(prev_value), 1.0)
        if rel_change < cfg.tolerance:
            trace.converged = True
            trace.stop_reason = f"relative objective change {rel_change:.3g} below tolerance"
            break
        if cfg.max_wall_seconds is not None and elapsed > cfg.max_wall_seconds:
            trace.stop_reason = "wall clock budget exhausted"
            break
    else:
        trace.stop_reason = "epoch budget exhausted"

    return best_W, trace


def minimize_batch_gd(oracle, init: np.ndarray, cfg: OptimizerConfig | None = None
                      ) -> tuple[np.ndarray, OptimizationTrace]:
    """Full-gradient descent with Armijo backtracking line search.

    Deterministic fallback for small problems and for cross-checking the
    stochastic path; same oracle protocol and trace format.
    """
    cfg = cfg or OptimizerConfig()
    trace = OptimizationTrace()
    t0 = time.perf_counter()
    W = np.array(init, dtype=np.float64, copy=True)
    value = oracle.value(W)
    _check_finite(value, "initial objective", trace)
    eta = _clamp_step(1.0, cfg)

    for epoch in range(cfg.outer_epochs):
        grad = oracle.full_gradient(W)
        gnorm2 = float(np.sum(grad * grad))
        if not np.isfinite(gnorm2):
            raise NonFiniteObjectiveError(f"gradient became non-finite in epoch {epoch}", trace)
        if gnorm2 == 0.0:
            trace.converged = True
            trace.stop_reason = "zero gradient"
            break
        eta = _clamp_step(eta * 2.0, cfg)  # allow the step to grow back
        new_value = np.inf
        for _ in range(80):
            candidate = W - eta * grad
            new_value = oracle.value(candidate)
            if np.isfinite(new_value) and new_value <= value - 1e-4 * eta * gnorm2:
                break
            eta *= 0.5
            if eta < _STEP_MIN:
                break
        if not (np.isfinite(new_value) and new_value <= value):
            trace.stop_reason = "line search stalled"
            break
        W = W - eta * grad
        rel_change = (value - new_value) / max(abs(value), 1.0)
        value = new_value
        trace.records.append(EpochRecord(epoch, value, eta, float(np.sqrt(gnorm2)),
                                         time.perf_counter() - t0))
        if rel_change < cfg.tolerance:
            trace.converged = True
            trace.stop_reason = f"relative objective change {rel_change:.3g} below tolerance"
            break
        if cfg.max_wall_seconds is not None and time.perf_counter() - t0 > cfg.max_wall_seconds:
            trace.stop_reason = "wall clock budget exhausted"
            break
    else:
        trace.stop_reason = "epoch budget exhausted"

    return W, trace
