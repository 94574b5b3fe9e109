"""Variance-reduced solver with automatic step sizes, and the batch fallback."""

import numpy as np
import pytest

from mlrank.dataset import synthetic_linear
from mlrank.losses import LOGISTIC
from mlrank.model import Objective, ObjectiveSpec
from mlrank.optimizer import (NonFiniteObjectiveError, OptimizerConfig,
                              OptimizationTrace, minimize_batch_gd,
                              minimize_svrg_bb)


class QuadraticOracle:
    """mean_i 0.5 ||W - A_i||^2, with SVRG hooks built from per-sample gradients."""

    def __init__(self, targets):
        self.targets = targets
        self.n = len(targets)

    def value(self, W):
        return float(np.mean([0.5 * np.sum((W - A) ** 2) for A in self.targets]))

    def full_gradient(self, W):
        return W - np.mean(self.targets, axis=0)

    def per_sample_gradient(self, W, i):
        return W - self.targets[i]

    def svrg_snapshot(self, W):
        return {"W": W.copy(), "mu": self.full_gradient(W), "value": self.value(W)}

    def svrg_direction(self, W, i, snap):
        return (self.per_sample_gradient(W, i) - self.per_sample_gradient(snap["W"], i)
                + snap["mu"])


class PoisonedOracle(QuadraticOracle):
    def value(self, W):
        return float("nan")


def quadratic(seed=0, n=12, shape=(3, 2)):
    rng = np.random.default_rng(seed)
    return QuadraticOracle([rng.normal(size=shape) for _ in range(n)])


def test_quadratic_converges_to_mean():
    oracle = quadratic()
    W0 = np.zeros((3, 2))
    W, trace = minimize_svrg_bb(oracle, W0,
                                OptimizerConfig(outer_epochs=50, seed=1,
                                                tolerance=1e-14))
    target = np.mean(oracle.targets, axis=0)
    assert np.abs(W - target).max() < 1e-6
    assert len(trace.records) <= 50


def test_batch_gd_converges_on_quadratic():
    oracle = quadratic(seed=3)
    W, trace = minimize_batch_gd(oracle, np.zeros((3, 2)),
                                 OptimizerConfig(outer_epochs=200, tolerance=1e-12))
    assert np.abs(W - np.mean(oracle.targets, axis=0)).max() < 1e-6
    objectives = trace.objectives
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_result_never_worse_than_init():
    # a hostile step schedule may wander; the returned iterate must not
    oracle = quadratic(seed=4)
    W0 = np.zeros((3, 2))
    for eta in (1e-6, 0.1, 5.0):
        cfg = OptimizerConfig(outer_epochs=3, initial_step=eta, seed=0)
        try:
            W, _ = minimize_svrg_bb(oracle, W0, cfg)
        except NonFiniteObjectiveError:
            continue
        assert oracle.value(W) <= oracle.value(W0) + 1e-12


def test_runs_are_bit_identical():
    data = synthetic_linear(40, 5, 3, seed=8, noise=0.1)
    obj = Objective(data.features, data.labels, ObjectiveSpec("u2", LOGISTIC, 1e-4))
    cfg = OptimizerConfig(outer_epochs=5, seed=123)
    W1, t1 = minimize_svrg_bb(obj, np.zeros((5, 3)), cfg)
    W2, t2 = minimize_svrg_bb(obj, np.zeros((5, 3)), cfg)
    np.testing.assert_array_equal(W1, W2)
    assert t1.objectives == t2.objectives
    W3, _ = minimize_svrg_bb(obj, np.zeros((5, 3)),
                             OptimizerConfig(outer_epochs=5, seed=124))
    assert (W1 != W3).any()


def test_strong_regularization_shrinks_weights():
    data = synthetic_linear(50, 4, 2, seed=10)
    runs = {}
    for lam in (1e-8, 1e2):
        obj = Objective(data.features, data.labels, ObjectiveSpec("u1", LOGISTIC, lam))
        cfg = OptimizerConfig(outer_epochs=10, seed=0,
                              max_step=1.0 / (4 * lam) if lam > 1 else None)
        W, trace = minimize_svrg_bb(obj, np.zeros((4, 2)), cfg)
        assert np.all(np.isfinite(W))
        runs[lam] = np.linalg.norm(W)
    assert runs[1e2] < runs[1e-8]


def test_zero_gradient_converges_immediately():
    oracle = quadratic(seed=6)
    W_star = np.mean(oracle.targets, axis=0)
    W, trace = minimize_batch_gd(oracle, W_star, OptimizerConfig(outer_epochs=5))
    np.testing.assert_array_equal(W, W_star)
    assert trace.converged and trace.stop_reason == "zero gradient"


def test_tolerance_stop_sets_converged():
    oracle = quadratic(seed=7)
    _, trace = minimize_svrg_bb(oracle, np.zeros((3, 2)),
                                OptimizerConfig(outer_epochs=200, tolerance=1e-6))
    assert trace.converged
    assert "tolerance" in trace.stop_reason
    assert len(trace.records) < 200


def test_non_finite_objective_raises_with_trace():
    oracle = PoisonedOracle([np.ones((2, 2))])
    with pytest.raises(NonFiniteObjectiveError) as err:
        minimize_svrg_bb(oracle, np.zeros((2, 2)), OptimizerConfig(outer_epochs=3))
    assert isinstance(err.value.trace, OptimizationTrace)


def test_wall_clock_budget():
    oracle = quadratic(seed=8, n=200, shape=(20, 10))
    _, trace = minimize_svrg_bb(oracle, np.zeros((20, 10)),
                                OptimizerConfig(outer_epochs=10_000, tolerance=0.0,
                                                max_wall_seconds=0.3))
    assert trace.stop_reason == "wall clock budget exhausted"


def test_trace_csv(tmp_path):
    oracle = quadratic(seed=9)
    _, trace = minimize_svrg_bb(oracle, np.zeros((3, 2)),
                                OptimizerConfig(outer_epochs=4, tolerance=0.0))
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epoch,")
    assert len(lines) == 1 + len(trace.records)


def test_inner_steps_default_is_two_n():
    oracle = quadratic(seed=10, n=6)
    calls = []
    original = oracle.svrg_direction

    def counting(W, i, snap):
        calls.append(i)
        return original(W, i, snap)

    oracle.svrg_direction = counting
    minimize_svrg_bb(oracle, np.zeros((3, 2)),
                     OptimizerConfig(outer_epochs=1, tolerance=0.0))
    # one epoch: 2n inner steps, one direction each
    assert len(calls) == 2 * 6
