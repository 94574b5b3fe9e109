"""Variance-reduced solver with automatic step sizes."""

import pickle

import numpy as np
import pytest
from scipy.optimize import minimize

from mlrank import optimizer
from mlrank.dataset import MultiLabelDataset, synthetic_linear
from mlrank.losses import LOGISTIC, BaseLoss
from mlrank.model import Objective, ObjectiveSpec
from mlrank.optimizer import (_BLOCK_ROWS, NonFiniteObjectiveError, OptimizerConfig,
                              OptimizationTrace, minimize_svrg_bb)
from mlrank.trainer import prepare_data, train_with_trace


class QuadraticOracle:
    """mean_i 0.5 ||W - A_i||^2; its SVRG epoch steps along block-mean directions."""

    lam = 0.0

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

    def svrg_direction(self, W, R, snap):
        return np.mean([self.per_sample_gradient(W, i) - self.per_sample_gradient(snap["W"], i)
                        for i in R.tolist()], axis=0) + snap["mu"]

    def svrg_epoch(self, snap, eta, rows):
        W = snap["W"].copy()
        for R in rows:
            W -= eta * self.svrg_direction(W, R, snap)
        return W


class ProtocolOnly:
    """An oracle's four protocol members; any other attribute raises."""

    MEMBERS = ("n", "lam", "svrg_snapshot", "svrg_epoch")

    def __init__(self, oracle):
        object.__setattr__(self, "_oracle", oracle)

    def __getattribute__(self, name):
        if name not in ProtocolOnly.MEMBERS:
            raise AttributeError(name)
        return getattr(object.__getattribute__(self, "_oracle"), name)


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
    # no strong convexity at lambda = 0, so nothing is certified
    assert trace.certified_gap == np.inf


def test_svrg_bb_reads_only_the_oracle_protocol():
    oracle = quadratic(seed=3)
    proxy = ProtocolOnly(oracle)
    for name in ("value", "full_gradient", "svrg_direction", "targets"):
        with pytest.raises(AttributeError):
            getattr(proxy, name)
    cfg = OptimizerConfig(outer_epochs=20, seed=5, tolerance=0.0)
    W, trace = minimize_svrg_bb(oracle, np.zeros((3, 2)), cfg)
    W_proxy, trace_proxy = minimize_svrg_bb(proxy, np.zeros((3, 2)), cfg)
    assert W_proxy.tobytes() == W.tobytes()
    assert trace_proxy.objectives == trace.objectives


def test_result_never_worse_than_init(monkeypatch):
    # a hostile step schedule may wander; the returned iterate must not
    oracle = quadratic(seed=4)
    W0 = np.zeros((3, 2))
    for eta in (1e-6, 0.1, 5.0):
        monkeypatch.setattr(optimizer, "_INITIAL_STEP", eta)
        try:
            W, _ = minimize_svrg_bb(oracle, W0, OptimizerConfig(outer_epochs=3, seed=0))
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
        cfg = OptimizerConfig(outer_epochs=10, seed=0)
        W, trace = minimize_svrg_bb(obj, np.zeros((4, 2)), cfg)
        assert np.all(np.isfinite(W))
        runs[lam] = np.linalg.norm(W)
    assert runs[1e2] < runs[1e-8]


@pytest.mark.parametrize("lam", [1e-3, 1e1, 1e2])
def test_direct_solve_matches_trainer_bit_for_bit(lam):
    # the 1/(4 lambda) step cap is the solver's rule, not the trainer's
    data = synthetic_linear(50, 4, 2, seed=10)
    cfg = OptimizerConfig(outer_epochs=10, seed=0)
    obj = Objective(data.features, data.labels, ObjectiveSpec("u1", LOGISTIC, lam))
    W, trace = minimize_svrg_bb(obj, np.zeros((4, 2)), cfg)
    model, trainer_trace = train_with_trace(data, "u1", lam, LOGISTIC, cfg)
    assert W.tobytes() == model.weights.tobytes()
    assert trace.objectives == trainer_trace.objectives
    assert max(r.step_size for r in trace.records) <= 1.0 / (4.0 * lam)


def test_tolerance_stop_sets_converged():
    oracle = quadratic(seed=7)
    _, trace = minimize_svrg_bb(oracle, np.zeros((3, 2)),
                                OptimizerConfig(outer_epochs=200, tolerance=1e-6))
    assert trace.converged
    assert "tolerance" in trace.stop_reason
    assert len(trace.records) < 200


def test_out_of_range_settings_are_rejected():
    for bad in (dict(outer_epochs=0), dict(tolerance=-1e-9), dict(seed=-1)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            OptimizerConfig(**bad)
    OptimizerConfig(outer_epochs=1, tolerance=0.0, seed=0)


def test_non_finite_objective_raises_with_trace():
    oracle = PoisonedOracle([np.ones((2, 2))])
    with pytest.raises(NonFiniteObjectiveError) as err:
        minimize_svrg_bb(oracle, np.zeros((2, 2)), OptimizerConfig(outer_epochs=3))
    assert isinstance(err.value.trace, OptimizationTrace)
    # a pool worker's error crosses to the parent by pickle, message and trace whole
    again = pickle.loads(pickle.dumps(err.value))
    assert type(again) is NonFiniteObjectiveError and str(again) == str(err.value)
    assert again.trace.records == err.value.trace.records


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
    def rows_per_epoch(n):
        oracle = quadratic(seed=10, n=n)
        blocks = []
        original = oracle.svrg_direction

        def counting(W, R, snap):
            blocks.append(R.size)
            return original(W, R, snap)

        oracle.svrg_direction = counting
        minimize_svrg_bb(oracle, np.zeros((3, 2)),
                         OptimizerConfig(outer_epochs=1, tolerance=0.0))
        assert set(blocks) == {_BLOCK_ROWS}
        return sum(blocks)

    # one epoch: 2n samples reach the hook, in blocks of _BLOCK_ROWS
    assert rows_per_epoch(3 * _BLOCK_ROWS) == 2 * 3 * _BLOCK_ROWS
    # a partial last block is drawn whole
    assert rows_per_epoch(6) == _BLOCK_ROWS


@pytest.mark.parametrize("n", [_BLOCK_ROWS // 4, _BLOCK_ROWS // 2])
def test_an_epoch_of_one_block_is_full_gradient_bb_descent(n):
    # when 2n <= b an epoch is one step from the snapshot, whose deltas are
    # exactly zero: the fit is full-gradient descent with BB steps, and no
    # seed enters it
    data, _ = prepare_data(synthetic_linear(n, 4, 3, seed=2, noise=0.3))
    for algo in ("pa", "u3"):
        obj = Objective(data.features, data.labels, ObjectiveSpec(algo, LOGISTIC, 1e-2))
        deltas = []
        direction = obj.svrg_direction

        def recording(scores, block, snap_grads):
            deltas.append(direction(scores, block, snap_grads))
            return deltas[-1]

        obj.svrg_direction = recording
        fits = [minimize_svrg_bb(obj, np.zeros((obj.d, obj.c)), OptimizerConfig(seed=seed))
                for seed in (0, 1, 7)]
        assert len(deltas) == sum(len(trace.records) for _, trace in fits)
        assert not any(np.any(delta) for delta in deltas)
        for W, trace in fits[1:]:
            assert W.tobytes() == fits[0][0].tobytes()
            assert trace.objectives == fits[0][1].objectives


def test_small_lambda_fit_reports_unfinished():
    # scene-shaped: 2407 x 294, 6 labels, about 1.07 relevant per row
    rng = np.random.default_rng(12)
    X = rng.standard_normal((2407, 294))
    scores = X @ rng.standard_normal((294, 6)) + rng.standard_normal((2407, 6))
    Y = -np.ones((2407, 6))
    Y[np.arange(2407), scores.argmax(axis=1)] = 1.0
    second = rng.random(2407) < 0.074
    Y[second, np.argsort(scores[second], axis=1)[:, -2]] = 1.0
    data, _ = prepare_data(MultiLabelDataset(X, Y, "scene-like"))
    for algo in ("pa", "u3"):
        _, trace = train_with_trace(data, algo, 1e-6, cfg=OptimizerConfig(outer_epochs=3))
        assert len(trace.records) == 3
        assert not trace.converged
        assert trace.stop_reason == "epoch budget exhausted"


@pytest.mark.parametrize("base", ["exponential", "logistic", "logistic_calibrated",
                                  "squared_hinge"])
@pytest.mark.parametrize("lam", [1e-3, 1e-1])
def test_default_fit_reaches_lbfgs_optimum(base, lam):
    """A default SVRG-BB fit ends within relative gap 1e-6 of L-BFGS-B's optimum.

    The reference minimizes the same ``Objective`` with scipy's L-BFGS-B from
    zero, to a far tighter tolerance.  The hinge base is left out: its
    objective is not differentiable at the kinks, where L-BFGS-B's
    quasi-Newton model and SVRG's fixed subgradients both lose their
    convergence guarantees, so neither run gives an optimum to compare at
    1e-6.
    """
    data, _ = prepare_data(synthetic_linear(80, 5, 4, seed=0, noise=0.3))
    shape = (data.d, data.c)
    for algo in ("pa", "u1", "u2", "u3", "u4"):
        obj = Objective(data.features, data.labels, ObjectiveSpec(algo, BaseLoss(base), lam))

        def value_and_gradient(w):
            W = w.reshape(shape)
            snap = obj.svrg_snapshot(W)
            return snap["value"], snap["mu"].ravel()

        res = minimize(value_and_gradient, np.zeros(shape).ravel(), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": 5000, "ftol": 1e-14, "gtol": 1e-11})
        assert res.success, res.message
        optimum = obj.value(res.x.reshape(shape))
        model, trace = train_with_trace(data, algo, lam, BaseLoss(base))
        value = obj.value(model.weights)
        gap = (value - optimum) / abs(optimum)
        assert -1e-12 <= gap <= 1e-6, (algo, gap)
        # the trace's certificate bounds the true gap, both taken over |F|
        assert trace.certified_gap >= (value - optimum) / abs(value), (algo, trace.certified_gap)
