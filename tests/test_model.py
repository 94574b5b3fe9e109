"""Linear model, regularized objective oracle, model persistence."""

import numpy as np
import pytest

from mlrank.dataset import synthetic_linear
from mlrank import losses
from mlrank.losses import HINGE, LOGISTIC, BaseLoss, PenaltyScheme
from mlrank.model import (Objective, ObjectiveSpec, LinearModel, build_objective,
                          load_model, objective_gradient, objective_value,
                          predict, save_model)

ALGOS = ("pa", "u1", "u2", "u3", "u4")


def make_objective(algo, lam=1e-3, n=25, d=4, c=3, seed=0, base=LOGISTIC):
    data = synthetic_linear(n, d, c, seed=seed, noise=0.1)
    return Objective(data.features, data.labels, ObjectiveSpec(algo, base, lam))


def test_predict_shapes_and_dim_check():
    model = LinearModel(np.ones((3, 2)))
    X = np.arange(6, dtype=float).reshape(2, 3)
    assert predict(model, X).shape == (2, 2)
    assert predict(model, X[0]).shape == (1, 2)
    with pytest.raises(ValueError):
        predict(model, np.ones((2, 4)))


def per_sample_gradient(obj, W, i):
    """Gradient of sample ``i``'s objective term from the per-row reference loss."""
    scores = obj.X[i] @ W
    if obj.spec.surrogate == "pa":
        ev = losses.pairwise_surrogate(scores, obj.Y[i], obj.spec.base)
    else:
        ev = losses.univariate_surrogate(scores, obj.Y[i], obj.spec.base,
                                         PenaltyScheme(obj.spec.surrogate))
    return np.outer(obj.X[i], ev.gradient) + 2.0 * obj.spec.lam * W


def test_full_gradient_is_mean_of_per_sample():
    rng = np.random.default_rng(1)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.01)
        W = rng.normal(size=(obj.d, obj.c))
        full = obj.full_gradient(W)
        mean = np.mean([per_sample_gradient(obj, W, i) for i in range(obj.n)], axis=0)
        np.testing.assert_allclose(full, mean, rtol=1e-10, atol=1e-12)


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.05)
        W = rng.normal(size=(obj.d, obj.c)) * 0.5
        grad = obj.full_gradient(W)
        h = 1e-6
        for _ in range(6):
            i, j = rng.integers(obj.d), rng.integers(obj.c)
            E = np.zeros_like(W)
            E[i, j] = h
            fd = (obj.value(W + E) - obj.value(W - E)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_objective_is_convex_on_segments():
    rng = np.random.default_rng(3)
    for algo in ("pa", "u3"):
        obj = make_objective(algo, lam=0.01)
        for _ in range(10):
            W1 = rng.normal(size=(obj.d, obj.c))
            W2 = rng.normal(size=(obj.d, obj.c))
            mid = obj.value(0.5 * (W1 + W2))
            assert mid <= 0.5 * (obj.value(W1) + obj.value(W2)) + 1e-10


def test_regularizer_contributes():
    obj0 = make_objective("u2", lam=0.0)
    obj1 = make_objective("u2", lam=1.0)
    W = np.ones((obj0.d, obj0.c))
    assert obj1.value(W) == pytest.approx(obj0.value(W) + np.sum(W * W))
    np.testing.assert_allclose(obj1.full_gradient(W) - obj0.full_gradient(W), 2.0 * W)


def test_svrg_direction_identities():
    rng = np.random.default_rng(4)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.02, c=5)
        W_tilde = rng.normal(size=(obj.d, obj.c))
        snap = obj.svrg_snapshot(W_tilde)
        np.testing.assert_allclose(snap["mu"], obj.full_gradient(W_tilde), rtol=1e-12)
        assert snap["value"] == obj.value(W_tilde)
        # at the snapshot point every direction collapses to the full gradient
        for i in (0, 3, 7):
            np.testing.assert_allclose(obj.svrg_direction(W_tilde, i, snap),
                                       snap["mu"], rtol=1e-10, atol=1e-12)
        # elsewhere it is per-sample difference plus the snapshot mean
        W = rng.normal(size=(obj.d, obj.c))
        for i in range(obj.n):
            expected = (per_sample_gradient(obj, W, i)
                        - per_sample_gradient(obj, W_tilde, i) + snap["mu"])
            np.testing.assert_allclose(obj.svrg_direction(W, i, snap), expected,
                                       rtol=1e-10, atol=1e-12)
        # directions average back to the full gradient
        avg = np.mean([obj.svrg_direction(W, i, snap) for i in range(obj.n)], axis=0)
        np.testing.assert_allclose(avg, obj.full_gradient(W), rtol=1e-10, atol=1e-12)


def test_objective_rejects_trivial_rows():
    data = synthetic_linear(10, 3, 2, seed=5)
    labels = data.labels.copy()
    labels[4] = 1.0
    with pytest.raises(ValueError):
        Objective(data.features, labels, ObjectiveSpec("u3", LOGISTIC, 0.0))


def test_build_objective_helpers():
    data = synthetic_linear(12, 3, 2, seed=6)
    spec = ObjectiveSpec("pa", HINGE, 0.1)
    obj = build_objective(data, spec)
    model = LinearModel(np.zeros((obj.d, obj.c)), algorithm="pa", base="hinge", lam=0.1)
    assert objective_value(model, data, spec) == pytest.approx(obj.value(model.weights))
    np.testing.assert_array_equal(objective_gradient(model, data, spec),
                                  obj.full_gradient(model.weights))


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    model = LinearModel(rng.normal(size=(5, 3)), algorithm="u4", base="hinge",
                        lam=1e-4, seed=42)
    path = str(tmp_path / "m.txt")
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.weights, model.weights)
    assert (back.algorithm, back.base, back.lam, back.seed) == \
        ("u4", "hinge", 1e-4, 42)


def test_model_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(str(path))
    good = tmp_path / "ok.txt"
    save_model(LinearModel(np.ones((2, 2))), str(good))
    truncated = "\n".join(good.read_text().splitlines()[:-1]) + "\n"
    bad2 = tmp_path / "trunc.txt"
    bad2.write_text(truncated, encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(str(bad2))
