"""Linear model, regularized objective oracle, model persistence."""

import tracemalloc

import numpy as np
import pytest

from loss_reference import pairwise_surrogate, univariate_surrogate
from mlrank.dataset import synthetic_linear
from mlrank import losses
from mlrank.losses import BASE_KINDS, LOGISTIC, BaseLoss
from mlrank.model import (Objective, ObjectiveSpec, LinearModel, load_model, predict,
                          save_model)

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
        ev = pairwise_surrogate(scores, obj.Y[i], obj.spec.base)
    else:
        ev = univariate_surrogate(scores, obj.Y[i], obj.spec.base, obj.spec.surrogate)
    return np.outer(obj.X[i], ev.gradient) + 2.0 * obj.spec.lam * W


def full_gradient(obj, W):
    """The objective's gradient at ``W``: the snapshot's ``mu``."""
    return obj.svrg_snapshot(W)["mu"]


def test_full_gradient_is_mean_of_per_sample():
    rng = np.random.default_rng(1)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.01)
        W = rng.normal(size=(obj.d, obj.c))
        mean = np.mean([per_sample_gradient(obj, W, i) for i in range(obj.n)], axis=0)
        np.testing.assert_allclose(full_gradient(obj, W), mean, rtol=1e-10, atol=1e-12)


def test_value_is_mean_of_per_row_reference_losses():
    rng = np.random.default_rng(5)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.03, c=5)
        W = rng.normal(size=(obj.d, obj.c))
        if algo == "pa":
            per_row = [pairwise_surrogate(obj.X[i] @ W, obj.Y[i], LOGISTIC).value
                       for i in range(obj.n)]
        else:
            per_row = [univariate_surrogate(obj.X[i] @ W, obj.Y[i], LOGISTIC, algo).value
                       for i in range(obj.n)]
        expected = np.mean(per_row) + 0.03 * np.sum(W * W)
        assert obj.value(W) == pytest.approx(expected, rel=1e-12)
        # both entry points take the one loss kernel, so they agree exactly
        assert obj.value(W) == obj.svrg_snapshot(W)["value"], algo


def test_pa_objective_builds_label_pairs_once(monkeypatch):
    # the label lists are built once per Objective, and no entry point
    # builds more than one chunk of pairs at a time: 40 rows of 8 labels
    # hold about 400 pairs, a chunk at most 60 (a row holds at most 16)
    builds, chunks = [], []

    class Counting(losses._LabelLists):
        def __init__(self, Y):
            builds.append(len(Y))
            super().__init__(Y)

        def pairs(self, rows, at=None):
            ip, iq = super().pairs(rows, at)
            chunks.append(ip.size)
            return ip, iq

    monkeypatch.setattr(losses, "_LabelLists", Counting)
    monkeypatch.setattr(losses, "_BLOCK_BUDGET", 60)
    obj = make_objective("pa", n=40, c=8)
    W = np.random.default_rng(4).normal(size=(obj.d, obj.c))
    snap = obj.svrg_snapshot(W)
    obj.value(W)
    obj.svrg_epoch(snap, 0.1, np.random.default_rng(5).integers(obj.n, size=(6, 2)))
    assert builds == [obj.n]
    assert len(chunks) > 3 * 4 and max(chunks) <= 60
    assert obj.loss._lists.count.sum() > 6 * 60


def test_pa_objective_memory_is_linear_in_labels():
    # a delicious-density stand-in: 983 labels, 19 relevant per row, so
    # 18.3 M label pairs, which a stored pair list would hold at 24 B each
    n, d, c, k = 1000, 50, 983, 19
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, d))
    Y = -np.ones((n, c))
    np.put_along_axis(Y, np.argsort(rng.random((n, c)), axis=1)[:, :k], 1.0, axis=1)
    W = rng.normal(size=(d, c)) * 0.01
    tracemalloc.start()
    try:
        obj = Objective(X, Y, ObjectiveSpec("pa", LOGISTIC, 1e-3))
        obj.svrg_snapshot(W)
        losses.ranking_loss_batch(X @ W, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n * c * 8, peak / 2**20


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.05)
        W = rng.normal(size=(obj.d, obj.c)) * 0.5
        grad = full_gradient(obj, W)
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
    np.testing.assert_allclose(full_gradient(obj1, W) - full_gradient(obj0, W), 2.0 * W)


def block_delta(obj, W, R, snap):
    """The block hook's deltas for block ``R`` at ``W``, on the block's gathers
    from ``loss.blocks`` and the snapshot's loss gradients of its rows."""
    (block,) = obj.loss.blocks(R[None])
    return obj.svrg_direction(obj.X[R] @ W, block, snap["loss_grads"][R])


def block_direction(obj, W, R, snap):
    """The SVRG direction of block ``R`` at ``W``, built from the block hook.

    The rank-``b`` term is summed row by row, so a row drawn twice counts twice.
    """
    delta = block_delta(obj, W, R, snap)
    rank_b = sum(np.outer(obj.X[i], delta[j]) for j, i in enumerate(R.tolist()))
    return rank_b / len(R) + snap["mu"] + 2.0 * obj.spec.lam * (W - snap["W"])


def test_svrg_direction_identities():
    rng = np.random.default_rng(4)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.02, c=5)
        W_tilde = rng.normal(size=(obj.d, obj.c))
        snap = obj.svrg_snapshot(W_tilde)
        # at the snapshot point every loss-gradient difference vanishes
        R = np.array([0, 3, 7, 3])
        np.testing.assert_allclose(block_delta(obj, W_tilde, R, snap), 0.0, atol=1e-12)
        # elsewhere row j of a block's deltas is sample R[j]'s per-sample
        # difference, whatever else the block holds; a row drawn twice gets
        # its difference twice
        W = rng.normal(size=(obj.d, obj.c))
        R = np.concatenate([rng.permutation(obj.n), [5, 5]])
        delta = block_delta(obj, W, R, snap)
        assert delta.shape == (R.size, obj.c)
        for j, i in enumerate(R.tolist()):
            expected = (per_sample_gradient(obj, W, i)
                        - per_sample_gradient(obj, W_tilde, i) + snap["mu"])
            got = np.outer(obj.X[i], delta[j]) + snap["mu"] + 2.0 * obj.spec.lam * (W - W_tilde)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)
        # the direction of a block of every row once is the full gradient
        np.testing.assert_allclose(block_direction(obj, W, np.arange(obj.n), snap),
                                   full_gradient(obj, W), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("lam, eta, steps", [
    (0.0, 0.1, 50),    # no ridge: a = 1, only the shift and the block terms act
    (0.02, 0.1, 50),
    (1.0, 0.45, 400),  # a = 1 - 2 eta lambda = 0.1 over 400 steps: a^400 underflows
    (0.25, 2.0, 60),   # a = 0 exactly: eta = 1 / (2 lambda), each step forgets W
])
def test_svrg_epoch_matches_dense_recursion(lam, eta, steps):
    rng = np.random.default_rng(11)
    for algo in ALGOS:
        obj = make_objective(algo, lam=lam)
        snap = obj.svrg_snapshot(rng.normal(size=(obj.d, obj.c)))
        rows = rng.integers(obj.n, size=(steps, 4))
        rows[1] = [6, 2, 6, 9]  # one row drawn twice in a block
        W = snap["W"].copy()
        for R in rows:
            W -= eta * block_direction(obj, W, R, snap)
        W_snap, mu = snap["W"].copy(), snap["mu"].copy()
        epoch = obj.svrg_epoch(snap, eta, rows)
        np.testing.assert_allclose(epoch, W, rtol=1e-12, atol=1e-12 * np.abs(W).max())
        # the epoch updates its own copy in place, never the snapshot
        np.testing.assert_array_equal(snap["W"], W_snap)
        np.testing.assert_array_equal(snap["mu"], mu)


def reference_epoch(obj, snap, eta, rows):
    """The inner loop written plainly, each step on fresh arrays: the
    epoch's in-place, ``take``/``dot`` loop must equal it to the bit."""
    a = 1.0 - 2.0 * eta * obj.lam
    K = eta * (snap["mu"] - (2.0 * obj.lam) * snap["W"])
    W = snap["W"].copy()
    step = eta / rows.shape[1]
    for R, block in zip(rows, obj.loss.blocks(rows)):
        delta = obj.loss.gradients(obj.X[R] @ W, block) - snap["loss_grads"][R]
        W *= a
        W -= K
        W -= obj.X[R].T @ (delta * step)
    return W


@pytest.mark.parametrize("base", BASE_KINDS)
def test_svrg_epoch_is_bitwise_the_reference_loop(base):
    rng = np.random.default_rng(13)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.02, n=40, d=5, c=4, base=BaseLoss(base))
        snap = obj.svrg_snapshot(rng.normal(size=(obj.d, obj.c)))
        rows = rng.integers(obj.n, size=(30, 16))
        got = obj.svrg_epoch(snap, 0.05, rows)
        assert got.tobytes() == reference_epoch(obj, snap, 0.05, rows).tobytes(), algo


@pytest.mark.parametrize("base", BASE_KINDS)
def test_svrg_snapshot_is_bitwise_the_separate_kernels(base):
    # a snapshot forms each margin once for both the gradients and the
    # losses; its loss gradients are the block kernel's on one block of
    # every row
    rng = np.random.default_rng(17)
    for algo in ALGOS:
        obj = make_objective(algo, lam=0.02, c=5, base=BaseLoss(base))
        W = rng.normal(size=(obj.d, obj.c))
        snap = obj.svrg_snapshot(W)
        (block,) = obj.loss.blocks(np.arange(obj.n)[None])
        grads = obj.loss.gradients(obj.X @ W, block)
        assert snap["loss_grads"].tobytes() == grads.tobytes(), algo
        mu = obj.X.T @ grads / obj.n + 2.0 * obj.lam * W
        assert snap["mu"].tobytes() == mu.tobytes(), algo


def test_objective_rejects_trivial_rows():
    data = synthetic_linear(10, 3, 2, seed=5)
    labels = data.labels.copy()
    labels[4] = 1.0
    with pytest.raises(ValueError):
        Objective(data.features, labels, ObjectiveSpec("u3", LOGISTIC, 0.0))


def test_objective_rejects_zero_rows():
    # no rows would make every mean NaN: the first snapshot's value among them
    X, Y = np.empty((0, 3)), np.empty((0, 2))
    for algo in ("pa", "u3"):
        with pytest.raises(ValueError, match="the data is empty"):
            Objective(X, Y, ObjectiveSpec(algo, LOGISTIC, 0.1))


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
