"""Training pipeline: preparation, fitting, evaluation, cross-validation."""

import numpy as np
import pytest

from mlrank import bounds, losses, trainer
from mlrank.dataset import synthetic_linear
from mlrank.losses import LOGISTIC, BaseLoss, PenaltyScheme
from mlrank.model import LinearModel, predict
from mlrank.optimizer import OptimizerConfig
from mlrank.trainer import (cross_validate, evaluate, prepare_data, task_seed,
                            train, train_with_trace)

LN2 = np.log(2.0)


def test_task_seed_is_stable_and_distinct():
    s = task_seed(0, 1, 2, "u3", "train")
    assert s == task_seed(0, 1, 2, "u3", "train")
    others = {task_seed(0, 1, 2, "u3", "select"), task_seed(0, 1, 2, "u2", "train"),
              task_seed(0, 1, 3, "u3", "train"), task_seed(0, 2, 2, "u3", "train"),
              task_seed(1, 1, 2, "u3", "train")}
    assert s not in others and len(others) == 5
    assert 0 <= s < 2 ** 64


def test_prepare_data_reuses_parameters():
    train_part = synthetic_linear(60, 5, 2, seed=0)
    test_part = synthetic_linear(30, 5, 2, seed=1)
    prepped_train, params = prepare_data(train_part)
    prepped_test, params2 = prepare_data(test_part, params=params)
    assert params2 is params
    assert prepped_train.d == prepped_test.d == 6  # bias appended
    # test features transformed with training statistics, not its own
    own, _ = prepare_data(test_part)
    assert (prepped_test.features[:, :5] != own.features[:, :5]).any()


def test_training_fits_separable_data():
    data = synthetic_linear(80, 6, 2, seed=2)
    prepped, _ = prepare_data(data)
    for algo in ("pa", "u3"):
        model = train(prepped, algo, 1e-8,
                      cfg=OptimizerConfig(outer_epochs=10, seed=0))
        report = evaluate(model, prepped)
        assert report.ranking_loss < 0.05, algo


def test_schemes_coincide_at_two_labels():
    # at c = 2 every nontrivial row has |S+| = |S-| = 1, so the u2/u3/u4
    # weights are all identically 1 and the fits must agree bitwise
    data = synthetic_linear(50, 4, 2, seed=3, noise=0.05)
    prepped, _ = prepare_data(data)
    cfg = OptimizerConfig(outer_epochs=5, seed=7)
    fits = [train(prepped, algo, 1e-4, cfg=cfg).weights
            for algo in ("u2", "u3", "u4")]
    np.testing.assert_array_equal(fits[0], fits[1])
    np.testing.assert_array_equal(fits[0], fits[2])


def test_zero_model_surrogate_risks():
    data = synthetic_linear(40, 5, 2, seed=4)
    model = LinearModel(np.zeros((5, 2)), base="logistic")
    F = np.zeros((data.n, data.c))
    risks = {algo: losses.BatchSurrogate(data.labels, algo, LOGISTIC).row_losses(F)
             for algo in ("pa", "u1", "u2", "u3")}
    # all scores zero: each coordinate contributes ell(0) = ln 2
    np.testing.assert_allclose(risks["u3"], 2 * LN2)
    np.testing.assert_allclose(risks["u2"], 2 * LN2)
    np.testing.assert_allclose(risks["u1"], LN2)
    np.testing.assert_allclose(risks["pa"], LN2)
    report = evaluate(model, data)
    assert report.ranking_loss == 1.0  # ties count fully
    assert report.partial_ranking_loss == pytest.approx(0.5)


def test_evaluate_skips_trivial_rows():
    data = synthetic_linear(20, 4, 2, seed=5)
    labels = data.labels.copy()
    labels[[2, 11]] = 1.0
    tampered = type(data)(data.features, labels)
    model = LinearModel(np.zeros((4, 2)))
    report = evaluate(model, tampered)
    assert report.n_evaluated == 18 and report.n_skipped == 2
    all_trivial = type(data)(data.features, np.ones_like(labels))
    with pytest.raises(ValueError):
        evaluate(model, all_trivial)


def test_evaluate_builds_label_pairs_once(monkeypatch):
    data = synthetic_linear(60, 4, 6, seed=16, noise=0.3)
    model = LinearModel(np.random.default_rng(16).normal(size=(4, 6)))
    builds = []
    build = losses.label_pairs

    def counting(labels):
        builds.append(len(labels))
        return build(labels)

    monkeypatch.setattr(losses, "label_pairs", counting)
    surrogates = []
    monkeypatch.setattr(losses, "BatchSurrogate", lambda *args: surrogates.append(args))
    report = evaluate(model, data)
    assert builds == [data.n]
    assert surrogates == []  # evaluate computes no surrogate risk
    monkeypatch.undo()
    # the same bits as the ranking losses that build their own list
    F, Y = predict(model, data.features), data.labels
    assert report.ranking_loss == float(losses.ranking_loss_batch(F, Y).mean())
    assert report.partial_ranking_loss == float(losses.ranking_loss_batch(F, Y, partial=True).mean())


def test_evaluate_univariate_risks_match_univariate_batch():
    # model_bound_inputs computes the u2-u4 risks value-only; univariate_batch
    # adds gradients
    data = synthetic_linear(80, 5, 12, seed=17, noise=0.3)
    W = np.random.default_rng(17).normal(size=(5, 12))
    F, Y = predict(LinearModel(W), data.features), data.labels
    for kind in ("logistic_calibrated", "hinge", "exponential", "squared_hinge"):
        _, inputs = bounds.model_bound_inputs(LinearModel(W, base=kind), data, delta=0.05)
        assert list(inputs) == ["u2", "u3", "u4"]
        for algo, inp in inputs.items():
            expected = losses.univariate_batch(F, Y, BaseLoss(kind), PenaltyScheme(algo))[0].mean()
            assert inp.empirical_risk == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_train_with_trace_reports_progress():
    data = synthetic_linear(40, 4, 2, seed=6)
    prepped, _ = prepare_data(data)
    model, trace = train_with_trace(prepped, "u1", 1e-6,
                                    cfg=OptimizerConfig(outer_epochs=4,
                                                        tolerance=0.0))
    assert len(trace.records) == 4
    assert trace.objectives[-1] <= trace.objectives[0]
    assert model.algorithm == "u1" and model.base == "logistic"


def test_train_rejects_unknown_algorithm():
    data = synthetic_linear(10, 3, 2, seed=7)
    with pytest.raises(ValueError):
        train(data, "boost", 0.1)


def test_huge_regularizer_is_stabilized():
    data = synthetic_linear(30, 4, 2, seed=8)
    prepped, _ = prepare_data(data)
    model = train(prepped, "u2", 1e2, cfg=OptimizerConfig(outer_epochs=5, seed=0))
    assert np.all(np.isfinite(model.weights))
    assert np.linalg.norm(model.weights) < 0.1


CV_CFG = OptimizerConfig(outer_epochs=3, seed=0)


def test_cross_validate_nested_holdout():
    data = synthetic_linear(60, 5, 3, seed=9, noise=0.1)
    result = cross_validate(data, "u3", [1e-6, 1e-2], k=3, seed=1,
                            optimizer_cfg=CV_CFG)
    assert result.protocol == "nested-holdout"
    assert result.best_lambda in (1e-6, 1e-2)
    assert result.validation_losses.shape == (3, 2)
    assert len(result.fold_ranking_losses) == 3
    assert 0.0 <= result.mean_ranking_loss <= 1.0
    assert result.std_ranking_loss >= 0.0
    assert result.total_seconds > 0.0 and result.selection_seconds > 0.0
    # 3 x 2 selection fits, then one final refit per fold
    assert [(f.phase, f.fold, f.lam_index) for f in result.fits] == \
        [("select", f, li) for f in range(3) for li in range(2)] + \
        [("final", f, result.best_lambda_index) for f in range(3)]
    for fit in result.fits:
        assert 1 <= fit.epochs <= CV_CFG.outer_epochs
        assert fit.converged == ("tolerance" in fit.stop_reason)
        assert fit.converged or fit.stop_reason == "epoch budget exhausted"
    assert result.unconverged_fits == sum(not f.converged for f in result.fits)
    # the reported fold metrics are those of the final fits' records
    final = result.fits[-3:]
    assert [f.ranking_loss for f in final] == list(result.fold_ranking_losses)
    assert [f.partial_ranking_loss for f in final] == list(result.fold_partial_losses)
    assert [f.seconds for f in final] == list(result.fold_seconds)


def test_cross_validate_test_fold_protocol():
    data = synthetic_linear(45, 4, 2, seed=10, noise=0.1)
    result = cross_validate(data, "u1", [1e-6, 1e-2], k=3, seed=2,
                            optimizer_cfg=CV_CFG, select_on_test_folds=True)
    assert result.protocol == "test-fold"
    # in this mode the reported fold metrics are the grid column at best lambda
    col = result.validation_losses[:, result.best_lambda_index]
    np.testing.assert_allclose(result.fold_ranking_losses, col)
    # the scored fits are selection fits; no others run
    assert [(f.phase, f.fold, f.lam_index) for f in result.fits] == \
        [("select", f, li) for f in range(3) for li in range(2)]


def test_cross_validate_worker_pool_is_deterministic():
    kwargs = dict(k=3, seed=3, optimizer_cfg=CV_CFG)
    # the scene-like problem's gemms exceed OpenBLAS's threading threshold
    for shape, algo in [((48, 4, 2), "u2"), ((600, 294, 6), "pa")]:
        data = synthetic_linear(*shape, seed=11, noise=0.1)
        r1 = cross_validate(data, algo, [1e-6, 1e-2], workers=1, **kwargs)
        r2 = cross_validate(data, algo, [1e-6, 1e-2], workers=2, **kwargs)
        np.testing.assert_array_equal(r1.validation_losses, r2.validation_losses)
        np.testing.assert_array_equal(r1.fold_ranking_losses, r2.fold_ranking_losses)
        np.testing.assert_array_equal(r1.fold_partial_losses, r2.fold_partial_losses)
        assert r1.best_lambda == r2.best_lambda
        assert r1.fits == r2.fits


@pytest.mark.parametrize("workers", [1, 2])
def test_cross_validate_tasks_run_at_one_blas_thread(monkeypatch, workers):
    get_threads, set_threads = trainer._openblas_thread_calls()
    fit = trainer.train_with_trace

    def checked_train(*args, **kwargs):
        threads = get_threads()
        assert threads == 1, f"task ran at {threads} BLAS threads"
        return fit(*args, **kwargs)

    monkeypatch.setattr(trainer, "train_with_trace", checked_train)
    data = synthetic_linear(30, 3, 2, seed=14)
    before = get_threads()
    set_threads(2)
    try:
        cross_validate(data, "u1", [1e-2], k=2, optimizer_cfg=CV_CFG, workers=workers)
        assert get_threads() == 2
    finally:
        set_threads(before)


def test_fits_run_at_one_blas_thread_bit_for_bit(monkeypatch):
    # the scene-like shape of the pool test, whose gemms exceed OpenBLAS's
    # threading threshold: at two threads their sums split differently
    data, _ = prepare_data(synthetic_linear(600, 294, 6, seed=11, noise=0.1))
    get_threads, set_threads = trainer._openblas_thread_calls()
    thread_calls = trainer._openblas_thread_calls
    sets = []

    def counting_calls():
        get, set_ = thread_calls()

        def counted(threads):
            sets.append(threads)
            set_(threads)

        return get, counted

    before = get_threads()
    set_threads(2)
    try:
        model, _ = train_with_trace(data, "pa", 1e-2, cfg=CV_CFG)
        assert get_threads() == 2
        with trainer._one_blas_thread():
            monkeypatch.setattr(trainer, "_openblas_thread_calls", counting_calls)
            pinned, _ = train_with_trace(data, "pa", 1e-2, cfg=CV_CFG)
            evaluate(pinned, data)
            assert sets == []  # nested at one thread: no set call
        with trainer._one_blas_thread():
            pass
        assert sets == [1, 2] and get_threads() == 2
    finally:
        set_threads(before)
    assert model.weights.tobytes() == pinned.weights.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_cross_validate_without_openblas_fails_loudly(monkeypatch, workers):
    def untouched_train(*args, **kwargs):
        raise AssertionError("a task ran")

    monkeypatch.setattr(trainer, "_openblas", lambda: None)
    monkeypatch.setattr(trainer, "train_with_trace", untouched_train)
    data = synthetic_linear(30, 3, 2, seed=15)
    with pytest.raises(RuntimeError, match="OpenBLAS"):
        cross_validate(data, "u1", [1e-2], k=2, optimizer_cfg=CV_CFG, workers=workers)


def test_cross_validate_sorts_grid_ascending():
    data = synthetic_linear(30, 3, 2, seed=12)
    result = cross_validate(data, "u1", [1e-2, 1e-8], k=3, seed=4,
                            optimizer_cfg=CV_CFG)
    assert result.lambda_grid == [1e-8, 1e-2]
    assert result.best_lambda == result.lambda_grid[result.best_lambda_index]


def test_cross_validate_rejects_bad_input():
    data = synthetic_linear(30, 3, 2, seed=13)
    with pytest.raises(ValueError):
        cross_validate(data, "nope", [1e-4], optimizer_cfg=CV_CFG)
    with pytest.raises(ValueError):
        cross_validate(data, "u1", [], optimizer_cfg=CV_CFG)
