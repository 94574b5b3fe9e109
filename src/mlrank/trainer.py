"""Training pipelines: single fits, evaluation, cross-validated selection.

The five training algorithms share one linear model and optimizer and differ
only in the surrogate objective:

* ``pa``: pairwise surrogate over relevant/irrelevant label pairs,
* ``u1`` .. ``u4``: univariate surrogates under the four penalty schemes.

``evaluate`` scores the (partial) ranking loss only; the surrogate risks of
the deviation bounds come from :func:`mlrank.bounds.model_bound_inputs`.
``train_with_trace`` solves, and ``evaluate`` scores, with numpy's bundled
OpenBLAS at one thread, restoring the caller's count afterwards; without
that library both raise ``RuntimeError``.  So a serial fit gives the bits
the same fit gives in a cross-validation task, and no BLAS helper thread
spins through the single-threaded SVRG inner steps.

``cross_validate`` implements seeded k-fold selection over a lambda grid.
By default the grid is scored on a nested 80/20 holdout inside each fold's
training portion, so the reported test metrics never see the selection data;
``select_on_test_folds=True`` swaps in the cheaper protocol that scores the
grid on the test folds directly.  The (fold x lambda) task grid of both
phases, selection and final scoring, runs on one task runner per call: a
serial loop, or one forked process pool.  For the whole call numpy's bundled
OpenBLAS runs at one thread in the calling process, which the pool's workers
inherit, so their fits make no thread-count call, and the caller's thread
count is restored afterwards.  Every task
derives its own seed from the master seed and its grid coordinates, so
results do not depend on scheduling order or pool size.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import multiprocessing
import os
import time
from concurrent import futures
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses
from .dataset import MultiLabelDataset, StandardizationParams, kfold_split, standardize_fit
from .losses import LOGISTIC, BaseLoss
from .model import SURROGATES, LinearModel, Objective, ObjectiveSpec, predict
from .optimizer import OptimizationTrace, OptimizerConfig, minimize_svrg_bb


def task_seed(master_seed: int, fold: int, lam_index: int, algo: str, phase: str = "train") -> int:
    """Stable per-task seed; independent of scheduling and pool size."""
    key = f"{master_seed}:{fold}:{lam_index}:{algo}:{phase}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def prepare_data(data: MultiLabelDataset, standardize: bool = True, bias: bool = True,
                 params: StandardizationParams | None = None, rows=None
                 ) -> tuple[MultiLabelDataset, StandardizationParams | None]:
    """Standardize (fitting on the prepared rows unless ``params`` given) and add bias.
    Raises ``ValueError`` naming a feature column whose statistics or
    standardized values are not finite.

    ``rows``, when given, selects the instances to prepare: the result is
    the one ``prepare_data(data.subset(rows), ...)`` gives, bit for bit,
    without the copy of the rows that ``subset`` makes.  The features are
    built in one ``(n, d + bias)`` array: the rows are gathered into it and
    the bias column written, then whole rows are standardized in place, the
    bias column by a shift of 0 and a scale of 1, which leave it 1.  Whole
    rows are contiguous and the first ``d`` columns alone are not: passes
    over those took twice as long.
    """
    X = np.empty((data.n if rows is None else len(rows), data.d + bias))
    X[:, :data.d] = data.features if rows is None else data.features[rows]
    X[:, data.d:] = 1.0
    labels = data.labels if rows is None else data.labels[rows]
    if standardize:
        if params is None:
            params = standardize_fit(X[:, :data.d])
        with np.errstate(over="ignore"):
            X -= np.append(params.mean, np.zeros(int(bias)))
            X /= np.append(params.std, np.ones(int(bias)))
        # finite statistics bound the rows they are fitted on, not held-out rows
        bad = ~np.isfinite(X).all(axis=0)
        if bad.any():
            raise ValueError(f"feature column {np.argmax(bad) + 1}: a value overflows when "
                             "standardized by the statistics of the training rows")
    return replace(data, features=X, labels=labels,
                   dropped_trivial=data.dropped_trivial if rows is None else 0), params


def train_with_trace(data: MultiLabelDataset, algo: str, lam: float,
                     base: BaseLoss = LOGISTIC, cfg: OptimizerConfig | None = None
                     ) -> tuple[LinearModel, OptimizationTrace]:
    """Fit one linear model from a zero start; returns the trace as well.
    Overflow in the solve prints no numpy warning: the optimizer's own
    finiteness check is what reports a diverging fit."""
    cfg = cfg or OptimizerConfig()
    objective = Objective(data.features, data.labels, ObjectiveSpec(algo, base, lam))
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        W, trace = minimize_svrg_bb(objective, np.zeros((data.d, data.c)), cfg)
    model = LinearModel(W, algorithm=algo, base=base.kind, lam=lam, seed=cfg.seed)
    return model, trace


def train(data: MultiLabelDataset, algo: str, lam: float, base: BaseLoss = LOGISTIC,
          cfg: OptimizerConfig | None = None) -> LinearModel:
    model, _ = train_with_trace(data, algo, lam, base, cfg)
    return model


@dataclass
class EvalReport:
    """Instance-averaged ranking losses; trivial label vectors are skipped."""

    ranking_loss: float
    partial_ranking_loss: float
    n_evaluated: int
    n_skipped: int


def evaluate(model: LinearModel, data: MultiLabelDataset) -> EvalReport:
    """Ranking loss and partial ranking loss of a model on its nontrivial
    rows, both from one ``losses.ranking_loss_batch`` call on all rows: one
    build of the label lists and one walk over their pairs.  The trivial
    rows are the ones it scores NaN; a score that overflows ranks as
    +-inf.  Raises ``ValueError`` when the model's label count is not the
    data's."""
    with _one_blas_thread(), np.errstate(over="ignore"):
        scores = predict(model, data.features)
    ranking, partial = losses.ranking_loss_batch(scores, data.labels)
    scored = ~np.isnan(ranking)
    if not scored.any():
        raise ValueError("no nontrivial instances to evaluate")
    return EvalReport(
        ranking_loss=float(ranking[scored].mean()),
        partial_ranking_loss=float(partial[scored].mean()),
        n_evaluated=int(scored.sum()),
        n_skipped=int((~scored).sum()),
    )


# ---------------------------------------------------------------------------
# Cross-validation task grid.  The task runner holds the dataset and the
# fit settings in ``_POOL``, which forked workers inherit; tasks carry row
# indices only.
# ---------------------------------------------------------------------------

_POOL: dict = {}


@dataclass(frozen=True)
class _TaskSpec:
    phase: str
    fold: int
    lam_index: int
    lam: float
    train_rows: np.ndarray
    eval_rows: np.ndarray
    seed: int


def _run_task(task: _TaskSpec) -> FitRecord:
    # each side is prepared straight from the pool's data, in one array
    data, standardize, bias = _POOL["data"], _POOL["standardize"], _POOL["bias"]
    train_set, params = prepare_data(data, standardize, bias, rows=task.train_rows)
    eval_set, _ = prepare_data(data, standardize, bias, params=params, rows=task.eval_rows)
    cfg = replace(_POOL["opt_cfg"], seed=task.seed)
    t0 = time.perf_counter()
    model, trace = train_with_trace(train_set, _POOL["algo"], task.lam, _POOL["base"], cfg)
    seconds = time.perf_counter() - t0
    report = evaluate(model, eval_set)
    return FitRecord(task.phase, task.fold, task.lam_index, len(trace.records),
                     trace.converged, trace.stop_reason, report.ranking_loss,
                     report.partial_ranking_loss, seconds)


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled scipy-openblas library, or None if it cannot be found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so*")
    for path in glob.glob(pattern):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _openblas_thread_calls():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS."""
    lib = _openblas()
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        raise RuntimeError("cannot pin BLAS threads: numpy's bundled OpenBLAS "
                           "(numpy.libs/libscipy_openblas*.so) or its thread-count "
                           "functions were not found")
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS at one thread in this process.

    Single-threaded BLAS keeps results identical across pool sizes and
    between a serial fit and the same fit in a task, keeps pool workers
    from oversubscribing the cores, and keeps no helper thread spinning
    through the single-threaded inner steps.  Re-entrant: at one thread
    already it makes no set call, because any set call in a forked worker,
    even to 1, restarts OpenBLAS's thread server, whose thread spins on a
    core before it sleeps.  So enter it in the parent, before a pool forks:
    a forked worker inherits the count.
    """
    get, set_threads = _openblas_thread_calls()
    before = get()
    if before == 1:
        yield
        return
    set_threads(1)
    try:
        if get() != 1:
            raise RuntimeError(f"OpenBLAS runs {get()} threads after being set to 1")
        yield
    finally:
        set_threads(before)


@contextmanager
def _task_runner(workers: int, **settings):
    """Yield ``run(tasks) -> results``, serving every phase of one call, with
    ``settings`` (the data and how to fit it) in ``_POOL`` until it closes:
    a serial loop at ``workers <= 1``, otherwise one forked process pool,
    whose workers inherit them."""
    _POOL.update(settings)
    try:
        if workers <= 1:
            yield lambda tasks: [_run_task(t) for t in tasks]
        else:
            with futures.ProcessPoolExecutor(
                    max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
                yield lambda tasks: list(pool.map(_run_task, tasks))
    finally:
        _POOL.clear()


@dataclass(frozen=True)
class FitRecord:
    """One cross-validation task: how its fit ended, how the model scored on
    the task's evaluation rows, and the fit's wall time."""

    phase: str  # "select" or "final"
    fold: int
    lam_index: int
    epochs: int
    converged: bool
    stop_reason: str
    ranking_loss: float
    partial_ranking_loss: float
    seconds: float = field(compare=False)  # varies run to run; the rest does not


@dataclass
class CvResult:
    """Cross-validation outcome for one (dataset, algorithm) pair.

    ``fits`` holds one record per fit run: every (fold, lambda) selection
    task, then, under the nested holdout, each fold's final refit.  The
    test-fold protocol scores the selection fits and runs no others.
    """

    dataset: str
    algorithm: str
    base: str
    lambda_grid: list[float]
    folds: int
    seed: int
    protocol: str
    validation_losses: np.ndarray
    best_lambda: float
    best_lambda_index: int
    fold_ranking_losses: np.ndarray
    fold_partial_losses: np.ndarray
    fold_seconds: np.ndarray
    selection_seconds: float = 0.0
    fits: list[FitRecord] = field(default_factory=list)

    @property
    def unconverged_fits(self) -> int:
        return sum(not f.converged for f in self.fits)

    @property
    def mean_ranking_loss(self) -> float:
        return float(self.fold_ranking_losses.mean())

    @property
    def std_ranking_loss(self) -> float:
        return float(self.fold_ranking_losses.std())

    @property
    def mean_partial_ranking_loss(self) -> float:
        return float(self.fold_partial_losses.mean())

    @property
    def std_partial_ranking_loss(self) -> float:
        return float(self.fold_partial_losses.std())

    @property
    def total_seconds(self) -> float:
        return float(self.fold_seconds.sum())


def cross_validate(data: MultiLabelDataset, algo: str, lambda_grid, k: int = 3,
                   seed: int = 0, base: BaseLoss = LOGISTIC,
                   optimizer_cfg: OptimizerConfig | None = None,
                   select_on_test_folds: bool = False, workers: int = 1,
                   standardize: bool = True, bias: bool = True) -> CvResult:
    """Select lambda by k-fold grid search, then score the chosen model.

    Returns per-fold test metrics at the selected lambda.  The grid is
    sorted ascending and ties in mean validation loss break toward the
    smaller lambda.
    """
    if algo not in SURROGATES:
        raise ValueError(f"unknown algorithm {algo!r}, expected one of {SURROGATES}")
    grid = sorted(float(l) for l in lambda_grid)
    if not grid:
        raise ValueError("lambda grid is empty")
    if not losses.nontrivial_mask(data.labels).all():
        raise ValueError("cross_validate requires nontrivial instances; filter the data first")
    opt_cfg = optimizer_cfg or OptimizerConfig()
    fold_of = kfold_split(data.n, k, seed)
    all_rows = np.arange(data.n)

    select_tasks: list[_TaskSpec] = []
    fold_rows: list[tuple[np.ndarray, np.ndarray]] = []
    for f in range(k):
        train_rows = all_rows[fold_of != f]
        test_rows = all_rows[fold_of == f]
        fold_rows.append((train_rows, test_rows))
        if select_on_test_folds:
            sub_rows, val_rows = train_rows, test_rows
        else:
            rng = np.random.default_rng(task_seed(seed, f, -1, algo, "holdout"))
            perm = train_rows[rng.permutation(train_rows.size)]
            n_val = max(1, int(round(0.2 * perm.size)))
            val_rows, sub_rows = perm[:n_val], perm[n_val:]
            if not sub_rows.size:
                raise ValueError(f"fold {f}: its {perm.size} training instances all go to "
                                 "the nested holdout, leaving none to train on")
        for li, lam in enumerate(grid):
            select_tasks.append(_TaskSpec("select", f, li, lam, sub_rows, val_rows,
                                          task_seed(seed, f, li, algo, "select")))

    settings = dict(data=data, algo=algo, base=base, opt_cfg=opt_cfg,
                    standardize=standardize, bias=bias)
    with _one_blas_thread(), _task_runner(workers, **settings) as run:
        # records come back in task order: fold-major, then lambda
        select = run(select_tasks)
        validation = np.array([r.ranking_loss for r in select]).reshape(k, len(grid))
        best_index = int(np.argmin(validation.mean(axis=0)))
        best_lambda = grid[best_index]

        if select_on_test_folds:
            final, refits = select[best_index::len(grid)], []
        else:
            final = refits = run([_TaskSpec("final", f, best_index, best_lambda,
                                            fold_rows[f][0], fold_rows[f][1],
                                            task_seed(seed, f, best_index, algo, "final"))
                                  for f in range(k)])

    return CvResult(
        dataset=data.name, algorithm=algo, base=base.kind, lambda_grid=grid,
        folds=k, seed=seed,
        protocol="test-fold" if select_on_test_folds else "nested-holdout",
        validation_losses=validation,
        best_lambda=best_lambda, best_lambda_index=best_index,
        fold_ranking_losses=np.array([r.ranking_loss for r in final]),
        fold_partial_losses=np.array([r.partial_ranking_loss for r in final]),
        fold_seconds=np.array([r.seconds for r in final]),
        selection_seconds=float(sum(r.seconds for r in select)),
        fits=select + refits,
    )
