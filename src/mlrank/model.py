"""Linear multi-label scorer and its regularized training objective.

The model scores instance ``x`` as ``f(x) = W^T x`` with ``W`` of shape
``(d, c)``.  A per-label offset is obtained by appending a constant feature
to the data (see :func:`mlrank.dataset.append_bias`) rather than by a
separate bias term.

The training objective is the mean surrogate loss plus a squared Frobenius
penalty::

    F(W) = (1/n) sum_i L(W^T x_i, y_i) + lambda * ||W||_F^2

:class:`Objective` exposes the oracle interface the optimizers consume:
value and full gradient, plus an SVRG snapshot that caches the per-sample
loss gradients so each variance-reduced inner step is a rank-one update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import losses
from .dataset import MultiLabelDataset
from .losses import BaseLoss, PenaltyScheme

SURROGATES = ("pa", "u1", "u2", "u3", "u4")


@dataclass
class LinearModel:
    """Weight matrix plus the recipe that produced it."""

    weights: np.ndarray
    algorithm: str = "pa"
    base: str = "logistic"
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("model weights must be a (d, c) matrix")

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    @property
    def c(self) -> int:
        return self.weights.shape[1]


def predict(model: LinearModel, features) -> np.ndarray:
    """Score matrix ``X @ W``; rows are instances, columns labels."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.d:
        raise ValueError(f"feature dimension {X.shape[1]} does not match model d={model.d}")
    return X @ model.weights


@dataclass(frozen=True)
class ObjectiveSpec:
    """Choice of surrogate (``pa`` or a univariate scheme), base loss, lambda."""

    surrogate: str
    base: BaseLoss
    lam: float

    def __post_init__(self) -> None:
        if self.surrogate not in SURROGATES:
            raise ValueError(f"unknown surrogate {self.surrogate!r}, expected one of {SURROGATES}")
        if self.lam < 0.0:
            raise ValueError("lambda must be nonnegative")


class Objective:
    """Regularized empirical surrogate risk of a linear model on fixed data.

    Implements the optimizer oracle protocol: ``n``, ``value``,
    ``full_gradient``, ``svrg_snapshot`` and ``svrg_direction``.
    Per-instance index structure (the label-pair list for ``pa``, penalty
    weights otherwise) is precomputed once.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, spec: ObjectiveSpec):
        self.X = np.asarray(X, dtype=np.float64)
        self.Y = np.asarray(Y, dtype=np.float64)
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("feature and label row counts differ")
        if not losses.nontrivial_mask(self.Y).all():
            raise ValueError("objective requires nontrivial label vectors; filter the data first")
        self.spec = spec
        self.n = self.X.shape[0]
        self.d = self.X.shape[1]
        self.c = self.Y.shape[1]
        if spec.surrogate == "pa":
            self._pair_eval = losses.pairwise_batch_for(self.Y, spec.base)
            self._ptr, _, self._pos, self._neg = losses.label_pairs(self.Y)
            self._pair_scale = 1.0 / np.diff(self._ptr)
            self._weights = None
        else:
            self._pair_eval = None
            scheme = PenaltyScheme(spec.surrogate)
            self._weights = losses.penalty_weight_matrix(scheme, self.Y)

    # -- loss pieces (no regularizer) ----------------------------------------

    def _loss_row(self, scores_i: np.ndarray, i: int) -> np.ndarray:
        """Gradient of the loss term of sample ``i`` with respect to scores."""
        if self._pair_eval is not None:
            s, e = self._ptr[i], self._ptr[i + 1]
            p, q = self._pos[s:e], self._neg[s:e]
            derivs = self.spec.base.derivative(scores_i[p] - scores_i[q]) * self._pair_scale[i]
            return np.bincount(p, derivs, self.c) - np.bincount(q, derivs, self.c)
        y = self.Y[i]
        return self._weights[i] * y * self.spec.base.derivative(y * scores_i)

    def _loss_batch(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        F = self.X @ W
        if self._pair_eval is not None:
            return self._pair_eval(F)
        return losses.univariate_batch(F, self.Y, self.spec.base,
                                       PenaltyScheme(self.spec.surrogate),
                                       weights=self._weights)

    # -- oracle interface ---------------------------------------------------

    def value(self, W: np.ndarray) -> float:
        vals, _ = self._loss_batch(W)
        return float(vals.mean() + self.spec.lam * np.sum(W * W))

    def full_gradient(self, W: np.ndarray) -> np.ndarray:
        _, grads = self._loss_batch(W)
        return self.X.T @ grads / self.n + 2.0 * self.spec.lam * W

    def svrg_snapshot(self, W: np.ndarray) -> dict[str, Any]:
        """Cache the snapshot's value, full gradient ``mu`` and per-sample loss gradients."""
        vals, grads = self._loss_batch(W)
        mu = self.X.T @ grads / self.n + 2.0 * self.spec.lam * W
        return {"W": W.copy(), "mu": mu, "loss_grads": grads,
                "value": float(vals.mean() + self.spec.lam * np.sum(W * W))}

    def svrg_direction(self, W: np.ndarray, i: int, snap: dict[str, Any]) -> np.ndarray:
        """``g_i(W) - g_i(W_snap) + mu`` using the cached snapshot pieces."""
        x = self.X[i]
        g = self._loss_row(x @ W, i)
        direction = np.outer(x, g - snap["loss_grads"][i])
        direction += snap["mu"]
        if self.spec.lam:
            direction += (2.0 * self.spec.lam) * (W - snap["W"])
        return direction


def build_objective(data: MultiLabelDataset, spec: ObjectiveSpec) -> Objective:
    return Objective(data.features, data.labels, spec)


def objective_value(model: LinearModel, data: MultiLabelDataset, spec: ObjectiveSpec) -> float:
    return build_objective(data, spec).value(model.weights)


def objective_gradient(model: LinearModel, data: MultiLabelDataset, spec: ObjectiveSpec) -> np.ndarray:
    return build_objective(data, spec).full_gradient(model.weights)


# -- serialization ----------------------------------------------------------

_MAGIC = "mlrank-model 1"


def save_model(model: LinearModel, path: str) -> None:
    """Write a self-describing text file; weights keep 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_MAGIC + "\n")
        fh.write(f"d {model.d}\n")
        fh.write(f"c {model.c}\n")
        fh.write(f"algorithm {model.algorithm}\n")
        fh.write(f"base {model.base}\n")
        fh.write(f"lambda {model.lam:.17g}\n")
        fh.write(f"seed {model.seed}\n")
        for row in model.weights:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_model(path: str) -> LinearModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a model file (missing {_MAGIC!r} header)")
    if len(lines) < 7:
        raise ValueError(f"{path}: truncated model header ({len(lines)} of 7 lines)")
    fields: dict[str, str] = {}
    for idx in range(1, 7):
        key, _, val = lines[idx].partition(" ")
        fields[key] = val
    missing = {"d", "c", "algorithm", "base", "lambda", "seed"} - fields.keys()
    if missing:
        raise ValueError(f"{path}: header missing fields {sorted(missing)}")
    d, c = int(fields["d"]), int(fields["c"])
    rows = [np.array(ln.split(), dtype=np.float64) for ln in lines[7:7 + d]]
    W = np.vstack(rows) if rows else np.zeros((0, c))
    if W.shape != (d, c):
        raise ValueError(f"{path}: expected {d}x{c} weights, found shape {W.shape}")
    return LinearModel(W, algorithm=fields["algorithm"], base=fields["base"],
                       lam=float(fields["lambda"]), seed=int(fields["seed"]))
