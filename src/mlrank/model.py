"""Linear multi-label scorer and its regularized training objective.

The model scores instance ``x`` as ``f(x) = W^T x`` with ``W`` of shape
``(d, c)``.  A per-label offset is obtained by appending a constant feature
to the data (see :func:`mlrank.dataset.append_bias`) rather than by a
separate bias term.

The training objective is the mean surrogate loss plus a squared Frobenius
penalty::

    F(W) = (1/n) sum_i L(W^T x_i, y_i) + lambda * ||W||_F^2

:class:`Objective` implements the oracle protocol of
:mod:`mlrank.optimizer`: ``n``, ``value``, ``full_gradient``,
``svrg_snapshot`` (value, full gradient ``mu`` and per-sample loss
gradients at the snapshot) and ``svrg_epoch(snap, eta, rows)``, which runs
one epoch of mini-batch SVRG inner steps, one per row of ``rows`` (shape
``(steps, b)``).  Each step asks the score-space block hook
``svrg_direction`` for the ``(b, c)`` deltas of its ``b`` rows; the step's
update is ``X_R^T Delta_R / b`` plus ``mu`` and the ridge term, and the
latter two are applied in closed form.  Every entry point reaches the
loss through two kernels on scores: per-row loss gradients, and mean loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import losses
from .losses import BaseLoss, PenaltyScheme

SURROGATES = ("pa", "u1", "u2", "u3", "u4")
# svrg_epoch multiplies its scale factor into U once it falls below this
_RESCALE_BELOW = 1e-100


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
        if not self.lam >= 0.0:
            raise ValueError("lambda must be nonnegative")


class Objective:
    """Regularized empirical surrogate risk of a linear model on fixed data.

    Implements the optimizer oracle protocol: ``n``, ``value``,
    ``full_gradient``, ``svrg_snapshot`` and ``svrg_epoch``.  An epoch calls
    the score-space block hook ``svrg_direction(scores_R, R, snap)`` once per
    inner step, for the step's block ``R`` of ``b`` rows.  Per-row structure
    is built once: for ``pa`` one label-pair list, as flat indices into the
    ``(n, c)`` scores with each pair's ``1/|pairs|`` of its row, otherwise
    the penalty weights.  The kernels ``_gradients`` (of all rows, or of a
    block) and ``_mean_loss`` serve every entry point.
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
            ptr, row, pos, neg = losses.label_pairs(self.Y)
            self._pair_start, self._pair_count = ptr[:-1], np.diff(ptr)
            self._pair_scale = np.repeat(1.0 / self._pair_count, self._pair_count)
            self._pair_ip, self._pair_iq = row * self.c + pos, row * self.c + neg
            self._weights = None
        else:
            self._weights = losses.penalty_weight_matrix(PenaltyScheme(spec.surrogate), self.Y)
            self._signed_weights = self._weights * self.Y

    # -- kernels on scores ----------------------------------------------------

    def _gradients(self, F: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Per-row loss gradients at scores ``F`` of rows ``rows`` (all rows if
        None), shaped like ``F``; a row drawn twice counts twice."""
        derivative = self.spec.base.derivative
        if self._weights is not None:
            sel = slice(None) if rows is None else rows
            return self._signed_weights[sel] * derivative(self.Y[sel] * F)
        ip, iq, scale = self._pair_ip, self._pair_iq, self._pair_scale
        if rows is not None:
            # the block's pairs, block position by block position; pair k of
            # row i sits at i * c in the full scores and at j * c in the block's
            count = self._pair_count[rows]
            ends = np.cumsum(count)
            k = np.arange(ends[-1]) + np.repeat(self._pair_start[rows] - ends + count, count)
            shift = np.repeat((np.arange(rows.size) - rows) * self.c, count)
            ip, iq, scale = ip[k] + shift, iq[k] + shift, scale[k]
        flat = F.ravel()
        derivs = derivative(flat[ip] - flat[iq]) * scale
        return (np.bincount(ip, derivs, F.size) - np.bincount(iq, derivs, F.size)).reshape(F.shape)

    def _mean_loss(self, F: np.ndarray) -> float:
        """Mean surrogate loss over all rows at scores ``F`` ``(n, c)``."""
        ell = self.spec.base.value
        if self._weights is not None:
            return float(np.sum(self._weights * ell(self.Y * F))) / self.n
        flat = F.ravel()
        return float(self._pair_scale @ ell(flat[self._pair_ip] - flat[self._pair_iq])) / self.n

    # -- oracle interface ---------------------------------------------------

    def value(self, W: np.ndarray) -> float:
        return self._mean_loss(self.X @ W) + self.spec.lam * float(np.sum(W * W))

    def full_gradient(self, W: np.ndarray) -> np.ndarray:
        return self.X.T @ self._gradients(self.X @ W) / self.n + 2.0 * self.spec.lam * W

    def svrg_snapshot(self, W: np.ndarray) -> dict[str, Any]:
        """Cache the snapshot's value, full gradient ``mu`` and per-sample loss gradients."""
        F = self.X @ W
        grads = self._gradients(F)
        return {"W": W.copy(), "mu": self.X.T @ grads / self.n + 2.0 * self.spec.lam * W,
                "loss_grads": grads,
                "value": self._mean_loss(F) + self.spec.lam * float(np.sum(W * W))}

    def svrg_direction(self, scores: np.ndarray, rows: np.ndarray,
                       snap: dict[str, Any]) -> np.ndarray:
        """Deltas ``(b, c)``: loss gradients of samples ``rows`` at ``scores``
        ``(b, c)`` minus the snapshot's.

        The SVRG direction of the block is
        ``X[rows]^T delta / b + mu + 2 lambda (W - W_snap)``.
        """
        return self._gradients(scores, rows) - snap["loss_grads"][rows]

    def svrg_epoch(self, snap: dict[str, Any], eta: float, rows: np.ndarray) -> np.ndarray:
        """Run the inner steps ``W -= eta * (X_R^T delta_R / b + mu + 2 lambda (W - W_snap))``
        from ``W = W_snap``, one per block ``R`` of ``b`` rows in ``rows``
        ``(steps, b)``; returns the last iterate.

        ``W`` is held as ``s U - r K`` with ``K = eta (mu - 2 lambda W_snap)``:
        a step scales ``s`` by ``a = 1 - 2 eta lambda``, sets ``r = a r + 1``
        and adds the rank-``b`` term to ``U`` in place, so it costs one matrix
        product for the block's scores ``s X_R U - r X_R K``, one hook call and
        one for the update.
        """
        lam = self.spec.lam
        a = 1.0 - 2.0 * eta * lam
        K = eta * (snap["mu"] - (2.0 * lam) * snap["W"])
        XK = self.X @ K
        U = snap["W"].copy()
        s, r = 1.0, 0.0
        X, direction = self.X, self.svrg_direction
        step = eta / rows.shape[1]
        for R in rows:
            XR = X[R]
            delta = direction(s * (XR @ U) - r * XK[R], R, snap)
            s *= a
            r = a * r + 1.0
            if abs(s) < _RESCALE_BELOW:
                # fold s into U before dividing by it; s is 0 once a = 0
                U *= s
                s = 1.0
            U -= XR.T @ (delta * (step / s))
        return s * U - r * K


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
