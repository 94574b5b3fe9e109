"""Linear multi-label scorer and its regularized training objective.

The model scores instance ``x`` as ``f(x) = W^T x`` with ``W`` of shape
``(d, c)``.  A per-label offset is obtained by appending a constant feature
to the data (the bias column :func:`mlrank.trainer.prepare_data` appends)
rather than by a separate bias term.

The training objective is the mean surrogate loss plus a squared Frobenius
penalty::

    F(W) = (1/n) sum_i L(W^T x_i, y_i) + lambda * ||W||_F^2

:class:`Objective` implements the oracle protocol of
:mod:`mlrank.optimizer`: ``n``, ``lam``, ``svrg_snapshot`` (value, full
gradient ``mu`` and per-sample loss gradients at the snapshot) and
``svrg_epoch(snap, eta, rows)``, which runs one epoch of mini-batch SVRG
inner steps, one per row of ``rows`` (shape ``(steps, b)``).

Each step asks the score-space block hook ``svrg_direction`` for the
``(b, c)`` deltas of its ``b`` rows, from the block's gathers that
:meth:`mlrank.losses.BatchSurrogate.blocks` yields and the snapshot's loss
gradients of its rows, gathered once per epoch.  Then it updates one dense
``W`` in place: it scales ``W`` by ``1 - 2 eta lambda``, subtracts
``eta (mu - 2 lambda W_snap)`` (computed once per epoch) and subtracts the
block's rank-``b`` term ``eta X_R^T Delta_R / b``.  A step gathers ``X_R``
with ``take``, multiplies with ``dot`` and scales the deltas in place: on
the solver's 64-row blocks the fixed cost of a step's numpy calls is still
most of its time.  A snapshot takes one pass over ``X`` in blocks of
consecutive rows, each read twice while it is in cache, and forms each loss
margin once, for both its loss gradients and its value.

Outside the protocol, ``value`` gives the snapshot's value at ``W``, for
checks against an independent solver.  Every entry point reaches the loss
through one :class:`mlrank.losses.BatchSurrogate` and its two kernels on
scores: the losses and loss gradients of a range of rows, for each block
of the snapshot, and the loss gradients of one block, for the inner steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from . import losses
from .losses import BaseLoss

SURROGATES = ("pa", "u1", "u2", "u3", "u4")
# feature values per block of a snapshot's pass over X (2^17 values, 1 MiB).
# Chosen by tools/snapshot_sweep.py over 2^15-2^18 at one BLAS thread: on
# scene-shaped folds (1604 x 295, 3.8 MB) a pa snapshot took 1.36 ms as one
# block, 1.07 at 2^15, 0.87 at 2^16, 0.81 at 2^17 and 1.35 at 2^18 (u3:
# 1.21, 0.69, 0.62, 0.62, 1.24); of the tied 2^16 and 2^17 the larger is
# kept.  Data of at most this many values, as the emotions- and
# labels100-shaped folds are, is one block: the unblocked pass
_SNAPSHOT_VALUES = 1 << 17


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
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and nonnegative, not {self.lam!r}")
        if 4.0 * self.lam == np.inf:  # the solver's step bound takes 1 / (4 lambda)
            raise ValueError(f"lambda {self.lam!r} is too large: 4 * lambda overflows")


class Objective:
    """Regularized empirical surrogate risk of a linear model on fixed data.

    Implements the optimizer oracle protocol: ``n``, ``lam``,
    ``svrg_snapshot`` and ``svrg_epoch``; ``value`` serves checks against
    an independent solver.  An epoch holds the iterate as one dense ``W``
    and calls the score-space block hook
    ``svrg_direction(X_R @ W, block_R, G_R)`` once per inner step, for the
    step's block ``R`` of ``b`` rows: ``block_R`` is what ``loss.blocks``
    yields for it and ``G_R`` the snapshot's loss gradients of its rows.
    Every entry point reaches the loss through the one
    :class:`mlrank.losses.BatchSurrogate` built here, ``loss``: the
    snapshot through its ``losses_and_gradients``, a step through its
    block ``gradients``.  Raises ``ValueError`` on data with no rows, row
    counts that differ or a trivial label vector.
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, spec: ObjectiveSpec):
        self.X = np.asarray(X, dtype=np.float64)
        self.Y = np.asarray(Y, dtype=np.float64)
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("feature and label row counts differ")
        if self.X.shape[0] == 0:
            raise ValueError("objective requires at least one row; the data is empty")
        if not losses.nontrivial_mask(self.Y).all():
            raise ValueError("objective requires nontrivial label vectors; filter the data first")
        self.spec = spec
        self.n = self.X.shape[0]
        self.d = self.X.shape[1]
        self.c = self.Y.shape[1]
        self.lam = spec.lam
        self.loss = losses.BatchSurrogate(self.Y, spec.surrogate, spec.base)

    # -- objective and oracle interface -----------------------------------

    def value(self, W: np.ndarray) -> float:
        """The objective at ``W``: the value of :meth:`svrg_snapshot`."""
        return self.svrg_snapshot(W)["value"]

    def svrg_snapshot(self, W: np.ndarray) -> dict[str, Any]:
        """Cache the snapshot's value, full gradient ``mu`` and per-sample loss
        gradients, the losses and their gradients from one array of margins.

        One pass over ``X`` in blocks of consecutive rows, each holding at
        most ``_SNAPSHOT_VALUES`` feature values: a block's scores
        ``X_B W``, its rows' losses and loss gradients ``G_B``, then
        ``X_B^T G_B`` added to ``mu``, so each block of ``X`` is read twice
        while it is in cache.  The first block's product sets ``mu``, and
        the losses and loss gradients of one block are the kernel's own
        arrays, so data of one block runs the unblocked pass's calls.
        """
        X, n = self.X, self.n
        step = max(1, _SNAPSHOT_VALUES // self.d)
        values, grads, mu = [], [], None
        for start in range(0, n, step):
            rows = slice(start, start + step)
            XB = X[rows]
            v, G = self.loss.losses_and_gradients(XB @ W, rows)
            values.append(v)
            grads.append(G)
            part = XB.T @ G
            mu = part if mu is None else np.add(mu, part, out=mu)
        mu /= n
        mu += 2.0 * self.lam * W
        values, grads = (p[0] if len(p) == 1 else np.concatenate(p) for p in (values, grads))
        return {"W": W.copy(), "mu": mu, "loss_grads": grads,
                "value": float(values.mean()) + self.lam * float(np.sum(W * W))}

    def svrg_direction(self, scores: np.ndarray, block, snap_grads: np.ndarray) -> np.ndarray:
        """Deltas ``(b, c)``: loss gradients of one block of
        ``loss.blocks(rows)`` at its scores ``(b, c)`` minus the snapshot's
        loss gradients of its rows, ``snap_grads`` ``(b, c)``.

        The SVRG direction of a block ``R`` is
        ``X[R]^T delta / b + mu + 2 lambda (W - W_snap)``.  The deltas are
        the kernel's fresh gradient array, from which ``snap_grads`` is
        subtracted in place.
        """
        delta = self.loss.gradients(scores, block)
        delta -= snap_grads
        return delta

    def svrg_epoch(self, snap: dict[str, Any], eta: float, rows: np.ndarray) -> np.ndarray:
        """Run the inner steps ``W -= eta * (X_R^T delta_R / b + mu + 2 lambda (W - W_snap))``
        from ``W = W_snap``, one per block ``R`` of ``b`` rows in ``rows``
        ``(steps, b)``; returns the last iterate.

        With ``a = 1 - 2 eta lambda`` and ``K = eta (mu - 2 lambda W_snap)``
        a step is ``W = a W - K - (eta / b) X_R^T delta_R``, updated in place.
        The snapshot's loss gradients of all the epoch's rows are gathered
        once, and each block's loss gathers come from ``loss.blocks``.  The
        deltas are scaled by ``eta / b`` in place before the rank-``b``
        product, which gives the same bits as scaling a copy.
        """
        lam = self.lam
        a = 1.0 - 2.0 * eta * lam
        K = eta * (snap["mu"] - (2.0 * lam) * snap["W"])
        W = snap["W"].copy()
        X, direction = self.X, self.svrg_direction
        step = eta / rows.shape[1]
        for R, block, G in zip(rows, self.loss.blocks(rows), snap["loss_grads"][rows]):
            XR = X.take(R, axis=0)
            delta = direction(XR.dot(W), block, G)
            W *= a
            W -= K
            delta *= step
            W -= XR.T.dot(delta)
        return W


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


# model file header lines 2-7, in order: key, parser, test of the value, what passes
_HEADER = (("d", int, lambda v: v >= 1, "a positive integer"),
           ("c", int, lambda v: v >= 1, "a positive integer"),
           ("algorithm", str, SURROGATES.__contains__, f"one of {SURROGATES}"),
           ("base", str, losses.BASE_KINDS.__contains__, f"one of {losses.BASE_KINDS}"),
           ("lambda", float, lambda v: 0.0 <= v < np.inf, "finite and nonnegative"),
           ("seed", int, lambda v: True, "an integer"))


def load_model(path: str) -> LinearModel:
    """Read a :func:`save_model` file; any fault, a non-blank line after the
    ``d`` weight rows included, raises ``ValueError`` naming ``<path>:<line>``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}:1: not a model file (missing {_MAGIC!r} header)")
    if len(lines) < 7:
        raise ValueError(f"{path}: truncated model header ({len(lines)} of 7 lines)")
    header = {}
    for lineno, line, (key, parse, valid, expected) in zip(range(2, 8), lines[1:], _HEADER):
        name, _, text = line.partition(" ")
        try:
            value = parse(text)
        except ValueError:
            value = None
        if name != key or value is None or not valid(value):
            raise ValueError(f"{path}:{lineno}: expected {key} {expected}, found {line!r}")
        header[key] = value
    d, c = header["d"], header["c"]
    # rows are counted before W is allocated: W holds only rows of c tokens
    # that the file has, so a header declaring more allocates no more
    rows = lines[7:7 + d]
    whole = next((i for i, line in enumerate(rows) if len(line.split()) != c), len(rows))
    W = np.empty((whole, c))
    for i in range(d):
        try:
            row = np.array(rows[i].split() if i < whole else [], dtype=np.float64)
        except ValueError:
            row = None
        if row is None or row.shape != (c,) or not np.isfinite(row).all():
            raise ValueError(f"{path}:{8 + i}: weight row {i} must hold {c} finite numbers")
        W[i] = row
    for lineno, line in enumerate(lines[7 + d:], start=8 + d):
        if line.strip():
            raise ValueError(f"{path}:{lineno}: unexpected line after the {d} weight rows")
    return LinearModel(W, algorithm=header["algorithm"], base=header["base"],
                       lam=header["lambda"], seed=header["seed"])
