"""Per-row reference formulas of the ranking measures and the surrogates.

Each function takes one instance, a score vector and a label vector over
``{-1, +1}``, and states its measure or surrogate in the plainest numpy: the
batch kernels of :mod:`mlrank.losses` are tested against these.  Test
modules import it by name (``from loss_reference import ...``); it holds no
tests of its own.
"""

from dataclasses import dataclass

import numpy as np

from mlrank.losses import BaseLoss, _as_label_matrix, penalty_weight_matrix


def _as_label_row(labels) -> np.ndarray:
    """A label vector, checked as the one row of a label matrix."""
    return _as_label_matrix(np.asarray(labels, dtype=np.float64)[None])[0]


def split_labels(labels) -> tuple[np.ndarray, np.ndarray]:
    """Return index arrays of the relevant (+1) and irrelevant (-1) labels.

    Raises ``ValueError`` on a trivial vector (either side empty).
    """
    y = _as_label_row(labels)
    pos = np.flatnonzero(y > 0)
    neg = np.flatnonzero(y < 0)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("trivial label vector: need at least one relevant and one irrelevant label")
    return pos, neg


def ranking_loss(scores, labels) -> float:
    """Fraction of (relevant, irrelevant) label pairs ordered wrongly.

    A pair ``(p, q)`` counts as a full mistake unless ``scores[p] > scores[q]``:
    ties, and NaN scores, are penalized like inversions.  Result lies in
    ``[0, 1]``.
    """
    f = np.asarray(scores, dtype=np.float64)
    pos, neg = split_labels(labels)
    return float(np.mean(~(f[pos][:, None] > f[neg][None, :])))


def partial_ranking_loss(scores, labels) -> float:
    """Like :func:`ranking_loss` but ties cost 1/2 instead of 1."""
    f = np.asarray(scores, dtype=np.float64)
    pos, neg = split_labels(labels)
    fp, fq = f[pos][:, None], f[neg][None, :]
    return float(np.mean(~(fp > fq) - 0.5 * (fp == fq)))


@dataclass(frozen=True)
class LossEval:
    """Value and gradient (with respect to the score vector) of a surrogate."""

    value: float
    gradient: np.ndarray


def pairwise_surrogate(scores, labels, base: BaseLoss) -> LossEval:
    """Average of ``ell(f_p - f_q)`` over relevant/irrelevant pairs ``(p, q)``."""
    f = np.asarray(scores, dtype=np.float64)
    pos, neg = split_labels(labels)
    scale = 1.0 / (pos.size * neg.size)
    diffs = f[pos][:, None] - f[neg][None, :]
    grad = np.zeros_like(f)
    derivs = base.derivative(diffs) * scale
    grad[pos] = derivs.sum(axis=1)
    grad[neg] = -derivs.sum(axis=0)
    return LossEval(float(base.value(diffs).sum() * scale), grad)


def univariate_surrogate(scores, labels, base: BaseLoss, kind: str) -> LossEval:
    """Weighted sum of per-label losses ``w_j * ell(y_j f_j)`` of scheme ``kind``."""
    f = np.asarray(scores, dtype=np.float64)
    y = _as_label_row(labels)
    if f.shape != y.shape:
        raise ValueError(f"scores shape {f.shape} does not match labels shape {y.shape}")
    w = penalty_weight_matrix(kind, y[None])[0]
    z = y * f
    return LossEval(float(w @ base.value(z)), w * y * base.derivative(z))
