"""Ranking measures and convex surrogate losses for multi-label scoring.

A labeled instance is a pair ``(scores, labels)`` where ``scores`` holds one
real score per label and ``labels`` is a vector over ``{-1, +1}`` marking
relevant (+1) and irrelevant (-1) labels.  An instance is *nontrivial* when
both label groups are populated; the ranking measures and all surrogates
except the ``u1`` reweighting are undefined otherwise.

Two families of surrogates are provided, both built from a convex
margin-based base loss ``ell``:

* ``pairwise_surrogate``: averages ``ell(f_p - f_q)`` over relevant /
  irrelevant label pairs, the direct convexification of the ranking loss.
* ``univariate_surrogate``: sums per-label penalties ``w_j * ell(y_j f_j)``
  where the weights ``w_j`` come from a :class:`PenaltyScheme`.  The four
  named schemes rescale each instance by different functions of the label
  split sizes; ``general`` accepts arbitrary per-instance weights.

All gradients are analytic, using fixed one-sided derivatives at the hinge
kinks so that stochastic optimizers see deterministic subgradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

BASE_KINDS = ("exponential", "logistic", "logistic_calibrated", "hinge", "squared_hinge")
SCHEME_KINDS = ("u1", "u2", "u3", "u4", "general")

# exp() overflows IEEE doubles near 709; margins are clamped one notch below.
_EXP_CLAMP = 700.0
_E_MINUS_1 = np.e - 1.0


@dataclass(frozen=True)
class BaseLoss:
    """A convex, non-increasing margin loss ``ell(z)`` with ``ell(0) >= 1``.

    Parameters
    ----------
    kind : str
        One of ``exponential``, ``logistic``, ``logistic_calibrated``,
        ``hinge``, ``squared_hinge``.

    Notes
    -----
    Every kind except plain ``logistic`` upper-bounds the step function
    ``[[z <= 0]]``; ``logistic`` has ``ell(0) = ln 2 < 1`` and is kept as the
    default training loss despite that, since the shifted calibrated variant
    exists when the bound matters.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in BASE_KINDS:
            raise ValueError(f"unknown base loss {self.kind!r}, expected one of {BASE_KINDS}")

    @property
    def dominates_zero_one(self) -> bool:
        """True when ``ell(z) >= [[z <= 0]]`` pointwise."""
        return self.kind != "logistic"

    @property
    def has_kink(self) -> bool:
        return self.kind in ("hinge", "squared_hinge")

    def value(self, z):
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "exponential":
            return np.exp(-np.maximum(z, -_EXP_CLAMP))
        if self.kind == "logistic":
            return np.logaddexp(0.0, -z)
        if self.kind == "logistic_calibrated":
            # ln(e - 1 + e^{-z}); split at 0 to keep exp() arguments <= 0
            out = np.empty_like(z)
            neg = z < 0.0
            out[neg] = -z[neg] + np.log1p(_E_MINUS_1 * np.exp(z[neg]))
            out[~neg] = np.log(_E_MINUS_1 + np.exp(-z[~neg]))
            return out
        if self.kind == "hinge":
            return np.maximum(0.0, 1.0 - z)
        return np.maximum(0.0, 1.0 - z) ** 2

    def derivative(self, z):
        """Pointwise derivative; the hinge kink uses its left limit -1."""
        z = np.asarray(z, dtype=np.float64)
        if self.kind == "exponential":
            return -np.exp(-np.maximum(z, -_EXP_CLAMP))
        if self.kind == "logistic":
            return -expit(-z)
        if self.kind == "logistic_calibrated":
            return -1.0 / (_E_MINUS_1 * np.exp(np.minimum(z, _EXP_CLAMP)) + 1.0)
        if self.kind == "hinge":
            return np.where(z <= 1.0, -1.0, 0.0)
        return np.where(z < 1.0, -2.0 * (1.0 - z), 0.0)

    def value_and_derivative(self, z):
        return self.value(z), self.derivative(z)


def base_loss_value_and_derivative(base: BaseLoss, z):
    """Evaluate ``ell`` and ``ell'`` elementwise on ``z``."""
    return base.value_and_derivative(z)


EXPONENTIAL = BaseLoss("exponential")
LOGISTIC = BaseLoss("logistic")
LOGISTIC_CALIBRATED = BaseLoss("logistic_calibrated")
HINGE = BaseLoss("hinge")
SQUARED_HINGE = BaseLoss("squared_hinge")


def _as_label_vector(labels) -> np.ndarray:
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {y.shape}")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must take values in {-1, +1}")
    return y


def split_labels(labels) -> tuple[np.ndarray, np.ndarray]:
    """Return index arrays of the relevant (+1) and irrelevant (-1) labels.

    Raises ``ValueError`` on a trivial vector (either side empty).
    """
    y = _as_label_vector(labels)
    pos = np.flatnonzero(y > 0)
    neg = np.flatnonzero(y < 0)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("trivial label vector: need at least one relevant and one irrelevant label")
    return pos, neg


def ranking_loss(scores, labels) -> float:
    """Fraction of (relevant, irrelevant) label pairs ordered wrongly.

    A pair ``(p, q)`` counts as a full mistake when ``scores[p] <= scores[q]``;
    ties are penalized like inversions.  Result lies in ``[0, 1]``.
    """
    f = np.asarray(scores, dtype=np.float64)
    pos, neg = split_labels(labels)
    return float(np.mean(f[pos][:, None] <= f[neg][None, :]))


def partial_ranking_loss(scores, labels) -> float:
    """Like :func:`ranking_loss` but ties cost 1/2 instead of 1."""
    f = np.asarray(scores, dtype=np.float64)
    pos, neg = split_labels(labels)
    diffs = f[pos][:, None] - f[neg][None, :]
    return float(np.mean((diffs < 0.0) + 0.5 * (diffs == 0.0)))


@dataclass(frozen=True)
class PenaltyScheme:
    """Per-instance label weights for the univariate surrogates.

    The named kinds weight label ``j`` of an instance with ``a`` relevant and
    ``b`` irrelevant labels (``c = a + b``) as

    ============  =================  =================
    kind          weight, y_j = +1   weight, y_j = -1
    ============  =================  =================
    ``u1``        1 / c              1 / c
    ``u2``        1 / (a b)          1 / (a b)
    ``u3``        1 / a              1 / b
    ``u4``        1 / min(a, b)      1 / min(a, b)
    ============  =================  =================

    ``general`` takes callables ``beta_plus(labels)`` / ``beta_minus(labels)``
    returning the two weights for a whole label vector.  Only ``u1`` is
    defined on trivial label vectors.
    """

    kind: str
    beta_plus: Callable[[np.ndarray], float] | None = None
    beta_minus: Callable[[np.ndarray], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown penalty scheme {self.kind!r}, expected one of {SCHEME_KINDS}")
        if self.kind == "general" and (self.beta_plus is None or self.beta_minus is None):
            raise ValueError("general scheme requires beta_plus and beta_minus callables")


U1 = PenaltyScheme("u1")
U2 = PenaltyScheme("u2")
U3 = PenaltyScheme("u3")
U4 = PenaltyScheme("u4")


def penalty_weights(scheme: PenaltyScheme, labels) -> np.ndarray:
    """Per-label weight vector ``w`` with ``w_j`` applied to ``ell(y_j f_j)``."""
    y = _as_label_vector(labels)
    c = y.size
    if scheme.kind == "u1":
        return np.full(c, 1.0 / c)
    if scheme.kind == "general":
        bp = float(scheme.beta_plus(y))
        bm = float(scheme.beta_minus(y))
        return np.where(y > 0, bp, bm)
    pos, neg = split_labels(y)
    a, b = pos.size, neg.size
    if scheme.kind == "u2":
        return np.full(c, 1.0 / (a * b))
    if scheme.kind == "u3":
        return np.where(y > 0, 1.0 / a, 1.0 / b)
    return np.full(c, 1.0 / min(a, b))


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
    vals, derivs = base.value_and_derivative(diffs)
    grad = np.zeros_like(f)
    derivs = derivs * scale
    grad[pos] = derivs.sum(axis=1)
    grad[neg] = -derivs.sum(axis=0)
    return LossEval(float(vals.sum() * scale), grad)


def univariate_surrogate(scores, labels, base: BaseLoss, scheme: PenaltyScheme) -> LossEval:
    """Weighted sum of per-label losses ``w_j * ell(y_j f_j)``."""
    f = np.asarray(scores, dtype=np.float64)
    y = _as_label_vector(labels)
    if f.shape != y.shape:
        raise ValueError(f"scores shape {f.shape} does not match labels shape {y.shape}")
    w = penalty_weights(scheme, y)
    vals, derivs = base.value_and_derivative(y * f)
    return LossEval(float(w @ vals), w * y * derivs)


# ---------------------------------------------------------------------------
# Batch paths.  The trainer evaluates whole datasets at once; these helpers
# vectorize over instances.  The pairwise surrogate and the ranking loss run
# on the one row-major label-pair list built by :func:`label_pairs`.
# ---------------------------------------------------------------------------


def _as_label_matrix(labels) -> np.ndarray:
    Y = np.asarray(labels, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError(f"label matrix must be two-dimensional, got shape {Y.shape}")
    if not np.all(np.abs(Y) == 1.0):
        raise ValueError("labels must take values in {-1, +1}")
    return Y


def label_split_sizes(labels) -> tuple[np.ndarray, np.ndarray]:
    """Counts of relevant and irrelevant labels per row."""
    Y = _as_label_matrix(labels)
    a = (Y > 0).sum(axis=1)
    return a, Y.shape[1] - a


def nontrivial_mask(labels) -> np.ndarray:
    a, b = label_split_sizes(labels)
    return (a > 0) & (b > 0)


def penalty_weight_matrix(scheme: PenaltyScheme, labels) -> np.ndarray:
    """Stacked :func:`penalty_weights` for a label matrix."""
    Y = _as_label_matrix(labels)
    n, c = Y.shape
    if scheme.kind == "u1":
        return np.full((n, c), 1.0 / c)
    if scheme.kind == "general":
        return np.vstack([penalty_weights(scheme, Y[i]) for i in range(n)])
    a, b = label_split_sizes(Y)
    if np.any(a == 0) or np.any(b == 0):
        raise ValueError(f"scheme {scheme.kind} is undefined on trivial label vectors")
    if scheme.kind == "u2":
        return np.repeat((1.0 / (a * b))[:, None], c, axis=1)
    if scheme.kind == "u3":
        return np.where(Y > 0, (1.0 / a)[:, None], (1.0 / b)[:, None])
    return np.repeat((1.0 / np.minimum(a, b))[:, None], c, axis=1)


def univariate_batch(scores, labels, base: BaseLoss, scheme: PenaltyScheme,
                     weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Values ``(n,)`` and gradients ``(n, c)`` of a univariate surrogate.

    ``weights`` short-circuits :func:`penalty_weight_matrix` when the caller
    has precomputed it.
    """
    F = np.asarray(scores, dtype=np.float64)
    Y = _as_label_matrix(labels)
    if weights is None:
        weights = penalty_weight_matrix(scheme, Y)
    vals, derivs = base.value_and_derivative(Y * F)
    return (weights * vals).sum(axis=1), weights * Y * derivs


def group_by_label_pattern(labels) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Group row indices by identical label vector.

    Returns a list of ``(rows, pos, neg)`` index triples.  The batch losses
    do not group rows; they run on the pair list of :func:`label_pairs`.
    """
    Y = _as_label_matrix(labels)
    _, inverse = np.unique(Y, axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.flatnonzero(np.diff(inverse[order])) + 1
    groups = []
    for rows in np.split(order, boundaries):
        y = Y[rows[0]]
        groups.append((rows, np.flatnonzero(y > 0), np.flatnonzero(y < 0)))
    return groups


# most pairs one chunk of rows evaluates at once; bounds the temporaries
_PAIR_BUDGET = 1 << 18


def label_pairs(labels) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-major list of the (relevant, irrelevant) label pairs of a matrix.

    Returns ``ptr, row, pos, neg``: row ``i`` owns pairs ``ptr[i]:ptr[i+1]``
    (none if trivial); pair ``k`` is labels ``pos[k]`` (+1), ``neg[k]`` (-1).
    """
    Y = _as_label_matrix(labels)
    a, b = label_split_sizes(Y)
    ptr = np.concatenate(([0], np.cumsum(a * b)))
    pos_row, pos_label = np.nonzero(Y > 0)
    neg_label = np.nonzero(Y < 0)[1]
    # each relevant label of row i repeats once per irrelevant label of row i;
    # pair k of such a block takes the row's irrelevant labels in turn
    reps = b[pos_row]
    block_shift = np.cumsum(reps) - reps - (np.cumsum(b) - b)[pos_row]
    neg = neg_label[np.arange(ptr[-1]) - np.repeat(block_shift, reps)]
    return ptr, np.repeat(pos_row, reps), np.repeat(pos_label, reps), neg


def _pair_chunks(ptr, row, pos, neg):
    """Yield ``lo, hi, r, p, q`` for row chunks ``lo:hi`` of at most ``_PAIR_BUDGET``
    pairs (or of one row); ``r`` is each pair's row within the chunk."""
    lo, n = 0, ptr.size - 1
    while lo < n:
        hi = max(int(np.searchsorted(ptr, ptr[lo] + _PAIR_BUDGET, side="right")) - 1, lo + 1)
        s, e = ptr[lo], ptr[hi]
        yield lo, hi, row[s:e] - lo, pos[s:e], neg[s:e]
        lo = hi


def pairwise_batch_for(labels, base: BaseLoss):
    """Build a closure evaluating the pairwise surrogate on a score matrix.

    The returned callable maps ``F`` of shape ``(n, c)`` to values ``(n,)``
    and gradients ``(n, c)``.  Rows must all be nontrivial.  Each call
    evaluates ``ell`` on the pairs of :func:`label_pairs` only and sums the
    results back into rows and labels with ``np.bincount``.
    """
    Y = _as_label_matrix(labels)
    n, c = Y.shape
    pairs = label_pairs(Y)
    counts = np.diff(pairs[0])
    if np.any(counts == 0):
        raise ValueError("pairwise surrogate is undefined on trivial label vectors")
    scale = 1.0 / counts

    def evaluate(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, grads = np.empty(n), np.empty((n, c))
        for lo, hi, r, p, q in _pair_chunks(*pairs):
            ip, iq = r * c + p, r * c + q
            Fb = F[lo:hi].ravel()
            vals, derivs = base.value_and_derivative(Fb[ip] - Fb[iq])
            values[lo:hi] = np.bincount(r, vals, hi - lo) * scale[lo:hi]
            derivs *= scale[lo:hi][r]
            size = (hi - lo) * c
            grads[lo:hi] = (np.bincount(ip, derivs, size)
                            - np.bincount(iq, derivs, size)).reshape(hi - lo, c)
        return values, grads

    return evaluate


def ranking_loss_batch(scores, labels, partial: bool = False) -> np.ndarray:
    """Per-row (partial) ranking loss for nontrivial rows; NaN on trivial ones."""
    F = np.asarray(scores, dtype=np.float64)
    ptr, row, pos, neg = label_pairs(labels)
    wrong = np.empty(F.shape[0])
    for lo, hi, r, p, q in _pair_chunks(ptr, row, pos, neg):
        fp, fq = F[lo:hi][r, p], F[lo:hi][r, q]
        w = (fp < fq) + 0.5 * (fp == fq) if partial else (fp <= fq).astype(np.float64)
        wrong[lo:hi] = np.bincount(r, w, hi - lo)
    with np.errstate(invalid="ignore"):  # 0/0 marks the trivial rows NaN
        return wrong / np.diff(ptr)
