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
  where the weights ``w_j`` come from a scheme, named by its kind string
  ``u1``..``u4``.  The four schemes rescale each instance by different
  functions of the label split sizes, all stated once by
  :func:`scheme_betas`.

All gradients are analytic, using fixed one-sided derivatives at the hinge
kinks so that stochastic optimizers see deterministic subgradients.
``BaseLoss.derivative`` can run in place on an array of margins, so the
batch gradient kernel forms its margins, their derivative and its scaling in
one array.  Its 16-row calls in the SVRG inner loop cost what their numpy
calls cost, not their arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BASE_KINDS = ("exponential", "logistic", "logistic_calibrated", "hinge", "squared_hinge")
SCHEME_KINDS = ("u1", "u2", "u3", "u4")

# exp() overflows IEEE doubles near 709; margins are clamped one notch below.
EXP_CLAMP = 700.0
_E_MINUS_1 = np.e - 1.0
# pairs or label entries that BatchSurrogate.blocks gathers at once
_BLOCK_BUDGET = 1 << 15


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
            return np.exp(-np.maximum(z, -EXP_CLAMP))
        if self.kind == "logistic":
            # log(1 + e^{-z}) with one exp; e^{-|z|} underflows to the right value
            with np.errstate(under="ignore"):
                return np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)
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

    def derivative(self, z, out=None):
        """Pointwise derivative, computed in place into ``out`` (``z`` itself
        allowed) and returned; into a fresh copy of ``z`` when ``out`` is
        None.  The hinge kink uses its left limit -1.

        Each kind equals its textbook formula to the bit, signed zeros and
        NaN margins included: the exponential and logistic kinds run the
        formula's ufuncs in its order, the hinge kinds replace ``np.where``
        by arithmetic.
        """
        if out is None:
            out = np.array(z, dtype=np.float64)
        elif out is not z:
            np.copyto(out, z)
        kind = self.kind
        if kind == "hinge":  # -1 where z <= 1, else +0: 0 - [[z <= 1]]
            np.less_equal(out, 1.0, out=out)
            return np.subtract(0.0, out, out=out)
        if kind == "squared_hinge":  # -2 (1 - z) where z < 1, else +0: 2 fmin(z - 1, 0)
            out -= 1.0
            np.fmin(out, 0.0, out=out)
            out *= 2.0
            return out
        if kind == "exponential":  # -exp(-max(z, -700))
            np.maximum(out, -EXP_CLAMP, out=out)
            np.negative(out, out=out)
            np.exp(out, out=out)
            return np.negative(out, out=out)
        # -1 / (k exp(min(z, 700)) + 1), k = e - 1 for the calibrated kind
        np.minimum(out, EXP_CLAMP, out=out)
        np.exp(out, out=out)
        if kind == "logistic_calibrated":
            out *= _E_MINUS_1
        out += 1.0
        return np.divide(-1.0, out, out=out)


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


def scheme_betas(kind: str, a, b):
    """``(beta_plus, beta_minus)`` of scheme ``kind`` for ``a`` relevant and
    ``b`` irrelevant labels.

    The univariate surrogates weight label ``j`` of an instance with ``a``
    relevant and ``b`` irrelevant labels (``c = a + b``) as

    ============  =================  =================
    kind          weight, y_j = +1   weight, y_j = -1
    ============  =================  =================
    ``u1``        1 / c              1 / c
    ``u2``        1 / (a b)          1 / (a b)
    ``u3``        1 / a              1 / b
    ``u4``        1 / min(a, b)      1 / min(a, b)
    ============  =================  =================

    Only ``u1`` is defined on trivial label vectors.  Arbitrary weights are
    a :class:`mlrank.consistency.PenaltyAssignment`.  Elementwise on count
    arrays (float weights, ``inf`` where a weight divides by zero); exact on
    ``Fraction`` counts.
    """
    if kind not in SCHEME_KINDS:
        raise ValueError(f"unknown penalty scheme {kind!r}, expected one of {SCHEME_KINDS}")
    if kind == "u1":
        w = 1 / (a + b)
        return w, w
    if kind == "u2":
        w = 1 / (a * b)
        return w, w
    if kind == "u3":
        return 1 / a, 1 / b
    w = 1 / np.minimum(a, b)
    return w, w


def penalty_weights(kind: str, labels) -> np.ndarray:
    """Per-label weight vector ``w`` of scheme ``kind``, with ``w_j`` applied
    to ``ell(y_j f_j)``: the one row of :func:`penalty_weight_matrix`."""
    return penalty_weight_matrix(kind, _as_label_vector(labels)[None])[0]


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
    y = _as_label_vector(labels)
    if f.shape != y.shape:
        raise ValueError(f"scores shape {f.shape} does not match labels shape {y.shape}")
    w = penalty_weights(kind, y)
    z = y * f
    return LossEval(float(w @ base.value(z)), w * y * base.derivative(z))


# ---------------------------------------------------------------------------
# Batch paths.  A :class:`BatchSurrogate` holds one surrogate's per-row
# structure on a label matrix, built once: for ``pa`` the row-major
# label-pair list of :func:`label_pairs`, for u1-u4 the penalty weights.
# Two kernels on a score matrix, per-row gradients and per-row losses, serve
# training, the model bounds and the bounds probe; they share one private
# margin step, so the SVRG snapshot takes both from one array of margins.
# The ranking loss runs on a pair list of its own.
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


def penalty_weight_matrix(kind: str, labels) -> np.ndarray:
    """Stacked :func:`penalty_weights` of scheme ``kind`` for a label matrix."""
    Y = _as_label_matrix(labels)
    with np.errstate(divide="ignore"):
        beta_plus, beta_minus = scheme_betas(kind, *label_split_sizes(Y))
    if np.isinf(beta_plus).any() or np.isinf(beta_minus).any():
        raise ValueError(f"scheme {kind} is undefined on trivial label vectors")
    return np.where(Y > 0, beta_plus[:, None], beta_minus[:, None])


def group_by_label_pattern(labels) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Group row indices by identical label vector.

    Returns a list of ``(rows, pos, neg)`` index triples.  The batch losses
    do not group rows; they run on the pair list of :func:`label_pairs`.
    Only the benchmark's tracer and the tests call it.
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


class BatchSurrogate:
    """One surrogate (``pa`` or a scheme ``u1``..``u4``) on a label matrix.

    Built once per ``(n, c)`` label matrix.  For ``pa`` it holds the
    :func:`label_pairs` list as flat indices into the ``(n, c)`` scores,
    with each pair's scale ``1/|pairs|`` of its row; every row must then be
    nontrivial.  For a scheme it holds the penalty ``weights`` of
    :func:`penalty_weight_matrix`.  The kernels take scores ``F`` shaped
    like the labels (or, for ``gradients`` of a block, like the block).
    """

    def __init__(self, labels, kind: str, base: BaseLoss):
        self.Y = _as_label_matrix(labels)
        self.n, self.c = self.Y.shape
        self.base = base
        if kind == "pa":
            ptr, row, pos, neg = label_pairs(self.Y)
            self._count = np.diff(ptr)
            if np.any(self._count == 0):
                raise ValueError("pairwise surrogate is undefined on trivial label vectors")
            self._ptr, self._row_scale = ptr, 1.0 / self._count
            self._scale = np.repeat(self._row_scale, self._count)
            self._ip, self._iq = row * self.c + pos, row * self.c + neg
            self.weights = None
        else:
            self.weights = penalty_weight_matrix(kind, self.Y)

    @cached_property
    def _signed_weights(self) -> np.ndarray:
        # built on the first gradient; the bounds and their probe need none
        return self.weights * self.Y

    def _margins(self, F: np.ndarray, block=None) -> np.ndarray:
        """The base loss's arguments at scores ``F``, in a fresh array that
        the kernels may overwrite: ``y_j f_j`` per label entry for a scheme,
        ``f_p - f_q`` per pair for ``pa`` (of all rows, or of a block)."""
        if self.weights is not None:
            return (self.Y if block is None else block[0]) * F
        ip, iq = (self._ip, self._iq) if block is None else block[:2]
        flat = F.ravel()
        z = flat.take(ip)
        z -= flat.take(iq)
        return z

    def gradients(self, F: np.ndarray, block=None, with_losses: bool = False):
        """Per-row loss gradients at scores ``F``, shaped like ``F``: of all
        rows, or of one block that :meth:`blocks` yields, whose rows ``F``
        then holds in block order.

        With ``with_losses`` (all rows only) it returns the pair
        ``(gradients, row_losses(F))``, both from one pass of margins.
        The derivative and its scaling run in place on the margins.
        """
        z = self._margins(F, block)
        row_losses = self._row_losses(z) if with_losses else None
        self.base.derivative(z, out=z)
        if self.weights is not None:
            z *= self._signed_weights if block is None else block[1]
            g = z
        else:
            ip, iq, scale = (self._ip, self._iq, self._scale) if block is None else block
            z *= scale
            g = np.bincount(ip, z, F.size)
            g -= np.bincount(iq, z, F.size)
            g = g.reshape(F.shape)
        return g if row_losses is None else (g, row_losses)

    def blocks(self, rows: np.ndarray):
        """Yield, for each block of ``rows`` ``(steps, b)``, the gathers that
        ``gradients(F_R, block)`` reads; a row drawn twice counts twice.

        For ``pa`` a block is its pairs' ``(ip, iq, scale)``, indexed into the
        block's ``(b, c)`` scores; for a scheme, its rows of ``Y`` and of the
        signed weights.  Consecutive blocks are gathered together, at most
        ``_BLOCK_BUDGET`` pairs or label entries at a time (a larger block
        alone), so an epoch's gathers are never all held at once.
        """
        steps, b = rows.shape
        if self.weights is None:
            sizes = self._count[rows].sum(axis=1)
        else:
            sizes = np.full(steps, b * self.c)
        ends = np.cumsum(sizes)
        start = 0
        while start < steps:
            budget = _BLOCK_BUDGET + (ends[start - 1] if start else 0)
            stop = max(start + 1, int(np.searchsorted(ends, budget, side="right")))
            yield from self._gather(rows[start:stop])
            start = stop

    def _gather(self, rows: np.ndarray):
        """The blocks of :meth:`blocks` for rows ``(s, b)``, gathered at once."""
        if self.weights is not None:
            yield from zip(self.Y[rows], self._signed_weights[rows])
            return
        b = rows.shape[1]
        rows = rows.ravel()
        count = self._count[rows]
        ends = np.cumsum(count)
        # pair k of row i sits at i * c in the full scores and at j * c in
        # its block's, for the row's place j in the block
        k = np.arange(ends[-1]) + np.repeat(self._ptr[rows] - ends + count, count)
        shift = np.repeat((np.arange(rows.size) % b - rows) * self.c, count)
        ip, iq, scale = self._ip[k] + shift, self._iq[k] + shift, self._scale[k]
        lo = 0
        for hi in ends[b - 1::b].tolist():
            yield ip[lo:hi], iq[lo:hi], scale[lo:hi]
            lo = hi

    def row_losses(self, F: np.ndarray) -> np.ndarray:
        """Surrogate loss of each row at scores ``F`` ``(n, c)``; the one loss
        kernel, whose mean is the objective's loss term."""
        return self._row_losses(self._margins(F))

    def _row_losses(self, z: np.ndarray) -> np.ndarray:
        """Per-row losses from all rows' margins ``z``, which it only reads."""
        ell = self.base.value(z)
        if self.weights is not None:
            return (self.weights * ell).sum(axis=1)
        # every row owns pairs, so each ptr[i] starts a nonempty segment
        return np.add.reduceat(ell, self._ptr[:-1]) * self._row_scale


def univariate_batch(scores, labels, base: BaseLoss,
                     kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Values ``(n,)`` and gradients ``(n, c)`` of the univariate surrogate
    of scheme ``kind``.  Only the benchmark's tracer and the tests call it."""
    batch = BatchSurrogate(labels, kind, base)
    F = np.asarray(scores, dtype=np.float64)
    return batch.row_losses(F), batch.gradients(F)


def pairwise_batch_for(labels, base: BaseLoss):
    """A callable mapping scores ``F`` ``(n, c)`` to the pairwise surrogate's
    values ``(n,)`` and gradients ``(n, c)``, on the pair list of ``labels``,
    built once here.  Only the benchmark's tracer and the tests call it."""
    batch = BatchSurrogate(labels, "pa", base)
    return lambda F: (batch.row_losses(F), batch.gradients(F))


def ranking_loss_batch(scores, labels, partial: bool = False, pairs=None) -> np.ndarray:
    """Per-row (partial) ranking loss for nontrivial rows; NaN on trivial ones.

    ``pairs`` short-circuits :func:`label_pairs` when the caller has built
    the list of ``labels``.
    """
    F = np.asarray(scores, dtype=np.float64)
    ptr, row, pos, neg = pairs if pairs is not None else label_pairs(labels)
    fp, fq = F[row, pos], F[row, neg]
    wrong = (fp < fq) + 0.5 * (fp == fq) if partial else (fp <= fq).astype(np.float64)
    with np.errstate(invalid="ignore"):  # 0/0 marks the trivial rows NaN
        return np.bincount(row, wrong, F.shape[0]) / np.diff(ptr)
