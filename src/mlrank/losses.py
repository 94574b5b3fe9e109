"""Ranking measures and convex surrogate losses for multi-label scoring.

A labeled instance is a pair ``(scores, labels)`` where ``scores`` holds one
real score per label and ``labels`` is a vector over ``{-1, +1}`` marking
relevant (+1) and irrelevant (-1) labels.  An instance is *nontrivial* when
both label groups are populated; the ranking measures and all surrogates
except the ``u1`` reweighting are undefined otherwise.

Two families of surrogates are provided, both built from a convex
margin-based base loss ``ell``: ``pa`` averages ``ell(f_p - f_q)`` over an
instance's relevant / irrelevant label pairs, the direct convexification of
the ranking loss, and the univariate schemes ``u1``..``u4`` sum per-label
penalties ``w_j * ell(y_j f_j)`` whose weights rescale each instance by
functions of its label split sizes, all stated once by :func:`scheme_betas`.

Each has one implementation, on a label matrix: a :class:`BatchSurrogate`
holds one surrogate's per-row structure and has two kernels on scores, one
giving the loss and gradient of each of a range of consecutive rows in one
pass and one giving the gradients of a block of rows, and
:func:`ranking_loss_batch` gives every row's ranking loss and partial
ranking loss.  A single instance is a one-row matrix.  The per-row formulas
the kernels are checked against live with the tests, in
``tests/loss_reference.py``.

All gradients are analytic, using fixed one-sided derivatives at the hinge
kinks so that stochastic optimizers see deterministic subgradients.
``BaseLoss.derivative`` and ``BaseLoss.value`` can run in place on an array
of margins, so a kernel forms its margins, their derivative and its scaling
in one array, and the losses in one buffer besides.  The block kernel's
64-row calls in the SVRG inner loop cost mostly what their numpy calls
cost, not their arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASE_KINDS = ("exponential", "logistic", "logistic_calibrated", "hinge", "squared_hinge")
SCHEME_KINDS = ("u1", "u2", "u3", "u4")

# exp() overflows IEEE doubles near 709; margins are clamped one notch below.
EXP_CLAMP = 700.0
_E_MINUS_1 = np.e - 1.0
# pairs or label entries that a batch kernel builds or gathers at once (a
# larger row or block alone).  At 2^13 a chunk's index and margin arrays are
# 64 KiB each, under glibc's initial 128 KiB mmap threshold, so they are
# reused from the heap instead of mapped and page-faulted in on every call
_BLOCK_BUDGET = 1 << 13


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

    def value(self, z, out=None):
        """Pointwise loss, computed into ``out`` (``z`` itself allowed) and
        returned; into a fresh array when ``out`` is None.

        Each kind runs its textbook formula's ufuncs in its order, so the
        bits do not depend on ``out``; the logistic kinds need one
        temporary besides ``out``.
        """
        z = np.asarray(z, dtype=np.float64)
        if out is None:
            out = np.empty_like(z)
        kind = self.kind
        if kind == "exponential":  # exp(-max(z, -700))
            np.maximum(z, -EXP_CLAMP, out=out)
            np.negative(out, out=out)
            return np.exp(out, out=out)
        if kind in ("hinge", "squared_hinge"):  # max(0, 1 - z), squared for the second
            np.subtract(1.0, z, out=out)
            np.maximum(0.0, out, out=out)
            return out if kind == "hinge" else np.square(out, out=out)
        if kind == "logistic":
            # log(1 + e^{-z}) = log1p(e^{-|z|}) + max(-z, 0), with one exp;
            # e^{-|z|} underflows to the right value
            tail = np.negative(z, out=np.empty_like(z))
            np.maximum(tail, 0.0, out=tail)
            with np.errstate(under="ignore"):
                np.abs(z, out=out)
                np.negative(out, out=out)
                np.exp(out, out=out)
                np.log1p(out, out=out)
                out += tail
            return out
        # ln(e - 1 + e^{-z}), split at 0 to keep exp() arguments <= 0:
        # -z + log1p((e - 1) e^z) below 0, log(e - 1 + e^{-z}) from 0 on
        below = z < 0.0
        rest = ~below
        flip = np.negative(z, out=np.empty_like(z))
        np.exp(z, out=out, where=below)
        np.exp(flip, out=out, where=rest)
        np.multiply(_E_MINUS_1, out, out=out, where=below)
        np.log1p(out, out=out, where=below)
        np.add(flip, out, out=out, where=below)
        np.add(_E_MINUS_1, out, out=out, where=rest)
        return np.log(out, out=out, where=rest)

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


# ---------------------------------------------------------------------------
# Batch paths.  A :class:`BatchSurrogate` holds one surrogate's per-row
# structure on a label matrix, built once and O(n c) in size: for ``pa``
# each row's relevant and irrelevant labels (:class:`_LabelLists`), for
# u1-u4 the penalty weights.  Two kernels on scores serve training, the
# model bounds and the bounds probe: the losses and gradients of a range of
# consecutive rows from one array of margins, and the gradients of one SVRG
# block.
# No list of all (relevant, irrelevant) label pairs is ever held: every
# row-range pair kernel, the ranking losses' included, takes the one walk of
# ``_LabelLists.chunks``, which checks the scores' shape and builds the pairs
# of one chunk of at most ``_BLOCK_BUDGET`` pairs at a time.  A chunk holds
# whole rows, so each per-row sum adds the same values in the same order as
# one pass over all rows would.
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
    """Per-label weights ``(n, c)`` of scheme ``kind`` for a label matrix,
    with ``w_ij`` applied to ``ell(y_ij f_ij)``."""
    Y = _as_label_matrix(labels)
    with np.errstate(divide="ignore"):
        beta_plus, beta_minus = scheme_betas(kind, *label_split_sizes(Y))
    if np.isinf(beta_plus).any() or np.isinf(beta_minus).any():
        raise ValueError(f"scheme {kind} is undefined on trivial label vectors")
    return np.where(Y > 0, beta_plus[:, None], beta_minus[:, None])


def group_by_label_pattern(labels) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Group row indices by identical label vector.

    Returns a list of ``(rows, pos, neg)`` index triples.  The batch losses
    do not group rows; they build each row's pairs from its label lists.
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


def _check_scores(F: np.ndarray, shape: tuple[int, int]) -> None:
    if F.shape != shape:
        raise ValueError(f"scores shape {F.shape} does not match labels shape {shape}")


def _spans(ends: np.ndarray, start: int = 0, stop: int | None = None):
    """Yield ``(start, stop)`` spans of consecutive units from ``start`` to
    ``stop`` (default: all), whose sizes have the running totals ``ends``,
    each holding at most ``_BLOCK_BUDGET`` in total; a larger unit makes a
    span alone."""
    stop = len(ends) if stop is None else stop
    while start < stop:
        budget = _BLOCK_BUDGET + (ends[start - 1] if start else 0)
        end = min(stop, max(start + 1, int(ends.searchsorted(budget, side="right"))))
        yield start, end
        start = end


class _LabelLists:
    """Each row's relevant and irrelevant labels, in CSR form, and the
    builder of the (relevant, irrelevant) label pairs of any set of rows.

    ``pos`` holds the relevant entries as flat indices ``i * c + p`` into the
    ``(n, c)`` labels, row-major, row ``i`` owning
    ``pos[pos_ptr[i]:pos_ptr[i + 1]]``; ``neg`` holds the irrelevant ones
    alike.  Row ``i`` has ``count[i] = a_i b_i`` pairs, none if trivial, and
    all rows in order have ``ends[i]`` pairs up to row ``i`` included.  Per
    relevant entry it keeps the width ``b_i`` of its pair run and the place
    in ``neg`` where its row's irrelevant entries start.
    """

    def __init__(self, Y: np.ndarray):
        c = Y.shape[1]
        relevant = Y > 0
        self.c = c
        self.a = relevant.sum(axis=1)
        self.count = self.a * (c - self.a)
        self.ends = np.cumsum(self.count)
        self.pos_ptr = np.concatenate(([0], np.cumsum(self.a)))
        self.pos = np.flatnonzero(relevant)
        self.neg = np.flatnonzero(~relevant)
        row = self.pos // c
        self.width = (c - self.a)[row]
        # rows before row i hold i * c - pos_ptr[i] irrelevant entries
        self.neg_start = row * c - self.pos_ptr[row]

    def chunks(self, F: np.ndarray, rows: slice = slice(None)):
        """The one walk over the pairs of the consecutive ``rows`` (default:
        all) at their scores ``F`` ``(len(rows), c)``: per chunk of those
        rows (a slice holding at most ``_BLOCK_BUDGET`` pairs, a row with
        more alone) ``chunk``, its :meth:`pairs` ``ip, iq`` and their scores
        ``f_p``, ``f_q`` in fresh arrays.  The walk over all rows from one
        of its chunk starts yields the same chunks as the walk over all
        rows."""
        start, stop, _ = rows.indices(len(self.count))
        _check_scores(F, (stop - start, self.c))
        for lo, hi in _spans(self.ends, start, stop):
            chunk = slice(lo, hi)
            ip, iq = self.pairs(chunk)
            f = F[lo - start:hi - start].ravel()
            yield chunk, ip, iq, f.take(ip), f.take(iq)

    def pairs(self, rows, at=None) -> tuple[np.ndarray, np.ndarray]:
        """The pairs of ``rows``, row by row, and in a row each relevant
        label with each irrelevant label in turn (both in label order), as
        flat indices ``ip`` (relevant) and ``iq`` (irrelevant) into a block
        of scores ``(m, c)`` whose row ``at[k]`` holds row ``rows[k]``.

        ``rows`` is an index array (a row may repeat), or a slice of rows
        that the block holds in order from its row 0, with ``at`` unused.
        """
        c = self.c
        if isinstance(rows, slice):
            entries = slice(self.pos_ptr[rows.start], self.pos_ptr[rows.stop])
            shift = -rows.start * c
        else:
            a = self.a[rows]
            ends = a.cumsum()
            entries = np.arange(ends[-1]) + (self.pos_ptr[rows] - ends + a).repeat(a)
            shift = ((at - rows) * c).repeat(a)
        width = self.width[entries]
        first = width.cumsum()
        first -= width  # each relevant entry's first pair in the result
        ip = (self.pos[entries] + shift).repeat(width)
        k = (self.neg_start[entries] - first).repeat(width)
        k += np.arange(k.size)
        iq = self.neg.take(k)
        iq += shift if isinstance(rows, slice) else shift.repeat(width)
        return ip, iq


class BatchSurrogate:
    """One surrogate (``pa`` or a scheme ``u1``..``u4``) on a label matrix.

    Built once per ``(n, c)`` label matrix.  For ``pa`` it holds the rows'
    :class:`_LabelLists` and each row's pair scale ``1/|pairs|``; every row
    must then be nontrivial.  For a scheme it holds the penalty ``weights``
    of :func:`penalty_weight_matrix` and the signed weights ``w_ij y_ij``.
    It has two kernels on scores: :meth:`losses_and_gradients` of a range
    of consecutive rows, at scores shaped like those rows' labels, and
    :meth:`gradients` of one block that :meth:`blocks` yields, at scores
    shaped like the block.
    """

    def __init__(self, labels, kind: str, base: BaseLoss):
        self.Y = _as_label_matrix(labels)
        self.n, self.c = self.Y.shape
        self.base = base
        if kind == "pa":
            self._lists = _LabelLists(self.Y)
            if np.any(self._lists.count == 0):
                raise ValueError("pairwise surrogate is undefined on trivial label vectors")
            self._row_scale = 1.0 / self._lists.count
            self.weights = None
        else:
            self.weights = penalty_weight_matrix(kind, self.Y)
            self._signed_weights = self.weights * self.Y

    def losses_and_gradients(self, F: np.ndarray,
                             rows: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The loss ``(m,)`` and loss gradient ``(m, c)`` of each of the
        ``m`` consecutive ``rows`` (default: all) at their scores ``F``
        ``(m, c)``, both from one pass of margins: the losses go into a
        buffer of their own, then the derivative and its scaling run in
        place on the margins.  For ``pa`` the pass walks one chunk of rows'
        pairs at a time.  At the same scores a row's loss and gradient have
        the same bits whatever ``rows`` holds it."""
        base = self.base
        if self.weights is not None:
            Y = self.Y[rows]
            _check_scores(F, Y.shape)
            z = Y * F
            ell = base.value(z, out=np.empty_like(z))
            ell *= self.weights[rows]
            values = ell.sum(axis=1)
            base.derivative(z, out=z)
            z *= self._signed_weights[rows]
            return values, z
        g = np.empty(F.shape)
        values = np.empty(F.shape[0])
        start = rows.indices(self.n)[0]
        for chunk, ip, iq, z, fq in self._lists.chunks(F, rows):
            z -= fq
            ell = base.value(z, out=np.empty_like(z))
            # every row owns pairs, so each row's first pair starts a nonempty segment
            count = self._lists.count[chunk]
            scale = self._row_scale[chunk]
            local = slice(chunk.start - start, chunk.stop - start)
            values[local] = np.add.reduceat(ell, count.cumsum() - count) * scale
            g[local] = self._pair_gradients(z, (ip, iq, scale.repeat(count)),
                                            g[local].size).reshape(-1, self.c)
        return values, g

    def gradients(self, F: np.ndarray, block) -> np.ndarray:
        """Loss gradients of one block that :meth:`blocks` yields, at the
        block's scores ``F`` ``(b, c)``, shaped like ``F``.  The derivative
        and its scaling run in place on the margins."""
        if self.weights is not None:
            z = block[0] * F
            self.base.derivative(z, out=z)
            z *= block[1]
            return z
        f = F.ravel()
        z = f.take(block[0])
        z -= f.take(block[1])
        return self._pair_gradients(z, block, F.size).reshape(F.shape)

    def _pair_gradients(self, z: np.ndarray, pairs, size: int) -> np.ndarray:
        """Flat gradients ``(size,)`` from the margins ``z`` of ``pairs``
        ``(ip, iq, scale)``, overwriting ``z``."""
        ip, iq, scale = pairs
        self.base.derivative(z, out=z)
        z *= scale
        g = np.bincount(ip, z, size)
        g -= np.bincount(iq, z, size)
        return g

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
            sizes = self._lists.count[rows].sum(axis=1)
        else:
            sizes = np.full(steps, b * self.c)
        for start, stop in _spans(np.cumsum(sizes)):
            yield from self._gather(rows[start:stop])

    def _gather(self, rows: np.ndarray):
        """The blocks of :meth:`blocks` for rows ``(s, b)``, gathered at once."""
        if self.weights is not None:
            yield from zip(self.Y[rows], self._signed_weights[rows])
            return
        b = rows.shape[1]
        rows = rows.ravel()
        # a row's place in its block's scores
        ip, iq = self._lists.pairs(rows, np.arange(rows.size) % b)
        count = self._lists.count[rows]
        scale = self._row_scale[rows].repeat(count)
        lo = 0
        for hi in count.cumsum()[b - 1::b].tolist():
            yield ip[lo:hi], iq[lo:hi], scale[lo:hi]
            lo = hi


def univariate_batch(scores, labels, base: BaseLoss,
                     kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Values ``(n,)`` and gradients ``(n, c)`` of the univariate surrogate
    of scheme ``kind``.  Only the benchmark's tracer and the tests call it."""
    return BatchSurrogate(labels, kind, base).losses_and_gradients(
        np.asarray(scores, dtype=np.float64))


def pairwise_batch_for(labels, base: BaseLoss):
    """A callable mapping scores ``F`` ``(n, c)`` to the pairwise surrogate's
    values ``(n,)`` and gradients ``(n, c)``, on the label lists of
    ``labels``, built once here.  Only the benchmark's tracer and the tests
    call it."""
    return BatchSurrogate(labels, "pa", base).losses_and_gradients


def ranking_loss_batch(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ranking loss and partial ranking loss, NaN on trivial rows.

    A row's ranking loss is the fraction of its (relevant ``p``, irrelevant
    ``q``) label pairs not ordered ``f_p > f_q``, so ties and NaN scores
    count as inversions; the partial ranking loss counts a tie 1/2.  Both
    come from one walk over the pairs: per row the counts of ``f_p > f_q``
    and of ``f_p == f_q``, whose sums of 0, 1/2 and 1 are exact at any
    chunking."""
    lists = _LabelLists(_as_label_matrix(labels))
    above, ties = np.empty(len(lists.count)), np.empty(len(lists.count))
    for rows, ip, _, fp, fq in lists.chunks(np.asarray(scores, dtype=np.float64)):
        row = ip // lists.c  # each pair's row in the chunk
        above[rows] = np.bincount(row, fp > fq, rows.stop - rows.start)
        ties[rows] = np.bincount(row, fp == fq, rows.stop - rows.start)
    wrong = lists.count - above
    with np.errstate(invalid="ignore"):  # 0/0 marks the trivial rows NaN
        return wrong / lists.count, (wrong - 0.5 * ties) / lists.count
