"""Base losses, ranking measures, and surrogate values/gradients: the batch
kernels of ``mlrank.losses`` and the per-row references they are checked
against (``loss_reference``)."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loss_reference import (LossEval, pairwise_surrogate, partial_ranking_loss,
                            ranking_loss, split_labels, univariate_surrogate)
from mlrank import losses
from mlrank.losses import (EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED,
                           SQUARED_HINGE, BaseLoss, BatchSurrogate,
                           group_by_label_pattern, label_split_sizes,
                           nontrivial_mask, pairwise_batch_for,
                           penalty_weight_matrix, ranking_loss_batch,
                           scheme_betas, univariate_batch)

ALL_BASES = (EXPONENTIAL, LOGISTIC, LOGISTIC_CALIBRATED, HINGE, SQUARED_HINGE)
SCHEMES = ("u1", "u2", "u3", "u4")
LN2 = np.log(2.0)


def random_nontrivial_labels(rng, c):
    while True:
        y = np.where(rng.random(c) < 0.5, 1.0, -1.0)
        if 0 < (y > 0).sum() < c:
            return y


# ---------------------------------------------------------------------------
# base losses
# ---------------------------------------------------------------------------


def test_base_loss_values_at_zero():
    z = np.array(0.0)
    assert EXPONENTIAL.value(z) == pytest.approx(1.0)
    assert LOGISTIC.value(z) == pytest.approx(LN2)
    assert LOGISTIC_CALIBRATED.value(z) == pytest.approx(1.0)
    assert HINGE.value(z) == pytest.approx(1.0)
    assert SQUARED_HINGE.value(z) == pytest.approx(1.0)


def test_base_loss_derivatives_at_zero():
    z = np.array(0.0)
    assert EXPONENTIAL.derivative(z) == pytest.approx(-1.0)
    assert LOGISTIC.derivative(z) == pytest.approx(-0.5)
    assert LOGISTIC_CALIBRATED.derivative(z) == pytest.approx(-1.0 / np.e)
    assert HINGE.derivative(z) == pytest.approx(-1.0)
    assert SQUARED_HINGE.derivative(z) == pytest.approx(-2.0)


def test_hinge_kink_and_flat_region():
    assert HINGE.derivative(np.array(1.0)) == -1.0
    assert HINGE.derivative(np.array(1.5)) == 0.0
    assert HINGE.value(np.array(2.0)) == 0.0
    assert SQUARED_HINGE.derivative(np.array(1.0)) == 0.0
    assert SQUARED_HINGE.value(np.array(-1.0)) == pytest.approx(4.0)


def test_extreme_arguments_stay_finite():
    z = np.array([-800.0, -750.0, 0.0, 750.0])
    for base in ALL_BASES:
        v, g = base.value(z), base.derivative(z)
        assert np.all(np.isfinite(v)), base.kind
        assert np.all(np.isfinite(g)), base.kind
    # logistic tail is asymptotically linear, not overflowing
    assert LOGISTIC.value(np.array(-750.0)) == pytest.approx(750.0)
    assert LOGISTIC_CALIBRATED.value(np.array(60.0)) == pytest.approx(np.log(np.e - 1.0))


def test_logistic_derivative_matches_scipy_expit():
    # scipy is a test-only reference here: mlrank computes -expit(-z) with numpy
    from scipy.special import expit

    rng = np.random.default_rng(11)
    z = np.concatenate([rng.uniform(-1e3, 1e3, 200_000), rng.normal(0.0, 30.0, 200_000),
                        np.linspace(-50.0, 50.0, 20_001),
                        [0.0, -0.0, 1e-300, -1e-300, 700.0, 709.0, 710.0, -745.0, 1e3, -1e3]])
    assert np.abs(LOGISTIC.derivative(z) - -expit(-z)).max() <= 2.3e-16
    assert LOGISTIC.derivative(np.array(-np.inf)) == -1.0
    with np.errstate(all="raise"):
        g = LOGISTIC.derivative(np.array([1e308, np.inf]))
    assert np.all((g < 0.0) & (g > -1e-300))


# each base's derivative as a plain formula on fresh arrays
TEXTBOOK_DERIVATIVES = {
    "exponential": lambda z: -np.exp(-np.maximum(z, -700.0)),
    "logistic": lambda z: -1.0 / (np.exp(np.minimum(z, 700.0)) + 1.0),
    "logistic_calibrated": lambda z: -1.0 / ((np.e - 1.0) * np.exp(np.minimum(z, 700.0)) + 1.0),
    "hinge": lambda z: np.where(z <= 1.0, -1.0, 0.0),
    "squared_hinge": lambda z: np.where(z < 1.0, -2.0 * (1.0 - z), 0.0),
}


@pytest.mark.parametrize("base", ALL_BASES, ids=lambda b: b.kind)
def test_derivative_in_place_is_bitwise_the_fresh_one(base):
    # the exp() clamp and overflow edge, the extremes, both hinge kinks
    # (1.0 and its neighbours), signed zeros and NaN
    edge = [700.0, 705.0, 709.0, 709.78, 710.0, 1e308, np.inf,
            1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 0.0, 5e-324, 0.5]
    z = np.array(edge + [-v for v in edge] + [np.nan, -1.0, 1.0, 1.0])
    z = np.concatenate([z, np.random.default_rng(3).normal(0.0, 30.0, 64)])
    keep = z.copy()
    with np.errstate(over="ignore"):
        fresh = base.derivative(z)
        assert z.tobytes() == keep.tobytes()
        assert fresh.tobytes() == TEXTBOOK_DERIVATIVES[base.kind](z).tobytes()
        buf = z.copy()
        assert base.derivative(buf, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        out = np.full_like(z, 7.0)
        assert base.derivative(z, out=out) is out
        assert out.tobytes() == fresh.tobytes() and z.tobytes() == keep.tobytes()
        block = z[:24].reshape(4, 6).copy()
        assert base.derivative(block, out=block).tobytes() == fresh[:24].tobytes()


# each base's value as a plain formula on fresh arrays
TEXTBOOK_VALUES = {
    "exponential": lambda z: np.exp(-np.maximum(z, -700.0)),
    "logistic": lambda z: np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0),
    "logistic_calibrated": lambda z: np.where(
        z < 0.0, -z + np.log1p((np.e - 1.0) * np.exp(np.minimum(z, 0.0))),
        np.log((np.e - 1.0) + np.exp(-np.maximum(z, 0.0)))),
    "hinge": lambda z: np.maximum(0.0, 1.0 - z),
    "squared_hinge": lambda z: np.maximum(0.0, 1.0 - z) ** 2,
}


@pytest.mark.parametrize("base", ALL_BASES, ids=lambda b: b.kind)
def test_value_in_place_is_bitwise_the_fresh_one(base):
    # as for the derivative: the exp() clamp and overflow edge, the
    # extremes, both hinge kinks, signed zeros and NaN
    edge = [700.0, 705.0, 709.0, 709.78, 710.0, 745.0, 1e308, np.inf,
            1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 0.0, 5e-324, 0.5]
    z = np.array(edge + [-v for v in edge] + [np.nan, -1.0, 1.0, 1.0])
    z = np.concatenate([z, np.random.default_rng(4).normal(0.0, 30.0, 64)])
    keep = z.copy()
    with np.errstate(over="ignore", under="ignore"):
        fresh = base.value(z)
        assert z.tobytes() == keep.tobytes()
        assert fresh.tobytes() == TEXTBOOK_VALUES[base.kind](z).tobytes()
        buf = z.copy()
        assert base.value(buf, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()
        out = np.full_like(z, 7.0)
        assert base.value(z, out=out) is out
        assert out.tobytes() == fresh.tobytes() and z.tobytes() == keep.tobytes()
        block = z[:24].reshape(4, 6).copy()
        assert base.value(block, out=block).tobytes() == fresh[:24].tobytes()


def test_logistic_value_matches_logaddexp():
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.uniform(-1e3, 1e3, 200_000), rng.normal(0.0, 30.0, 200_000),
                        np.linspace(-50.0, 50.0, 20_001),
                        [0.0, -0.0, 1e-300, -1e-300, 700.0, 709.0, 710.0, -745.0, 1e3, -1e3]])
    reference = np.logaddexp(0.0, -z)
    assert np.all(np.abs(LOGISTIC.value(z) - reference) <= 5e-16 * reference)
    # e^{-|z|} underflows at the extremes without a floating-point error
    z = np.array([1e308, -1e308, np.inf, -np.inf])
    with np.errstate(all="raise"):
        v = LOGISTIC.value(z)
    np.testing.assert_array_equal(v, [0.0, 1e308, 0.0, np.inf])


def test_domination_flags():
    assert not LOGISTIC.dominates_zero_one
    for base in (EXPONENTIAL, LOGISTIC_CALIBRATED, HINGE, SQUARED_HINGE):
        assert base.dominates_zero_one


def test_dominating_bases_upper_bound_step():
    z = np.linspace(-30.0, 30.0, 2001)
    step = np.where(z <= 0.0, 1.0, 0.0)
    for base in (EXPONENTIAL, LOGISTIC_CALIBRATED, HINGE, SQUARED_HINGE):
        assert np.all(base.value(z) >= step - 1e-12), base.kind
    # plain logistic fails exactly at z = 0 onward into the negatives
    assert LOGISTIC.value(np.array(0.0)) < 1.0


def test_unknown_base_kind_rejected():
    with pytest.raises(ValueError):
        BaseLoss("huber")


@given(st.floats(-100, 100), st.floats(-100, 100))
@example(-100.0, -99.99999999999999)  # the midpoint rounds to z1
@example(-99.96498249124562, -99.96498249124559)  # exp rounds 1 ulp off the chord
def test_base_losses_convex_on_segments(z1, z2):
    mid = 0.5 * (z1 + z2)
    # the chord at the point actually evaluated, not at t = 1/2
    t = (mid - z1) / (z2 - z1) if z1 != z2 else 0.0
    for base in ALL_BASES:
        lhs = base.value(np.array(mid))
        rhs = (1.0 - t) * base.value(np.array(z1)) + t * base.value(np.array(z2))
        # the three loss values and the chord's arithmetic each round, so
        # allow a few ulps of the chord on top of the absolute slack
        assert lhs <= rhs + 1e-9 + 8 * np.spacing(rhs)


# ---------------------------------------------------------------------------
# ranking measures
# ---------------------------------------------------------------------------


def test_ranking_loss_tie_example():
    # pairs (pos, neg): (2,1) (2,0) (1,1) (1,0); only the tie is wrong
    y = np.array([1.0, 1.0, -1.0, -1.0])
    f = np.array([2.0, 1.0, 1.0, 0.0])
    assert ranking_loss(f, y) == pytest.approx(0.25)
    assert partial_ranking_loss(f, y) == pytest.approx(0.125)


def test_ranking_loss_extremes():
    y = np.array([1.0, -1.0, -1.0])
    assert ranking_loss(np.array([2.0, 1.0, 0.0]), y) == 0.0
    assert ranking_loss(np.array([0.0, 1.0, 2.0]), y) == 1.0
    assert partial_ranking_loss(np.zeros(3), y) == pytest.approx(0.5)


def test_ranking_loss_requires_nontrivial():
    with pytest.raises(ValueError):
        ranking_loss(np.zeros(2), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        split_labels(np.array([-1.0, -1.0]))


def test_split_labels():
    pos, neg = split_labels(np.array([1.0, -1.0, 1.0, -1.0]))
    np.testing.assert_array_equal(pos, [0, 2])
    np.testing.assert_array_equal(neg, [1, 3])


@settings(max_examples=60)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_partial_loss_below_ranking_loss(c, seed):
    rng = np.random.default_rng(seed)
    y = random_nontrivial_labels(rng, c)
    f = rng.normal(size=c).round(1)  # rounding forces occasional ties
    r, p = ranking_loss(f, y), partial_ranking_loss(f, y)
    assert 0.0 <= p <= r <= 1.0


@settings(max_examples=60)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_ranking_loss_permutation_invariant(c, seed):
    rng = np.random.default_rng(seed)
    y = random_nontrivial_labels(rng, c)
    f = rng.normal(size=c)
    perm = rng.permutation(c)
    assert ranking_loss(f[perm], y[perm]) == pytest.approx(ranking_loss(f, y))


# ---------------------------------------------------------------------------
# penalty schemes
# ---------------------------------------------------------------------------


def test_scheme_weights_frozen_example():
    y = np.array([1.0, -1.0, -1.0, -1.0])  # |S+| = 1, |S-| = 3
    np.testing.assert_allclose(penalty_weight_matrix("u1", y[None])[0], 0.25)
    np.testing.assert_allclose(penalty_weight_matrix("u2", y[None])[0], 1.0 / 3.0)
    np.testing.assert_allclose(penalty_weight_matrix("u3", y[None])[0],
                               [1.0, 1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(penalty_weight_matrix("u4", y[None])[0], 1.0)


def test_unknown_scheme_kind_rejected():
    y = np.array([1.0, -1.0, -1.0])
    message = r"unknown penalty scheme 'u5', expected one of"
    for call in (lambda: scheme_betas("u5", 1, 2),
                 lambda: penalty_weight_matrix("u5", y[None]),
                 lambda: univariate_surrogate(np.zeros(3), y, LOGISTIC, "u5"),
                 lambda: BatchSurrogate(y[None], "u5", LOGISTIC)):
        with pytest.raises(ValueError, match=message):
            call()


def test_trivial_vector_scheme_behavior():
    y = np.ones(3)
    # u1's uniform weight needs no label split; the ratio schemes do
    np.testing.assert_allclose(penalty_weight_matrix("u1", y[None])[0], 1 / 3)
    for kind in ("u2", "u3", "u4"):
        with pytest.raises(ValueError):
            penalty_weight_matrix(kind, y[None])[0]
    with pytest.raises(ValueError):
        penalty_weight_matrix("u2", np.ones((2, 3)))


# ---------------------------------------------------------------------------
# surrogate values
# ---------------------------------------------------------------------------


def test_pairwise_value_single_pair():
    y = np.array([1.0, -1.0])
    f = np.array([1.5, 0.5])
    ev = pairwise_surrogate(f, y, LOGISTIC)
    assert ev.value == pytest.approx(np.log1p(np.exp(-1.0)))


def test_zero_scores_give_loss_at_zero():
    y = np.array([1.0, -1.0])
    f = np.zeros(2)
    assert pairwise_surrogate(f, y, LOGISTIC).value == pytest.approx(LN2)
    # each coordinate contributes ell(0), scaled by the scheme weight
    assert univariate_surrogate(f, y, LOGISTIC, "u2").value == \
        pytest.approx(2 * LN2)
    assert univariate_surrogate(f, y, LOGISTIC, "u3").value == \
        pytest.approx(2 * LN2)
    assert univariate_surrogate(f, y, LOGISTIC, "u1").value == \
        pytest.approx(LN2)


def test_pairwise_requires_nontrivial():
    with pytest.raises(ValueError):
        pairwise_surrogate(np.zeros(2), np.ones(2), LOGISTIC)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10_000))
def test_surrogate_permutation_equivariance(c, seed):
    rng = np.random.default_rng(seed)
    y = random_nontrivial_labels(rng, c)
    f = rng.normal(size=c)
    perm = rng.permutation(c)
    for scheme in SCHEMES:
        a = univariate_surrogate(f, y, EXPONENTIAL, scheme)
        b = univariate_surrogate(f[perm], y[perm], EXPONENTIAL, scheme)
        assert b.value == pytest.approx(a.value)
        np.testing.assert_allclose(b.gradient, a.gradient[perm], rtol=1e-12)
    a = pairwise_surrogate(f, y, EXPONENTIAL)
    b = pairwise_surrogate(f[perm], y[perm], EXPONENTIAL)
    assert b.value == pytest.approx(a.value)
    np.testing.assert_allclose(b.gradient, a.gradient[perm], rtol=1e-12)


def test_domination_chain_random_sample():
    rng = np.random.default_rng(7)
    for _ in range(300):
        c = int(rng.integers(2, 12))
        y = random_nontrivial_labels(rng, c)
        f = rng.normal(size=c) * 3
        r = ranking_loss(f, y)
        for base in (EXPONENTIAL, HINGE, SQUARED_HINGE, LOGISTIC_CALIBRATED):
            u4 = univariate_surrogate(f, y, base, "u4").value
            u2 = univariate_surrogate(f, y, base, "u2").value
            u3 = univariate_surrogate(f, y, base, "u3").value
            assert r <= u4 + 1e-12
            assert u4 <= c * u2 + 1e-12
            assert r <= u3 + 1e-12


# ---------------------------------------------------------------------------
# gradients against finite differences
# ---------------------------------------------------------------------------


def _central_diff(fn, f, h=1e-6):
    g = np.zeros_like(f)
    for j in range(f.size):
        e = np.zeros_like(f)
        e[j] = h
        g[j] = (fn(f + e) - fn(f - e)) / (2 * h)
    return g


def _away_from_kinks(f, y, base, margin=1e-3):
    if base.kind not in ("hinge", "squared_hinge"):
        return True
    return bool(np.all(np.abs(y * f - 1.0) > margin))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 60:
        c = int(rng.integers(2, 9))
        y = random_nontrivial_labels(rng, c)
        f = rng.normal(size=c) * 2
        for base in ALL_BASES:
            if not _away_from_kinks(f, y, base):
                continue
            ev = pairwise_surrogate(f, y, base)
            pair_diffs = f[y > 0][:, None] - f[y < 0][None, :]
            if (base.kind in ("hinge", "squared_hinge")
                    and np.any(np.abs(pair_diffs - 1.0) < 1e-3)):
                continue
            fd = _central_diff(lambda g: pairwise_surrogate(g, y, base).value, f)
            np.testing.assert_allclose(ev.gradient, fd, rtol=1e-5, atol=1e-8)
            for scheme in SCHEMES:
                ev = univariate_surrogate(f, y, base, scheme)
                fd = _central_diff(
                    lambda g: univariate_surrogate(g, y, base, scheme).value, f)
                np.testing.assert_allclose(ev.gradient, fd, rtol=1e-5, atol=1e-8)
        checked += 1


def test_gradient_points_downhill():
    rng = np.random.default_rng(13)
    y = random_nontrivial_labels(rng, 6)
    f = rng.normal(size=6)
    for base in (LOGISTIC, EXPONENTIAL, SQUARED_HINGE):
        for make in ([lambda g: pairwise_surrogate(g, y, base)]
                     + [lambda g, s=s: univariate_surrogate(g, y, base, s)
                        for s in SCHEMES]):
            ev = make(f)
            step = f - 1e-4 * np.asarray(ev.gradient)
            assert make(step).value <= ev.value + 1e-12


# ---------------------------------------------------------------------------
# batch helpers
# ---------------------------------------------------------------------------


def _random_batch(rng, n, c):
    Y = np.stack([random_nontrivial_labels(rng, c) for _ in range(n)])
    F = rng.normal(size=(n, c))
    return F, Y


def test_univariate_batch_matches_per_row():
    rng = np.random.default_rng(3)
    F, Y = _random_batch(rng, 20, 5)
    for scheme in SCHEMES:
        vals, grads = univariate_batch(F, Y, LOGISTIC, scheme)
        for i in range(20):
            ev = univariate_surrogate(F[i], Y[i], LOGISTIC, scheme)
            assert vals[i] == pytest.approx(ev.value, rel=1e-12)
            np.testing.assert_allclose(grads[i], ev.gradient, rtol=1e-12)


def test_pairwise_batch_matches_per_row():
    rng = np.random.default_rng(4)
    F, Y = _random_batch(rng, 20, 5)
    vals, grads = pairwise_batch_for(Y, LOGISTIC)(F)
    for i in range(20):
        ev = pairwise_surrogate(F[i], Y[i], LOGISTIC)
        assert vals[i] == pytest.approx(ev.value, rel=1e-12)
        np.testing.assert_allclose(grads[i], ev.gradient, rtol=1e-12)


def test_ranking_loss_batch_matches_per_row_and_flags_trivial():
    rng = np.random.default_rng(5)
    F, Y = _random_batch(rng, 15, 4)
    Y[3] = 1.0  # trivial row
    r, p = ranking_loss_batch(F, Y)
    assert np.isnan(r[3]) and np.isnan(p[3])
    for i in range(15):
        if i == 3:
            continue
        assert r[i] == pytest.approx(ranking_loss(F[i], Y[i]))
        assert p[i] == pytest.approx(partial_ranking_loss(F[i], Y[i]))


def _large_label_batch(rng, n=60, c=100):
    """Sparse labels (about 2.4 relevant of 100), trivial rows and tied scores."""
    Y = -np.ones((n, c))
    for i, k in enumerate(np.minimum(rng.poisson(1.4, n) + 1, c - 1)):
        Y[i, rng.choice(c, size=k, replace=False)] = 1.0
    Y[5] = -1.0
    Y[17] = 1.0
    Y[40] = -1.0
    Y[23, :50] = 1.0  # one dense row with 2500 pairs
    # one decimal keeps many relevant/irrelevant score ties
    F = np.round(rng.normal(size=(n, c)), 1)
    return F, Y


def label_pairs(labels):
    """Row-major list of the (relevant, irrelevant) label pairs of a matrix:
    the flat pair list that the batch kernels once held, kept as their
    reference.

    Returns ``ptr, row, pos, neg``: row ``i`` owns pairs ``ptr[i]:ptr[i+1]``
    (none if trivial); pair ``k`` is labels ``pos[k]`` (+1), ``neg[k]`` (-1).
    """
    Y = np.asarray(labels, dtype=np.float64)
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


def flat_pair_kernels(F, Y, base):
    """All rows' ``pa`` gradients and row losses over one flat pair list, as
    the batch kernels computed them before they walked row chunks."""
    ptr, row, pos, neg = label_pairs(Y)
    c = Y.shape[1]
    ip, iq = row * c + pos, row * c + neg
    row_scale = 1.0 / np.diff(ptr)
    z = F.ravel()[ip] - F.ravel()[iq]
    row_losses = np.add.reduceat(base.value(z), ptr[:-1]) * row_scale
    d = base.derivative(z) * np.repeat(row_scale, np.diff(ptr))
    grads = np.bincount(ip, d, F.size) - np.bincount(iq, d, F.size)
    return grads.reshape(F.shape), row_losses


def flat_ranking_loss(F, Y, partial):
    """:func:`ranking_loss_batch` over one flat pair list."""
    ptr, row, pos, neg = label_pairs(Y)
    fp, fq = F[row, pos], F[row, neg]
    wrong = ~(fp > fq) - (0.5 * (fp == fq) if partial else 0.0)
    with np.errstate(invalid="ignore"):
        return np.bincount(row, wrong, F.shape[0]) / np.diff(ptr)


def test_label_pairs_lists_each_rows_pairs_in_order():
    # the builder's pairs of all rows (a slice) and of rows in any order,
    # repeats included (an index array), against each row's labels
    rng = np.random.default_rng(11)
    _, Y = _large_label_batch(rng)
    n, c = Y.shape
    lists = losses._LabelLists(Y)
    a, b = label_split_sizes(Y)
    ptr = np.concatenate(([0], np.cumsum(lists.count)))
    np.testing.assert_array_equal(np.diff(ptr), a * b)
    ip, iq = lists.pairs(slice(0, n))
    row, pos, neg = ip // c, ip % c, iq % c
    np.testing.assert_array_equal(iq // c, row)
    for i in range(n):
        s, e = ptr[i], ptr[i + 1]
        assert (row[s:e] == i).all()
        p, q = np.flatnonzero(Y[i] > 0), np.flatnonzero(Y[i] < 0)
        np.testing.assert_array_equal(pos[s:e], np.repeat(p, q.size))
        np.testing.assert_array_equal(neg[s:e], np.tile(q, p.size))
    # a chunk of rows starts at its own row 0
    sub_ip, sub_iq = lists.pairs(slice(20, 30))
    np.testing.assert_array_equal(sub_ip, ip[ptr[20]:ptr[30]] - 20 * c)
    np.testing.assert_array_equal(sub_iq, iq[ptr[20]:ptr[30]] - 20 * c)
    # rows in any order, a row twice and trivial rows, each at a place of
    # its own: each row's pairs move to that place in its turn
    rows = np.array([23, 7, 5, 7, 59, 0, 17])
    at = np.array([3, 0, 6, 1, 2, 5, 4])
    got_ip, got_iq = lists.pairs(rows, at)
    want = [(ip[ptr[r]:ptr[r + 1]] + (j - r) * c, iq[ptr[r]:ptr[r + 1]] + (j - r) * c)
            for r, j in zip(rows, at)]
    np.testing.assert_array_equal(got_ip, np.concatenate([w[0] for w in want]))
    np.testing.assert_array_equal(got_iq, np.concatenate([w[1] for w in want]))
    # the reference list above lists the same pairs
    ref_ptr, ref_row, ref_pos, ref_neg = label_pairs(Y)
    np.testing.assert_array_equal(ref_ptr, ptr)
    np.testing.assert_array_equal(ref_row * c + ref_pos, ip)
    np.testing.assert_array_equal(ref_row * c + ref_neg, iq)


@pytest.mark.parametrize("budget", [1, 300, None])
def test_pair_kernels_are_chunk_invariant(monkeypatch, budget):
    # bitwise the flat pair list's results, whatever the chunks: one row per
    # chunk (budget 1), a few rows (300), or the default budget
    if budget is not None:
        monkeypatch.setattr(losses, "_BLOCK_BUDGET", budget)
    rng = np.random.default_rng(14)
    F, Y = _large_label_batch(rng)
    r, p = ranking_loss_batch(F, Y)
    assert r.tobytes() == flat_ranking_loss(F, Y, False).tobytes()
    assert p.tobytes() == flat_ranking_loss(F, Y, True).tobytes()
    keep = nontrivial_mask(Y)
    F, Y = F[keep], Y[keep]
    for base in ALL_BASES:
        batch = BatchSurrogate(Y, "pa", base)
        with np.errstate(over="ignore"):
            grads, row_losses = flat_pair_kernels(F, Y, base)
            got_losses, got_grads = batch.losses_and_gradients(F)
            assert got_grads.tobytes() == grads.tobytes(), base.kind
            assert got_losses.tobytes() == row_losses.tobytes(), base.kind


@pytest.mark.parametrize("kind", ["pa", "u3"])
def test_all_rows_kernels_reject_scores_not_shaped_like_the_labels(kind):
    # a wider, a narrower and a one-column score matrix; the last would
    # broadcast through the u1-u4 margins unchecked
    rng = np.random.default_rng(15)
    F, Y = _random_batch(rng, 12, 5)
    batch = BatchSurrogate(Y, kind, LOGISTIC)
    for shape in ((12, 6), (12, 4), (12, 1)):
        G = rng.normal(size=shape)
        calls = (lambda: ranking_loss_batch(G, Y), lambda: batch.losses_and_gradients(G))
        for call in calls:
            with pytest.raises(ValueError, match=rf"scores shape \(12, {shape[1]}\) does "
                                                 r"not match labels shape \(12, 5\)"):
                call()


def _counting_gathers(monkeypatch, budget):
    """Set ``BatchSurrogate.blocks``'s budget (default if None) and record
    how many blocks each of its gathers holds."""
    if budget is not None:
        monkeypatch.setattr(losses, "_BLOCK_BUDGET", budget)
    chunks = []
    gather = BatchSurrogate._gather

    def counting(self, rows):
        chunks.append(rows.shape[0])
        return gather(self, rows)

    monkeypatch.setattr(BatchSurrogate, "_gather", counting)
    return chunks


@pytest.mark.parametrize("budget", [None, 500])
def test_pair_list_batches_match_per_row_references(monkeypatch, budget):
    rng = np.random.default_rng(12)
    F, Y = _large_label_batch(rng)
    trivial = ~nontrivial_mask(Y)
    keep = np.flatnonzero(~trivial)
    # the scores again with +-inf and NaN in 300 places: a NaN misorders
    # each of its pairs and equal infinities tie
    G = F.copy()
    G.flat[np.random.default_rng(16).choice(G.size, 300, replace=False)] = \
        np.resize([np.inf, -np.inf, np.nan], 300)
    for scores in (F, G):
        r, p = ranking_loss_batch(scores, Y)
        np.testing.assert_array_equal(np.isnan(r), trivial)
        np.testing.assert_array_equal(np.isnan(p), trivial)
        np.testing.assert_array_equal(r[keep], [ranking_loss(scores[i], Y[i]) for i in keep])
        np.testing.assert_array_equal(p[keep],
                                      [partial_ranking_loss(scores[i], Y[i]) for i in keep])
        assert (r[keep] != p[keep]).any()  # the ties are really there

    # the gradients of every row once, one row per block, through ``blocks``:
    # under the default budget of 2^13 pairs a few gathers of many rows, and
    # under a budget of 500 pairs a few rows at a time (the dense row alone)
    chunks = _counting_gathers(monkeypatch, budget)
    rows = np.arange(keep.size)[:, None]
    for base in ALL_BASES:
        batch = BatchSurrogate(Y[keep], "pa", base)
        vals = pairwise_batch_for(Y[keep], base)(F[keep])[0]
        grads = np.concatenate([batch.gradients(F[keep][R], block)
                                for R, block in zip(rows, batch.blocks(rows))])
        for k, i in enumerate(keep):
            ev = pairwise_surrogate(F[i], Y[i], base)
            assert vals[k] == pytest.approx(ev.value, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(grads[k], ev.gradient, rtol=1e-12, atol=0.0)
    per_base = chunks[:len(chunks) // len(ALL_BASES)]
    assert sum(per_base) == len(rows)
    assert 1 < len(per_base) < len(rows) and max(per_base) > 1
    assert (1 in per_base) == (budget is not None)


@pytest.mark.parametrize("budget", [300, 2000])
@pytest.mark.parametrize("kind", ["pa", "u1", "u2", "u3", "u4"])
def test_blocks_match_per_row_references(monkeypatch, kind, budget):
    rng = np.random.default_rng(13)
    F, Y = _large_label_batch(rng)
    keep = nontrivial_mask(Y)
    F, Y = F[keep], Y[keep]
    a, b = label_split_sizes(Y)
    dense = int(np.argmax(a * b))
    rows = rng.integers(Y.shape[0], size=(12, 4))
    rows[2] = [7, dense, 7, 1]  # a row drawn twice, and the 2500-pair row
    chunks = _counting_gathers(monkeypatch, budget)
    for base in (LOGISTIC, HINGE):
        batch = BatchSurrogate(Y, kind, base)
        blocks = list(batch.blocks(rows))
        assert len(blocks) == len(rows)
        for R, block in zip(rows, blocks):
            grads = batch.gradients(F[R], block)
            for j, i in enumerate(R.tolist()):
                ev = (pairwise_surrogate(F[i], Y[i], base) if kind == "pa" else
                      univariate_surrogate(F[i], Y[i], base, kind))
                np.testing.assert_allclose(grads[j], ev.gradient, rtol=1e-12, atol=0.0)
    # every block of 4 rows holds more than 300 pairs or label entries, so
    # each is gathered alone; under 2000, chunks hold several blocks, and the
    # dense row's block (over 2500 pairs) is alone
    per_base = chunks[:len(chunks) // 2]
    assert sum(per_base) == len(rows)
    if budget == 300:
        assert per_base == [1] * len(rows)
    else:
        assert 1 < len(per_base) < len(rows)
    if kind == "pa" and budget == 2000:
        holds_block_2 = int(np.searchsorted(np.cumsum(per_base), 2, side="right"))
        assert per_base[holds_block_2] == 1


def test_group_by_label_pattern_partitions_rows():
    rng = np.random.default_rng(6)
    _, Y = _random_batch(rng, 30, 3)
    groups = group_by_label_pattern(Y)
    seen = np.concatenate([rows for rows, _, _ in groups])
    assert sorted(seen.tolist()) == list(range(30))
    for rows, pos, neg in groups:
        base_row = Y[rows[0]]
        for r_ in rows:
            np.testing.assert_array_equal(Y[r_], base_row)
        np.testing.assert_array_equal(pos, np.flatnonzero(base_row > 0))
        np.testing.assert_array_equal(neg, np.flatnonzero(base_row < 0))


def test_nontrivial_mask_and_split_sizes():
    Y = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])
    np.testing.assert_array_equal(nontrivial_mask(Y), [True, False, False])
    npos, nneg = label_split_sizes(Y)
    np.testing.assert_array_equal(npos, [1, 2, 0])
    np.testing.assert_array_equal(nneg, [1, 0, 2])


def test_loss_eval_is_value_gradient_pair():
    ev = LossEval(1.5, np.zeros(2))
    assert ev.value == 1.5 and ev.gradient.shape == (2,)


def _loads(tree, owners=()):
    """Yield each node of ``tree`` that loads a value, with the names of the
    functions and classes it lies in."""
    for child in ast.iter_child_nodes(tree):
        inner = owners
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner += (child.name,)
        if isinstance(getattr(child, "ctx", None), ast.Load):
            yield child, inner
        yield from _loads(child, inner)


def test_every_public_losses_callable_has_a_caller_outside_the_tests():
    # the library holds one implementation of each loss: a public function
    # or class of mlrank.losses that only the tests reach belongs with them,
    # and so does one of the modules that load, model, solve, train and
    # drive.  (bounds and consistency keep their reference paths, which the
    # tests compare against.)  A reference to ``name`` of ``module`` is one
    # of: an attribute ``<module>.name`` read; a name bound by ``from
    # .<module> import`` or ``from mlrank.<module> import``; a read of
    # ``name`` in ``module`` itself.  Reads inside the definition of the
    # same name do not count, and a variable that only shares the name is
    # no reference.  Likewise a public method of the batch surrogate or the
    # objective needs some attribute ``x.<method>`` read outside its own
    # definition: a kernel that only the tests call belongs with them.
    root = Path(__file__).resolve().parents[1]
    src = root / "src" / "mlrank"
    names = ("losses", "dataset", "model", "optimizer", "trainer", "cli")
    modules = {name: ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
               for name in names}
    public = {f"{name}.{node.name}": (name, node.name) for name in names
              for node in modules[name].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    methods = {f"{cls.name}.{node.name}": node.name
               for module, cls_name in (("losses", "BatchSurrogate"), ("model", "Objective"))
               for cls in modules[module].body
               if isinstance(cls, ast.ClassDef) and cls.name == cls_name
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    sources = {**{f".{name}": name for name in names},
               **{f"mlrank.{name}": name for name in names}}
    referenced, attributes = set(), set()  # (module, name) pairs; attribute names
    for path in sorted(src.glob("*.py")) + sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = path.stem if path.parent == src else None
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = sources.get("." * node.level + (node.module or ""))
                referenced.update((module, alias.name) for alias in node.names)
        for node, owners in _loads(tree):
            if isinstance(node, ast.Attribute) and node.attr not in owners:
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in names:
                    referenced.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name) and node.id not in owners:
                referenced.add((own, node.id))
    assert len(public) >= 50
    assert sorted(p for p, ref in public.items() if ref not in referenced) == []
    assert len(methods) >= 7
    assert sorted(m for m, name in methods.items() if name not in attributes) == []
