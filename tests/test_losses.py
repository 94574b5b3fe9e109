"""Base losses, ranking measures, and surrogate values/gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlrank import losses
from mlrank.losses import (EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED,
                           SQUARED_HINGE, BaseLoss, LossEval, PenaltyScheme,
                           group_by_label_pattern, label_pairs, label_split_sizes,
                           nontrivial_mask, pairwise_batch_for,
                           pairwise_surrogate, partial_ranking_loss,
                           penalty_weight_matrix, penalty_weights,
                           ranking_loss, ranking_loss_batch, split_labels,
                           univariate_batch, univariate_surrogate)

ALL_BASES = (EXPONENTIAL, LOGISTIC, LOGISTIC_CALIBRATED, HINGE, SQUARED_HINGE)
SCHEMES = tuple(PenaltyScheme(k) for k in ("u1", "u2", "u3", "u4"))
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
        v, g = base.value_and_derivative(z)
        assert np.all(np.isfinite(v)), base.kind
        assert np.all(np.isfinite(g)), base.kind
    # logistic tail is asymptotically linear, not overflowing
    assert LOGISTIC.value(np.array(-750.0)) == pytest.approx(750.0)
    assert LOGISTIC_CALIBRATED.value(np.array(60.0)) == pytest.approx(np.log(np.e - 1.0))


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


def test_value_and_derivative_agree_with_parts():
    rng = np.random.default_rng(0)
    z = rng.normal(size=200) * 5
    for base in ALL_BASES:
        v, g = base.value_and_derivative(z)
        np.testing.assert_array_equal(v, base.value(z))
        np.testing.assert_array_equal(g, base.derivative(z))


def test_unknown_base_kind_rejected():
    with pytest.raises(ValueError):
        BaseLoss("huber")


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_base_losses_convex_on_segments(z1, z2):
    mid = 0.5 * (z1 + z2)
    for base in ALL_BASES:
        lhs = base.value(np.array(mid))
        rhs = 0.5 * (base.value(np.array(z1)) + base.value(np.array(z2)))
        assert lhs <= rhs + 1e-9


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
    np.testing.assert_allclose(penalty_weights(PenaltyScheme("u1"), y), 0.25)
    np.testing.assert_allclose(penalty_weights(PenaltyScheme("u2"), y), 1.0 / 3.0)
    np.testing.assert_allclose(penalty_weights(PenaltyScheme("u3"), y),
                               [1.0, 1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_allclose(penalty_weights(PenaltyScheme("u4"), y), 1.0)


def test_general_scheme_matches_named():
    rng = np.random.default_rng(1)
    named_to_general = {
        "u1": PenaltyScheme("general", beta_plus=lambda y: 1.0 / y.size,
                            beta_minus=lambda y: 1.0 / y.size),
        "u2": PenaltyScheme("general",
                            beta_plus=lambda y: 1.0 / ((y > 0).sum() * (y < 0).sum()),
                            beta_minus=lambda y: 1.0 / ((y > 0).sum() * (y < 0).sum())),
        "u3": PenaltyScheme("general", beta_plus=lambda y: 1.0 / (y > 0).sum(),
                            beta_minus=lambda y: 1.0 / (y < 0).sum()),
        "u4": PenaltyScheme("general",
                            beta_plus=lambda y: 1.0 / min((y > 0).sum(), (y < 0).sum()),
                            beta_minus=lambda y: 1.0 / min((y > 0).sum(), (y < 0).sum())),
    }
    for _ in range(25):
        c = rng.integers(2, 9)
        y = random_nontrivial_labels(rng, c)
        f = rng.normal(size=c)
        for kind, general in named_to_general.items():
            a = univariate_surrogate(f, y, LOGISTIC, PenaltyScheme(kind))
            b = univariate_surrogate(f, y, LOGISTIC, general)
            assert abs(a.value - b.value) <= 1e-15 * max(1.0, abs(a.value))
            np.testing.assert_allclose(a.gradient, b.gradient, rtol=1e-14)


def test_trivial_vector_scheme_behavior():
    y = np.ones(3)
    # u1's uniform weight needs no label split; the ratio schemes do
    np.testing.assert_allclose(penalty_weights(PenaltyScheme("u1"), y), 1 / 3)
    for kind in ("u2", "u3", "u4"):
        with pytest.raises(ValueError):
            penalty_weights(PenaltyScheme(kind), y)
    with pytest.raises(ValueError):
        penalty_weight_matrix(PenaltyScheme("u2"), np.ones((2, 3)))


def test_general_scheme_requires_callables():
    with pytest.raises(ValueError):
        penalty_weights(PenaltyScheme("general"), np.array([1.0, -1.0]))


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
    assert univariate_surrogate(f, y, LOGISTIC, PenaltyScheme("u2")).value == \
        pytest.approx(2 * LN2)
    assert univariate_surrogate(f, y, LOGISTIC, PenaltyScheme("u3")).value == \
        pytest.approx(2 * LN2)
    assert univariate_surrogate(f, y, LOGISTIC, PenaltyScheme("u1")).value == \
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
            u4 = univariate_surrogate(f, y, base, PenaltyScheme("u4")).value
            u2 = univariate_surrogate(f, y, base, PenaltyScheme("u2")).value
            u3 = univariate_surrogate(f, y, base, PenaltyScheme("u3")).value
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
    if not base.has_kink:
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
            if base.has_kink and np.any(np.abs(pair_diffs - 1.0) < 1e-3):
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
    r = ranking_loss_batch(F, Y)
    p = ranking_loss_batch(F, Y, partial=True)
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


def test_label_pairs_lists_each_rows_pairs_in_order():
    rng = np.random.default_rng(11)
    _, Y = _large_label_batch(rng)
    ptr, row, pos, neg = label_pairs(Y)
    a, b = label_split_sizes(Y)
    np.testing.assert_array_equal(np.diff(ptr), a * b)
    for i in range(Y.shape[0]):
        s, e = ptr[i], ptr[i + 1]
        assert (row[s:e] == i).all()
        p, q = np.flatnonzero(Y[i] > 0), np.flatnonzero(Y[i] < 0)
        np.testing.assert_array_equal(pos[s:e], np.repeat(p, q.size))
        np.testing.assert_array_equal(neg[s:e], np.tile(q, p.size))


@pytest.mark.parametrize("budget", [None, 500])
def test_pair_list_batches_match_per_row_references(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(losses, "_PAIR_BUDGET", budget)
    rng = np.random.default_rng(12)
    F, Y = _large_label_batch(rng)
    chunks = [(lo, hi) for lo, hi, *_ in losses._pair_chunks(*label_pairs(Y))]
    assert (len(chunks) > 1) == (budget is not None)
    assert [lo for lo, _ in chunks[1:]] == [hi for _, hi in chunks[:-1]]
    assert chunks[0][0] == 0 and chunks[-1][1] == Y.shape[0]

    r = ranking_loss_batch(F, Y)
    p = ranking_loss_batch(F, Y, partial=True)
    trivial = ~nontrivial_mask(Y)
    np.testing.assert_array_equal(np.isnan(r), trivial)
    np.testing.assert_array_equal(np.isnan(p), trivial)
    keep = np.flatnonzero(~trivial)
    np.testing.assert_array_equal(r[keep], [ranking_loss(F[i], Y[i]) for i in keep])
    np.testing.assert_array_equal(p[keep], [partial_ranking_loss(F[i], Y[i]) for i in keep])
    assert (r[keep] != p[keep]).any()  # the ties are really there

    for base in ALL_BASES:
        vals, grads = pairwise_batch_for(Y[keep], base)(F[keep])
        for k, i in enumerate(keep):
            ev = pairwise_surrogate(F[i], Y[i], base)
            assert vals[k] == pytest.approx(ev.value, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(grads[k], ev.gradient, rtol=1e-12, atol=0.0)


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
