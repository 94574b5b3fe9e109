"""Deviation-bound calculators and their Lipschitz/sup constants."""

import numpy as np
import pytest

from mlrank import bounds as B
from mlrank.dataset import MultiLabelDataset, synthetic_linear
from mlrank.losses import (EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED, SQUARED_HINGE,
                           BatchSurrogate, nontrivial_mask, ranking_loss_batch)
from mlrank.model import LinearModel


def inputs(**kw):
    base = dict(empirical_risk=0.0, n=100, c=2, rho=1.0, B=1.0, weight_norm=1.0,
                feature_norm=1.0, delta=0.05)
    base.update(kw)
    return B.BoundInputs(**base)


def test_documented_example_reproduces():
    # 2 sqrt(2) sqrt(2/100) + 3 sqrt(ln 40 / 200) = 0.4 + 0.4074...
    value = B.bound_base(inputs(), mu=1.0, M=1.0)
    assert value == pytest.approx(0.8074, abs=5e-5)


def test_bound_grows_with_inputs():
    v0 = B.bound_base(inputs(), 1.0, 1.0)
    assert B.bound_base(inputs(empirical_risk=0.3), 1.0, 1.0) == pytest.approx(v0 + 0.3)
    assert B.bound_base(inputs(n=400), 1.0, 1.0) < v0
    assert B.bound_base(inputs(weight_norm=2.0), 1.0, 1.0) > v0
    assert B.bound_base(inputs(delta=0.01), 1.0, 1.0) > v0


def test_log2_variant_is_larger():
    assert B.bound_base(inputs(log2=True), 1.0, 1.0) > \
        B.bound_base(inputs(), 1.0, 1.0)


def test_surrogate_constants():
    rho, bb, c = 1.3, 2.0, 9
    k2 = B.surrogate_constants("u2", rho, bb, c)
    assert k2.mu == pytest.approx(rho * np.sqrt(c) / (c - 1))
    assert k2.M == pytest.approx((1 + 1 / (c - 1)) * bb)
    assert k2.risk_multiplier == c
    k3 = B.surrogate_constants("u3", rho, bb, c)
    assert (k3.mu, k3.M, k3.risk_multiplier) == (2 * rho, 2 * bb, 1.0)
    k4 = B.surrogate_constants("u4", rho, bb, c)
    assert k4.mu == pytest.approx(rho * np.sqrt(c))
    assert k4.M == pytest.approx(c * bb)
    with pytest.raises(ValueError):
        B.surrogate_constants("pa", rho, bb, c)


def test_composition_equals_direct_formulas():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        inp = B.BoundInputs(
            empirical_risk=float(rng.uniform(0, 2)),
            n=int(rng.integers(10, 100_000)),
            c=int(rng.integers(2, 200)),
            rho=float(rng.uniform(0.1, 5)),
            B=float(rng.uniform(0.1, 10)),
            weight_norm=float(rng.uniform(0.01, 20)),
            feature_norm=float(rng.uniform(0.01, 20)),
            delta=float(rng.uniform(1e-4, 0.5)),
            log2=bool(rng.integers(2)))
        for which, direct in (("u2", B.bound_u2), ("u3", B.bound_u3),
                              ("u4", B.bound_u4)):
            composed = B.compose_bound(which, inp)
            assert abs(composed - direct(inp)) <= 1e-12 * max(1.0, abs(composed))


def test_u2_empirical_risk_enters_with_multiplier_c():
    inp0, inp1 = inputs(c=5), inputs(c=5, empirical_risk=0.1)
    assert B.bound_u2(inp1) - B.bound_u2(inp0) == pytest.approx(0.5)
    assert B.bound_u3(inp1) - B.bound_u3(inp0) == pytest.approx(0.1)
    assert B.bound_u4(inp1) - B.bound_u4(inp0) == pytest.approx(0.1)


def test_label_count_scaling_of_deviations():
    def dev(fn, c):
        return fn(inputs(n=1000, c=c))

    # complexity terms scale O(c) for u2 and O(sqrt c) for u3; with the
    # confidence terms included the u2 ratio stays near 4, u3 below 2
    r2 = dev(B.bound_u2, 100) / dev(B.bound_u2, 25)
    r3 = dev(B.bound_u3, 100) / dev(B.bound_u3, 25)
    assert r2 == pytest.approx(100 * (1 + 1 / 99) / (25 * (1 + 1 / 24)), rel=1e-12)
    assert 3.7 < r2 < 4.0
    assert 1.6 < r3 <= 2.0
    # with the confidence term suppressed the scaling laws are exact
    def complexity(fn, c):
        return fn(B.BoundInputs(empirical_risk=0.0, n=1000, c=c, rho=1.0, B=0.0,
                                weight_norm=1.0, feature_norm=1.0, delta=0.05))
    assert complexity(B.bound_u3, 100) / complexity(B.bound_u3, 25) == \
        pytest.approx(2.0, rel=1e-12)
    assert complexity(B.bound_u4, 100) / complexity(B.bound_u4, 25) == \
        pytest.approx(4.0, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        inputs(n=0)
    with pytest.raises(ValueError):
        inputs(c=1)
    with pytest.raises(ValueError):
        inputs(delta=0.0)
    with pytest.raises(ValueError):
        inputs(delta=1.5)
    with pytest.raises(ValueError):
        inputs(rho=-1.0)


def test_base_lipschitz_and_sup():
    assert B.base_lipschitz(LOGISTIC, 3.0) == 1.0
    assert B.base_lipschitz(HINGE, 3.0) == 1.0
    assert B.base_lipschitz(EXPONENTIAL, 2.0) == pytest.approx(np.exp(2.0))
    assert B.base_lipschitz(SQUARED_HINGE, 3.0) == pytest.approx(8.0)
    assert B.base_sup(LOGISTIC, 3.0) == pytest.approx(np.log1p(np.exp(3.0)))
    assert B.base_sup(HINGE, 3.0) == pytest.approx(4.0)


def test_empirical_probe_stays_under_certified_constant():
    probe = B.empirical_lipschitz_probe("u3", LOGISTIC, 6, trials=5000, seed=0)
    assert probe.certified == pytest.approx(2.0)
    assert probe.ok and probe.max_ratio <= 2.0 + 1e-9
    probe = B.empirical_lipschitz_probe("u4", HINGE, 4, trials=5000, seed=0)
    assert probe.certified == pytest.approx(2.0)  # rho sqrt(c) = 2
    assert probe.ok


def test_theorem_bound_registry():
    assert set(B.THEOREM_BOUNDS) == {"u2", "u3", "u4"}
    inp = inputs(c=4)
    for which, fn in B.THEOREM_BOUNDS.items():
        assert fn(inp) == pytest.approx(B.compose_bound(which, inp))


def test_model_bound_inputs_rejects_plain_logistic():
    # ell(0) = ln 2 < 1: the plain logistic risks bound no ranking loss
    data = synthetic_linear(30, 4, 3, seed=1)
    model = LinearModel(np.ones((4, 3)), base="logistic")
    with pytest.raises(ValueError, match="logistic_calibrated"):
        B.model_bound_inputs(model, data, delta=0.05)


def test_model_bound_inputs_average_nontrivial_rows():
    data = synthetic_linear(30, 4, 3, seed=2)
    labels = data.labels.copy()
    labels[[0, 7]] = -1.0
    model = LinearModel(np.random.default_rng(2).normal(size=(4, 3)), base="hinge")
    z_max, got = B.model_bound_inputs(model, MultiLabelDataset(data.features, labels), 0.1)
    _, want = B.model_bound_inputs(model, MultiLabelDataset(np.delete(data.features, [0, 7], 0),
                                                            np.delete(labels, [0, 7], 0)), 0.1)
    assert z_max == np.abs(data.features @ model.weights).max()
    for which in B.BOUNDED_SCHEMES:
        assert got[which].n == 28 and got[which].delta == 0.1
        assert got[which].empirical_risk == want[which].empirical_risk


@pytest.mark.parametrize("base", [LOGISTIC_CALIBRATED, HINGE, EXPONENTIAL, SQUARED_HINGE],
                         ids=lambda b: b.kind)
def test_dominating_surrogates_bound_ranking_loss_row_by_row(base):
    # r <= u3, r <= u4 and r <= c u2 on every row, ties included
    rng = np.random.default_rng(5)
    n, c = 400, 7
    Y = np.where(rng.random((n, c)) < 0.4, 1.0, -1.0)
    Y = Y[nontrivial_mask(Y)]
    F = np.round(rng.normal(size=Y.shape), 1)
    r = ranking_loss_batch(F, Y)[0]
    for which, factor in (("u2", c), ("u3", 1.0), ("u4", 1.0)):
        bound = factor * BatchSurrogate(Y, which, base).losses_and_gradients(F)[0]
        assert (r <= bound + 1e-12).all(), which
