"""Generalization-bound calculators for the reweighted univariate surrogates.

All bounds share one deviation skeleton (``bound_base``): for a family of
linear scorers ``f(x) = W^T x`` with ``||W||_F <= weight_norm`` and
``||x|| <= feature_norm``, a surrogate that is ``mu``-Lipschitz in the score
vector and bounded by ``M`` satisfies, with probability ``1 - delta``,

    risk <= empirical_risk
            + 2 sqrt(2) mu sqrt(c weight_norm^2 feature_norm^2 / n)
            + 3 M sqrt(log(2 / delta) / (2 n))

The per-scheme bounds on the ranking loss compose this skeleton with the
scheme's Lipschitz/bound constants (``surrogate_constants``) and, for
``u2``, the factor ``c`` that converts the u2 surrogate into a ranking-loss
upper bound.  The composed closed forms are also written out directly
(``bound_u2`` .. ``bound_u4``) so the two code paths can cross-check each
other.

``model_bound_inputs`` plugs a trained model into these bounds: from the
model and its prepared data it takes each scheme's empirical risk, the
margin range and the two norms.  It refuses a base loss that lies below
the 0/1 step (plain ``logistic``), whose surrogate risks bound no ranking
loss.

``empirical_lipschitz_probe`` estimates the score-space Lipschitz constant
of a scheme by random difference quotients; it must never exceed the
``surrogate_constants`` value for the same base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .dataset import MultiLabelDataset
from .losses import BaseLoss
from .model import LinearModel, predict

BOUNDED_SCHEMES = ("u2", "u3", "u4")
_PROBE_RADIUS = 3.0  # the Lipschitz probe draws scores from [-3, 3]^c


@dataclass(frozen=True)
class BoundInputs:
    """Everything the deviation bounds consume.

    ``rho`` and ``B`` are the Lipschitz constant and the sup of the base
    loss over the relevant margin domain; for bases unbounded below zero
    take them on the observed score range (see :func:`base_lipschitz` /
    :func:`base_sup`).  ``log2=True`` swaps the natural log in the
    confidence term for a base-2 log (sensitivity analysis only).
    """

    empirical_risk: float
    n: int
    c: int
    rho: float
    B: float
    weight_norm: float
    feature_norm: float
    delta: float
    log2: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or self.c < 2:
            raise ValueError("need n >= 1 and c >= 2")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if min(self.rho, self.B, self.weight_norm, self.feature_norm) < 0.0:
            raise ValueError("constants must be nonnegative")


@dataclass(frozen=True)
class SurrogateConstants:
    """Lipschitz constant, sup bound, and ranking-risk multiplier of a scheme."""

    mu: float
    M: float
    risk_multiplier: float


def surrogate_constants(which: str, rho: float, B: float, c: int) -> SurrogateConstants:
    """Score-space constants of the reweighted surrogates.

    ``u2`` needs the extra factor ``c`` in front of its empirical risk to
    dominate the ranking loss; ``u3`` and ``u4`` dominate it directly.
    """
    if c < 2:
        raise ValueError("need c >= 2")
    if which == "u2":
        return SurrogateConstants(rho * math.sqrt(c) / (c - 1),
                                  (1.0 + 1.0 / (c - 1)) * B, float(c))
    if which == "u3":
        return SurrogateConstants(2.0 * rho, 2.0 * B, 1.0)
    if which == "u4":
        return SurrogateConstants(rho * math.sqrt(c), c * B, 1.0)
    raise ValueError(f"constants known for {BOUNDED_SCHEMES}, not {which!r}")


def _log(x: float, log2: bool) -> float:
    return math.log2(x) if log2 else math.log(x)


def bound_base(inputs: BoundInputs, mu: float, M: float) -> float:
    """Deviation bound for one ``mu``-Lipschitz, ``M``-bounded surrogate."""
    deviation = 2.0 * math.sqrt(2.0) * mu * math.sqrt(
        inputs.c * inputs.weight_norm ** 2 * inputs.feature_norm ** 2 / inputs.n)
    confidence = 3.0 * M * math.sqrt(_log(2.0 / inputs.delta, inputs.log2) / (2.0 * inputs.n))
    return inputs.empirical_risk + deviation + confidence


def compose_bound(which: str, inputs: BoundInputs) -> float:
    """Ranking-loss bound via ``surrogate_constants`` and ``bound_base``."""
    k = surrogate_constants(which, inputs.rho, inputs.B, inputs.c)
    return k.risk_multiplier * bound_base(inputs, k.mu, k.M)


def bound_u2(inputs: BoundInputs) -> float:
    """Ranking-loss bound through the u2 surrogate (empirical risk scaled by c)."""
    c, n = inputs.c, inputs.n
    factor = c * (1.0 + 1.0 / (c - 1.0))
    deviation = 2.0 * math.sqrt(2.0) * inputs.rho * factor * math.sqrt(
        inputs.weight_norm ** 2 * inputs.feature_norm ** 2 / n)
    confidence = 3.0 * inputs.B * factor * math.sqrt(_log(2.0 / inputs.delta, inputs.log2) / (2.0 * n))
    return c * inputs.empirical_risk + deviation + confidence


def bound_u3(inputs: BoundInputs) -> float:
    """Ranking-loss bound through the u3 surrogate."""
    n = inputs.n
    deviation = 4.0 * math.sqrt(2.0) * inputs.rho * math.sqrt(
        inputs.c * inputs.weight_norm ** 2 * inputs.feature_norm ** 2 / n)
    confidence = 6.0 * inputs.B * math.sqrt(_log(2.0 / inputs.delta, inputs.log2) / (2.0 * n))
    return inputs.empirical_risk + deviation + confidence


def bound_u4(inputs: BoundInputs) -> float:
    """Ranking-loss bound through the u4 surrogate."""
    n = inputs.n
    deviation = 2.0 * math.sqrt(2.0) * inputs.rho * inputs.c * math.sqrt(
        inputs.weight_norm ** 2 * inputs.feature_norm ** 2 / n)
    confidence = 3.0 * inputs.c * inputs.B * math.sqrt(_log(2.0 / inputs.delta, inputs.log2) / (2.0 * n))
    return inputs.empirical_risk + deviation + confidence


THEOREM_BOUNDS = {"u2": bound_u2, "u3": bound_u3, "u4": bound_u4}


def base_lipschitz(base: BaseLoss, z_max: float) -> float:
    """Sup of ``|ell'|`` over margins in ``[-z_max, z_max]``."""
    if z_max < 0.0:
        raise ValueError("z_max must be nonnegative")
    if base.kind == "exponential":
        return float(np.exp(min(z_max, losses.EXP_CLAMP)))
    if base.kind == "squared_hinge":
        return 2.0 * (1.0 + z_max)
    return 1.0  # logistic, calibrated logistic, hinge are globally 1-Lipschitz


def base_sup(base: BaseLoss, z_max: float) -> float:
    """Sup of ``ell`` over margins in ``[-z_max, z_max]`` (attained at ``-z_max``)."""
    if z_max < 0.0:
        raise ValueError("z_max must be nonnegative")
    return float(base.value(np.array([-z_max]))[0])


def model_bound_inputs(model: LinearModel, data: MultiLabelDataset, delta: float,
                       log2: bool = False) -> tuple[float, dict[str, BoundInputs]]:
    """``(z_max, {which: BoundInputs})`` of a trained model for each of
    ``BOUNDED_SCHEMES``, on ``data`` prepared as its training data was.

    Each empirical risk is the scheme's mean row loss over the nontrivial
    rows, ``n`` their count; ``rho`` and ``B`` are the base loss's constants
    on ``[-z_max, z_max]``, ``z_max`` the largest ``|score|``; the norms are
    the plug-in ``||W||_F`` and largest feature row norm.  Raises
    ``ValueError`` for a base below the 0/1 step, naming the first
    instance whose scores or computed feature norm are not finite, and when
    ``||W||_F`` or an empirical risk is not finite.
    """
    base = BaseLoss(model.base)
    if not base.dominates_zero_one:
        raise ValueError(
            f"base {base.kind!r} lies below the 0/1 loss, so its surrogate risks bound no "
            "ranking loss; train with base logistic_calibrated")
    with np.errstate(over="ignore", invalid="ignore"):
        scores = predict(model, data.features)
        row_norms = np.linalg.norm(data.features, axis=1)
    bad = ~(np.isfinite(scores).all(axis=1) & np.isfinite(row_norms))
    if bad.any():
        raise ValueError(f"instance {np.argmax(bad) + 1}: a score or the feature norm is not "
                         "finite, so no bound applies")
    mask = losses.nontrivial_mask(data.labels)
    if not mask.any():
        raise ValueError("no nontrivial instances to bound")
    F, Y = scores[mask], data.labels[mask]
    z_max = float(np.abs(scores).max())
    with np.errstate(over="ignore"):
        weight_norm = float(np.linalg.norm(model.weights))
        risks = {which: losses.BatchSurrogate(Y, which, base).losses_and_gradients(F)[0].mean()
                 for which in BOUNDED_SCHEMES}
    if not np.isfinite([weight_norm, *risks.values()]).all():
        raise ValueError(f"the weight norm ({weight_norm:.6g}) or an empirical risk is not "
                         "finite, so no bound applies")
    shared = dict(n=int(mask.sum()), c=data.c, rho=base_lipschitz(base, z_max),
                  B=base_sup(base, z_max), weight_norm=weight_norm,
                  feature_norm=float(row_norms.max()),
                  delta=delta, log2=log2)
    return z_max, {which: BoundInputs(empirical_risk=float(risk), **shared)
                   for which, risk in risks.items()}


@dataclass(frozen=True)
class LipschitzProbe:
    """Largest observed difference quotient against the certified constant."""

    max_ratio: float
    certified: float

    @property
    def ok(self) -> bool:
        return self.max_ratio <= self.certified + 1e-9


def empirical_lipschitz_probe(which: str, base: BaseLoss, c: int, trials: int = 10000,
                              seed: int = 0) -> LipschitzProbe:
    """Probe ``|L(f1, y) - L(f2, y)| / ||f1 - f2||`` over random draws.

    Scores are drawn uniformly from ``[-3, 3]^c`` and labels
    uniformly among nontrivial vectors.  The certified constant uses the
    base-loss Lipschitz constant over the induced margin range.
    """
    if which not in BOUNDED_SCHEMES:
        raise ValueError(f"probe defined for {BOUNDED_SCHEMES}, not {which!r}")
    rng = np.random.default_rng(seed)
    Y = np.where(rng.random((trials, c)) < 0.5, 1.0, -1.0)
    # redraw trivial rows; each redraw halves their count
    while True:
        bad = ~losses.nontrivial_mask(Y)
        if not bad.any():
            break
        Y[bad] = np.where(rng.random((int(bad.sum()), c)) < 0.5, 1.0, -1.0)
    F1 = rng.uniform(-_PROBE_RADIUS, _PROBE_RADIUS, size=(trials, c))
    F2 = rng.uniform(-_PROBE_RADIUS, _PROBE_RADIUS, size=(trials, c))
    surrogate = losses.BatchSurrogate(Y, which, base)
    v1, v2 = surrogate.losses_and_gradients(F1)[0], surrogate.losses_and_gradients(F2)[0]
    gaps = np.linalg.norm(F1 - F2, axis=1)
    valid = gaps > 0.0
    ratios = np.abs(v1 - v2)[valid] / gaps[valid]
    certified = surrogate_constants(which, base_lipschitz(base, _PROBE_RADIUS), 1.0, c).mu
    return LipschitzProbe(float(ratios.max(initial=0.0)), certified)
