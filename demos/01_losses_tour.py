"""Tour of the ranking measures and the five trainable surrogates.

Walks one concrete instance through every loss in the package: the true
(partial) ranking measure, the pairwise surrogate, and the four reweighted
univariate surrogates, then spot-checks the ordering guarantees between
them on random draws.  A univariate scheme is named by its kind string,
``"u1"``..``"u4"``, whose weight table ``mlrank.losses.scheme_betas`` states.

Every loss is computed on a label matrix, so one instance is a one-row
matrix: ``BatchSurrogate(Y, kind, base).losses_and_gradients`` gives each
row's surrogate value and gradient at a score matrix in one pass, and
``ranking_loss_batch`` each row's ranking and partial ranking loss.

Run:  python3 demos/01_losses_tour.py
"""

import numpy as np

from mlrank.losses import (EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED,
                           SQUARED_HINGE, BatchSurrogate, penalty_weight_matrix,
                           ranking_loss_batch)


def ranking_losses(f, y):
    """Ranking loss and partial ranking loss of one instance."""
    ranking, partial = ranking_loss_batch(f[None], y[None])
    return ranking[0], partial[0]


def surrogate(kind, base, f, y):
    """Value and gradient of surrogate ``kind`` (``pa``, ``u1``..``u4``) at
    one instance."""
    values, gradients = BatchSurrogate(y[None], kind, base).losses_and_gradients(f[None])
    return values[0], gradients[0]


rng = np.random.default_rng(0)

print("=" * 72)
print("One instance, every loss")
print("=" * 72)

y = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
f = np.array([1.2, 0.1, 0.1, -0.4, -1.0])
print(f"labels  y = {y}")
print(f"scores  f = {f}")
print(f"positive/negative split: |S+| = 2, |S-| = 3, 6 ordered pairs")
print()
ranking, partial = ranking_losses(f, y)
print(f"ranking loss (ties count fully):  {ranking:.4f}")
print(f"partial ranking loss (ties half): {partial:.4f}")
print("the gap comes from the f=0.1 tie between label 1 and label 2")
print()

print("per-label weights of each univariate scheme (by kind string) at this y:")
for kind in ("u1", "u2", "u3", "u4"):
    w = penalty_weight_matrix(kind, y[None])[0]
    print(f"  {kind}: {np.array2string(w, precision=3)}")
print("u1 spreads 1/c uniformly; u2 divides by |S+||S-|; u3 balances the")
print("two sides; u4 divides by the smaller side only")
print()

print("surrogate values with the logistic base loss:")
print(f"  pairwise    : {surrogate('pa', LOGISTIC, f, y)[0]:.4f}")
for kind in ("u1", "u2", "u3", "u4"):
    v = surrogate(kind, LOGISTIC, f, y)[0]
    print(f"  {kind} univariate: {v:.4f}")
print()

print("=" * 72)
print("Base losses at a glance")
print("=" * 72)
z = np.array([-2.0, 0.0, 1.0, 2.0])
print(f"margins z = {z}")
for base in (EXPONENTIAL, LOGISTIC, LOGISTIC_CALIBRATED, HINGE, SQUARED_HINGE):
    vals = base.value(z)
    tag = "dominates 0/1" if base.dominates_zero_one else "BELOW 0/1 at z<=0"
    print(f"  {base.kind:20s} {np.array2string(vals, precision=3):32s} {tag}")
print()
print("the plain logistic loss sits below 1 at z = 0, so the domination")
print("chain (next section) excludes it; its shifted variant restores it")
print()

print("=" * 72)
print("Domination chain on random draws")
print("=" * 72)
print("claim: ranking_loss <= L_u4 <= c * L_u2  and  ranking_loss <= L_u3")
worst = {"r_u4": -np.inf, "u4_cu2": -np.inf, "r_u3": -np.inf}
for _ in range(2000):
    c = int(rng.integers(2, 10))
    while True:
        yy = np.where(rng.random(c) < 0.5, 1.0, -1.0)
        if 0 < (yy > 0).sum() < c:
            break
    ff = rng.normal(size=c) * 2
    r = ranking_losses(ff, yy)[0]
    u4, u2, u3 = (surrogate(kind, HINGE, ff, yy)[0] for kind in ("u4", "u2", "u3"))
    worst["r_u4"] = max(worst["r_u4"], r - u4)
    worst["u4_cu2"] = max(worst["u4_cu2"], u4 - c * u2)
    worst["r_u3"] = max(worst["r_u3"], r - u3)
print("worst signed slack over 2000 hinge draws (negative = inequality holds):")
for k, v in worst.items():
    print(f"  {k:8s}: {v:.3e}")
print()

print("=" * 72)
print("Gradients power the trainer")
print("=" * 72)
before, gradient = surrogate("u3", LOGISTIC, f, y)
step = f - 0.5 * gradient
after = surrogate("u3", LOGISTIC, step, y)[0]
print(f"u3 value before gradient step: {before:.4f}")
print(f"u3 value after  gradient step: {after:.4f}")
print(f"ranking loss before/after:     {ranking_losses(f, y)[0]:.4f} -> "
      f"{ranking_losses(step, y)[0]:.4f}")
