"""Tour of the ranking measures and the five trainable surrogates.

Walks one concrete instance through every loss in the package: the true
(partial) ranking measure, the pairwise surrogate, and the four reweighted
univariate surrogates, then spot-checks the ordering guarantees between
them on random draws.  A univariate scheme is named by its kind string,
``"u1"``..``"u4"``, whose weight table ``mlrank.losses.scheme_betas`` states.

Run:  python3 demos/01_losses_tour.py
"""

import numpy as np

from mlrank.losses import (EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED,
                           SQUARED_HINGE, pairwise_surrogate, partial_ranking_loss,
                           penalty_weights, ranking_loss, univariate_surrogate)

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
print(f"ranking loss (ties count fully):  {ranking_loss(f, y):.4f}")
print(f"partial ranking loss (ties half): {partial_ranking_loss(f, y):.4f}")
print("the gap comes from the f=0.1 tie between label 1 and label 2")
print()

print("per-label weights of each univariate scheme (by kind string) at this y:")
for kind in ("u1", "u2", "u3", "u4"):
    w = penalty_weights(kind, y)
    print(f"  {kind}: {np.array2string(w, precision=3)}")
print("u1 spreads 1/c uniformly; u2 divides by |S+||S-|; u3 balances the")
print("two sides; u4 divides by the smaller side only")
print()

print("surrogate values with the logistic base loss:")
print(f"  pairwise    : {pairwise_surrogate(f, y, LOGISTIC).value:.4f}")
for kind in ("u1", "u2", "u3", "u4"):
    v = univariate_surrogate(f, y, LOGISTIC, kind).value
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
    r = ranking_loss(ff, yy)
    u4 = univariate_surrogate(ff, yy, HINGE, "u4").value
    u2 = univariate_surrogate(ff, yy, HINGE, "u2").value
    u3 = univariate_surrogate(ff, yy, HINGE, "u3").value
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
ev = univariate_surrogate(f, y, LOGISTIC, "u3")
step = f - 0.5 * ev.gradient
after = univariate_surrogate(step, y, LOGISTIC, "u3")
print(f"u3 value before gradient step: {ev.value:.4f}")
print(f"u3 value after  gradient step: {after.value:.4f}")
print(f"ranking loss before/after:     {ranking_loss(f, y):.4f} -> "
      f"{ranking_loss(step, y):.4f}")
