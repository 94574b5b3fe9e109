"""Generalization bounds: from empirical surrogate risk to ranking loss.

Evaluates the deviation-bound calculators for the u2/u3/u4 surrogates,
reproduces the documented worked example, contrasts how the bounds scale
with the number of labels, validates the certified Lipschitz constants
against random difference quotients, and plugs a trained model into the
bounds through ``bounds.model_bound_inputs``.

Run:  python3 demos/03_bounds.py
"""

from mlrank import bounds as B
from mlrank.dataset import synthetic_linear
from mlrank.losses import LOGISTIC, LOGISTIC_CALIBRATED
from mlrank.optimizer import OptimizerConfig
from mlrank.trainer import evaluate, prepare_data, train_with_trace

print("=" * 72)
print("The worked example")
print("=" * 72)
inp = B.BoundInputs(empirical_risk=0.0, n=100, c=2, rho=1.0, B=1.0,
                    weight_norm=1.0, feature_norm=1.0, delta=0.05)
value = B.bound_base(inp, mu=1.0, M=1.0)
print("n=100, c=2, unit constants, delta=0.05, zero empirical risk:")
print(f"  deviation = 2 sqrt(2) sqrt(2/100) + 3 sqrt(ln 40 / 200) "
      f"= {value:.4f}")
print()

print("=" * 72)
print("Per-surrogate constants and composition")
print("=" * 72)
rho, sup, c = 1.0, 1.0, 8
for which in B.BOUNDED_SCHEMES:
    k = B.surrogate_constants(which, rho, sup, c)
    print(f"  {which}: Lipschitz mu = {k.mu:.4f}, sup M = {k.M:.4f}, "
          f"empirical-risk multiplier = {k.risk_multiplier:g}")
inp8 = B.BoundInputs(empirical_risk=0.21, n=5000, c=c, rho=rho, B=sup,
                     weight_norm=2.0, feature_norm=1.5, delta=0.05)
print()
print("composition bound_base(constants) equals the direct theorem formulas:")
for which in B.BOUNDED_SCHEMES:
    composed = B.compose_bound(which, inp8)
    direct = B.THEOREM_BOUNDS[which](inp8)
    print(f"  {which}: {composed:.6f} vs {direct:.6f} "
          f"(gap {abs(composed - direct):.1e})")
print()

print("=" * 72)
print("Label-count scaling")
print("=" * 72)
print("deviation terms at n=1000 and unit inputs, growing c:")
print(f"  {'c':>4s} {'u2':>10s} {'u3':>10s} {'u4':>10s}")
for cc in (4, 16, 64, 256):
    row = []
    for which in ("u2", "u3", "u4"):
        i = B.BoundInputs(empirical_risk=0.0, n=1000, c=cc, rho=1.0, B=1.0,
                          weight_norm=1.0, feature_norm=1.0, delta=0.05)
        row.append(B.THEOREM_BOUNDS[which](i))
    print(f"  {cc:>4d} {row[0]:>10.4f} {row[1]:>10.4f} {row[2]:>10.4f}")
print("u3 grows like sqrt(c); u2 and u4 pay the full factor c")
print()

print("=" * 72)
print("Certified Lipschitz constants vs random probes")
print("=" * 72)
for which, base, cc in (("u3", LOGISTIC, 6), ("u2", LOGISTIC, 6)):
    probe = B.empirical_lipschitz_probe(which, base, cc, trials=20_000, seed=0)
    print(f"  {which} at c={cc}: max observed ratio {probe.max_ratio:.4f} "
          f"<= certified {probe.certified:.4f}  ok={probe.ok}")
print()

print("=" * 72)
print("Plugging in a trained model")
print("=" * 72)
data = synthetic_linear(400, 10, 4, seed=3, noise=0.1)
prepped, _ = prepare_data(data)
# the calibrated logistic base has ell(0) = 1, so its surrogate risks dominate
# the ranking loss; the plain logistic base (ell(0) = ln 2) bounds nothing
model, _ = train_with_trace(prepped, "u3", 1e-3, base=LOGISTIC_CALIBRATED,
                            cfg=OptimizerConfig(outer_epochs=10, seed=0))
rep = evaluate(model, prepped)
z_max, inputs = B.model_bound_inputs(model, prepped, delta=0.05)
print(f"empirical ranking loss  : {rep.ranking_loss:.4f}")
print(f"margin domain |z| <= {z_max:.4f}")
for which, inp in inputs.items():
    print(f"{which}: empirical risk {inp.empirical_risk:.4f} -> "
          f"ranking-loss bound {B.THEOREM_BOUNDS[which](inp):.4f}")
print("plug-in norm bounds make the guarantee loose at this sample size;")
print("the point is the certified shape, not a tight number")
