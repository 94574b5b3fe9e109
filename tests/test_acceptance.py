"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 6 needs the emotions and scene datasets on disk; it
fails with acquisition instructions when they are missing rather than
silently passing.
"""

import os
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from loss_reference import pairwise_surrogate, univariate_surrogate
from mlrank import bounds as B
from mlrank import consistency as cons
from mlrank.cli import main
from mlrank.dataset import load_sparse, save_sparse, synthetic_linear
from mlrank.losses import (EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED,
                           SQUARED_HINGE, ranking_loss_batch, univariate_batch)
from mlrank.model import Objective, ObjectiveSpec
from mlrank.trainer import cross_validate

DOMINATING_BASES = (EXPONENTIAL, HINGE, SQUARED_HINGE, LOGISTIC_CALIBRATED)
ALL_BASES = DOMINATING_BASES + (LOGISTIC,)


def report(criterion: int, status: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] criterion {criterion}: {status}{suffix}", flush=True)


def random_nontrivial_rows(rng, n, c):
    Y = np.where(rng.random((n, c)) < 0.5, 1.0, -1.0)
    pos = (Y > 0).sum(axis=1)
    fix = np.flatnonzero(pos == c)
    Y[fix, rng.integers(c, size=fix.size)] = -1.0
    fix = np.flatnonzero((Y > 0).sum(axis=1) == 0)
    Y[fix, rng.integers(c, size=fix.size)] = 1.0
    return Y


def test_criterion_1_domination_chain():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    draws_per_c = 100_000 // 19 + 1
    worst_slack = 0.0
    total = 0
    for c in range(2, 21):
        Y = random_nontrivial_rows(rng, draws_per_c, c)
        F = rng.normal(size=(draws_per_c, c)) * 2.0
        r = ranking_loss_batch(F, Y)[0]
        total += draws_per_c
        for base in DOMINATING_BASES:
            u4, _ = univariate_batch(F, Y, base, "u4")
            u2, _ = univariate_batch(F, Y, base, "u2")
            u3, _ = univariate_batch(F, Y, base, "u3")
            worst_slack = max(worst_slack,
                              float((r - u4).max()),
                              float((u4 - c * u2).max()),
                              float((r - u3).max()))
    elapsed = time.monotonic() - start
    assert total >= 100_000
    assert worst_slack <= 1e-12, worst_slack
    assert elapsed < 30.0
    report(1, "PASS", f"{total} draws, worst slack {worst_slack:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(17)
    schemes = ("u1", "u2", "u3", "u4")
    h = 1e-6
    checked = 0
    worst = 0.0
    while checked < 1000:
        c = int(rng.integers(2, 9))
        Y = random_nontrivial_rows(rng, 1, c)[0]
        f = rng.normal(size=c) * 2.0
        base = ALL_BASES[int(rng.integers(len(ALL_BASES)))]
        if base.kind in ("hinge", "squared_hinge"):
            # stay clear of the hinge kink for every evaluation the
            # difference quotient will touch
            margins = np.concatenate([Y * f, (f[Y > 0][:, None]
                                              - f[Y < 0][None, :]).ravel()])
            if np.any(np.abs(margins - 1.0) < 50 * h):
                continue
        surrogates = [lambda g: pairwise_surrogate(g, Y, base)]
        surrogates += [lambda g, s=s: univariate_surrogate(g, Y, base, s)
                       for s in schemes]
        make = surrogates[int(rng.integers(len(surrogates)))]
        grad = np.asarray(make(f).gradient)
        fd = np.empty_like(f)
        for j in range(c):
            e = np.zeros(c)
            e[j] = h
            fd[j] = (make(f + e).value - make(f - e).value) / (2 * h)
        err = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)
        worst = max(worst, float(err.max()))
        checked += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-5, worst
    assert elapsed < 30.0
    report(2, "PASS", f"{checked} points, worst relative error {worst:.2e}, "
                      f"{elapsed:.1f}s")


def test_criterion_3_bayes_closed_forms_match_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    closed_bases = (EXPONENTIAL, LOGISTIC, SQUARED_HINGE)
    kinds = ("u1", "u2", "u3", "u4")
    checked = 0
    worst = 0.0
    hinge_checked = 0
    while checked < 1000:
        c = int(rng.integers(2, 5))
        atoms = cons.enumerate_label_vectors(c)
        size = int(rng.integers(2, min(6, len(atoms)) + 1))
        idx = rng.choice(len(atoms), size=size, replace=False)
        probs = rng.dirichlet(np.ones(size))
        probs = np.maximum(probs, 1e-6)
        dist = cons.ConditionalDistribution(atoms[idx], probs / probs.sum())
        pen = cons.scheme_assignment(kinds[int(rng.integers(4))])
        stats = cons.compute_stats(dist, pen)
        if (stats.phi_plus <= 1e-6).any() or (stats.phi_minus <= 1e-6).any():
            continue
        for base in closed_bases:
            closed = cons.bayes_surrogate(dist, pen, base).scores
            numeric = cons.bayes_numeric_oracle(dist, pen, base)
            worst = max(worst, float(np.abs(closed - numeric).max()))
        # hinge: sign prediction against the oracle, away from ties
        if np.abs(stats.phi_plus - stats.phi_minus).min() > 1e-3:
            hinge_closed = cons.bayes_surrogate(dist, pen, HINGE).scores
            hinge_numeric = cons.bayes_numeric_oracle(dist, pen, HINGE, tol=1e-6)
            assert np.abs(hinge_closed - hinge_numeric).max() < 1e-3
            hinge_checked += 1
        checked += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-4, worst
    assert elapsed < 60.0
    report(3, "PASS", f"{checked} distributions, worst gap {worst:.2e}, "
                      f"hinge sign checked {hinge_checked}x, {elapsed:.1f}s")


def test_criterion_4_necessary_condition_exact():
    for c in range(2, 13):
        check = cons.necessary_condition_tau("u2", c)
        assert check.holds and check.tau == Fraction(1), c
    expected = {"u1": (Fraction(9, 16), Fraction(1)),
                "u3": (Fraction(3), Fraction(4)),
                "u4": (Fraction(9), Fraction(4))}
    for scheme, pair in expected.items():
        check = cons.necessary_condition_tau(scheme, 4)
        assert not check.holds
        assert (check.witness[2], check.witness[3]) == pair, scheme
    report(4, "PASS", "u2 tau=1 on c=2..12; exact witness ratios at c=4")


def test_criterion_5_counterexample_regression():
    for scheme in ("u1", "u3", "u4"):
        dist = cons.tau_witness_distribution(scheme, 4)
        verdict = cons.check_consistency_on_distribution(
            dist, cons.scheme_assignment(scheme), base=LOGISTIC)
        assert not verdict.consistent, scheme
        assert verdict.witness is not None
        # the construction is deterministic: same distribution every time
        again = cons.tau_witness_distribution(scheme, 4)
        np.testing.assert_array_equal(dist.atoms, again.atoms)
        np.testing.assert_array_equal(dist.probs, again.probs)
    record = cons.hinge_counterexample()
    assert record.membership.member is False
    assert record.bayes.scores.tolist() == [1.0, 1.0]
    report(5, "PASS", "sign-condition violations for u1/u3/u4; "
                      "hinge membership failure at c=2")


# -- criterion 6: real-data benchmark ---------------------------------------

TABLE_TARGETS = {
    "emotions": {"pa": 0.1511, "u3": 0.1530, "u2": 0.1587},
    "scene": {"pa": 0.0696, "u3": 0.0768, "u2": 0.0821},
}

DATA_HELP = """benchmark datasets not found.

Provide the emotions and scene datasets to run the benchmark reproduction:
  1. Download the multi-label datasets 'emotions' (593 instances, 72
     features, 6 labels) and 'scene' (2407 instances, 294 features, 6
     labels) from the Mulan or KEEL repositories (ARFF format).
  2. Convert each ARFF to this package's sparse text format (labels are the
     last 6 attributes); the README's "Dataset preparation" section has a
     15-line converter recipe.
  3. Place them as emotions.txt and scene.txt under ./data or a directory
     named by the MLRANK_DATA environment variable.

This environment has no network access and its package mirror carries no
multi-label dataset distribution, so the files cannot be fetched here."""


def _find_data_dir():
    candidates = []
    env = os.environ.get("MLRANK_DATA")
    if env:
        candidates.append(Path(env))
    candidates.append(Path("data"))
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for cand in candidates:
        if (cand / "emotions.txt").is_file() and (cand / "scene.txt").is_file():
            return cand
    return None


def test_criterion_6_benchmark_reproduction():
    data_dir = _find_data_dir()
    if data_dir is None:
        report(6, "FAIL", "emotions/scene datasets not on disk")
        pytest.fail(DATA_HELP)
    start = time.monotonic()
    grid = [10.0 ** e for e in range(-8, 3)]
    workers = min(4, os.cpu_count() or 1)
    failures = []
    for name, targets in TABLE_TARGETS.items():
        data = load_sparse(str(data_dir / f"{name}.txt"))
        for algo, target in targets.items():
            result = cross_validate(data, algo, grid, k=3, seed=0,
                                    workers=workers)
            got = result.mean_ranking_loss
            if abs(got - target) > 0.02:
                failures.append(f"{name}/{algo}: {got:.4f} vs {target:.4f}")
            targets[algo] = (target, got)
    scene = {algo: got for algo, (_, got) in TABLE_TARGETS["scene"].items()}
    if not (scene["pa"] < scene["u2"] and scene["u3"] < scene["u2"]):
        failures.append(f"scene ordering violated: {scene}")
    elapsed = time.monotonic() - start
    assert not failures, "; ".join(failures)
    assert elapsed < 1800.0
    report(6, "PASS", f"all six benchmark cells within 0.02, {elapsed:.0f}s")


LARGE_DATASETS = ("bibtex", "corel5k", "mediamill", "delicious")


def test_large_datasets_run_under_smoke(tmp_path):
    # completeness clause, explicitly not acceptance-gated by compute scale
    data_dir = _find_data_dir() or Path("data")
    present = [n for n in LARGE_DATASETS if (data_dir / f"{n}.txt").is_file()]
    if not present:
        pytest.skip("no large benchmark datasets on disk; clause not gated")
    for name in present:
        code = main(["bench", "--data", str(data_dir / f"{name}.txt"),
                     "--algos", "u3", "--smoke", "--workers",
                     str(os.cpu_count() or 1),
                     "--outdir", str(tmp_path / name)])
        assert code == 0, name


def test_criterion_7_runtime_scaling():
    """pa's cost of one full pass (``svrg_snapshot``: the loss, its
    gradients and the full gradient) grows at least 3x faster than u3's
    from c=10 to c=100."""
    start = time.monotonic()

    def per_pass_seconds(algo, c):
        data = synthetic_linear(2000, 50, c, seed=0, noise=0.1)
        obj = Objective(data.features, data.labels,
                        ObjectiveSpec(algo, LOGISTIC, 1e-4))
        W = 0.01 * np.random.default_rng(7).standard_normal((50, c))

        def timed():
            calls = []
            for _ in range(5):
                t0 = time.perf_counter()
                obj.svrg_snapshot(W)
                calls.append(time.perf_counter() - t0)
            return statistics.median(calls)

        timed()  # warm-up: the first round pays first-touch and cache costs
        return statistics.median(timed() for _ in range(3))

    ratios = {}
    for c in (10, 100):
        ratios[c] = per_pass_seconds("pa", c) / per_pass_seconds("u3", c)
    growth = ratios[100] / ratios[10]
    elapsed = time.monotonic() - start
    assert growth >= 3.0, ratios
    assert elapsed < 600.0
    report(7, "PASS", f"pa/u3 per-pass ratio {ratios[10]:.1f} at c=10, "
                      f"{ratios[100]:.1f} at c=100, growth {growth:.1f}x, "
                      f"{elapsed:.0f}s")


def test_criterion_8_bound_composition_and_example():
    rng = np.random.default_rng(8)
    worst = 0.0
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
            gap = abs(B.compose_bound(which, inp) - direct(inp))
            worst = max(worst, gap / max(1.0, abs(direct(inp))))
    assert worst <= 1e-12, worst
    example = B.bound_base(
        B.BoundInputs(empirical_risk=0.0, n=100, c=2, rho=1.0, B=1.0,
                      weight_norm=1.0, feature_norm=1.0, delta=0.05),
        mu=1.0, M=1.0)
    assert round(example, 4) == 0.8074
    report(8, "PASS", f"1000 compositions within {worst:.1e}; "
                      f"documented example = {example:.4f}")


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    data = synthetic_linear(70, 6, 3, seed=33, noise=0.05, name="det")
    data_path = tmp_path / "det.txt"
    save_sparse(data, str(data_path))
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"datasets = {data_path}\nalgos = u1,u3\nlambda_grid = 1e-6,1e-2\n"
        "seed = 11\nsmoke = true\n", encoding="utf-8")

    def run(outdir, threads):
        monkeypatch.setenv("MLRANK_THREADS", threads)
        code = main(["bench", "--config", str(cfg_path),
                     "--outdir", str(tmp_path / outdir)])
        assert code == 0
        csv = next((tmp_path / outdir).glob("bench_*.csv"))
        # all columns except the wall-time one must be byte-identical
        return csv.name, ["," .join(ln.split(",")[:6])
                          for ln in csv.read_text().splitlines()]

    name1, run1 = run("r1", "1")
    name2, run2 = run("r2", "2")
    name3, run3 = run("r3", "4")
    assert name1 == name2 == name3
    assert run1 == run2 == run3
    report(9, "PASS", "metric columns byte-identical across pool sizes 1/2/4")
