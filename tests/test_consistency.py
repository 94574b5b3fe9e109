"""Conditional-risk statistics, Bayes predictors, consistency analysis."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from mlrank import consistency as cons
from mlrank.losses import (EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED,
                           SQUARED_HINGE, penalty_weight_matrix)


def dist_c2_with_trivial():
    """One all-positive atom plus both nontrivial sign patterns."""
    atoms = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    return cons.ConditionalDistribution(atoms, np.array([0.7, 0.2, 0.1]))


def random_distribution(rng, c, support=4):
    atoms = cons.enumerate_label_vectors(c)
    idx = rng.choice(len(atoms), size=min(support, len(atoms)), replace=False)
    probs = rng.dirichlet(np.ones(len(idx)))
    probs = np.maximum(probs, 1e-9)
    return cons.ConditionalDistribution(atoms[idx], probs / probs.sum())


# ---------------------------------------------------------------------------
# distributions and statistics
# ---------------------------------------------------------------------------


def test_distribution_validation():
    good = np.array([[1.0, -1.0]])
    cons.ConditionalDistribution(good, np.array([1.0]))
    with pytest.raises(ValueError):
        cons.ConditionalDistribution(np.array([[1.0, 0.5]]), np.array([1.0]))
    with pytest.raises(ValueError):
        cons.ConditionalDistribution(good, np.array([0.5]))  # mass != 1
    with pytest.raises(ValueError):
        cons.ConditionalDistribution(np.array([[1.0]]), np.array([1.0]))  # c < 2
    with pytest.raises(ValueError):
        cons.ConditionalDistribution(np.vstack([good, good]),
                                     np.array([0.5, 0.5]))  # duplicate atom


def test_scheme_assignment_beta_values():
    a, b = 1, 3  # the split sizes of y = (+1, -1, -1, -1)
    u1 = cons.scheme_assignment("u1")
    assert u1.betas(a, b)[0] == pytest.approx(0.25)
    assert u1.betas(a, b)[1] == pytest.approx(0.25)
    u2 = cons.scheme_assignment("u2")
    assert u2.betas(a, b)[0] == pytest.approx(1 / 3)
    u3 = cons.scheme_assignment("u3")
    assert u3.betas(a, b)[0] == pytest.approx(1.0)
    assert u3.betas(a, b)[1] == pytest.approx(1 / 3)
    u4 = cons.scheme_assignment("u4")
    assert u4.betas(a, b)[0] == u4.betas(a, b)[1] == pytest.approx(1.0)
    # alpha is the pair normalizer shared by all schemes
    assert u1.alpha(a, b) == pytest.approx(1 / 3)


def _inv(n):
    return Fraction(1, n) if n else None


# the scheme_betas docstring table, (beta_plus, beta_minus) for a relevant
# and b irrelevant labels, restated in exact arithmetic; None where a weight
# divides by zero
_TABLE = {"u1": lambda a, b: (_inv(a + b),) * 2,
          "u2": lambda a, b: (_inv(a * b),) * 2,
          "u3": lambda a, b: (_inv(a), _inv(b)),
          "u4": lambda a, b: (_inv(min(a, b)),) * 2}


@pytest.mark.parametrize("kind", sorted(_TABLE))
def test_scheme_weights_agree_across_modules(kind):
    pen = cons.scheme_assignment(kind)
    for c in range(2, 8):
        for bits in itertools.product((1.0, -1.0), repeat=c):
            y = np.array(bits)
            a = int((y > 0).sum())
            # compute_stats passes the split sizes as int64 counts
            with np.errstate(divide="ignore"):
                beta_plus, beta_minus = pen.betas(np.int64(a), np.int64(c - a))
            if 0 < a < c:
                w = penalty_weight_matrix(kind, y[None])[0]
                assert beta_plus == w[np.argmax(y > 0)]
                assert beta_minus == w[np.argmax(y < 0)]
                exact_plus, exact_minus = _TABLE[kind](a, c - a)
                assert cons.product_ratio(kind, a, c) == \
                    exact_plus * exact_minus * (a * (c - a)) ** 2
                continue
            # trivial: u1 needs no split and u3 weighs the side present (which
            # holds all c labels), so each weighs a lone trivial atom's labels
            # 1/c; u2 and u4 weigh neither side, so compute_stats rejects it
            dist = cons.ConditionalDistribution(y[None], np.ones(1))
            if kind in ("u1", "u3"):
                stats = cons.compute_stats(dist, pen)
                assert np.all(np.where(y > 0, stats.phi_plus, stats.phi_minus) == 1.0 / c)
                if kind == "u1":  # defined on the side absent too
                    assert beta_plus == beta_minus == 1.0 / c
            else:
                with pytest.raises(ValueError, match="undefined on the label vector"):
                    cons.compute_stats(dist, pen)


def test_stats_hand_example():
    stats = cons.compute_stats(dist_c2_with_trivial(), cons.uniform_assignment())
    np.testing.assert_allclose(stats.phi_plus, [0.9, 0.8])
    np.testing.assert_allclose(stats.phi_minus, [0.1, 0.2])
    np.testing.assert_allclose(stats.delta_plus, [0.2, 0.1])
    np.testing.assert_allclose(stats.delta_minus, [0.1, 0.2])
    assert stats.alpha_mass == pytest.approx(0.3)
    assert stats.trivial_mass == pytest.approx(0.7)
    # pair masses: P(y0 = +1, y1 = -1) and the mirror
    assert stats.pair_mass[0, 1] == pytest.approx(0.2)
    assert stats.pair_mass[1, 0] == pytest.approx(0.1)


def test_marginal_identity_links_pairwise_and_marginals():
    # [[p+, q-]] - [[p-, q+]] = [[p+]] - [[q+]] pointwise, hence in expectation
    rng = np.random.default_rng(0)
    for _ in range(20):
        dist = random_distribution(rng, 4)
        stats = cons.compute_stats(dist, cons.scheme_assignment("u3"))
        for p in range(4):
            for q in range(4):
                if p == q:
                    continue
                lhs = stats.pair_mass[p, q] - stats.pair_mass[q, p]
                rhs = stats.delta_plus[p] - stats.delta_plus[q]
                assert lhs == pytest.approx(rhs, abs=1e-12)


def test_conditional_risk_matches_brute_force():
    rng = np.random.default_rng(1)
    dist = dist_c2_with_trivial()
    pen = cons.scheme_assignment("u1")
    for _ in range(5):
        f = rng.normal(size=2)
        expected = 0.0
        for y, p in zip(dist.atoms, dist.probs):
            a = int((y > 0).sum())
            for j in range(2):
                beta = pen.betas(a, 2 - a)[0 if y[j] > 0 else 1]
                expected += p * beta * LOGISTIC.value(np.array(y[j] * f[j]))
        got = cons.conditional_risk(f, cons.compute_stats(dist, pen), LOGISTIC)
        assert got == pytest.approx(expected, rel=1e-12)


def test_zero_one_conditional_risk_hand_example():
    dist = dist_c2_with_trivial()
    stats = cons.compute_stats(dist, cons.uniform_assignment())
    # f orders label 0 above label 1: only the (-1, +1) atom penalized
    assert cons.zero_one_conditional_risk(np.array([1.0, 0.0]), stats,
                                          "partial") == pytest.approx(0.1)
    # tie: both nontrivial atoms at half weight
    assert cons.zero_one_conditional_risk(np.zeros(2), stats,
                                          "partial") == pytest.approx(0.15)
    # strict measure charges ties in full
    assert cons.zero_one_conditional_risk(np.zeros(2), stats,
                                          "ranking") == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# Bayes predictors
# ---------------------------------------------------------------------------


def test_bayes_closed_forms_frozen():
    dist = dist_c2_with_trivial()
    pen = cons.uniform_assignment()
    exp_pred = cons.bayes_surrogate(dist, pen, EXPONENTIAL)
    np.testing.assert_allclose(exp_pred.scores,
                               0.5 * np.log([0.9 / 0.1, 0.8 / 0.2]))
    log_pred = cons.bayes_surrogate(dist, pen, LOGISTIC)
    np.testing.assert_allclose(log_pred.scores, np.log([9.0, 4.0]))
    sq_pred = cons.bayes_surrogate(dist, pen, SQUARED_HINGE)
    np.testing.assert_allclose(sq_pred.scores, [0.8, 0.6])
    hinge_pred = cons.bayes_surrogate(dist, pen, HINGE)
    np.testing.assert_allclose(hinge_pred.scores, [1.0, 1.0])
    assert not hinge_pred.unspecified.any()


def test_bayes_hinge_tie_is_unspecified():
    atoms = np.array([[1.0, -1.0], [-1.0, 1.0]])
    dist = cons.ConditionalDistribution(atoms, np.array([0.5, 0.5]))
    pred = cons.bayes_surrogate(dist, cons.uniform_assignment(), HINGE)
    assert pred.unspecified.all()


def test_bayes_one_sided_mass_gives_infinite_score():
    atoms = np.array([[1.0, -1.0]])
    dist = cons.ConditionalDistribution(atoms, np.array([1.0]))
    pred = cons.bayes_surrogate(dist, cons.uniform_assignment(), LOGISTIC)
    assert pred.scores[0] == np.inf and pred.scores[1] == -np.inf


def test_bayes_calibrated_logistic_has_no_closed_form():
    with pytest.raises(ValueError):
        cons.bayes_surrogate(dist_c2_with_trivial(), cons.uniform_assignment(),
                             LOGISTIC_CALIBRATED)


def test_closed_forms_match_numeric_oracle():
    rng = np.random.default_rng(3)
    for base in (EXPONENTIAL, LOGISTIC, SQUARED_HINGE):
        worst = 0.0
        for _ in range(60):
            c = int(rng.integers(2, 5))
            dist = random_distribution(rng, c)
            pen = cons.scheme_assignment(("u1", "u2", "u3", "u4")[rng.integers(4)])
            stats = cons.compute_stats(dist, pen)
            if (stats.phi_plus <= 1e-6).any() or (stats.phi_minus <= 1e-6).any():
                continue
            closed = cons.bayes_surrogate(dist, pen, base)
            numeric = cons.bayes_numeric_oracle(dist, pen, base)
            worst = max(worst, float(np.abs(closed.scores - numeric).max()))
        assert worst < 1e-4, base.kind


def test_numeric_oracle_brackets_hinge_sign():
    dist = dist_c2_with_trivial()
    pen = cons.uniform_assignment()
    numeric = cons.bayes_numeric_oracle(dist, pen, HINGE, tol=1e-6)
    # phi+ > phi- at both coordinates: minimizer sits at +1
    np.testing.assert_allclose(numeric, [1.0, 1.0], atol=1e-5)


def test_numeric_oracle_handles_calibrated_logistic():
    rng = np.random.default_rng(4)
    dist = random_distribution(rng, 3)
    pen = cons.scheme_assignment("u2")
    numeric = cons.bayes_numeric_oracle(dist, pen, LOGISTIC_CALIBRATED)
    stats = cons.compute_stats(dist, pen)
    base_risk = cons.conditional_risk(numeric, stats, LOGISTIC_CALIBRATED)
    for delta in (-0.01, 0.01):
        assert base_risk <= cons.conditional_risk(
            numeric + delta, stats, LOGISTIC_CALIBRATED) + 1e-10


def test_calibrated_logistic_bayes_scores_follow_the_phi_ratio():
    # the premise of the sign audit, which MONOTONE_BASES grants this base:
    # its Bayes scores order the labels as phi+ / phi- does
    assert "logistic_calibrated" in cons.MONOTONE_BASES
    rng = np.random.default_rng(6)
    for _ in range(300):
        c = int(rng.integers(2, 6))
        dist = random_distribution(rng, c, support=2 ** c - 2)
        pen = cons.scheme_assignment(("u1", "u2", "u3", "u4")[rng.integers(4)])
        stats = cons.compute_stats(dist, pen)
        ratio = stats.phi_plus / stats.phi_minus
        numeric = cons.bayes_numeric_oracle(dist, pen, LOGISTIC_CALIBRATED)
        for p, q in itertools.permutations(range(c), 2):
            if ratio[p] > ratio[q] * (1.0 + 1e-6):
                assert numeric[p] > numeric[q], (ratio, numeric)


# ---------------------------------------------------------------------------
# measure requirements and membership
# ---------------------------------------------------------------------------


def test_measure_requirements_hand_example():
    dist, pen = dist_c2_with_trivial(), cons.uniform_assignment()
    above, apart = cons.measure_requirements(cons.compute_stats(dist, pen), "partial")
    # pair_mass[0, 1] = 0.2 beats pair_mass[1, 0] = 0.1: label 0 must rank above label 1
    np.testing.assert_array_equal(above, [[False, True], [False, False]])
    assert not apart.any()
    assert cons.zero_one_bayes_membership(np.array([1.0, 0.0]), dist, pen, "partial").member
    tied = cons.zero_one_bayes_membership(np.array([0.0, 0.0]), dist, pen, "partial")
    assert tied.member is False
    assert tied.violations.tolist() == [[0, 1]] and tied.unresolved.shape == (0, 2)


def test_membership_partial_vs_ranking_on_symmetric_distribution():
    atoms = np.array([[1.0, -1.0], [-1.0, 1.0]])
    dist = cons.ConditionalDistribution(atoms, np.array([0.5, 0.5]))
    pen = cons.uniform_assignment()
    pred = cons.bayes_surrogate(dist, pen, LOGISTIC)  # scores (0, 0)
    np.testing.assert_allclose(pred.scores, [0.0, 0.0])
    partial = cons.zero_one_bayes_membership(pred, dist, pen, "partial")
    strict = cons.zero_one_bayes_membership(pred, dist, pen, "ranking")
    # a tie is optimal for the tie-halving measure but not the strict one
    assert partial.member is True
    assert strict.member is False


def test_membership_agrees_with_exhaustive_orderings():
    # compare against direct risk minimization over all weak orderings of c=3
    rng = np.random.default_rng(5)
    score_pool = {}
    for ordering in itertools.product((0.0, 0.5, 1.0), repeat=3):
        score_pool[ordering] = np.array(ordering)
    for trial in range(30):
        dist = random_distribution(rng, 3, support=3)
        pen = cons.scheme_assignment("u2")
        stats = cons.compute_stats(dist, pen)
        for measure in ("partial", "ranking"):
            best = min(cons.zero_one_conditional_risk(f, stats, measure)
                       for f in score_pool.values())
            pred = cons.bayes_surrogate(dist, pen, LOGISTIC)
            if not np.isfinite(pred.scores).all():
                continue
            report = cons.zero_one_bayes_membership(pred, dist, pen, measure)
            risk = cons.zero_one_conditional_risk(pred.scores, stats, measure)
            # membership True must mean the ordering attains the minimum
            if report.member is True:
                assert risk == pytest.approx(best, abs=1e-9)
            elif report.member is False:
                assert risk > best - 1e-12


def test_membership_is_undecided_when_only_unspecified_labels_break_it():
    atoms = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    dist = cons.ConditionalDistribution(atoms, np.array([0.5, 0.5]))
    pen = cons.uniform_assignment()
    pred = cons.bayes_surrogate(dist, pen, HINGE)
    # labels 1 and 2 are relevant in exactly one atom each: phi_plus == phi_minus
    np.testing.assert_array_equal(pred.unspecified, [False, True, True, False])
    # ranking needs f0 > f1, f2 > f3 = -1 with f1 != f2, which {-1, 0, 1} cannot give
    report = cons.zero_one_bayes_membership(pred, dist, pen, "ranking")
    assert report.member is None
    assert report.unresolved.tolist() == [[1, 3]]
    assert report.violations.shape == (0, 2)
    np.testing.assert_array_equal(report.scores, [1.0, -1.0, 0.0, -1.0])


def test_membership_reports_violations():
    dist = cons.tau_witness_distribution("u3", 4)
    pen = cons.scheme_assignment("u3")
    pred = cons.bayes_surrogate(dist, pen, LOGISTIC)
    report = cons.zero_one_bayes_membership(pred, dist, pen, "partial")
    assert report.member is False
    assert len(report.violations) >= 1


# ---------------------------------------------------------------------------
# hinge counterexample
# ---------------------------------------------------------------------------


def test_hinge_counterexample_regression():
    record = cons.hinge_counterexample()
    stats = cons.compute_stats(record.dist, record.penalties)
    np.testing.assert_allclose(stats.phi_plus, [0.9, 0.8])
    np.testing.assert_allclose(stats.phi_minus, [0.1, 0.2])
    np.testing.assert_allclose(record.bayes.scores, [1.0, 1.0])
    assert not record.bayes.unspecified.any()
    assert record.membership.member is False
    assert 0.0 < record.epsilon < 1.0


# ---------------------------------------------------------------------------
# necessary product condition
# ---------------------------------------------------------------------------


def test_u2_condition_holds_for_all_small_c():
    for c in range(2, 13):
        check = cons.necessary_condition_tau("u2", c)
        assert check.holds and check.tau == Fraction(1)


def test_witnesses_at_four_labels_are_exact():
    expected = {"u1": (Fraction(9, 16), Fraction(1)),
                "u3": (Fraction(3), Fraction(4)),
                "u4": (Fraction(9), Fraction(4))}
    for scheme, (r1, r2) in expected.items():
        check = cons.necessary_condition_tau(scheme, 4)
        assert not check.holds
        _, _, got1, got2 = check.witness
        assert (got1, got2) == (r1, r2)


def test_scheme_product_ratio_formulas():
    # ratios depend on the split size k only
    assert cons.product_ratio("u1", 1, 4) == Fraction(9, 16)
    assert cons.product_ratio("u2", 3, 7) == Fraction(1)
    assert cons.product_ratio("u3", 2, 4) == Fraction(4)
    assert cons.product_ratio("u4", 1, 4) == Fraction(9)


def test_general_assignment_tau_by_enumeration():
    check = cons.necessary_condition_tau(cons.uniform_assignment(), 3)
    assert check.holds and check.tau == pytest.approx(1.0)
    check = cons.necessary_condition_tau(count_weighted(), 3)
    assert not check.holds
    # the exact path is one path: a scheme's assignment checks as its kind
    for kind in _TABLE:
        for c in (2, 3, 4, 12):
            assert cons.necessary_condition_tau(cons.scheme_assignment(kind), c) == \
                cons.necessary_condition_tau(kind, c)


def test_witness_distribution_violates_and_u2_has_none():
    # the construction must succeed for every failing kind at every
    # enumerable c, since random_violation_search relies on it
    for c in range(3, cons.MAX_ENUMERATED_LABELS + 1):
        for scheme in ("u1", "u2", "u3", "u4"):
            if cons.necessary_condition_tau(scheme, c).holds:
                # at c = 3 the split sizes 1 and 2 mirror each other
                assert scheme == "u2" or c == 3, (scheme, c)
                with pytest.raises(ValueError):
                    cons.tau_witness_distribution(scheme, c)
                continue
            dist = cons.tau_witness_distribution(scheme, c)
            verdict = cons.check_consistency_on_distribution(
                dist, cons.scheme_assignment(scheme))
            assert not verdict.consistent, (scheme, c)
            assert verdict.witness is not None


def test_consistency_check_rejects_nonmonotone_base():
    dist = dist_c2_with_trivial()
    with pytest.raises(ValueError):
        cons.check_consistency_on_distribution(dist, cons.uniform_assignment(),
                                               base=HINGE)


def test_enumerate_label_vectors():
    vecs = cons.enumerate_label_vectors(3)
    assert vecs.shape == (6, 3)  # 2^3 - 2 nontrivial patterns
    assert len(np.unique(vecs, axis=0)) == 6
    full = cons.enumerate_label_vectors(3, nontrivial_only=False)
    assert full.shape == (8, 3)
    with pytest.raises(ValueError):
        cons.enumerate_label_vectors(13)


# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------


def test_random_search_never_flags_u2():
    result = cons.random_violation_search("u2", 4, 400, seed=0, base=LOGISTIC)
    assert result.trials == 400
    assert not result.found


def test_random_search_finds_violations_for_failing_schemes():
    for scheme in ("u1", "u3", "u4"):
        result = cons.random_violation_search(scheme, 4, 50, seed=0, base=LOGISTIC)
        assert result.found, scheme
        # the first trial plants the constructive witness
        assert result.violations[0].trial == 0


def test_random_search_is_deterministic():
    a = cons.random_violation_search("u3", 4, 100, seed=9)
    b = cons.random_violation_search("u3", 4, 100, seed=9)
    assert [v.trial for v in a.violations] == [v.trial for v in b.violations]


# ---------------------------------------------------------------------------
# references: the per-atom statistics and risk loops, the per-pair audit
# and membership loops, and the product condition by enumeration of label
# vectors
# ---------------------------------------------------------------------------


def count_weighted():
    """Unit pair weights; a relevant label weighs the count of relevant
    labels, an irrelevant label 1."""
    return cons.PenaltyAssignment(alpha=lambda a, b: 1, betas=lambda a, b: (a, 1))


# exact weights (alpha, (beta_plus, beta_minus)) at a relevant and b
# irrelevant labels, restated independently of mlrank
_EXACT_WEIGHTS = {
    **{kind: (lambda a, b: Fraction(1, a * b), table) for kind, table in _TABLE.items()},
    "uniform": (lambda a, b: Fraction(1), lambda a, b: (Fraction(1), Fraction(1))),
    "count": (lambda a, b: Fraction(1), lambda a, b: (Fraction(a), Fraction(1))),
}


def _assignment(name):
    if name in _TABLE:
        return cons.scheme_assignment(name)
    return cons.uniform_assignment() if name == "uniform" else count_weighted()


def reference_stats(dist, name):
    """:func:`compute_stats` as one pass over the atoms in order, each
    weight the correctly rounded float of its exact value."""
    alpha, betas = _EXACT_WEIGHTS[name]
    c = dist.c
    phi_plus, phi_minus = np.zeros(c), np.zeros(c)
    delta_plus, delta_minus = np.zeros(c), np.zeros(c)
    delta_pairwise = np.zeros((c, c, 2, 2))
    alpha_mass = trivial_mass = 0.0
    for y, p in zip(dist.atoms, dist.probs):
        pos = y > 0
        neg = ~pos
        a, b = int(pos.sum()), int(neg.sum())
        if a:
            phi_plus[pos] += float(betas(a, b)[0]) * p
        if b:
            phi_minus[neg] += float(betas(a, b)[1]) * p
        if a and b:
            ap = float(alpha(a, b)) * p
            alpha_mass += ap
            delta_plus[pos] += ap
            delta_minus[neg] += ap
            r = np.where(pos, 0, 1)
            delta_pairwise[np.arange(c)[:, None], np.arange(c)[None, :],
                           r[:, None], r[None, :]] += ap
        else:
            trivial_mass += p
    return (phi_plus, phi_minus, delta_plus, delta_minus, delta_pairwise,
            alpha_mass, trivial_mass)


def _reference_supports(rng):
    """Random supports over all label vectors, trivial ones included, and
    every label vector at c <= 8, each with random probabilities."""
    for _ in range(200):
        c = int(rng.integers(2, 7))
        atoms = cons.enumerate_label_vectors(c, nontrivial_only=False)
        idx = rng.choice(len(atoms), size=int(rng.integers(1, min(len(atoms), 9) + 1)),
                         replace=False)
        yield atoms[idx]
    for c in range(2, 9):
        yield cons.enumerate_label_vectors(c, nontrivial_only=False)


def _reference_distributions(rng, name):
    """The supports of :func:`_reference_supports` with random
    probabilities, less their trivial atoms under weights ``name`` leaves
    undefined on them."""
    for atoms in _reference_supports(rng):
        if name in ("u2", "u4"):  # weights undefined on trivial vectors
            pos = (atoms > 0).sum(axis=1)
            atoms = atoms[(pos > 0) & (pos < atoms.shape[1])]
            if not len(atoms):
                continue
        probs = rng.dirichlet(np.ones(len(atoms)))
        probs = np.maximum(probs, 1e-12)
        yield cons.ConditionalDistribution(atoms, probs / probs.sum())


@pytest.mark.parametrize("name", sorted(_EXACT_WEIGHTS))
def test_stats_equal_the_per_atom_reference_exactly(name):
    rng = np.random.default_rng(11)
    checked = 0
    for dist in _reference_distributions(rng, name):
        got = cons.compute_stats(dist, _assignment(name))
        want = reference_stats(dist, name)
        *marginals, delta_pairwise, alpha_mass, trivial_mass = want
        # the pair masses are the tensor's mixed-sign quarter and its mirror
        fields = (got.phi_plus, got.phi_minus, got.delta_plus, got.delta_minus,
                  got.pair_mass, got.pair_mass.T, got.alpha_mass, got.trivial_mass)
        want = (*marginals, delta_pairwise[:, :, 0, 1], delta_pairwise[:, :, 1, 0],
                alpha_mass, trivial_mass)
        for field_got, field_want in zip(fields, want):
            assert np.shape(field_got) == np.shape(field_want)
            assert np.all(field_got == field_want), (name, dist.atoms)
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("name", sorted(_EXACT_WEIGHTS))
def test_tau_agrees_with_enumerating_every_label_vector(name):
    alpha, betas = _EXACT_WEIGHTS[name]
    for c in range(2, 9):
        ratios = set()
        for y in cons.enumerate_label_vectors(c):
            a = int((y > 0).sum())
            beta_plus, beta_minus = betas(a, c - a)
            ratios.add(beta_plus * beta_minus / alpha(a, c - a) ** 2)
        # the named schemes by kind, the others as assignments
        check = cons.necessary_condition_tau(name if name in _TABLE else _assignment(name), c)
        assert check.holds == (len(ratios) == 1), (name, c)
        if check.holds:
            assert check.witness is None and check.tau == ratios.pop()
        else:
            _, _, r1, r2 = check.witness
            assert check.tau is None and r1 != r2 and {r1, r2} <= ratios, (name, c)


def reference_zero_one_risk(scores, dist, name, measure):
    """The measure's conditional risk as one pass over the atoms in order,
    each atom's pairs compared by the sign of their score difference."""
    alpha, _ = _EXACT_WEIGHTS[name]
    f = np.asarray(scores, dtype=np.float64)
    total = 0.0
    for y, p in zip(dist.atoms, dist.probs):
        a, b = int((y > 0).sum()), int((y < 0).sum())
        if not (a and b):
            continue
        diffs = f[y > 0][:, None] - f[y < 0][None, :]
        if measure == "ranking":
            wrong = (diffs <= 0.0).sum()
        else:
            wrong = (diffs < 0.0).sum() + 0.5 * (diffs == 0.0).sum()
        total += float(alpha(a, b)) * p * float(wrong)
    return total


@pytest.mark.parametrize("measure", cons.MEASURES)
@pytest.mark.parametrize("name", sorted(_EXACT_WEIGHTS))
def test_zero_one_risk_agrees_with_the_per_atom_reference(name, measure):
    rng = np.random.default_rng(12)
    checked = 0
    for dist in _reference_distributions(rng, name):
        stats = cons.compute_stats(dist, _assignment(name))
        for scores in (rng.normal(size=dist.c), rng.integers(0, 3, size=dist.c)):
            got = cons.zero_one_conditional_risk(scores, stats, measure)
            want = reference_zero_one_risk(scores, dist, name, measure)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, dist.atoms, scores)
        checked += 1
    assert checked > 150


def reference_witness(stats):
    """The audit's first conflict over label pairs in row-major order, as
    ``(p, q, delta_products, phi_products)``, or None."""
    dp, dm = stats.delta_plus, stats.delta_minus
    pp, pm = stats.phi_plus, stats.phi_minus
    c = len(dp)
    for p in range(c):
        for q in range(c):
            if p == q:
                continue
            delta_hi, delta_lo = float(dp[p] * dm[q]), float(dm[p] * dp[q])
            phi_hi, phi_lo = float(pp[p] * pm[q]), float(pm[p] * pp[q])
            if delta_hi - delta_lo > 1e-12 and not (phi_hi - phi_lo > 1e-12):
                return p, q, (delta_hi, delta_lo), (phi_hi, phi_lo)
    return None


def test_audit_witness_equals_the_per_pair_reference_exactly():
    rng = np.random.default_rng(13)
    found = clean = 0
    for c in (4, 6, 12):
        pool = cons.enumerate_label_vectors(c)
        for trial in range(700):
            kind = ("u1", "u2", "u3", "u4")[trial % 4]
            idx = rng.choice(len(pool), size=int(rng.integers(2, 9)), replace=False)
            probs = np.maximum(rng.dirichlet(np.ones(len(idx))), 1e-12)
            dist = cons.ConditionalDistribution(pool[idx], probs / probs.sum())
            verdict = cons.check_consistency_on_distribution(dist, cons.scheme_assignment(kind))
            want = reference_witness(verdict.stats)
            if want is None:
                assert verdict.consistent and verdict.witness is None
                clean += 1
            else:
                w = verdict.witness
                assert not verdict.consistent
                assert (w.p, w.q, w.delta_products, w.phi_products) == want
                found += 1
    assert found > 200 and clean > 200, (found, clean)


def reference_requirements(stats, measure):
    """The measure's requirements as ``(p, q, relation)``, one per label
    pair ``p < q`` that has one, in row-major order; ``relation`` is
    ``">"``, ``"<"`` or ``"!="``."""
    pm = stats.pair_mass
    reqs = []
    for p, q in itertools.combinations(range(len(pm)), 2):
        m_pq, m_qp = float(pm[p, q]), float(pm[q, p])
        if m_pq > m_qp + 1e-12:
            reqs.append((p, q, ">"))
        elif m_qp > m_pq + 1e-12:
            reqs.append((p, q, "<"))
        elif measure == "ranking" and max(m_pq, m_qp) > 1e-12:
            reqs.append((p, q, "!="))
    return reqs


def _reference_satisfied(relation, fp, fq):
    return fp > fq if relation == ">" else fp < fq if relation == "<" else fp != fq


def reference_membership(predictor, stats, measure):
    """Membership as ``(member, violations, unresolved, scores)``, the pairs
    as lists of ``(p, q)``: every assignment of the unspecified coordinates
    over ``{-1, 0, 1}`` in order, each requirement checked on its own, the
    first assignment breaking none or else the first breaking the fewest."""
    reqs = reference_requirements(stats, measure)
    if isinstance(predictor, cons.BayesPredictor):
        scores = np.asarray(predictor.scores, dtype=np.float64).copy()
        free = np.flatnonzero(predictor.unspecified).tolist()
    else:
        scores = np.asarray(predictor, dtype=np.float64).copy()
        free = []
    best = None
    for assignment in itertools.product((-1.0, 0.0, 1.0), repeat=len(free)):
        trial = scores.copy()
        trial[free] = assignment
        broken = [(p, q) for p, q, rel in reqs if not _reference_satisfied(rel, trial[p], trial[q])]
        if not broken:
            return True, [], [], trial
        if best is None or len(broken) < len(best[1]):
            best = trial, broken
    trial, broken = best
    on_free = [(p, q) for p, q in broken if p in free or q in free]
    hard = [(p, q) for p, q in broken if (p, q) not in on_free]
    return (False if hard else None), hard, on_free, trial


def _membership_cases(rng):
    """2016 random distributions at c = 2..6, each with an assignment of
    ``uniform``, ``u1``, ``u3`` and a base of hinge, logistic, squared hinge,
    exponential in turn.  Every third support may hold trivial atoms, and
    every fourth distribution has equal probabilities, which ties hinge
    Bayes scores."""
    bases = (HINGE, LOGISTIC, SQUARED_HINGE, EXPONENTIAL)
    for trial in range(2016):
        c = int(rng.integers(2, 7))
        pool = cons.enumerate_label_vectors(c, nontrivial_only=trial % 3 != 0)
        idx = rng.choice(len(pool), size=int(rng.integers(1, min(len(pool), 8) + 1)),
                         replace=False)
        probs = np.full(len(idx), 1.0 / len(idx))
        if trial % 4:
            probs = np.maximum(rng.dirichlet(np.ones(len(idx))), 1e-12)
            probs = probs / probs.sum()
        dist = cons.ConditionalDistribution(pool[idx], probs)
        yield dist, _assignment(("uniform", "u1", "u3")[trial % 3]), bases[trial // 3 % 4]


def test_membership_equals_the_per_pair_reference_exactly():
    rng = np.random.default_rng(14)
    verdicts = {True: 0, False: 0, None: 0}
    for dist, pen, base in _membership_cases(rng):
        stats = cons.compute_stats(dist, pen)
        pred = cons.bayes_surrogate(dist, pen, base)
        for measure in cons.MEASURES:
            above, apart = cons.measure_requirements(stats, measure)
            relations = {(p, q): ">" if above[p, q] else "<" if above[q, p] else "!="
                         for p, q in zip(*np.nonzero(above | above.T | apart)) if p < q}
            assert sorted(relations.items()) == [((p, q), rel) for p, q, rel
                                                 in reference_requirements(stats, measure)]
            for predictor in (pred, pred.scores):
                got = cons.zero_one_bayes_membership(predictor, dist, pen, measure)
                member, hard, on_free, scores = reference_membership(predictor, stats, measure)
                assert got.member is member, (dist.atoms, dist.probs, base.kind, measure)
                assert got.violations.shape[1:] == got.unresolved.shape[1:] == (2,)
                assert got.violations.tolist() == [list(pq) for pq in hard]
                assert got.unresolved.tolist() == [list(pq) for pq in on_free]
                assert got.scores.tobytes() == scores.tobytes()
                verdicts[member] += 1
    assert min(verdicts.values()) >= 10, verdicts
