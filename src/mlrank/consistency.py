"""Bayes-predictor analysis of the surrogates on finite label distributions.

Everything here works conditionally on one instance: a
:class:`ConditionalDistribution` lists the label vectors that have positive
probability.  A :class:`PenaltyAssignment` fixes the weights of a label
vector ``y`` as functions of its split sizes ``(a, b) = (|S+|, |S-|)``:

* ``alpha(a, b)``: the weight of each (relevant, irrelevant) pair in the
  target ranking measure,
* ``betas(a, b)``: the per-label weights ``(beta_plus, beta_minus)`` of the
  reweighted univariate surrogate.

It is the one type for arbitrary weights.  :func:`scheme_assignment` builds
the named kinds ``u1``..``u4`` from :func:`mlrank.losses.scheme_betas`, the
function that also gives the training weights, with ``alpha = 1 / (a b)``.

From the pair (distribution, penalties) two families of statistics follow:

* ``phi`` marginals drive the surrogate: the conditional surrogate risk is
  ``sum_j phi_plus[j] * ell(f_j) + phi_minus[j] * ell(-f_j)``, separable per
  coordinate, which gives closed-form Bayes scores for the classical bases.
* ``delta`` masses drive the target measure: the c x c ``pair_mass[p, q]``
  is what it charges when ``f_p <= f_q``, so its Bayes predictors are
  exactly the score vectors ordering each pair ``(p, q)`` by
  ``pair_mass[p, q]`` against ``pair_mass[q, p]``.

Label pairs are compared as c x c matrices throughout.  Consistency of the
surrogate then reduces to sign agreement between the two families
(``check_consistency_on_distribution``), a necessary product
condition ``beta_plus * beta_minus = tau * alpha^2`` with a single constant
``tau`` (``necessary_condition_tau``, in exact rational arithmetic over the
split sizes), and explicit counterexample generators for the schemes and
for the hinge base; ``random_violation_search`` audits a named scheme.
Mass and product differences within ``_TOL = 1e-12`` count as ties.

Trivial label vectors (all-positive or all-negative) generate no ranking
pairs, so they never enter the ``delta`` sums; they do enter the ``phi``
sums, using only the weight side that exists for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .losses import BaseLoss, label_split_sizes, scheme_betas

MEASURES = ("ranking", "partial")
_TOL = 1e-12


@dataclass(frozen=True)
class ConditionalDistribution:
    """Finite support over label vectors: ``atoms`` (m, c), ``probs`` (m,)."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        if atoms.ndim != 2 or atoms.shape[1] < 2:
            raise ValueError("atoms must be (m, c) with c >= 2")
        if not np.all(np.abs(atoms) == 1.0):
            raise ValueError("atoms must take values in {-1, +1}")
        if probs.shape != (atoms.shape[0],):
            raise ValueError("probs must match the number of atoms")
        if np.any(probs <= 0.0):
            raise ValueError("atom probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if len({tuple(a) for a in atoms}) != atoms.shape[0]:
            raise ValueError("atoms must be distinct")

    @property
    def c(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class PenaltyAssignment:
    """Pair weight ``alpha(a, b)`` and label weights ``betas(a, b) ->
    (beta_plus, beta_minus)`` of a label vector with ``a`` relevant and
    ``b`` irrelevant labels.

    Both are elementwise in the split sizes, the signature of
    :func:`mlrank.losses.scheme_betas`: :func:`compute_stats` passes count
    arrays, one entry per atom, and :func:`necessary_condition_tau` passes
    ``Fraction`` sizes, so weights built from the sizes by arithmetic are
    exact there.  A weight that divides by zero may come out ``inf``; it is
    an error only where a statistic uses it, so ``alpha`` matters on
    nontrivial vectors only and a ``beta`` side only where labels of its
    sign exist.
    """

    alpha: Callable
    betas: Callable


def scheme_assignment(kind: str) -> PenaltyAssignment:
    """Penalties of the named univariate schemes against the per-pair-averaged
    ranking measure (``alpha = 1 / (|S+| |S-|)``).  A trivial vector keeps
    the weights :func:`mlrank.losses.scheme_betas` defines on it: ``u1``
    both sides, ``u3`` the side present, ``u2`` and ``u4`` none."""
    return PenaltyAssignment(alpha=lambda a, b: 1 / (a * b), betas=partial(scheme_betas, kind))


def uniform_assignment() -> PenaltyAssignment:
    """All weights 1; useful for hand-built analyses."""
    return PenaltyAssignment(alpha=lambda a, b: 1, betas=lambda a, b: (1, 1))


def _in_atom_order(terms: np.ndarray) -> np.ndarray:
    """Sum of ``terms`` over its first axis, one atom after the other."""
    return np.cumsum(terms, axis=0)[-1]


@dataclass
class LabelStats:
    """``phi``/``delta`` marginals of one (distribution, penalties) pair.

    ``pair_mass[p, q]`` (c, c) sums ``alpha(y) P(y)`` over nontrivial atoms
    with ``y_p = +1`` and ``y_q = -1``: what the measure charges when
    ``f_p <= f_q``, half of it on a tie under the partial measure.
    ``alpha_mass`` is the common value of ``delta_plus[j] + delta_minus[j]``;
    ``trivial_mass`` is the probability excluded from the ``delta`` sums.
    """

    phi_plus: np.ndarray
    phi_minus: np.ndarray
    delta_plus: np.ndarray
    delta_minus: np.ndarray
    pair_mass: np.ndarray
    alpha_mass: float
    trivial_mass: float


def compute_stats(dist: ConditionalDistribution, penalties: PenaltyAssignment) -> LabelStats:
    """The marginals of all atoms at once, from one call of each weight
    function on the atoms' split sizes.  Every sum adds its atoms' terms in
    atom order.  Raises ``ValueError`` if a weight a sum uses is not finite.
    """
    pos = dist.atoms > 0
    a, b = label_split_sizes(dist.atoms)
    nontrivial = (a > 0) & (b > 0)
    with np.errstate(divide="ignore"):
        alpha = penalties.alpha(a, b)
        beta_plus, beta_minus = penalties.betas(a, b)
    # per atom, weight times probability where a sum uses the weight, else 0
    used = []
    for weight, mask in ((alpha, nontrivial), (beta_plus, a > 0), (beta_minus, b > 0)):
        bad = mask & ~np.isfinite(weight)
        if bad.any():
            raise ValueError(f"penalty weights are undefined on the label vector "
                             f"{dist.atoms[np.argmax(bad)]} of the support")
        used.append(np.where(mask, weight * dist.probs, 0.0))
    ap, bp, bm = used
    return LabelStats(
        phi_plus=_in_atom_order(np.where(pos, bp[:, None], 0.0)),
        phi_minus=_in_atom_order(np.where(pos, 0.0, bm[:, None])),
        delta_plus=_in_atom_order(np.where(pos, ap[:, None], 0.0)),
        delta_minus=_in_atom_order(np.where(pos, 0.0, ap[:, None])),
        pair_mass=_in_atom_order(np.where(pos[:, :, None] & ~pos[:, None, :],
                                          ap[:, None, None], 0.0)),
        alpha_mass=float(_in_atom_order(ap)),
        trivial_mass=float(_in_atom_order(np.where(nontrivial, 0.0, dist.probs))),
    )


def conditional_risk(scores, stats: LabelStats, base: BaseLoss) -> float:
    """Conditional reweighted surrogate risk ``sum_j phi+ ell(f_j) + phi- ell(-f_j)``
    from the :func:`compute_stats` of a distribution and penalty assignment."""
    f = np.asarray(scores, dtype=np.float64)
    # phi == 0 must kill the term even when the loss value is infinite
    pos_term = np.where(stats.phi_plus > 0.0, stats.phi_plus * base.value(f), 0.0)
    neg_term = np.where(stats.phi_minus > 0.0, stats.phi_minus * base.value(-f), 0.0)
    return float(pos_term.sum() + neg_term.sum())


def zero_one_conditional_risk(scores, stats: LabelStats, measure: str = "partial") -> float:
    """Conditional risk ``sum_{p,q} pair_mass[p, q] loss(f_p, f_q)`` of the
    weighted ranking measure, ``loss = [f_p <= f_q]``, or of the partial
    one, ``loss = [f_p < f_q] + 1/2 [f_p = f_q]``, from the
    :func:`compute_stats` of a distribution and penalty assignment."""
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")
    f = np.asarray(scores, dtype=np.float64)
    below, ties = f[:, None] < f, f[:, None] == f
    wrong = below + (1.0 if measure == "ranking" else 0.5) * ties
    return float((stats.pair_mass * wrong).sum())


# ---------------------------------------------------------------------------
# Bayes predictors of the surrogate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BayesPredictor:
    """Coordinatewise surrogate minimizer.

    ``scores`` may contain ``+-inf`` where one ``phi`` side vanishes.  For
    the hinge base a tie ``phi_plus == phi_minus`` leaves a whole interval of
    minimizers; such coordinates are flagged in ``unspecified`` and their
    ``scores`` entry is meaningless.
    """

    scores: np.ndarray
    unspecified: np.ndarray


def bayes_surrogate(dist: ConditionalDistribution, penalties: PenaltyAssignment,
                    base: BaseLoss) -> BayesPredictor:
    """Closed-form minimizer of the conditional reweighted surrogate risk."""
    stats = compute_stats(dist, penalties)
    pp, pm = stats.phi_plus, stats.phi_minus
    if np.any((pp == 0.0) & (pm == 0.0)):
        raise ValueError("a label has zero mass on both sides; scores there are arbitrary")
    unspecified = np.zeros(dist.c, dtype=bool)
    if base.kind in ("exponential", "logistic"):
        scale = 0.5 if base.kind == "exponential" else 1.0
        with np.errstate(divide="ignore"):
            scores = scale * (np.log(pp) - np.log(pm))
    elif base.kind == "squared_hinge":
        scores = (pp - pm) / (pp + pm)
    elif base.kind == "hinge":
        scores = np.where(pp > pm, 1.0, -1.0)
        unspecified = pp == pm
        scores = np.where(unspecified, 0.0, scores)
    else:
        raise ValueError(f"no closed-form Bayes predictor registered for base {base.kind!r}; "
                         "use bayes_numeric_oracle")
    return BayesPredictor(scores, unspecified)


def bayes_numeric_oracle(dist: ConditionalDistribution, penalties: PenaltyAssignment,
                         base: BaseLoss, tol: float = 1e-8) -> np.ndarray:
    """Golden-section minimizer of each coordinate's conditional risk.

    Independent of the closed forms: only evaluates the base loss.  The
    per-coordinate objective ``phi+ ell(z) + phi- ell(-z)`` is convex, so
    golden section on ``[-50, 50]`` localizes a minimizer to width ``tol``.
    """
    stats = compute_stats(dist, penalties)
    pp, pm = stats.phi_plus, stats.phi_minus

    def g(z: np.ndarray) -> np.ndarray:
        return pp * base.value(z) + pm * base.value(-z)

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.full(dist.c, -50.0)
    b = np.full(dist.c, 50.0)
    while np.max(b - a) > tol:
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        shrink_right = g(x1) < g(x2)  # minimum lies in [a, x2]
        b = np.where(shrink_right, x2, b)
        a = np.where(shrink_right, a, x1)
    return (a + b) / 2.0


# ---------------------------------------------------------------------------
# Bayes predictors of the target measure, and membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairRequirement:
    """Ordering the target measure demands between two label scores."""

    p: int
    q: int
    relation: str  # ">", "<", or "!="
    delta_pm: float
    delta_mp: float

    def satisfied(self, fp: float, fq: float) -> bool:
        if self.relation == ">":
            return fp > fq
        if self.relation == "<":
            return fp < fq
        return fp != fq


def measure_requirements(stats: LabelStats, measure: str = "partial") -> list[PairRequirement]:
    """Pairwise score constraints characterizing the measure's Bayes set.

    For each label pair ``p < q``, ``pair_mass[p, q]`` against
    ``pair_mass[q, p]`` decides the optimal order: the side with smaller
    opposing mass must be ranked higher.  Under the partial measure a tie in
    mass makes any order optimal; under the full ranking measure equal scores
    additionally pay both sides, so ties in score are suboptimal whenever
    mass is present.  Masses within ``_TOL`` tie.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}")
    pm = stats.pair_mass
    above, below = pm > pm.T + _TOL, pm.T > pm + _TOL
    apart = (measure == "ranking") & (np.maximum(pm, pm.T) > _TOL)
    relation = np.select([above, below, apart], [">", "<", "!="], "")
    return [PairRequirement(int(p), int(q), str(relation[p, q]), float(pm[p, q]),
                            float(pm[q, p]))
            for p, q in zip(*np.nonzero(np.triu(relation != "", 1)))]


@dataclass
class MembershipReport:
    """Outcome of testing a score vector against the measure's Bayes set.

    ``member`` is ``None`` when the verdict hinges on coordinates the
    surrogate minimizer leaves unspecified and no tested assignment settles
    it; those constraints are listed in ``unresolved`` rather than classified.
    """

    member: bool | None
    violations: list[PairRequirement]
    unresolved: list[PairRequirement]
    scores: np.ndarray


_UNSPECIFIED_CANDIDATES = (-1.0, 0.0, 1.0)


def zero_one_bayes_membership(predictor, dist: ConditionalDistribution,
                              penalties: PenaltyAssignment, measure: str = "partial"
                              ) -> MembershipReport:
    """Does a (possibly partially unspecified) score vector minimize the measure?

    ``predictor`` is a plain score vector or a :class:`BayesPredictor`.
    Unspecified coordinates are resolved by searching assignments over
    ``{-1, 0, +1}``; if some assignment meets every requirement the vector
    counts as a member.
    """
    stats = compute_stats(dist, penalties)
    reqs = measure_requirements(stats, measure)
    if isinstance(predictor, BayesPredictor):
        scores = np.asarray(predictor.scores, dtype=np.float64).copy()
        free = np.flatnonzero(predictor.unspecified)
    else:
        scores = np.asarray(predictor, dtype=np.float64).copy()
        free = np.array([], dtype=np.int64)

    if free.size == 0:
        violations = [r for r in reqs if not r.satisfied(scores[r.p], scores[r.q])]
        return MembershipReport(not violations, violations, [], scores)

    best_scores = None
    best_violations: list[PairRequirement] | None = None
    for assignment in itertools.product(_UNSPECIFIED_CANDIDATES, repeat=free.size):
        trial = scores.copy()
        trial[free] = assignment
        violations = [r for r in reqs if not r.satisfied(trial[r.p], trial[r.q])]
        if not violations:
            return MembershipReport(True, [], [], trial)
        if best_violations is None or len(violations) < len(best_violations):
            best_scores, best_violations = trial, violations

    free_set = set(free.tolist())
    involves_free = [r for r in best_violations if r.p in free_set or r.q in free_set]
    hard = [r for r in best_violations if r.p not in free_set and r.q not in free_set]
    if hard:
        return MembershipReport(False, hard, involves_free, best_scores)
    return MembershipReport(None, [], involves_free, best_scores)


# ---------------------------------------------------------------------------
# Sign-agreement audit
# ---------------------------------------------------------------------------

MONOTONE_BASES = ("exponential", "logistic", "logistic_calibrated", "squared_hinge")


@dataclass(frozen=True)
class PairWitness:
    """A label pair where measure and surrogate demand opposite orders."""

    p: int
    q: int
    delta_products: tuple[float, float]  # (delta+_p delta-_q, delta-_p delta+_q)
    phi_products: tuple[float, float]    # (phi+_p phi-_q,   phi-_p phi+_q)


@dataclass
class ConsistencyVerdict:
    consistent: bool
    witness: PairWitness | None
    stats: LabelStats


def check_consistency_on_distribution(dist: ConditionalDistribution,
                                      penalties: PenaltyAssignment,
                                      base: BaseLoss | None = None) -> ConsistencyVerdict:
    """Audit one distribution for a Bayes-ordering conflict.

    The surrogate's Bayes scores (for the bases of ``MONOTONE_BASES``, whose
    minimizer is strictly increasing in ``phi_plus / phi_minus``) rank ``p``
    above ``q`` iff ``phi+_p phi-_q > phi-_p phi+_q``, and the measure
    demands that order iff ``delta+_p delta-_q > delta-_p delta+_q``.  A
    pair where the measure requires a strict order and the surrogate does
    not deliver it witnesses inconsistency at this distribution; product
    differences within ``_TOL`` count as ties.  For the calibrated logistic
    the minimizer ``z`` solves ``phi+/phi- = ((e-1) e^z + 1) / ((e-1) e^-z
    + 1)``, whose right side is strictly increasing in ``z``.
    """
    if base is not None and base.kind not in MONOTONE_BASES:
        raise ValueError(f"audit applies to bases with a strictly monotone Bayes link "
                         f"{MONOTONE_BASES}, not {base.kind!r}")
    stats = compute_stats(dist, penalties)
    # H[p, q] = delta+_p delta-_q and Phi[p, q] = phi+_p phi-_q
    H = np.multiply.outer(stats.delta_plus, stats.delta_minus)
    Phi = np.multiply.outer(stats.phi_plus, stats.phi_minus)
    conflict = (H - H.T > _TOL) & ~(Phi - Phi.T > _TOL)
    if not conflict.any():
        return ConsistencyVerdict(True, None, stats)
    p, q = np.unravel_index(np.argmax(conflict), conflict.shape)
    witness = PairWitness(int(p), int(q), (float(H[p, q]), float(H[q, p])),
                          (float(Phi[p, q]), float(Phi[q, p])))
    return ConsistencyVerdict(False, witness, stats)


# ---------------------------------------------------------------------------
# Necessary product condition and constructive counterexamples
# ---------------------------------------------------------------------------


@dataclass
class TauCheck:
    """Result of testing ``beta_plus beta_minus = tau * alpha^2`` on every
    nontrivial split size, in ``Fraction`` arithmetic."""

    holds: bool
    tau: Fraction | None
    witness: tuple | None  # (k1, k2, ratio1, ratio2) on failure


def product_ratio(penalties, n_pos: int, c: int) -> Fraction:
    """Exact ``beta+ beta- / alpha^2`` of a label vector with ``n_pos``
    relevant labels out of ``c``, for a scheme kind string or a
    :class:`PenaltyAssignment` evaluated at ``Fraction`` split sizes."""
    if not 1 <= n_pos <= c - 1:
        raise ValueError("ratio defined for nontrivial split sizes only")
    pen = scheme_assignment(penalties) if isinstance(penalties, str) else penalties
    a, b = Fraction(n_pos), Fraction(c - n_pos)
    beta_plus, beta_minus = pen.betas(a, b)
    return Fraction(beta_plus) * Fraction(beta_minus) / Fraction(pen.alpha(a, b)) ** 2


def necessary_condition_tau(penalties, c: int) -> TauCheck:
    """Test the product condition over every nontrivial label vector.

    ``penalties`` is a scheme kind string or a :class:`PenaltyAssignment`.
    Weights are functions of the split sizes, so the sizes ``k = 1..c-1``
    stand for all ``2^c - 2`` nontrivial vectors, and the ratios, ``tau``
    and the witness ratios are exact :func:`product_ratio` values.
    """
    if c < 2:
        raise ValueError("need c >= 2 labels")
    ratios = [(k, product_ratio(penalties, k, c)) for k in range(1, c)]
    first_k, first_r = ratios[0]
    for k, r in ratios[1:]:
        if r != first_r:
            return TauCheck(False, None, (first_k, k, first_r, r))
    return TauCheck(True, first_r, None)


def _ratio_bounds_for_classes(kind: str, c: int, k_a: int, k_b: int) -> tuple[float, float]:
    """(mass-ratio sign flip points) ``t_phi < t_delta`` for atoms with
    ``k_a`` and ``k_b`` relevant labels out of ``c``."""
    pen = scheme_assignment(kind)
    beta_plus_a, beta_minus_a = pen.betas(k_a, c - k_a)
    beta_plus_b, beta_minus_b = pen.betas(k_b, c - k_b)
    t_delta = pen.alpha(k_a, c - k_a) / pen.alpha(k_b, c - k_b)
    t_phi = float(np.sqrt(beta_plus_a * beta_minus_a / (beta_plus_b * beta_minus_b)))
    return t_phi, t_delta


def tau_witness_distribution(kind: str, c: int) -> ConditionalDistribution:
    """Two-atom distribution on which a scheme ``kind`` failing the product
    condition provably violates the sign-agreement audit.

    The atoms oppose each other on some label pair (p, q): atom A carries
    ``+`` at p and ``-`` at q, atom B the reverse.  With only these two
    atoms, the measure demands p above q iff ``alpha_A P_A > alpha_B P_B``
    while the surrogate's Bayes scores deliver it iff ``beta+_A beta-_A
    P_A^2 > beta+_B beta-_B P_B^2``; differing product ratios separate the
    two critical mass ratios, and any mass strictly between them is a
    violation.  The midpoint is used.  Atom A has split size ``k1`` and
    atom B ``k2``, the two sizes of :func:`necessary_condition_tau`'s
    witness, ordered so that A has the smaller product ratio.
    """
    check = necessary_condition_tau(kind, c)
    if check.holds:
        raise ValueError("penalties satisfy the product condition; no witness exists")
    k1, k2, r1, r2 = check.witness
    if r1 > r2:  # atom A must have the smaller product ratio
        k1, k2 = k2, k1
    y_a = -np.ones(c)
    y_a[0] = 1.0
    extra = k1 - 1
    if k2 + 1 + extra > c:
        raise ValueError(f"split sizes {k1} and {k2} do not fit disjointly at c={c}")
    if extra:
        y_a[k2 + 1:k2 + 1 + extra] = 1.0
    y_b = -np.ones(c)
    y_b[1:k2 + 1] = 1.0

    t_phi, t_delta = _ratio_bounds_for_classes(kind, c, k1, k2)
    if not t_phi < t_delta:
        raise ValueError("critical ratios are not separated; construction failed")
    t = 0.5 * (t_phi + t_delta)  # mass ratio P(B) / P(A)
    p_a = 1.0 / (1.0 + t)
    return ConditionalDistribution(np.vstack([y_a, y_b]), np.array([p_a, 1.0 - p_a]))


@dataclass
class HingeCounterexampleRecord:
    """A two-label distribution where the hinge Bayes scores tie two labels
    the measure must separate."""

    dist: ConditionalDistribution
    penalties: PenaltyAssignment
    epsilon: float
    bayes: BayesPredictor
    membership: MembershipReport


def hinge_counterexample(masses: tuple[float, float] = (0.2, 0.1)
                         ) -> HingeCounterexampleRecord:
    """Construct the hinge inconsistency witness at ``c = 2``, under
    :func:`uniform_assignment` weights.

    Support: ``y1 = (+1, +1)`` with the bulk of the mass, plus the two
    single-positive vectors ``y2 = (+1, -1)`` and ``y3 = (-1, +1)`` with
    ``masses``.  When the total perturbation is small enough both hinge
    Bayes scores are forced to ``+1``, yet unequal weighted masses on
    ``y2`` / ``y3`` force a strict order between the labels.

    Raises ``ValueError`` when the masses are too large to pin the hinge
    scores or when the weighted masses coincide (no strict order required,
    hence no counterexample).
    """
    pen = uniform_assignment()
    m2, m3 = float(masses[0]), float(masses[1])
    if m2 <= 0.0 or m3 <= 0.0:
        raise ValueError("both perturbation masses must be positive")
    eps = m2 + m3
    # under unit weights both hinge scores sit at +1 while y1's mass 1 - eps exceeds eps
    if eps >= 0.5:
        raise ValueError(f"total perturbation {eps} must stay below 0.5 "
                         "to pin both hinge scores at +1")
    if abs(m2 - m3) <= 1e-15:
        raise ValueError("weighted masses of the single-positive atoms must differ; "
                         "equal masses demand no strict order")
    atoms = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    dist = ConditionalDistribution(atoms, np.array([1.0 - eps, m2, m3]))
    bayes = bayes_surrogate(dist, pen, BaseLoss("hinge"))
    membership = zero_one_bayes_membership(bayes, dist, pen, measure="partial")
    return HingeCounterexampleRecord(dist, pen, eps, bayes, membership)


# ---------------------------------------------------------------------------
# Randomized search
# ---------------------------------------------------------------------------


# largest label count whose 2^c label vectors are enumerated
MAX_ENUMERATED_LABELS = 12
# most atoms in the support of one random search trial
_MAX_SUPPORT = 8


def enumerate_label_vectors(c: int, nontrivial_only: bool = True) -> np.ndarray:
    if c > MAX_ENUMERATED_LABELS:
        raise ValueError(f"label vector enumeration is capped at c = {MAX_ENUMERATED_LABELS}")
    atoms = np.array(list(itertools.product((1.0, -1.0), repeat=c)))
    if nontrivial_only:
        pos = (atoms > 0).sum(axis=1)
        atoms = atoms[(pos > 0) & (pos < c)]
    return atoms


@dataclass
class ViolationRecord:
    trial: int
    dist: ConditionalDistribution
    witness: PairWitness


@dataclass
class SearchResult:
    trials: int
    violations: list[ViolationRecord] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return bool(self.violations)


def random_violation_search(kind: str, c: int, trials: int, seed: int = 0,
                            base: BaseLoss | None = None) -> SearchResult:
    """Sample random conditional distributions and audit each for violations
    of the scheme ``kind``'s :func:`scheme_assignment`.

    Trial 0 is the constructive two-atom witness of
    :func:`tau_witness_distribution` whenever the product condition fails,
    so a failing scheme is always caught.  The random trials draw a support
    of 2..``_MAX_SUPPORT`` nontrivial atoms without replacement and flat
    simplex probabilities.  Each trial's randomness is
    seeded independently from ``(seed, trial)``, so any partition of the
    trial range over workers returns identical results.  Raises
    ``ValueError`` unless ``trials >= 1``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, not {trials}")
    pen = scheme_assignment(kind)
    atoms_pool = enumerate_label_vectors(c)
    hi = min(len(atoms_pool), _MAX_SUPPORT)
    result = SearchResult(trials=trials)
    constructive: ConditionalDistribution | None = None
    if not necessary_condition_tau(kind, c).holds:
        constructive = tau_witness_distribution(kind, c)
    for trial in range(trials):
        if trial == 0 and constructive is not None:
            dist = constructive
        else:
            rng = np.random.default_rng((seed, trial))
            size = int(rng.integers(2, hi + 1))
            idx = rng.choice(len(atoms_pool), size=size, replace=False)
            probs = rng.dirichlet(np.ones(size))
            # dirichlet can emit exact zeros in extreme draws; nudge and renormalize
            probs = np.maximum(probs, 1e-12)
            probs = probs / probs.sum()
            dist = ConditionalDistribution(atoms_pool[idx], probs)
        verdict = check_consistency_on_distribution(dist, pen, base)
        if not verdict.consistent:
            result.violations.append(ViolationRecord(trial, dist, verdict.witness))
    return result
