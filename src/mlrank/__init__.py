"""Multi-label ranking with convex surrogates.

The package trains linear label scorers under five surrogate objectives
(one pairwise, four reweighted univariate), evaluates (partial) ranking
losses, audits the surrogates' Bayes predictors for consistency with those
measures on finite label distributions, and computes generalization bounds
for the reweighted schemes.  The ``mlrank`` command line drives benchmark,
consistency, and bound reports; see the README for the protocols.
"""

from .bounds import (BoundInputs, LipschitzProbe, SurrogateConstants, bound_base,
                     bound_u2, bound_u3, bound_u4, compose_bound,
                     empirical_lipschitz_probe, surrogate_constants)
from .consistency import (BayesPredictor, ConditionalDistribution, ConsistencyVerdict,
                          HingeCounterexampleRecord, LabelStats, MembershipReport,
                          PenaltyAssignment, TauCheck, bayes_numeric_oracle,
                          bayes_surrogate, check_consistency_on_distribution,
                          compute_stats, conditional_risk, hinge_counterexample,
                          necessary_condition_tau, random_violation_search,
                          scheme_assignment, tau_witness_distribution,
                          zero_one_bayes_membership, zero_one_conditional_risk)
from .dataset import (MultiLabelDataset, StandardizationParams, append_bias,
                      kfold_split, load_csv, load_sparse, save_csv, save_sparse,
                      standardize_apply, standardize_fit, synthetic_linear)
from .losses import (BASE_KINDS, EXPONENTIAL, HINGE, LOGISTIC, LOGISTIC_CALIBRATED,
                     SQUARED_HINGE, BaseLoss, LossEval, PenaltyScheme, pairwise_surrogate,
                     partial_ranking_loss, penalty_weights, ranking_loss,
                     univariate_surrogate)
from .model import LinearModel, Objective, ObjectiveSpec, load_model, predict, save_model
from .optimizer import (NonFiniteObjectiveError, OptimizationTrace, OptimizerConfig,
                        minimize_batch_gd, minimize_svrg_bb)
from .trainer import (ALGORITHMS, CvResult, EvalReport, cross_validate, evaluate,
                      prepare_data, train, train_with_trace)

__version__ = "0.1.0"
