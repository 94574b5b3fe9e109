"""Multi-label ranking with convex surrogates.

The package trains linear label scorers under five surrogate objectives
(one pairwise, four reweighted univariate), evaluates (partial) ranking
losses, audits the surrogates' Bayes predictors for consistency with those
measures on finite label distributions, and computes generalization bounds
for the reweighted schemes.  The ``mlrank`` command line drives benchmark,
consistency, and bound reports; see the README for the protocols.

Import the submodules (``mlrank.trainer``, ``mlrank.bounds``, ...); the
package namespace holds only ``__version__``.
"""

__version__ = "0.1.0"
