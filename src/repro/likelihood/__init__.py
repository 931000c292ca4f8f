"""Likelihood substrate: GTR models, rate heterogeneity, pruning kernels.

This package is the Python equivalent of RAxML's likelihood core:

* :mod:`repro.likelihood.gtr` — the general time-reversible substitution
  model with its spectral decomposition and P(t) matrices;
* :mod:`repro.likelihood.gamma` — discrete-Γ rate heterogeneity (GTRGAMMA);
* :mod:`repro.likelihood.cat` — per-site rate categories (GTRCAT);
* :mod:`repro.likelihood.plan` — traversal planning: subtree signatures,
  CLV caching, and minimal recompute descriptors (RAxML's traversal
  descriptors);
* :mod:`repro.likelihood.kernels` — the pattern-axis kernel (level
  contractions, tip tables, the fused block pipeline) charging the
  shared op counter;
* :mod:`repro.likelihood.engine` — Felsenstein-pruning conditional
  likelihood vectors, vectorized over alignment patterns (the axis RAxML's
  Pthreads parallelization slices); one engine serves serial and
  thread-sharded execution;
* :mod:`repro.likelihood.brlen` — Newton–Raphson branch-length optimisation
  via per-edge eigen-coefficient tables (RAxML's "makenewz" scheme);
* :mod:`repro.likelihood.model_opt` — Brent-style optimisation of model
  parameters (Γ shape, GTR exchangeabilities);
* :mod:`repro.likelihood.parsimony` — vectorized Fitch parsimony, used for
  stepwise-addition starting trees.
"""

from repro.likelihood.gtr import GTRModel
from repro.likelihood.gamma import discrete_gamma_rates
from repro.likelihood.cat import CATRates, estimate_cat_rates
from repro.likelihood.engine import LikelihoodEngine, RateModel, OpCounter
from repro.likelihood.plan import CLVCache, TraversalPlan, plan_traversal
from repro.likelihood.brlen import optimize_branch_lengths, optimize_edge
from repro.likelihood.model_opt import optimize_model, optimize_alpha, optimize_rates
from repro.likelihood.parsimony import fitch_score, ParsimonyEngine

__all__ = [
    "GTRModel",
    "discrete_gamma_rates",
    "CATRates",
    "estimate_cat_rates",
    "LikelihoodEngine",
    "RateModel",
    "OpCounter",
    "CLVCache",
    "TraversalPlan",
    "plan_traversal",
    "optimize_branch_lengths",
    "optimize_edge",
    "optimize_model",
    "optimize_alpha",
    "optimize_rates",
    "fitch_score",
    "ParsimonyEngine",
]
