"""Likelihood substrate: GTR models, rate heterogeneity, pruning kernels.

This package is the Python equivalent of RAxML's likelihood core:

* :mod:`repro.likelihood.gtr` — the general time-reversible substitution
  model with its spectral decomposition and P(t) matrices;
* :mod:`repro.likelihood.gamma` — discrete-Γ rate heterogeneity (GTRGAMMA);
* :mod:`repro.likelihood.cat` — per-site rate categories (GTRCAT);
* :mod:`repro.likelihood.plan` — traversal planning: subtree signatures,
  dependency levels (RAxML's traversal descriptors) and the CLV cache the
  engine's executor consults;
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

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".gtr": ("GTRModel",),
    ".gamma": ("discrete_gamma_rates",),
    ".cat": ("CATRates", "estimate_cat_rates"),
    ".engine": ("LikelihoodEngine", "RateModel", "OpCounter"),
    ".plan": ("CLVCache", "TraversalPlan", "plan_traversal"),
    ".brlen": ("optimize_branch_lengths", "optimize_edge"),
    ".model_opt": ("optimize_model", "optimize_alpha", "optimize_rates"),
    ".parsimony": ("fitch_score", "ParsimonyEngine"),
})
