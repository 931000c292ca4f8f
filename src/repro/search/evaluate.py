"""Tree evaluation under a fixed topology (RAxML's ``-f e``).

Optimises model parameters and branch lengths for a user-supplied tree
without changing its topology — the standard way to score competing
hypotheses, and the final GAMMA evaluation step the comprehensive
analysis applies to its thorough-search result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.likelihood.brlen import optimize_branch_lengths
from repro.likelihood.engine import LikelihoodEngine, OpCounter, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.model_opt import optimize_model
from repro.seq.patterns import PatternAlignment
from repro.tree.topology import Tree


@dataclass
class EvaluationResult:
    """Outcome of a fixed-topology evaluation."""

    tree: Tree  # topology as given, branch lengths optimised
    lnl: float
    model: GTRModel
    alpha: float | None
    p_invariant: float = 0.0


def evaluate_tree(
    pal: PatternAlignment,
    tree: Tree,
    gamma_categories: int = 4,
    model_rounds: int = 2,
    brlen_passes: int = 6,
    plus_invariant: bool = False,
    engine_factory=None,
    ops: OpCounter | None = None,
    clv_cache: bool = False,
) -> EvaluationResult:
    """Score ``tree`` under GTR+Γ (optionally GTR+I+Γ) with full parameter
    optimisation.

    Alternates model optimisation and branch-length smoothing (RAxML's
    evaluation loop).  The input tree is not modified.
    ``plus_invariant`` adds the proportion-of-invariant-sites parameter
    to the optimisation (RAxML's ``GTRGAMMAI``).  ``clv_cache`` enables
    signature-keyed CLV reuse; it is ignored when a custom
    ``engine_factory`` is given (the factory owns engine construction).
    """
    if tree.taxa != pal.taxa:
        raise ValueError("tree and alignment taxon sets differ")
    work = tree.copy()
    ops = ops if ops is not None else OpCounter()
    rm = RateModel.gamma(1.0, gamma_categories)
    if engine_factory is None:
        engine = LikelihoodEngine(
            pal, GTRModel.default(), rm, ops=ops, clv_cache=clv_cache
        )
    else:
        engine = engine_factory(pal, GTRModel.default(), rm, None, ops)

    lnl = optimize_branch_lengths(engine, work, passes=brlen_passes)
    for _ in range(model_rounds):
        engine, _ = optimize_model(
            engine, work, rounds=1, optimize_invariant=plus_invariant
        )
        new_lnl = optimize_branch_lengths(engine, work, passes=brlen_passes)
        if new_lnl - lnl < 0.01:
            lnl = new_lnl
            break
        lnl = new_lnl
    return EvaluationResult(
        tree=work,
        lnl=lnl,
        model=engine.model,
        alpha=engine.rate_model.alpha,
        p_invariant=engine.rate_model.p_invariant,
    )
