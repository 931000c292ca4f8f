"""Tree-search substrate: starting trees, SPR hill climbing, stage searches.

Implements the search pipeline of RAxML's rapid-bootstrap "comprehensive
analysis" (``-f a``; Stamatakis, Hoover & Rougemont 2008), the algorithm
the paper parallelises:

1. N rapid **bootstrap** searches (cheap CAT-based SPR on resampled
   weights, chaining starting trees between replicates);
2. **fast** ML searches on the original alignment, started from every
   fifth bootstrap tree;
3. **slow** ML searches continuing the best fast trees;
4. one **thorough** ML search (GAMMA-based, full optimisation) from the
   best slow tree.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".starting_tree": ("parsimony_starting_tree", "random_starting_tree"),
    ".spr": ("SPRParams", "spr_round"),
    ".hillclimb": ("hill_climb", "SearchResult"),
    ".searches": (
        "StageParams", "bootstrap_replicate_search", "fast_search", "slow_search",
        "thorough_search",
    ),
    ".comprehensive": (
        "ComprehensiveConfig", "ComprehensiveResult", "run_comprehensive", "fast_count",
        "slow_count",
    ),
    ".nni": ("NNIParams", "nni_round", "nni_hill_climb"),
    ".evaluate": ("EvaluationResult", "evaluate_tree"),
})
