"""The serial comprehensive analysis (RAxML ``-f a``).

    "The comprehensive analysis consists of four main stages: 100
    bootstrap searches, followed by 20 fast ML searches, 10 slow ML
    searches, and one final thorough ML search ... The latter three
    stages comprise the full ML search."  — paper, Section 2

The work units (:func:`bootstrap_replicate`, :func:`search_unit`) are
shared with the hybrid runtime (:mod:`repro.runtime`, :mod:`repro.sched`),
which runs them the per-rank Table 2 number of times instead of the
serial counts used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from repro.likelihood.cat import estimate_cat_rates
from repro.likelihood.engine import (
    LikelihoodEngine,
    OpCounter,
    RateModel,
    subset_rate_model,
)
from repro.likelihood.gtr import GTRModel
from repro.likelihood.model_opt import empirical_frequencies
from repro.seq.bootstrap import bootstrap_pattern_weights
from repro.seq.patterns import PatternAlignment
from repro.search import searches
from repro.search.hillclimb import SearchResult
from repro.search.searches import StageParams, bootstrap_replicate_search
from repro.search.starting_tree import parsimony_starting_tree
from repro.util.validation import check_min, check_positive
from repro.tree.topology import Tree
from repro.util.rng import RAxMLRandom, spawn_stream

#: Hard-coded comprehensive-analysis parameters (paper Section 2.3: "how
#: many fast and slow searches are carried out [is] based on hard-coded
#: parameters").
FAST_FRACTION = 5  # one fast search per 5 bootstraps
SLOW_FRACTION = 2  # one slow search per 2 fast searches
MAX_SLOW = 10  # at most 10 slow searches

#: The stages in pipeline order: the task kinds of :mod:`repro.sched.tasks`
#: and the per-rank checkpoints of :mod:`repro.hybrid.checkpoint`.
STAGE_ORDER = ("setup", "bootstrap", "fast", "slow", "thorough")

#: ``spawn_stream`` label bases of the per-rank ``-p`` stream (0 is the
#: setup parsimony tree); :mod:`repro.sched.tasks` derives task streams
#: from the same table.
LABEL_REFRESH = 1000  # + b: parsimony refresh before replicate b
LABEL_REPLICATE = 2000  # + b: bootstrap replicate search
LABEL_FAST = 3000  # + i: fast search i
LABEL_SLOW = 4000  # + i: slow search i
LABEL_THOROUGH = 5000  # the final thorough search

#: Stage -> label base of its units' search streams (unit ``i`` of a stage
#: forks ``spawn_stream(p_rng, STAGE_LABEL[stage] + i)``).
STAGE_LABEL = dict(zip(
    STAGE_ORDER, (0, LABEL_REPLICATE, LABEL_FAST, LABEL_SLOW, LABEL_THOROUGH)
))

EngineFactory = Callable[..., object]


def default_engine_factory(pal, model, rate_model, weights, ops):
    """Build a plain serial :class:`LikelihoodEngine`."""
    return LikelihoodEngine(pal, model, rate_model, weights=weights, ops=ops)


def fast_count(n_bootstraps: int) -> int:
    """Number of fast ML searches for ``n_bootstraps`` (ceil(N/5))."""
    if n_bootstraps < 1:
        raise ValueError("n_bootstraps must be >= 1")
    return math.ceil(n_bootstraps / FAST_FRACTION)


def slow_count(n_fast: int, cap: int = MAX_SLOW) -> int:
    """Number of slow ML searches: ceil(fast/2) capped at 10."""
    if n_fast < 1:
        raise ValueError("n_fast must be >= 1")
    return min(math.ceil(n_fast / SLOW_FRACTION), cap)


@dataclass(frozen=True)
class ComprehensiveConfig:
    """Inputs of a comprehensive analysis (mirrors the RAxML command line
    ``-m GTRCAT -N <n> -p <seed> -x <seed> -f a``)."""

    n_bootstraps: int = 100
    seed_p: int = 12345  # -p: search randomness
    seed_x: int = 12345  # -x: rapid-bootstrap randomness
    gamma_categories: int = 4
    cat_categories: int = 8
    use_cat: bool = True
    parsimony_refresh_every: int = 10  # fresh parsimony start every k replicates
    #: Drop zero-weight patterns from bootstrap-replicate engines (RAxML's
    #: optimisation: a replicate only touches ~63 % of the patterns).
    compress_bootstrap_patterns: bool = True
    stage_params: StageParams = field(default_factory=StageParams)

    #: Fields that enter the checkpoint fingerprint (every one of these
    #: changes the run's results or timings; see
    #: :func:`repro.hybrid.checkpoint.fingerprint_doc`).
    fingerprint_fields: ClassVar[tuple[str, ...]] = (
        "n_bootstraps", "seed_p", "seed_x", "gamma_categories",
        "cat_categories", "use_cat", "parsimony_refresh_every",
        "compress_bootstrap_patterns", "stage_params",
    )

    def __post_init__(self) -> None:
        check_min("n_bootstraps", self.n_bootstraps, 1)
        check_positive("seed_p (RAxML -p)", self.seed_p)
        check_positive("seed_x (RAxML -x)", self.seed_x)
        check_min("parsimony_refresh_every", self.parsimony_refresh_every, 1)


@dataclass
class ComprehensiveResult:
    """Everything a comprehensive run produces."""

    best_tree: Tree
    best_lnl: float  # final GAMMA log-likelihood
    bootstrap_trees: list[Tree]
    fast_results: list[SearchResult]
    slow_results: list[SearchResult]
    thorough_result: SearchResult
    model: GTRModel
    stage_ops: dict[str, int]
    n_bootstraps_done: int


# ---------------------------------------------------------------------------
# Work units (shared with the hybrid runtime)
# ---------------------------------------------------------------------------


def prepare_model_and_rates(
    pal: PatternAlignment,
    config: ComprehensiveConfig,
    p_rng: RAxMLRandom,
    engine_factory: EngineFactory,
    ops: OpCounter,
) -> tuple[GTRModel, RateModel, RateModel, Tree]:
    """Initial model setup: empirical frequencies, CAT estimation.

    Returns ``(model, search_rate_model, gamma_rate_model, initial_tree)``.
    The initial parsimony tree doubles as the CAT-estimation tree and the
    fallback starting topology.
    """
    gamma_rm = RateModel.gamma(1.0, config.gamma_categories)
    model = GTRModel.default()
    probe = engine_factory(pal, model, gamma_rm, None, ops)
    model = model.with_freqs(empirical_frequencies(probe))
    init_tree = parsimony_starting_tree(pal, spawn_stream(p_rng, 0))
    if config.use_cat:
        probe = engine_factory(pal, model, gamma_rm, None, ops)
        cat = estimate_cat_rates(probe, init_tree, config.cat_categories)
        search_rm = cat.rate_model()
    else:
        search_rm = gamma_rm
    return model, search_rm, gamma_rm, init_tree


def bootstrap_replicate(
    pal: PatternAlignment,
    model: GTRModel,
    rate_model: RateModel,
    b: int,
    x_rng: RAxMLRandom,
    p_rng: RAxMLRandom,
    engine_factory: EngineFactory,
    ops: OpCounter,
    config: ComprehensiveConfig,
    prev_tree: Tree,
) -> SearchResult:
    """Rapid-bootstrap replicate ``b`` of one rank's share.

    The weights are the next draw of ``x_rng`` (the paper's per-rank
    ``-x`` stream, positioned at the replicate's start); the search
    starts from ``prev_tree`` (the previous replicate's tree, or the
    rank's initial tree), refreshed with a new parsimony tree on the
    replicate's own weights every ``config.parsimony_refresh_every``
    replicates.
    """
    weights = bootstrap_pattern_weights(pal, x_rng)
    if config.compress_bootstrap_patterns:
        # Replicates draw ~63 % of the patterns; dropping the rest is
        # exact (zero weight = zero contribution) and saves kernel work.
        active = np.flatnonzero(weights > 0)
        sub_pal = PatternAlignment(
            pal.taxa,
            pal.patterns[:, active],
            weights[active],
            np.empty(0, dtype=np.intp),
        )
        engine = engine_factory(
            sub_pal,
            model,
            subset_rate_model(rate_model, active),
            weights[active].astype(np.float64),
            ops,
        )
    else:
        engine = engine_factory(pal, model, rate_model, weights, ops)
    if b % config.parsimony_refresh_every == 0 and b > 0:
        prev_tree = parsimony_starting_tree(
            pal, spawn_stream(p_rng, LABEL_REFRESH + b), weights=weights
        )
    return bootstrap_replicate_search(
        engine, prev_tree, spawn_stream(p_rng, LABEL_REPLICATE + b),
        config.stage_params,
    )


def bootstrap_stage(
    pal: PatternAlignment,
    model: GTRModel,
    rate_model: RateModel,
    n_replicates: int,
    x_rng: RAxMLRandom,
    p_rng: RAxMLRandom,
    engine_factory: EngineFactory,
    ops: OpCounter,
    config: ComprehensiveConfig,
    init_tree: Tree,
    on_replicate: Callable[[int], None] | None = None,
) -> list[SearchResult]:
    """Run ``n_replicates`` rapid-bootstrap searches, each chained from
    the one before (:func:`bootstrap_replicate`).

    ``on_replicate`` is called with the local replicate index before
    each replicate (the hybrid driver's fault-injection point).
    """
    results: list[SearchResult] = []
    current_start = init_tree
    for b in range(n_replicates):
        if on_replicate is not None:
            on_replicate(b)
        res = bootstrap_replicate(
            pal, model, rate_model, b, x_rng, p_rng, engine_factory, ops,
            config, current_start,
        )
        results.append(res)
        current_start = res.tree
    return results


def search_unit(
    kind: str,
    index: int,
    start_tree: Tree,
    setup: tuple[GTRModel, RateModel, RateModel, Tree],
    pal: PatternAlignment,
    p_rng: RAxMLRandom,
    engine_factory: EngineFactory,
    ops: OpCounter,
    config: ComprehensiveConfig,
) -> tuple[SearchResult, GTRModel]:
    """The ``index``-th ``kind`` (fast / slow / thorough) ML search of one
    rank's share, on the original alignment from ``start_tree``.

    ``setup`` is what :func:`prepare_model_and_rates` returned: the
    thorough search runs under GAMMA, fast and slow searches under the
    search rate model.  Every unit builds its own engine, so its op
    charge does not depend on which other units ran before it or on
    which rank runs it.  Returns the result and the model the search
    ended on (re-optimised by the thorough search, ``setup``'s otherwise).
    """
    model, search_rm, gamma_rm, _init_tree = setup
    # Looked up on the module at call time, so whatever is installed
    # there (a tracing wrapper) is what runs.  The engine is handed over,
    # not bound here: the thorough search replaces it after model
    # optimisation, and a name here would keep it and its CLV cache alive
    # through the hill climb.
    out = getattr(searches, f"{kind}_search")(
        engine_factory(pal, model, gamma_rm if kind == "thorough" else search_rm, None, ops),
        start_tree, spawn_stream(p_rng, STAGE_LABEL[kind] + index),
        config.stage_params,
    )
    if kind == "thorough":
        result, engine = out
        return result, engine.model
    return out, model


def fast_start_index(i: int, n_bootstraps: int) -> int:
    """Fast search ``i`` starts from every ``FAST_FRACTION``-th of the
    ``n_bootstraps`` bootstrap trees (wrapping around)."""
    return (i * FAST_FRACTION) % n_bootstraps


def select_fast_starts(bootstrap_trees: list[Tree], n_fast: int) -> list[Tree]:
    """Every ``FAST_FRACTION``-th bootstrap tree seeds a fast search."""
    if n_fast > len(bootstrap_trees):
        raise ValueError("cannot select more fast starts than bootstrap trees")
    n = len(bootstrap_trees)
    return [bootstrap_trees[fast_start_index(i, n)] for i in range(n_fast)]


def select_best(results: list[SearchResult], k: int) -> list[SearchResult]:
    """The ``k`` best results by log-likelihood (descending, stable).

    Likelihoods are rounded to 1e-6 before comparison so that the ordering
    (and therefore which trees continue to the next stage) is independent
    of thread-count-induced floating-point noise.
    """
    if k > len(results):
        raise ValueError("cannot select more results than available")
    return sorted(results, key=lambda r: -round(r.lnl, 6))[:k]


# ---------------------------------------------------------------------------
# The serial pipeline
# ---------------------------------------------------------------------------


def run_comprehensive(
    pal: PatternAlignment,
    config: ComprehensiveConfig = ComprehensiveConfig(),
    engine_factory: EngineFactory = default_engine_factory,
    ops: OpCounter | None = None,
) -> ComprehensiveResult:
    """Serial comprehensive analysis (the non-MPI reference algorithm).

    The non-MPI code sorts *all* fast searches at once and continues with
    exactly one thorough search from the single best slow tree (paper
    Sections 2.1–2.2), which is what this function implements.
    """
    ops = ops if ops is not None else OpCounter()
    stage_ops: dict[str, int] = {}
    p_rng = RAxMLRandom(config.seed_p)
    x_rng = RAxMLRandom(config.seed_x)

    setup = prepare_model_and_rates(pal, config, p_rng, engine_factory, ops)
    model, search_rm, _gamma_rm, init_tree = setup
    mark = ops.pattern_ops
    stage_ops["setup"] = mark

    bs_results = bootstrap_stage(
        pal, model, search_rm, config.n_bootstraps, x_rng, p_rng,
        engine_factory, ops, config, init_tree,
    )
    stage_ops["bootstrap"] = ops.pattern_ops - mark
    mark = ops.pattern_ops

    def unit(kind: str, i: int, start: Tree) -> tuple[SearchResult, GTRModel]:
        return search_unit(
            kind, i, start, setup, pal, p_rng, engine_factory, ops, config
        )

    bootstrap_trees = [r.tree for r in bs_results]
    n_fast = fast_count(config.n_bootstraps)
    fast_results = [
        unit("fast", i, t)[0]
        for i, t in enumerate(select_fast_starts(bootstrap_trees, n_fast))
    ]
    stage_ops["fast"] = ops.pattern_ops - mark
    mark = ops.pattern_ops

    n_slow = slow_count(n_fast)
    slow_results = [
        unit("slow", i, r.tree)[0]
        for i, r in enumerate(select_best(fast_results, n_slow))
    ]
    stage_ops["slow"] = ops.pattern_ops - mark
    mark = ops.pattern_ops

    best_slow = select_best(slow_results, 1)[0]
    thorough, final_model = unit("thorough", 0, best_slow.tree)
    stage_ops["thorough"] = ops.pattern_ops - mark

    return ComprehensiveResult(
        best_tree=thorough.tree,
        best_lnl=thorough.lnl,
        bootstrap_trees=bootstrap_trees,
        fast_results=fast_results,
        slow_results=slow_results,
        thorough_result=thorough,
        model=final_model,
        stage_ops=stage_ops,
        n_bootstraps_done=config.n_bootstraps,
    )
