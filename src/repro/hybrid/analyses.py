"""The paper's other two coarse-grained analysis types.

Besides the comprehensive analysis, the Introduction lists two analyses
that the hybrid code accelerates, both with "essentially constant
parallelism throughout, apart from minor load imbalances":

1. **Multiple maximum-likelihood searches** on the same data set from
   different starting trees ("typically 10 or more such searches might be
   made to find a near-optimal ML solution");
2. **Multiple (standard) bootstrap searches** — full ML searches on
   resampled data sets (RAxML's ``-b`` seed), typically 100 or more.

Each rank receives ``ceil(N/p)`` units of work, evaluates through the
virtual thread pool, and the results are combined with a single gather —
the same minimal-communication structure as the comprehensive driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.bootstop.table import BipartitionTable
from repro.likelihood.engine import LikelihoodEngine, OpCounter, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.model_opt import empirical_frequencies
from repro.mpi.comm import SimComm
from repro.mpi.launcher import run_spmd
from repro.perfmodel.finegrain import MachineRegionTiming
from repro.perfmodel.machines import machine_by_name
from repro.search.searches import StageParams, slow_search
from repro.search.starting_tree import parsimony_starting_tree, random_starting_tree
from repro.seq.bootstrap import bootstrap_pattern_weights
from repro.seq.patterns import PatternAlignment
from repro.threads.pool import VirtualThreadPool
from repro.tree.newick import parse_newick, write_newick
from repro.tree.topology import Tree
from repro.util.rng import RAxMLRandom, rank_seed, spawn_stream
from repro.util.validation import check_min, check_positive


@dataclass(frozen=True)
class MultiSearchConfig:
    """Inputs shared by the multiple-search analyses."""

    n_searches: int = 10
    seed_p: int = 12345
    seed_b: int = 12345  # standard-bootstrap seed (RAxML -b)
    gamma_categories: int = 4
    random_starts: bool = False  # False: randomised parsimony starts
    stage_params: StageParams = field(default_factory=StageParams)

    def __post_init__(self) -> None:
        check_min("n_searches", self.n_searches, 1)
        check_positive("seed_p (RAxML -p)", self.seed_p)
        check_positive("seed_b (RAxML -b)", self.seed_b)


@dataclass
class MultiSearchResult:
    """Outcome of a multiple-ML-search or standard-bootstrap analysis."""

    trees: list[Tree]
    lnls: list[float]
    best_tree: Tree
    best_lnl: float
    per_rank_counts: list[int]
    total_seconds: float
    stage_seconds_per_rank: list[float]
    support_table: BipartitionTable | None = None


def searches_per_rank(n_searches: int, n_processes: int) -> int:
    """Each rank runs ``ceil(N/p)`` searches (constant parallelism)."""
    check_min("n_processes", n_processes, 1)
    return math.ceil(n_searches / n_processes)


def _make_rank_engine_factory(machine_name, n_threads, comm, spu):
    machine = machine_by_name(machine_name)
    pool = VirtualThreadPool(
        n_threads, MachineRegionTiming(machine, spu), clock=comm.clock
    )

    def factory(pal, model, rate_model, weights, ops):
        return LikelihoodEngine(
            pal, model, rate_model, weights=weights, ops=ops, pool=pool
        )

    return factory


def _collect(comm: SimComm, local: list[tuple[str, float]], t0: float):
    """Gather all (newick, lnl) pairs and the per-rank stage times."""
    gathered = comm.allgather(local)
    elapsed = comm.clock.now - t0
    times = comm.allgather(elapsed)
    finish = comm.allgather(comm.clock.now)
    return gathered, times, max(finish)


def _run_searches(
    pal: PatternAlignment,
    config: MultiSearchConfig,
    n_processes: int,
    n_threads: int,
    machine: str,
    seconds_per_pattern_unit: float,
    recipe,
) -> MultiSearchResult:
    """The SPMD body and result fold both analyses share.

    Rank ``r`` seeds its streams with ``seed + 10000·r`` and runs
    ``ceil(N/p)`` slow-search-effort ML searches under GTRGAMMA.
    ``recipe(k, p_rng, b_rng)`` is what differs per analysis: it returns
    search ``k``'s ``(pattern weights or None, starting tree, search
    stream)``.
    """
    mach = machine_by_name(machine)
    if n_threads > mach.cores_per_node:
        raise ValueError(f"{mach.name} supports at most {mach.cores_per_node} threads")

    def rank_main(comm: SimComm):
        p_rng = RAxMLRandom(rank_seed(config.seed_p, comm.rank))
        b_rng = RAxMLRandom(rank_seed(config.seed_b, comm.rank))
        factory = _make_rank_engine_factory(
            machine, n_threads, comm, seconds_per_pattern_unit
        )
        ops = OpCounter()
        gamma_rm = RateModel.gamma(1.0, config.gamma_categories)
        model = GTRModel.default()
        probe = factory(pal, model, gamma_rm, None, ops)
        model = model.with_freqs(empirical_frequencies(probe))

        t0 = comm.clock.now
        local: list[tuple[str, float]] = []
        for k in range(searches_per_rank(config.n_searches, comm.size)):
            weights, start, search_rng = recipe(k, p_rng, b_rng)
            engine = factory(pal, model, gamma_rm, weights, ops)
            res = slow_search(engine, start, search_rng, config.stage_params)
            local.append((write_newick(res.tree), res.lnl))
        return _collect(comm, local, t0)

    gathered, times, finish = run_spmd(rank_main, n_processes, world="process")[0]
    flat = [item for rank_list in gathered for item in rank_list]
    trees = [parse_newick(nwk, taxa=pal.taxa) for nwk, _ in flat]
    lnls = [lnl for _, lnl in flat]
    best_idx = max(range(len(lnls)), key=lambda i: (round(lnls[i], 6), -i))
    return MultiSearchResult(
        trees=trees,
        lnls=lnls,
        best_tree=trees[best_idx],
        best_lnl=lnls[best_idx],
        per_rank_counts=[len(r) for r in gathered],
        total_seconds=finish,
        stage_seconds_per_rank=times,
    )


def run_multiple_ml_searches(
    pal: PatternAlignment,
    config: MultiSearchConfig,
    n_processes: int = 1,
    n_threads: int = 1,
    machine: str = "dash",
    seconds_per_pattern_unit: float = 1e-7,
) -> MultiSearchResult:
    """Analysis type 1: N ML searches from different starting trees.

    Every search runs on the original alignment from its own randomised
    parsimony (or random) starting tree; the best tree over all searches
    is the analysis result.
    """
    make_start = (
        random_starting_tree if config.random_starts else parsimony_starting_tree
    )

    def recipe(k, p_rng, b_rng):
        start = make_start(pal, spawn_stream(p_rng, 100 + k))
        return None, start, spawn_stream(p_rng, 200 + k)

    return _run_searches(
        pal, config, n_processes, n_threads, machine, seconds_per_pattern_unit,
        recipe,
    )


def run_standard_bootstrap(
    pal: PatternAlignment,
    config: MultiSearchConfig,
    n_processes: int = 1,
    n_threads: int = 1,
    machine: str = "dash",
    seconds_per_pattern_unit: float = 1e-7,
) -> MultiSearchResult:
    """Analysis type 2: N standard bootstrap searches (RAxML ``-b``).

    Unlike the *rapid* bootstraps of the comprehensive analysis, each
    replicate here is a full ML search on the resampled data set, starting
    from a fresh parsimony tree built on the replicate's weights.  The
    result carries a merged bipartition support table.
    """
    def recipe(k, p_rng, b_rng):
        weights = bootstrap_pattern_weights(pal, b_rng)
        start = parsimony_starting_tree(
            pal, spawn_stream(p_rng, 300 + k), weights=weights
        )
        return weights, start, spawn_stream(p_rng, 400 + k)

    result = _run_searches(
        pal, config, n_processes, n_threads, machine, seconds_per_pattern_unit,
        recipe,
    )
    result.support_table = BipartitionTable(pal.n_taxa)
    result.support_table.add_trees(result.trees)
    return result
