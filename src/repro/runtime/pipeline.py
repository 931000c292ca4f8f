"""The stage pipeline: one declarative definition of the comprehensive
analysis.

Each :class:`Stage` names one paper stage and carries its hooks:

* ``run(ctx)`` — compute the stage from ``ctx.state`` (and communicate,
  for stages that own a collective); ``None``: this rank has no share of
  the stage and only keeps its barrier;
* ``load(ctx, data)`` — rebuild the stage's artefacts from a checkpoint
  document instead of running; ``None``: the stage is never restored,
  always run;
* ``payload(ctx)`` — the stage's part of the checkpoint document (what
  ``load`` reads);
* ``fuse(ctx)`` — post-stage share bookkeeping (survivor shares,
  adopted trees).

The :func:`comprehensive_pipeline` below is the *only* place the
setup → bootstrap → fast → slow → thorough → finalize sequence is
defined.  An execution backend (:mod:`repro.runtime.backends`) hands it
— or a copy with some hooks replaced — to the one stage driver, and
replays reuse the same stages with ``ctx.comm is None`` (collectives are
skipped and fuses keep the original share — a replay never
communicates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.bootstop.table import BipartitionTable
from repro.bootstop.wc_test import wc_converged
from repro.mpi.membership import DistributedStateError, RankFailure
from repro.obs.recorder import recording
from repro.search.comprehensive import (
    STAGE_ORDER,
    bootstrap_stage,
    prepare_model_and_rates,
    search_unit,
    select_best,
    select_fast_starts,
)
from repro.search.hillclimb import SearchResult
from repro.search.schedule import make_schedule
from repro.tree.newick import parse_newick, write_newick
from repro.util.rng import RAxMLRandom
from repro.util.timing import VirtualClock
from repro.hybrid.checkpoint import payload_to_results, results_to_payload
from repro.runtime.context import RankContext


@dataclass(frozen=True)
class Stage:
    """One declarative pipeline stage (name, hooks, scheduling facts)."""

    name: str
    run: Callable[[RankContext], None] | None
    load: Callable[[RankContext, dict], None] | None = None
    payload: Callable[[RankContext], dict] | None = None
    fuse: Callable[[RankContext], None] | None = None
    #: The paper's one noteworthy barrier sits after this stage.
    barrier_after: bool = False

    @property
    def is_task(self) -> bool:
        """Whether this is a :data:`STAGE_ORDER` stage: a rank's share of
        search units, which a task-based backend schedules as the pool of
        the same name and the static backend checkpoints per rank.  False
        for ``finalize`` only."""
        return self.name in STAGE_ORDER


class StagePipeline:
    """An ordered, name-unique sequence of stages."""

    def __init__(self, stages) -> None:
        self.stages = tuple(stages)
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")

    def __iter__(self):
        return iter(self.stages)

    @property
    def task_stages(self) -> tuple[Stage, ...]:
        return tuple(s for s in self.stages if s.is_task)


# ---------------------------------------------------------------------------
# Stage hooks
# ---------------------------------------------------------------------------


def _run_setup(ctx: RankContext) -> None:
    ctx.state["setup"] = prepare_model_and_rates(
        ctx.pal, ctx.cfg, ctx.p_rng, ctx.engine_factory, ctx.ops
    )


def _load_setup(ctx: RankContext, data: dict) -> None:
    # Setup artefacts (frequencies, CAT rates, parsimony tree) are cheap
    # deterministic preparation; recomputing them on a throwaway clock
    # avoids serialising models entirely.  p_rng is only forked (never
    # advanced) by setup, so the shadow context's own copy keeps the live
    # and resumed streams identical.  The recorder is masked:
    # throwaway-clock timestamps would corrupt the spliced timeline (the
    # resumed-stage span already covers this window).
    with recording(None):
        shadow = RankContext(ctx.pal, ctx.config, ctx.rank, VirtualClock())
        _run_setup(shadow)
    ctx.state.update(shadow.state)


def _run_bootstrap(ctx: RankContext) -> None:
    if ctx.comm is not None and ctx.config.bootstopping:
        bs_results, wc_trace, shard, all_newicks = _bootstrap_with_bootstopping(ctx)
    else:
        # The standard share: ceil(N/p) replicates from this logical
        # rank's streams.
        sched = make_schedule(ctx.cfg.n_bootstraps, ctx.config.n_processes)
        model, search_rm, _gamma_rm, init_tree = ctx.state["setup"]
        bs_results = bootstrap_stage(
            ctx.pal, model, search_rm, sched.bootstraps_per_process,
            ctx.x_rng, ctx.p_rng, ctx.engine_factory, ctx.ops, ctx.cfg,
            init_tree, on_replicate=ctx.kill_at_replicate,
        )
        wc_trace, shard, all_newicks = [], None, None
    ctx.state.update(
        bs_results=bs_results, wc_trace=wc_trace, shard=shard,
        all_newicks=all_newicks,
    )


def _payload_bootstrap(ctx: RankContext) -> dict:
    return {
        "results": results_to_payload(ctx.state["bs_results"]),
        "wc_trace": [list(t) for t in ctx.state["wc_trace"]],
        "all_newicks": ctx.state["all_newicks"],
        "n_shards": ctx.comm.size,
        # x_rng advanced during the bootstrap stage; the resumed rank
        # restores its stream to exactly the checkpointed state.
        "x_state": ctx.x_rng._state,
    }


def _load_bootstrap(ctx: RankContext, data: dict) -> None:
    results = payload_to_results(data["results"], ctx.pal.taxa)
    ctx.x_rng._state = int(data["x_state"])
    wc_trace = [tuple(t) for t in data["wc_trace"]]
    shard = None
    if data["all_newicks"] is not None:
        shard = BipartitionTable(
            ctx.pal.n_taxa, shard=ctx.rank, n_shards=data["n_shards"]
        )
        shard.add_trees(
            [parse_newick(n, taxa=ctx.pal.taxa) for n in data["all_newicks"]]
        )
    ctx.state.update(
        bs_results=results, wc_trace=wc_trace, shard=shard,
        all_newicks=data["all_newicks"],
    )


def _fuse_bootstrap(ctx: RankContext) -> None:
    """Post-bootstrap shares (Section 2.2): Table 2 counts over the
    surviving world, local trees pooled with adopted replays."""
    comm, config = ctx.comm, ctx.config
    sched = make_schedule(ctx.cfg.n_bootstraps, config.n_processes)
    local_bs_trees = [r.tree for r in ctx.state["bs_results"]]
    if comm is not None and config.bootstopping:
        adopted = ctx.state["adopted"]
        # Bootstopping is convergence-driven, not share-driven: deaths
        # shrink the Table 2 counts over the survivors and the adopted
        # replays join the pool the next rounds draw from.
        survivors = [r for r in comm.alive_ranks() if r < config.n_processes]
        if len(survivors) < config.n_processes:
            dsched = sched.shrink(len(survivors))
            n_fast, n_slow = dsched.fast_per_process, dsched.slow_per_process
        else:
            n_fast, n_slow = sched.fast_per_process, sched.slow_per_process
        pool_trees = local_bs_trees + [
            t for d in sorted(adopted) for t in adopted[d]["bootstrap_trees"]
        ]
        n_fast = max(1, -(-len(pool_trees) // 5))
    else:
        # Fixed-N runs keep every rank's original Table 2 share and seed
        # the fast starts from the rank's *own* replicates only — deaths
        # never re-partition.  A dead rank's share is replayed whole by
        # its adopter (origin-pure streams, on a ``comm``-less context
        # that lands here whatever the mode), so the final candidate set
        # — and hence the selected tree — is bit-identical to a
        # fault-free run no matter when the death happened.
        n_fast, n_slow = sched.fast_per_process, sched.slow_per_process
        pool_trees = local_bs_trees
    ctx.state.update(
        local_bs_trees=local_bs_trees, pool_trees=pool_trees,
        n_fast_share=n_fast, n_slow_share=n_slow,
    )


def _run_units(ctx: RankContext, kind: str, starts) -> list[SearchResult]:
    """One :func:`search_unit` per start tree, on this logical rank's
    streams and the executing rank's engines."""
    return [
        search_unit(
            kind, i, start, ctx.state["setup"], ctx.pal, ctx.p_rng,
            ctx.engine_factory, ctx.ops, ctx.cfg,
        )[0]
        for i, start in enumerate(starts)
    ]


def _run_fast(ctx: RankContext) -> None:
    pool_trees = ctx.state["pool_trees"]
    starts = select_fast_starts(
        pool_trees, min(ctx.state["n_fast_share"], len(pool_trees))
    )
    ctx.state["fast_results"] = _run_units(ctx, "fast", starts)


def _run_slow(ctx: RankContext) -> None:
    fast_results = ctx.state["fast_results"]
    best = select_best(
        fast_results, min(ctx.state["n_slow_share"], len(fast_results))
    )
    ctx.state["slow_results"] = _run_units(ctx, "slow", [r.tree for r in best])


def _run_thorough(ctx: RankContext) -> None:
    best_slow = select_best(ctx.state["slow_results"], 1)[0]
    [ctx.state["thorough"]] = _run_units(ctx, "thorough", [best_slow.tree])


def _payload_results(key: str, ctx: RankContext) -> dict:
    return {"results": results_to_payload(ctx.state[key])}


def _load_results(key: str, ctx: RankContext, data: dict) -> None:
    ctx.state[key] = payload_to_results(data["results"], ctx.pal.taxa)


def _payload_thorough(ctx: RankContext) -> dict:
    return {"results": results_to_payload([ctx.state["thorough"]])}


def _load_thorough(ctx: RankContext, data: dict) -> None:
    [ctx.state["thorough"]] = payload_to_results(data["results"], ctx.pal.taxa)


def _run_finalize(ctx: RankContext) -> None:
    """Final selection: gather scores, broadcast the winner.

    Scores are rounded to 1e-6 for the argmax (ties break to the lowest
    logical rank) so the winner is independent of thread-count float
    noise.  Each physical rank also submits entries for the dead ranks
    it adopted; a death here triggers recovery and a retry.
    """
    comm, rank = ctx.comm, ctx.rank
    thorough = ctx.state["thorough"]
    adopted = ctx.state["adopted"]
    local_newick = write_newick(thorough.tree)
    while True:
        entries = [(round(thorough.lnl, 6), -rank, thorough.lnl)]
        for d in sorted(adopted):
            replayed = adopted[d]["thorough"]
            entries.append((round(replayed.lnl, 6), -d, replayed.lnl))
        try:
            boards = comm.allgather(entries)
            flat = [
                (tuple(entry), carrier)
                for carrier, lst in enumerate(boards)
                if lst is not None
                for entry in lst
            ]
            (_, neg_rank, winner_lnl), carrier = max(flat)
            winner_rank = -neg_rank
            if comm.rank == carrier:
                win_newick = (
                    local_newick if winner_rank == rank
                    else write_newick(adopted[winner_rank]["thorough"].tree)
                )
            else:
                win_newick = None
            best_newick = comm.bcast(win_newick, root=carrier)
            break
        except RankFailure:
            ctx.recover("thorough")
    ctx.state.update(
        local_newick=local_newick, winner_rank=winner_rank,
        winner_lnl=winner_lnl, best_newick=best_newick,
    )


def comprehensive_pipeline() -> StagePipeline:
    """The paper's comprehensive analysis — the one and only definition."""
    return _PIPELINE


_PIPELINE = StagePipeline((
    Stage("setup", run=_run_setup, load=_load_setup),
    Stage("bootstrap", run=_run_bootstrap, load=_load_bootstrap,
          payload=_payload_bootstrap, fuse=_fuse_bootstrap, barrier_after=True),
    Stage("fast", run=_run_fast, load=partial(_load_results, "fast_results"),
          payload=partial(_payload_results, "fast_results")),
    Stage("slow", run=_run_slow, load=partial(_load_results, "slow_results"),
          payload=partial(_payload_results, "slow_results")),
    Stage("thorough", run=_run_thorough, load=_load_thorough,
          payload=_payload_thorough),
    Stage("finalize", run=_run_finalize),
))


# ---------------------------------------------------------------------------
# Bootstopping (the round-synchronised bootstrap variant)
# ---------------------------------------------------------------------------


def _bootstrap_with_bootstopping(ctx: RankContext):
    """Bootstraps in rounds with a cross-rank WC convergence test.

    Every round each rank runs ``bootstop_step / p`` (at least 1)
    replicates; trees are allgathered (as Newick); each rank keeps its
    *shard* of the global bipartition hash table (the paper's "framework
    for parallel operations on hash tables") and every rank runs the WC
    test on the identical global set (identical seeds → identical
    decision, no extra broadcast needed).  The loop stops on convergence
    or at the cap.  A rank death mid-loop shrinks the per-round share;
    replicates the dead rank already shared stay in the global set.
    """
    comm, config, cfg, pal = ctx.comm, ctx.config, ctx.cfg, ctx.pal
    cap = config.bootstop_max or cfg.n_bootstraps * 4
    per_round = max(1, config.bootstop_step // len(comm.alive_ranks()))
    results = []
    all_trees: list = []
    all_newicks: list[str] = []
    trace: list[tuple[int, float]] = []
    # This rank's shard of the distributed bipartition table: it owns the
    # splits whose hash maps to its rank, over *all* replicates seen.
    shard = BipartitionTable(pal.n_taxa, shard=comm.rank, n_shards=comm.size)
    wc_rng = RAxMLRandom(cfg.seed_x + 777)  # identical on every rank
    model, search_rm, _gamma_rm, current_init = ctx.state["setup"]
    round_no = 0
    while True:
        chunk = bootstrap_stage(
            pal, model, search_rm, per_round, ctx.x_rng, ctx.p_rng,
            ctx.engine_factory, ctx.ops, cfg, current_init,
            on_replicate=ctx.kill_at_replicate,
        )
        round_no += 1
        results.extend(chunk)
        current_init = chunk[-1].tree
        local_newicks = [write_newick(r.tree) for r in chunk]
        while True:
            try:
                gathered = comm.allgather(local_newicks)
                break
            except RankFailure:
                per_round = max(1, config.bootstop_step // len(comm.alive_ranks()))
        round_trees = [
            parse_newick(n, taxa=pal.taxa)
            for rank_list in gathered
            if rank_list is not None
            for n in rank_list
        ]
        all_newicks.extend(
            n for rank_list in gathered if rank_list is not None for n in rank_list
        )
        all_trees.extend(round_trees)
        shard.add_trees(round_trees)
        total = len(all_trees)
        if total >= 4 and total % 2 == 0:
            ok, stat = wc_converged(all_trees, RAxMLRandom(wc_rng.seed + round_no))
            trace.append((total, stat))
            if ok or total >= cap:
                break
        elif total >= cap:
            break
    # Sanity of the distributed table: each shard saw every tree.  A real
    # exception, not an assert — this invariant must hold under python -O.
    if shard.n_trees != len(all_trees):
        raise DistributedStateError(
            f"rank {comm.rank}: bipartition-table shard counted "
            f"{shard.n_trees} trees but {len(all_trees)} were gathered — "
            "replicated state diverged across ranks"
        )
    return results, trace, shard, all_newicks
