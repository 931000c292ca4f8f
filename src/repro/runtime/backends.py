"""Execution backends: a pipeline handed to the one stage driver.

An :class:`ExecutionBackend` builds a rank's context and hands
:func:`~repro.runtime.pipeline.comprehensive_pipeline` — as is, or with
some stage hooks replaced — to :func:`_exec_stage`, the only place a
stage boundary is sequenced.  Two implementations exist — the paper's
static Table 2 partition and the work-stealing task scheduler
(:mod:`repro.sched`) — and ``--schedule`` selects one from the registry.
Adding a backend is one new class (see ``docs/ARCHITECTURE.md`` §10):
register it, supply the hooks, and the determinism discipline (every
stage unit derives its streams from its origin identity) guarantees
bit-identical results.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import partial
from typing import Protocol

from repro.mpi.comm import CommTiming
from repro.mpi.membership import RankFailure
from repro.obs.recorder import Recorder, current as _obs_current, recording
from repro.search.schedule import make_schedule
from repro.tree.newick import write_newick
from repro.sched.placement import initial_assignment
from repro.sched.queue import StealBoard
from repro.sched.stealing import run_rank_pool
from repro.sched.tasks import build_dag, execute_task
from repro.runtime.context import RankContext
from repro.runtime.middleware import (
    CheckpointMiddleware,
    RecoveryMiddleware,
    export_rank_observability,
    negotiate_resume,
    open_journal_store,
    open_store,
)
from repro.runtime.pipeline import Stage, comprehensive_pipeline


class ExecutionBackend(Protocol):
    """One way of executing the stage pipeline on a rank."""

    #: Registry key; the value of ``HybridConfig.schedule``.
    name: str
    #: Whether the round-synchronised bootstopping variant can run.
    supports_bootstopping: bool

    @staticmethod
    def make_shared(config):
        """Shared cross-rank state created once per run (e.g. a steal
        board), passed to every rank's :meth:`run`.  None if unneeded."""

    def run(self, comm, pal, config, board) -> dict:
        """Execute the pipeline for ``comm.rank``; returns the rank report."""


BACKENDS: dict[str, type] = {}


def register_backend(cls):
    BACKENDS[cls.name] = cls
    return cls


def available_schedules() -> tuple[str, ...]:
    return tuple(BACKENDS)


def backend_for(schedule: str) -> ExecutionBackend:
    return BACKENDS[schedule]()


def run_rank(comm, pal, config, board=None) -> dict:
    """The SPMD body: install this rank's recorder, then run the backend.

    One :class:`~repro.obs.recorder.Recorder` per rank, on the rank's own
    virtual clock, installed thread-locally so every instrumented layer
    (pool, engine, search, collectives, stage boundaries) finds it via
    ``obs.current()``.  With both collect flags off no recorder exists
    and instrumentation reduces to a thread-local read per call site.
    """
    rec = None
    if config.collect_trace or config.collect_metrics:
        rec = Recorder(
            comm.rank, comm.clock, n_threads=config.n_threads,
            record_events=config.collect_trace,
        )
    with recording(rec):
        out = backend_for(config.schedule).run(comm, pal, config, board)
    export_rank_observability(rec, out, config.collect_trace)
    return out


def _until_agreed(collective, on_failure):
    """Run ``collective`` until it completes over the surviving membership.

    A :class:`RankFailure` means a peer died in the exchange.  Every
    survivor sees it with the same frozen death set, handles it the same
    way — ``on_failure``, the context's ``recover`` — and re-enters, so
    the survivors leave in lockstep.
    """
    while True:
        try:
            return collective()
        except RankFailure:
            on_failure()


def _exec_stage(ctx: RankContext, stage: Stage) -> None:
    """The stage boundary — for both backends, live ranks and replays
    alike: kill hook, restore-or-run, the paper's barrier (with its
    recovery retry) inside the stage window, accounting, persist, fuse.

    It branches on what the context and the stage carry — no
    communicator (a replay), no ``run`` hook (no share of this stage),
    no ``load`` hook (never restored) — never on which backend built
    them.
    """
    comm, name = ctx.comm, stage.name
    ctx.current_stage = name

    def recover():
        ctx.recover(name)

    ctx.kill_at_stage(name)
    # A restored stage's barrier already happened in the checkpointed
    # timeline (its cost is inside the restored clock); every rank
    # resumes past it symmetrically (the restored prefix is negotiated),
    # so it is skipped, not replayed.  A replay never communicates.
    restore = stage.load is not None and ctx.checkpointer.resumed(name)
    barrier = stage.barrier_after and comm is not None and not restore
    if stage.run is None:
        # No share: nothing to run, account or fuse — the rank only
        # keeps the live ranks' barrier.
        if barrier:
            _until_agreed(comm.barrier, recover)
        return
    if restore:
        stage.load(ctx, ctx.checkpointer.load_stage(ctx, name))
    else:
        ctx.begin_stage()
        stage.run(ctx)
        if barrier:
            # The one noteworthy barrier of the MPI code (paper
            # Section 2.1) — retried after recovery so survivors leave
            # it in lockstep.
            _until_agreed(comm.barrier, recover)
        ctx.end_stage(name, payload=stage.payload, save=stage.is_task)
    if stage.fuse is not None:
        stage.fuse(ctx)


def _rank_report(ctx: RankContext, **own) -> dict:
    """The rank report: accounting off ``ctx``/``ctx.comm`` and the
    rank's share — its own results plus the dead ranks it adopted — off
    ``ctx.state``, the same way for every backend, plus the backend's
    ``own`` fields (work-steal's ``sched``)."""
    comm, state = ctx.comm, ctx.state
    adopted, thorough = state["adopted"], state["thorough"]
    return {
        "rank": comm.rank,
        "stage_seconds": {**ctx.stage_seconds, "recovery": ctx.recovery_seconds},
        "stage_ops": ctx.stage_ops,
        "finish_time": comm.clock.now,
        "comm_seconds": comm.account.seconds,
        "pattern_ops": ctx.ops.pattern_ops,
        "n_retries": comm.account.n_retries,
        "backoff_seconds": comm.account.backoff_seconds,
        "failed_ranks": comm.known_dead,
        "recovery_seconds_by_stage": dict(ctx.recovery_by_stage),
        "membership": comm.membership_view().as_doc(),
        "local_lnl": thorough.lnl,
        "local_newick": state["local_newick"],
        "winner_rank": state["winner_rank"],
        "winner_lnl": state["winner_lnl"],
        "best_newick": state["best_newick"],
        "bootstrap_newicks": [write_newick(t) for t in state["local_bs_trees"]]
        + [n for d in sorted(adopted) for n in adopted[d]["bootstrap_newicks"]],
        "wc_trace": state["wc_trace"],
        "shard": state["shard"],
        "n_fast": len(state["fast_results"]),
        "n_slow": len(state["slow_results"]),
        "recovered_for": sorted(adopted),
        **own,
    }


@register_backend
class StaticBackend:
    """The paper's fixed Table 2 partition: the comprehensive pipeline
    as is.

    Every pipeline stage runs (or checkpoint-loads) in order on every
    rank; recovery from rank deaths replays the dead rank's pipeline on
    a communicator-less context via :class:`RecoveryMiddleware`.
    """

    name = "static"
    supports_bootstopping = True

    @staticmethod
    def make_shared(config):
        return None

    def run(self, comm, pal, config, board=None) -> dict:
        rank = comm.rank
        ckpt = open_store(pal, config, rank)
        recovery = RecoveryMiddleware(
            comm, lambda dead: self._replay(comm, pal, config, dead)
        )
        ctx = RankContext(
            pal, config, rank, comm.clock, comm=comm,
            checkpointer=CheckpointMiddleware(
                ckpt, negotiate_resume(comm, ckpt, config.resume)
            ),
        )
        ctx.state["adopted"] = recovery.adopted
        ctx.recover = lambda upto: recovery.recover(ctx, upto)
        for stage in comprehensive_pipeline():
            _exec_stage(ctx, stage)
        return _rank_report(ctx)

    def _replay(self, comm, pal, config, dead_rank: int) -> dict:
        """Re-derive a dead rank's *whole* work share on this rank's
        virtual clock.

        The §2.4 seed discipline (``seed + 10000·r``) makes the dead
        rank's replicate streams exactly re-derivable, so the global
        replicate set is unchanged by recovery.  Checkpoints the dead rank
        managed to write are used instead of recomputation; kill specs are
        *not* re-armed (the fault already happened — the adopter is a
        different node).

        The replay always covers the dead rank's full pipeline with its
        original Table 2 shares — replicates through the thorough search
        — whichever boundary noticed the death, so the final selection
        sees the same candidate set as a failure-free run and the result
        stays bit-identical.
        """
        ckpt = open_store(pal, config, dead_rank)
        resume_through = len(ckpt.available_stages()) - 1 if ckpt is not None else -1
        ctx = RankContext(
            pal, config, dead_rank, comm.clock, comm=None,
            checkpointer=CheckpointMiddleware(ckpt, resume_through),
            save_checkpoints=False,
        )
        for stage in comprehensive_pipeline().task_stages:
            _exec_stage(ctx, stage)
        trees = [r.tree for r in ctx.state["bs_results"]]
        return {
            "bootstrap_trees": trees,
            "bootstrap_newicks": [write_newick(t) for t in trees],
            "thorough": ctx.state["thorough"],
        }


@register_backend
class WorkStealBackend:
    """The task-DAG scheduler (:mod:`repro.sched`): the comprehensive
    pipeline with its task stages' hooks replaced.

    Each task stage's ``run`` drains the pool of the same name over
    per-rank deques through the shared
    :class:`~repro.sched.queue.StealBoard`; persist/restore is the task
    journal (:mod:`repro.sched.checkpoint`: each completion is
    journalled, ``--resume`` preloads the union of all ranks' journals
    and restores the stages some rank noted finished); ``finalize`` is the
    pipeline's own, fed from the board.  Every task derives its random
    streams from its *origin* (the logical rank whose Table 2 share it
    belongs to), so wherever a task runs it produces the trees the
    static backend would — this backend changes only *when* and *where*
    work happens, never *what* it computes or what a stage boundary is.

    A rank killed mid-task abandons it back to the board (re-enqueued at
    its death's virtual time) and its remaining queue is stolen by the
    survivors — recovery re-runs only the unfinished tasks, not the dead
    rank's whole share, so ``recover`` only re-derives which survivor
    reports which dead origin.
    """

    name = "work-steal"
    supports_bootstopping = False

    @staticmethod
    def make_shared(config):
        return StealBoard(
            config.n_processes,
            steal_seed=config.comprehensive.seed_p,
            steal_seconds=CommTiming().steal_seconds(),
            timeout=config.timeout_policy.world_seconds,
        )

    def run(self, comm, pal, config, board: StealBoard) -> dict:
        cfg = config.comprehensive
        rank = comm.rank
        n_procs = config.n_processes
        dag = build_dag(make_schedule(cfg.n_bootstraps, n_procs), cfg, n_procs)

        journal, restored = open_journal_store(comm, pal, config)
        # A resumed run's journalled results, published once: a restored
        # stage has nothing else to rebuild, a re-run one schedules only
        # what is missing.
        board.preload(restored)
        ctx = RankContext(
            pal, config, rank, comm.clock, comm=comm,
            checkpointer=CheckpointMiddleware(
                journal, negotiate_resume(comm, journal, config.resume)
            ),
        )
        adopted = ctx.state["adopted"] = {}
        status_of = comm.faults.status_of
        started_bootstraps = itertools.count()
        outcomes: dict[str, object] = {}

        def share(origin: int) -> dict[str, list]:
            """What the board holds of ``origin``'s Table 2 share,
            whoever executed it (mid-run, later stages have no entry
            yet)."""
            return {
                kind: [
                    board.result(t.id) for t in tasks
                    if t.origin == origin and board.has_result(t.id)
                ]
                for kind, tasks in dag.items() if kind != "setup"
            }

        def recover(upto=None):
            # The board already re-enqueued a dead rank's work; what is
            # left of recovery is reporting.  Each survivor carries the
            # dead origins the adoption rule — a pure function of the
            # agreed membership — gives it.
            survivors = comm.alive_ranks()
            adopted.clear()
            for o in range(n_procs):
                if o not in survivors and survivors[o % len(survivors)] == rank:
                    got = share(o)
                    adopted[o] = {
                        "bootstrap_newicks": [
                            write_newick(r.tree) for r in got["bootstrap"]
                        ],
                        "thorough": next(iter(got["thorough"]), None),
                    }

        ctx.recover = recover

        def drain(name: str, ctx: RankContext) -> None:
            members = tuple(comm.alive_ranks())
            tasks = dag[name]
            board.begin_stage(
                name, tasks, initial_assignment(tasks, members), members,
                status_of=status_of, epoch=comm.epoch,
            )

            def on_start(task):
                if task.kind == "bootstrap":
                    # Same fault-injection point as the static stage loop:
                    # the b-th replicate *this rank* starts (mid-queue kill).
                    ctx.kill_at_replicate(next(started_bootstraps))

            outcomes[name] = run_rank_pool(
                board, rank, comm.clock,
                lambda task: execute_task(task, ctx, board.result),
                status_of=status_of, journal=journal, on_start=on_start,
            )

        def finalize(select, ctx: RankContext) -> None:
            own = share(rank)
            ctx.state.update(
                local_bs_trees=[r.tree for r in own["bootstrap"]],
                fast_results=own["fast"], slow_results=own["slow"],
                thorough=own["thorough"][0], wc_trace=[], shard=None,
            )
            recover()
            select(ctx)

        # Setup is recomputed, never restored: its artefacts are
        # engine-bound, not journalled.  The other stages' artefacts are
        # on the board already, so their ``load`` rebuilds nothing.
        stages = [
            replace(
                s, run=partial(drain, s.name), payload=None, fuse=None,
                load=None if s.name == "setup" else lambda ctx, data: None,
            ) if s.is_task else replace(s, run=partial(finalize, s.run))
            for s in comprehensive_pipeline()
        ]
        for stage in stages:
            _exec_stage(ctx, stage)

        my_stats = {
            s: per.get(rank, {}) for s, per in board.stage_stats().items()
        }
        idle_tail = {
            s: out.finish_time - out.last_busy_time for s, out in outcomes.items()
        }
        rec = _obs_current()
        if rec is not None:
            for s, tail in idle_tail.items():
                rec.gauge(f"sched.idle_tail.{s}", tail)
            for s, st in my_stats.items():
                rec.gauge(f"sched.queue_depth.{s}", st.get("max_queue_depth", 0))
            for counter in ("steal_attempts", "steal_grants"):
                total = sum(st.get(counter, 0) for st in my_stats.values())
                rec.gauge(f"sched.{counter}", total)
        return _rank_report(ctx, sched={
            "mode": "work-steal",
            "executed": {s: list(out.executed) for s, out in outcomes.items()},
            "stolen": {s: list(out.stolen) for s, out in outcomes.items()},
            "idle_tail": idle_tail,
            "stats": my_stats,
        })
