"""Execution backends: how the one stage pipeline is driven per rank.

An :class:`ExecutionBackend` turns the declarative
:func:`~repro.runtime.pipeline.comprehensive_pipeline` into a rank body.
Two implementations exist — the paper's static Table 2 partition and the
work-stealing task scheduler (:mod:`repro.sched`) — and ``--schedule``
selects one from the registry.  Adding a backend is one new class (see
``docs/ARCHITECTURE.md`` §11): register it, drive the stages, and the
determinism discipline (every stage unit derives its streams from its
origin identity) guarantees bit-identical results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Protocol

from repro.mpi.comm import DistributedStateError, RankFailure
from repro.mpi.topology import STEAL_BYTES
from repro.obs.recorder import Recorder, current as _obs_current, recording
from repro.search.schedule import make_schedule
from repro.tree.newick import write_newick
from repro.hybrid.checkpoint import CheckpointError, config_fingerprint
from repro.sched.checkpoint import open_journal
from repro.sched.placement import initial_assignment
from repro.sched.queue import StealBoard
from repro.sched.stealing import run_rank_pool
from repro.sched.tasks import build_dag, execute_task, task_id
from repro.runtime.context import RankContext
from repro.runtime.middleware import (
    CheckpointMiddleware,
    RecoveryMiddleware,
    export_rank_observability,
    open_store,
    quorum_lost,
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


def _until_agreed(collective, on_failure=lambda: None):
    """Run ``collective`` until it completes over the surviving membership.

    A :class:`RankFailure` means a peer died in the exchange.  Every
    survivor sees it with the same frozen death set, handles it the same
    way — ``on_failure``: the static backend replays the dead share,
    work stealing does nothing (the board already re-enqueued the dead
    rank's work) — and re-enters, so the survivors leave in lockstep.
    """
    while True:
        try:
            return collective()
        except RankFailure:
            on_failure()


def _stages_from_entry(comm, config) -> tuple[Stage, ...]:
    """The stages ``comm.rank`` takes part in: the whole pipeline, or —
    for an elastic joiner — everything from its join boundary on (whose
    ``advance_epoch`` is a no-op for it: that exchange already happened,
    it produced this rank)."""
    stages = comprehensive_pipeline().stages
    if comm.is_joiner:
        join_stage = config.fault_plan.join_stage_of(comm.rank)
        stages = stages[[s.name for s in stages].index(join_stage):]
    return stages


def _rank_report(ctx: RankContext, **own) -> dict:
    """The rank report: the accounting every backend reads off
    ``ctx``/``ctx.comm`` the same way, plus the backend's ``own`` fields
    (local/winner results, ``bootstrap_newicks``, ``n_fast``/``n_slow``,
    ``recovered_for``, work-steal's ``sched``).  Elastic joiners are
    tagged with their join stage."""
    comm = ctx.comm
    report = {
        "rank": comm.rank,
        "stage_seconds": {**ctx.stage_seconds, "recovery": ctx.recovery_seconds},
        "stage_ops": ctx.stage_ops,
        "finish_time": comm.clock.now,
        "comm_seconds": comm.comm_seconds(),
        "comm_intra_seconds": comm.comm_intra_seconds(),
        "comm_inter_seconds": comm.comm_inter_seconds(),
        "comm_channels": ctx.channels.as_doc() if ctx.channels is not None else None,
        "pattern_ops": ctx.ops.pattern_ops,
        "n_retries": comm.n_retries,
        "backoff_seconds": comm.backoff_seconds,
        "failed_ranks": comm.known_dead,
        "recovery_seconds_by_stage": dict(ctx.recovery_by_stage),
        "notes": list(ctx.state.get("__notes__", [])),
        "membership": comm.membership_view().as_doc(),
        **own,
    }
    if comm.is_joiner:
        report["joiner"] = True
        report["join_stage"] = ctx.config.fault_plan.join_stage_of(comm.rank)
    return report


@register_backend
class StaticBackend:
    """The paper's fixed Table 2 partition, stage by stage.

    Every pipeline stage runs (or checkpoint-loads) in order on every
    rank; recovery from rank deaths replays the dead rank's pipeline on
    a communicator-less context via :class:`RecoveryMiddleware`.

    An elastic joiner (hot spare) drives the same stages from its epoch
    boundary on, with no Table 2 share of its own — growing the share
    partition mid-run would change every rank's replicate streams and
    break bit-identity with the static world.  Instead it rebalances the
    *membership*: it takes part in every collective, counts as a
    survivor in the deterministic adoption rule (so it replays dead
    ranks' shares like any original survivor), and submits its adoptees'
    candidates to the final selection.
    """

    name = "static"
    supports_bootstopping = True

    @staticmethod
    def make_shared(config):
        return None

    def run(self, comm, pal, config, board=None) -> dict:
        rank = comm.rank
        ckpt = None
        resume_through = -1
        if comm.is_joiner:
            # Late joiners cannot take part in the resume negotiation
            # (they do not exist yet); the blackboard hands them the
            # agreed prefix.
            resume_through = comm.lookup("resume_through", -1)
        else:
            ckpt = open_store(pal, config, rank)
            if ckpt is not None and config.resume:
                # Negotiate a common resume point: every rank must skip
                # the same collectives, so resume through the *minimum*
                # contiguous stage prefix available across ranks.
                # Cost-free exchange: a resumed run must stay
                # bit-identical to an uninterrupted one.
                counts = comm._plain_allgather(
                    len(ckpt.available_stages()), op="resume-negotiation"
                )
                resume_through = min(c for c in counts if c is not None) - 1
            comm.publish("resume_through", resume_through)

        recovery = RecoveryMiddleware(
            comm, lambda dead: self._replay(comm, pal, config, dead)
        )
        ctx = RankContext(
            pal, config, rank, comm.clock, comm=comm,
            checkpointer=CheckpointMiddleware(ckpt, resume_through),
        )
        adopted = ctx.state["adopted"] = recovery.adopted
        ctx.recover = lambda upto: recovery.recover(ctx, upto)
        if comm.is_joiner:
            # The empty share its task stages leave untouched.
            ctx.state.update(
                local_bs_trees=[], fast_results=[], slow_results=[],
                thorough=None, wc_trace=[], shard=None,
            )

        for stage in _stages_from_entry(comm, config):
            self._exec_stage(ctx, stage)

        thorough = ctx.state["thorough"]
        return _rank_report(
            ctx,
            local_lnl=thorough.lnl if thorough is not None else None,
            local_newick=ctx.state["local_newick"],
            winner_rank=ctx.state["winner_rank"],
            winner_lnl=ctx.state["winner_lnl"],
            best_newick=ctx.state["best_newick"],
            bootstrap_newicks=[
                write_newick(t) for t in ctx.state["local_bs_trees"]
            ] + [n for d in sorted(adopted) for n in adopted[d]["bootstrap_newicks"]],
            wc_trace=ctx.state["wc_trace"],
            shard=ctx.state["shard"],
            n_fast=len(ctx.state["fast_results"]),
            n_slow=len(ctx.state["slow_results"]),
            recovered_for=sorted(adopted),
        )

    def _exec_stage(self, ctx: RankContext, stage: Stage) -> None:
        """The stage boundary, for live ranks, joiners and replays alike:
        epoch advance, adoption claims, kill hook, load-or-run, the
        paper's barrier (with its recovery retry), accounting, fuse."""
        comm, name = ctx.comm, stage.name
        ctx.current_stage = name

        def recover():
            ctx.recover(name)

        if comm is not None:
            # The membership epoch boundary comes first: a joiner declared
            # at this stage enters the world before any same-boundary kill
            # fires, and a death noticed at the boundary exchange is
            # recovered exactly like one noticed at the barrier.
            _until_agreed(lambda: comm.advance_epoch(name), recover)
            if comm.is_joiner and comm.known_dead:
                # A joiner services adoption claims at every boundary,
                # not only after a failed collective of its own: the
                # deterministic candidate rule counts it as a survivor,
                # so a claim may elect it for a death that surfaced in an
                # exchange it was not part of — most directly the very
                # boundary that activated it (the activation record
                # already carries that death set).
                recover()
        ctx.kill_at_stage(name)
        # A restored stage's post-stage barrier already happened in the
        # checkpointed timeline (its cost is inside the restored clock);
        # every rank resumes past it symmetrically, so it is skipped, not
        # replayed.  A replay never communicates.
        resumed = stage.is_task and ctx.checkpointer.resumed(name)
        barrier = stage.barrier_after and comm is not None and not resumed
        if comm is not None and comm.is_joiner and stage.is_task:
            # No Table 2 share: nothing to run, account or fuse — the
            # joiner only keeps the live ranks' barrier.
            if barrier:
                _until_agreed(comm.barrier, recover)
            return
        if resumed:
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
            self._exec_stage(ctx, stage)
        trees = [r.tree for r in ctx.state["bs_results"]]
        return {
            "bootstrap_trees": trees,
            "bootstrap_newicks": [write_newick(t) for t in trees],
            "thorough": ctx.state["thorough"],
        }


@register_backend
class WorkStealBackend:
    """The task-DAG scheduler (:mod:`repro.sched`) behind the pipeline.

    Each task-mapped stage becomes a pool over per-rank deques drained
    through the shared :class:`~repro.sched.queue.StealBoard`.  Every
    task derives its random streams from its *origin* (the logical rank
    whose Table 2 share it belongs to), so wherever a task runs it
    produces the trees the static backend would — this backend changes
    only *when* and *where* work happens, never *what* it computes.

    A rank killed mid-task abandons it back to the board (re-enqueued at
    its death's virtual time) and its remaining queue is stolen by the
    survivors — recovery re-runs only the unfinished tasks, not the dead
    rank's whole share.  With a checkpoint directory, each completion is
    journalled (:mod:`repro.sched.checkpoint`) and ``--resume`` preloads
    the union of all ranks' journals.
    """

    name = "work-steal"
    supports_bootstopping = False

    @staticmethod
    def make_shared(config):
        return StealBoard(
            config.n_processes,
            steal_seed=config.comprehensive.seed_p,
            steal_seconds=config.comm_timing().steal_seconds,
            timeout=config.spmd_timeout,
        )

    def run(self, comm, pal, config, board: StealBoard) -> dict:
        cfg = config.comprehensive
        rank = comm.rank
        n_procs = config.n_processes
        sched = make_schedule(cfg.n_bootstraps, n_procs)
        dag = build_dag(sched, cfg, n_procs)

        ctx = RankContext(pal, config, rank, comm.clock, comm=comm)
        started_bootstraps = itertools.count()

        journal = None
        restored: dict = {}
        restored_stage_seconds: dict[str, float] = {}
        restored_stage_clock: dict[str, float] = {}
        if config.checkpoint_dir is not None:
            # Union journals over every rank that can have written one —
            # including elastic joiners of a previous (interrupted) run.
            n_journal = n_procs + (
                len(config.fault_plan.joins) if config.fault_plan else 0
            )
            journal, restored, restored_stage_seconds, restored_stage_clock = (
                open_journal(
                    config.checkpoint_dir, rank, n_journal,
                    config_fingerprint(pal, config), pal.taxa,
                    resume=config.resume,
                )
            )
            if config.resume and not comm.is_joiner:
                # Every rank reads the same directory; verify before any
                # rank writes — divergent views would desynchronise the
                # pools.  (Joiners read the same union after activation;
                # they cannot take part in the pre-run exchange.)
                digest = hashlib.sha256(
                    json.dumps(sorted(restored)).encode("ascii")
                ).hexdigest()
                digests = comm._plain_allgather(digest, op="sched-resume")
                if any(d is not None and d != digest for d in digests):
                    raise CheckpointError(
                        "ranks loaded divergent sched journals; refusing to resume"
                    )

        status_of = comm._world.status_of
        outcomes: dict[str, object] = {}
        for stage in _stages_from_entry(comm, config):
            if not stage.is_task:
                continue  # the final selection, below
            ctx.current_stage = stage.name
            # Membership epoch boundary: joiners declared here enter
            # before assignment, so the queues rebalance over the current
            # membership.
            _until_agreed(lambda: comm.advance_epoch(stage.name))
            if config.quorum > 0.0:
                # Graceful degradation needs *agreed* membership at every
                # boundary.  Static mode gets it from its per-stage
                # collectives; under work stealing deaths otherwise
                # surface only on the board (which never updates
                # known_alive), so quorum runs add a heartbeat barrier.
                # Joiners run it too — their own epoch exchange happened
                # at activation, before this point.
                _until_agreed(comm.barrier)
            ctx.kill_at_stage(stage.name)
            members = tuple(comm.alive_ranks())
            tasks = dag[stage.name]
            if quorum_lost(ctx, len(members)):
                # Graceful degradation: below quorum the dead origins'
                # remaining tasks are dropped (every rank computes the
                # same membership, hence the same drop).  Task streams
                # are origin-pure, so the surviving origins' results are
                # unaffected; the run completes partial, not dead.
                live = set(members)
                tasks = [t for t in tasks if t.origin in live]
            # Drop tasks whose upstream can no longer complete (their
            # origin was dropped at an earlier, below-quorum stage).  At
            # a boundary every prior-stage completion is on the board, so
            # this fixpoint is identical on every member, joiners
            # included.
            while True:
                kept = {t.id for t in tasks}
                viable = [
                    t for t in tasks
                    if all(
                        d in kept or d in restored or board.has_result(d)
                        for d in t.deps
                    )
                ]
                if len(viable) == len(tasks):
                    break
                tasks = viable
            pre = {t.id: restored[t.id] for t in tasks if t.id in restored}
            board.begin_stage(
                stage.name, tasks, initial_assignment(tasks, members), members,
                pre_completed=pre, status_of=status_of, epoch=comm.epoch,
            )
            ctx.begin_stage()

            def on_start(task, action):
                if task.kind == "bootstrap":
                    # Same fault-injection point as the static stage loop:
                    # the b-th replicate *this rank* starts (mid-queue kill).
                    ctx.kill_at_replicate(next(started_bootstraps))
                if action.kind == "steal" and ctx.channels is not None:
                    # The steal's cost was charged by the board's commit
                    # rule; the dedicated steal channel records the
                    # traffic for the per-channel observability split.
                    ctx.channels.note_steal(
                        STEAL_BYTES, board.steal_cost(rank, action.victim)
                    )

            out = run_rank_pool(
                board, rank, comm.clock,
                lambda task: execute_task(task, ctx, board.result),
                status_of=status_of,
                journal=journal,
                on_start=on_start,
            )
            ctx.end_stage(stage.name, save=False)
            if not out.executed and stage.name in restored_stage_seconds:
                # Fully-restored stage: its pool drained instantly; keep the
                # original run's accounting instead of the ~0 drain time,
                # and re-anchor the clock at the journalled stage-end so
                # stages that do re-execute run from bit-identical clock
                # bases (synchronize only moves forward — the drain time is
                # bounded by the journalled boundary, which includes the
                # real work).
                ctx.stage_seconds[stage.name] = restored_stage_seconds[stage.name]
                if stage.name in restored_stage_clock:
                    comm.clock.synchronize(restored_stage_clock[stage.name])
            outcomes[stage.name] = out
            if journal is not None:
                journal.note_stage(
                    stage.name, ctx.stage_seconds[stage.name], comm.clock.now
                )
            if stage.barrier_after:
                # The paper's one noteworthy barrier.  Under work stealing
                # the pool drain already synchronised the survivors'
                # clocks, but the barrier's modelled cost (and its death
                # detection) stays.
                _until_agreed(comm.barrier)

        # ---- Final selection: every origin's thorough result is on the
        # board (whoever executed it), so the winner rule — static's
        # rounded argmax with ties to the lowest origin — needs no gather
        # of scores.  Below quorum, dropped origins simply have no entry
        # (partial result, tagged in the notes).
        ctx.current_stage = "finalize"
        _until_agreed(lambda: comm.advance_epoch("finalize"))
        ctx.begin_stage()
        ctx.kill_at_stage("finalize")
        finals = {
            o: board.result(task_id("thorough", o, 0))
            for o in range(n_procs)
            if board.has_result(task_id("thorough", o, 0))
        }
        if finals:
            _, neg_o, winner_lnl = max(
                (round(r.lnl, 6), -o, r.lnl) for o, r in finals.items()
            )
            winner_rank = -neg_o
            best_newick = write_newick(finals[winner_rank].tree)
        else:
            winner_rank, winner_lnl, best_newick = None, None, None
        vote = (
            winner_rank,
            None if winner_lnl is None else round(winner_lnl, 6),
        )
        # Cross-check the local decisions and charge the final exchange's
        # modelled cost, exactly like static's gather+bcast.
        votes = _until_agreed(lambda: comm.allgather(vote))
        if any(v is not None and v != vote for v in votes):
            raise DistributedStateError(
                f"rank {rank}: winner vote mismatch {votes} — the shared board "
                "diverged across ranks"
            )
        ctx.end_stage("finalize", save=False)

        # Report origins the way static reports adoption: each survivor
        # (elastic joiners included) carries its own origin plus dead
        # origins per the adoption rule.
        survivors = comm.alive_ranks()
        carried = ([rank] if rank < n_procs else []) + [
            o for o in range(n_procs)
            if o not in survivors and survivors[o % len(survivors)] == rank
        ]
        bootstrap_newicks = [
            write_newick(board.result(task_id("bootstrap", o, b)).tree)
            for o in carried
            for b in range(sched.bootstraps_per_process)
            if board.has_result(task_id("bootstrap", o, b))
        ]
        thorough = finals.get(rank)

        my_stats = {
            s: per.get(rank, {}) for s, per in board.stage_stats().items()
        }
        idle_tail = {
            s: outcomes[s].finish_time - outcomes[s].last_busy_time
            for s in outcomes
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

        return _rank_report(
            ctx,
            local_lnl=thorough.lnl if thorough is not None else None,
            local_newick=(
                write_newick(thorough.tree) if thorough is not None else None
            ),
            winner_rank=winner_rank,
            winner_lnl=winner_lnl,
            best_newick=best_newick,
            bootstrap_newicks=bootstrap_newicks,
            wc_trace=[],
            shard=None,
            n_fast=len(outcomes["fast"].executed) if "fast" in outcomes else 0,
            n_slow=len(outcomes["slow"].executed) if "slow" in outcomes else 0,
            recovered_for=sorted(set(carried) - {rank}),
            sched={
                "mode": "work-steal",
                "executed": {s: list(outcomes[s].executed) for s in outcomes},
                "stolen": {s: list(outcomes[s].stolen) for s in outcomes},
                "idle_tail": idle_tail,
                "stats": my_stats,
            },
        )
