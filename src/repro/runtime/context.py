"""The per-rank execution context every backend drives the pipeline with.

A :class:`RankContext` is one *logical* rank's compute state: its seed
streams (the paper's ``seed + 10000·r`` discipline), virtual thread
pool, op counter, per-stage accounting, and the inter-stage artefact
``state`` dict the :mod:`~repro.runtime.pipeline` stages read and write.
The context never communicates on its own — ``comm`` is only attached
for a *live* rank body (collectives, bootstopping); a recovery replay of
a dead rank runs the same stages on a context with ``comm=None``, which
is exactly what makes the pipeline reusable for replay.

A live rank body's context also carries the stage boundary's
collaborators as plain attributes — the fault plan, the stage
checkpointer, ``recover`` — and calls them directly; a replay context
has no fault plan (kills are not re-armed for an adopter) and never
recovers.
"""

from __future__ import annotations

from repro.likelihood.engine import LikelihoodEngine, OpCounter
from repro.obs.recorder import current as _obs_current
from repro.perfmodel.finegrain import MachineRegionTiming
from repro.perfmodel.machines import machine_by_name
from repro.threads.pool import VirtualThreadPool
from repro.util.rng import RAxMLRandom, rank_seed
from repro.util.timing import VirtualClock


class RankContext:
    """One logical rank's seed streams, engines, accounting, and state.

    ``logical_rank`` may differ from the executing physical rank: a
    survivor replaying a dead peer builds a second context for the dead
    *logical* rank on its own clock — the seed discipline then guarantees
    bit-identical replicates.
    """

    def __init__(
        self,
        pal,
        config,
        logical_rank: int,
        clock: VirtualClock,
        *,
        comm=None,
        checkpointer=None,
        save_checkpoints: bool = True,
    ) -> None:
        self.pal = pal
        self.config = config
        self.cfg = config.comprehensive
        self.rank = logical_rank
        self.clock = clock
        self.comm = comm
        self.p_rng = RAxMLRandom(rank_seed(self.cfg.seed_p, logical_rank))
        self.x_rng = RAxMLRandom(rank_seed(self.cfg.seed_x, logical_rank))
        machine = machine_by_name(config.machine)
        self.pool = VirtualThreadPool(
            config.n_threads,
            MachineRegionTiming(machine, config.seconds_per_pattern_unit),
            clock=clock,
        )
        self.ops = OpCounter()
        self.stage_seconds: dict[str, float] = {}
        self.stage_ops: dict[str, int] = {}
        #: Deterministic fault injection (:mod:`repro.mpi.faults`), armed
        #: at stage entry and at bootstrap-replicate starts of live rank
        #: bodies only: a replay runs on the adopter, a different node —
        #: the fault already happened.
        self.fault_plan = config.fault_plan if comm is not None else None
        #: Stage save/restore
        #: (:class:`~repro.runtime.middleware.CheckpointMiddleware` over
        #: the backend's store: per-stage files or the task journal).
        self.checkpointer = checkpointer
        self.save_checkpoints = save_checkpoints
        #: Inter-stage artefacts (model, rate models, per-stage results);
        #: stage run/load/fuse hooks communicate exclusively through this.
        self.state: dict[str, object] = {}
        #: Recovery entry point, bound by the backend for live rank
        #: bodies (``None`` on replay contexts — replays never recover).
        self.recover = None
        #: Virtual time spent replaying dead peers' work (charged to a
        #: dedicated "recovery" bucket, not to the stage it interrupted).
        self.recovery_seconds = 0.0
        #: The same time bucketed by the stage whose boundary triggered
        #: it (drives the per-stage recovery-overhead report).
        self.recovery_by_stage: dict[str, float] = {}
        #: The stage currently executing (set by the backend at each
        #: boundary); attributes recovery time.
        self.current_stage: str | None = None
        self._t0 = 0.0
        self._o0 = 0
        self._r0 = 0.0

    def engine_factory(self, pal_, model_, rate_model_, weights_, ops_):
        return LikelihoodEngine(
            pal_, model_, rate_model_, weights=weights_, ops=ops_,
            clv_cache=self.config.clv_cache, pool=self.pool,
        )

    # -- fault injection -----------------------------------------------------

    def kill_at_stage(self, stage: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.kill_at_stage(self.rank, stage)

    def kill_at_replicate(self, b: int) -> None:
        """The rank is about to start its b-th bootstrap replicate (the
        mid-stage kill point)."""
        if self.fault_plan is not None:
            self.fault_plan.kill_at_replicate(self.rank, b)

    # -- stage accounting ----------------------------------------------------

    def begin_stage(self) -> None:
        self._t0 = self.clock.now
        self._o0 = self.ops.pattern_ops
        self._r0 = self.recovery_seconds

    def end_stage(self, stage: str, payload=None, save: bool = True) -> None:
        """Close the stage window: account seconds/ops (recovery time is
        charged elsewhere), record the stage span, then write the stage
        checkpoint (``payload(ctx)`` is the stage's part of the document)
        — in that order."""
        recovered = self.recovery_seconds - self._r0
        self.stage_seconds[stage] = (self.clock.now - self._t0) - recovered
        self.stage_ops[stage] = self.ops.pattern_ops - self._o0
        rec = _obs_current()
        if rec is not None:
            # The span covers the wall window (incl. recovery time charged
            # elsewhere); args carry the stage-only accounting.
            rec.span(stage, "stage", self._t0, args={
                "stage_seconds": self.stage_seconds[stage],
                "pattern_ops": self.stage_ops[stage],
                "recovery_seconds": recovered,
            })
        if save and self.checkpointer is not None:
            self.checkpointer.save_stage(self, stage, payload)

    def add_recovery(self, dt: float) -> None:
        self.recovery_seconds += dt
        if dt > 0.0:
            stage = self.current_stage or "finalize"
            self.recovery_by_stage[stage] = (
                self.recovery_by_stage.get(stage, 0.0) + dt
            )
