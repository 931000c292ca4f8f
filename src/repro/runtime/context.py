"""The per-rank execution context every backend drives the pipeline with.

A :class:`RankContext` is one *logical* rank's compute state: its seed
streams (the paper's ``seed + 10000·r`` discipline), virtual thread
pool, op counter, per-stage accounting, and the inter-stage artefact
``state`` dict the :mod:`~repro.runtime.pipeline` stages read and write.
The context never communicates on its own — ``comm`` is only attached
for a *live* rank body (collectives, bootstopping); a recovery replay of
a dead rank runs the same stages on a context with ``comm=None``, which
is exactly what makes the pipeline reusable for replay.

Cross-cutting concerns (checkpointing, fault injection, observability,
recovery) are not implemented here: the context only *dispatches* to its
ordered :class:`~repro.runtime.middleware.RunMiddleware` chain at stage
and task boundaries.
"""

from __future__ import annotations

from repro.likelihood.engine import LikelihoodEngine, OpCounter
from repro.mpi.vci import ChannelSet
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
        middlewares=(),
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
        #: Per-lane virtual channels (VCIs), opt-in via
        #: ``--comm-channels``: lane posts are intra-node hops priced by
        #: the machine's shared-memory constants.  ``None`` charges no
        #: post cost at all (the historical, parity-pinned behaviour).
        n_channels = getattr(config, "comm_channels", None)
        self.channels = (
            ChannelSet(
                n_channels,
                post_seconds=lambda b: (
                    machine.intra_node_latency
                    + machine.intra_node_byte_time * b
                ),
            )
            if n_channels is not None else None
        )
        self.pool = VirtualThreadPool(
            config.n_threads,
            MachineRegionTiming(machine, config.seconds_per_pattern_unit),
            clock=clock,
            channels=self.channels,
        )
        self.ops = OpCounter()
        self.stage_seconds: dict[str, float] = {}
        self.stage_ops: dict[str, int] = {}
        self.middlewares = tuple(middlewares)
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
        #: boundary); attributes recovery time and quorum notes.
        self.current_stage: str | None = None
        self._t0 = 0.0
        self._o0 = 0
        self._r0 = 0.0

    def engine_factory(self, pal_, model_, rate_model_, weights_, ops_):
        return LikelihoodEngine(
            pal_, model_, rate_model_, weights=weights_, ops=ops_,
            kernel=self.config.kernel, clv_cache=self.config.clv_cache,
            pool=self.pool,
        )

    # -- middleware dispatch -------------------------------------------------

    def emit(self, hook: str, *args, **kwargs) -> None:
        """Invoke ``hook`` on every middleware, in registration order."""
        for mw in self.middlewares:
            getattr(mw, hook)(self, *args, **kwargs)

    def middleware(self, cls):
        """The first registered middleware of type ``cls``, or None."""
        for mw in self.middlewares:
            if isinstance(mw, cls):
                return mw
        return None

    def fire_replicate(self, b: int) -> None:
        """Replicate-boundary hook (fault injection's mid-stage kills)."""
        self.emit("on_replicate", b)

    # -- stage accounting ----------------------------------------------------

    def begin_stage(self) -> None:
        self._t0 = self.clock.now
        self._o0 = self.ops.pattern_ops
        self._r0 = self.recovery_seconds

    def end_stage(self, stage: str, payload: dict | None = None,
                  save: bool = True) -> None:
        """Close the stage window: account seconds/ops (recovery time is
        charged elsewhere), then hand the boundary to the middleware
        chain (obs span first, checkpoint save second — chain order)."""
        recovered = self.recovery_seconds - self._r0
        self.stage_seconds[stage] = (self.clock.now - self._t0) - recovered
        self.stage_ops[stage] = self.ops.pattern_ops - self._o0
        self.emit(
            "on_stage_end", stage,
            t0=self._t0, recovered=recovered, payload=payload, save=save,
        )

    def add_recovery(self, dt: float) -> None:
        self.recovery_seconds += dt
        if dt > 0.0:
            stage = self.current_stage or "finalize"
            self.recovery_by_stage[stage] = (
                self.recovery_by_stage.get(stage, 0.0) + dt
            )

    def add_note(self, note: str) -> None:
        """Record a degradation note (quorum loss, partial results);
        surfaced in the rank report and the assembled ``HybridResult``."""
        notes = self.state.setdefault("__notes__", [])
        if note not in notes:
            notes.append(note)
