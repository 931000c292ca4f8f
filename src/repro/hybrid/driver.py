"""The hybrid MPI/Pthreads comprehensive-analysis driver.

Each simulated MPI rank runs the real search pipeline on its Table 2
work share, evaluating likelihoods through a pattern-chunked virtual
thread pool whose region costs come from the target machine's model; the
rank's virtual clock therefore advances like the paper's wall clock.
Communication follows the paper exactly: one barrier after the bootstrap
stage, one result exchange at the end ("That and a call to MPI_Barrier
after the bootstrap stage are the only noteworthy MPI communications").

The execution machinery lives in :mod:`repro.runtime` (see
``docs/ARCHITECTURE.md`` §10): the analysis itself is the declarative
:func:`~repro.runtime.pipeline.comprehensive_pipeline`, ``schedule``
selects an :class:`~repro.runtime.backends.ExecutionBackend` from the
registry, and checkpoint/resume, fault recovery and obs instrumentation
ride along as middleware.  This module only defines the run
configuration and wires the SPMD launch to the backend.

Resilience (see ``docs/ARCHITECTURE.md`` §6): with ``checkpoint_dir``
set, every rank checkpoints each completed stage atomically and a run can
``resume`` bit-identically; with a :class:`~repro.mpi.faults.FaultPlan`
attached, rank deaths are survived — the survivors re-derive the dead
rank's seed streams (§2.4 makes them exact), replay its replicates so the
global bootstrap set is unchanged, recompute the Table 2 shares over the
smaller world, and charge the whole recovery to their virtual clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.likelihood.kernels import available_kernels
from repro.mpi.faults import FaultPlan
from repro.mpi.launcher import run_spmd
from repro.mpi.policy import TimeoutPolicy
from repro.perfmodel.machines import machine_by_name
from repro.search.comprehensive import ComprehensiveConfig
from repro.seq.patterns import PatternAlignment
from repro.util.validation import check_choice, check_min
from repro.hybrid.results import HybridResult, assemble_hybrid_result
from repro.runtime.backends import BACKENDS, available_schedules, run_rank


@dataclass(frozen=True)
class HybridConfig:
    """Inputs of a hybrid run: the comprehensive-analysis configuration
    plus the parallel layout (p processes × T threads) and the machine
    whose timing model drives the virtual clocks."""

    n_processes: int
    n_threads: int
    comprehensive: ComprehensiveConfig = field(default_factory=ComprehensiveConfig)
    machine: str = "dash"
    bootstopping: bool = False
    bootstop_step: int = 4  # check WC every this-many *global* replicates
    bootstop_max: int | None = None  # cap when bootstopping (default: 4x requested)
    #: Directory for per-rank, per-stage checkpoints (None: no checkpoints).
    checkpoint_dir: str | None = None
    #: Resume from ``checkpoint_dir`` (bit-identical continuation).
    resume: bool = False
    #: Deterministic fault schedule; also switches the simulated world
    #: into resilient mode (rank deaths are survived, not fatal).
    fault_plan: FaultPlan | None = None
    #: Every deadline of the run: the suspicion deadline of a wait on a
    #: peer and the wall-clock limit of the SPMD ranks (they run
    #: real searches; large inputs need hours).  Excluded from the
    #: checkpoint fingerprint — how patiently a run waited does not change
    #: what it computed.
    timeout_policy: TimeoutPolicy = TimeoutPolicy()
    #: Validated and fingerprinted, reaches nothing; goes with ROADMAP 1(e).
    kernel: str = "reference"
    #: Enable signature-keyed CLV caching in every rank's engines (the
    #: engine's plan executor then recomputes only move-invalidated partials).
    clv_cache: bool = False
    #: Record a span/event timeline per rank (``--trace``); excluded from
    #: the checkpoint fingerprint, so resumed runs may toggle it freely.
    collect_trace: bool = False
    #: Collect per-rank metrics registries (``--metrics-out``); implied
    #: by ``collect_trace`` since the recorder carries both.
    collect_metrics: bool = False
    #: Execution backend (:data:`repro.runtime.backends.BACKENDS`):
    #: "static" is the paper's fixed Table 2 partition; "work-steal" runs
    #: the same shares as a task DAG over per-rank deques with
    #: deterministic cross-rank stealing (:mod:`repro.sched`) —
    #: bit-identical results.  On the paper's equal ``ceil(N/p)`` shares
    #: no steal fires and it is never faster (EXPERIMENTS.md, "Work
    #: stealing on equal shares"); steals happen only after a rank death.
    schedule: str = "static"

    #: Fields that enter the checkpoint fingerprint (see
    #: :func:`repro.hybrid.checkpoint.fingerprint_doc`).  The schedule
    #: mode is part of the run's identity — static checkpoints and
    #: work-steal journals describe different units of progress.  The
    #: cache setting is included because timings and op counts depend on
    #: it even though likelihood values do not.  The kernel name changes
    #: nothing; it stays until ROADMAP item 1(e), since dropping it moves
    #: checkpoint bytes.  Resilience-only knobs
    #: (``fault_plan``, ``checkpoint_dir``, ``resume``) are deliberately
    #: excluded: a resumed run and its killed predecessor share a
    #: fingerprint by construction.
    fingerprint_fields: ClassVar[tuple[str, ...]] = (
        "schedule", "n_processes", "n_threads", "machine",
        "bootstopping", "bootstop_step", "bootstop_max", "kernel",
        "clv_cache",
    )

    def __post_init__(self) -> None:
        check_min("n_processes", self.n_processes, 1)
        check_min("n_threads", self.n_threads, 1)
        machine = machine_by_name(self.machine)
        if self.n_threads > machine.cores_per_node:
            raise ValueError(
                f"{machine.name} has {machine.cores_per_node} cores per node; "
                f"T={self.n_threads} is impossible (paper: threads are limited "
                "to the cores of one node)"
            )
        if self.bootstop_step < 2 or self.bootstop_step % 2:
            raise ValueError("bootstop_step must be an even number >= 2")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        check_choice("schedule", self.schedule, available_schedules())
        check_choice("kernel", self.kernel, available_kernels())
        if self.bootstopping and not BACKENDS[self.schedule].supports_bootstopping:
            raise ValueError(
                "bootstopping grows the replicate set dynamically and is "
                "round-synchronised; it requires schedule='static'"
            )


def run_hybrid_analysis(pal: PatternAlignment, config: HybridConfig) -> HybridResult:
    """Run one hybrid comprehensive analysis on the simulated cluster.

    Executes the *real* search pipeline on every rank (results are genuine
    phylogenetic inferences; virtual clocks give machine-model times) and
    assembles the global result the way the MPI code does.  Ranks killed
    by an attached fault plan contribute nothing here — their work was
    adopted by the survivors.
    """
    board = BACKENDS[config.schedule].make_shared(config)
    raw = run_spmd(
        lambda comm, shared=None: run_rank(comm, pal, config, shared),
        config.n_processes,
        fault_plan=config.fault_plan,
        timeout_policy=config.timeout_policy,
        shared=board,
    )
    return assemble_hybrid_result(pal, config, raw, board)
