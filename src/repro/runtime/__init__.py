"""The composable runtime layer behind the hybrid driver.

Three modules (see ``docs/ARCHITECTURE.md`` §10):

* :mod:`repro.runtime.pipeline` — the *one* declarative definition of
  the comprehensive analysis as :class:`Stage` objects in a
  :class:`StagePipeline`;
* :mod:`repro.runtime.backends` — pluggable :class:`ExecutionBackend`
  implementations (static Table 2 partition, work stealing) selected by
  ``HybridConfig.schedule``;
* :mod:`repro.runtime.middleware` — the stage boundary's collaborators,
  called directly by the backends: per-stage checkpoint save/restore
  (:class:`CheckpointMiddleware`) and dead-rank adoption
  (:class:`RecoveryMiddleware`).

The :class:`~repro.runtime.context.RankContext` ties them together: one
logical rank's seed streams, virtual thread pool, accounting, fault plan
and checkpointer, shared by live execution and dead-rank replay.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".context": ("RankContext",),
    ".pipeline": ("Stage", "StagePipeline", "comprehensive_pipeline"),
    ".middleware": ("CheckpointMiddleware", "RecoveryMiddleware"),
    ".backends": (
        "ExecutionBackend", "StaticBackend", "WorkStealBackend", "BACKENDS",
        "available_schedules", "backend_for", "register_backend", "run_rank",
    ),
})
