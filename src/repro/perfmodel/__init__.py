"""Analytic performance model of the hybrid code on the paper's clusters.

The paper measured wall-clock times on Abe, Dash, Ranger and Triton PDAF
(Table 4).  This package substitutes those machines with an analytic model
whose mechanisms mirror the paper's explanations:

* **fine grain** (:mod:`repro.perfmodel.finegrain`): per-region thread
  time = max thread chunk · per-pattern cost + quadratic barrier cost;
  per-pattern cost carries a cache term (superlinear speedup at small
  thread counts on cache-starved machines — Fig 8) and a memory-bandwidth
  contention term (Abe's bus-based memory);
* **coarse grain** (:mod:`repro.perfmodel.coarse`): Table 2 per-rank
  search counts × per-search costs from a calibrated per-dataset stage
  profile, with a deterministic load-imbalance factor (no barriers between
  the last three stages);
* machine and stage-profile constants are calibrated against the paper's
  Table 5 anchors by :mod:`repro.perfmodel.calibrate` and frozen here.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".machines": ("MachineSpec", "MACHINES", "machine_by_name"),
    ".history": ("VersionRecord", "RAXML_HISTORY"),
    ".finegrain": ("finegrain_speedup", "region_pattern_units", "MachineRegionTiming"),
    ".profiles": ("StageProfile", "PROFILES", "profile_for", "default_profile"),
    ".coarse": ("StageTimes", "analysis_time", "serial_time"),
    ".metrics": ("speedup", "parallel_efficiency", "speed_per_core"),
    ".sweep": ("SweepPoint", "sweep_cores", "best_per_core_count", "thread_curves"),
    ".memory": (
        "MemoryEstimate", "process_memory", "max_processes_per_node",
        "min_threads_per_process", "feasible_node_layouts",
    ),
    ".advisor": ("LayoutRecommendation", "recommend_layout"),
})
