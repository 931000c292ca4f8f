"""The paper's primary contribution: the hybrid MPI/Pthreads driver.

Coarse-grained parallelism across tree searches (simulated MPI ranks,
Table 2 work partition) is combined with fine-grained parallelism over
alignment patterns (virtual Pthreads) in a single run, implementing the
four algorithmic deltas of the paper's Section 2:

1. **p thorough searches** — every rank continues its own best slow tree;
   the global winner is selected with one bcast (Section 2.1);
2. **local sorting** between the fast and slow stages (Section 2.2);
3. **ceil(N/p) bootstraps per rank**, so totals can exceed N
   (Section 2.3, Table 2);
4. **reproducible seeding**: rank r uses ``seed + 10000·r`` (Section 2.4).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.search.schedule": (
        "WorkSchedule", "make_schedule", "TABLE2_CONFIGS", "TABLE2_EXPECTED",
    ),
    ".results": ("RankReport", "HybridResult"),
    ".driver": ("HybridConfig", "run_hybrid_analysis"),
    ".checkpoint": (
        "CheckpointStore", "CheckpointError", "config_fingerprint", "STAGE_ORDER",
    ),
    ".analyses": (
        "MultiSearchConfig", "MultiSearchResult", "run_multiple_ml_searches",
        "run_standard_bootstrap", "searches_per_rank",
    ),
})
