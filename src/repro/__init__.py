"""repro — a reproduction of "Hybrid MPI/Pthreads Parallelization of the
RAxML Phylogenetics Code" (Pfeiffer & Stamatakis, 2010).

The package contains a from-scratch phylogenetic maximum-likelihood engine
(GTR+Γ / GTR+CAT, Felsenstein pruning, SPR hill climbing, the rapid-
bootstrap comprehensive analysis), a simulated MPI/Pthreads runtime with
virtual clocks, an analytic performance model of the paper's four
benchmark clusters, and the hybrid driver that combines them.

Quick start::

    from repro import test_dataset, HybridConfig, run_hybrid_analysis

    pal, true_tree = test_dataset(n_taxa=8, n_sites=200)
    result = run_hybrid_analysis(pal, HybridConfig(n_processes=2, n_threads=4))
    print(result.best_lnl, result.stage_seconds)

Subpackages
-----------
``repro.seq``        alignments, patterns, bootstrap resampling
``repro.tree``       unrooted binary trees, Newick, bipartitions
``repro.likelihood`` GTR models, pruning kernels, optimisers, parsimony
``repro.search``     starting trees, SPR searches, the comprehensive analysis
``repro.bootstop``   bipartition tables, consensus, the WC bootstopping test
``repro.mpi``        simulated MPI (SPMD rank processes, virtual clocks)
``repro.threads``    virtual Pthreads over the pattern axis
``repro.perfmodel``  calibrated analytic model of the paper's clusters
``repro.hybrid``     the hybrid comprehensive-analysis driver
``repro.datasets``   benchmark registry (Table 3) and sequence simulation
"""

__version__ = "1.0.0"

from repro.datasets import (
    BENCHMARK_DATASETS,
    DatasetSpec,
    simulate_alignment,
    simulate_dataset,
    test_dataset,
)
from repro.hybrid import (
    HybridConfig,
    HybridResult,
    MultiSearchConfig,
    MultiSearchResult,
    WorkSchedule,
    make_schedule,
    run_hybrid_analysis,
    run_multiple_ml_searches,
    run_standard_bootstrap,
)
from repro.likelihood import GTRModel, LikelihoodEngine, RateModel
from repro.perfmodel import (
    MACHINES,
    analysis_time,
    finegrain_speedup,
    machine_by_name,
    profile_for,
    serial_time,
)
from repro.search import (
    ComprehensiveConfig,
    ComprehensiveResult,
    StageParams,
    evaluate_tree,
    run_comprehensive,
)
from repro.seq import Alignment, PatternAlignment, compress_alignment
from repro.tree import Tree, parse_newick, robinson_foulds, write_newick

__all__ = [
    "__version__",
    "BENCHMARK_DATASETS",
    "DatasetSpec",
    "simulate_alignment",
    "simulate_dataset",
    "test_dataset",
    "HybridConfig",
    "HybridResult",
    "MultiSearchConfig",
    "MultiSearchResult",
    "WorkSchedule",
    "make_schedule",
    "run_hybrid_analysis",
    "run_multiple_ml_searches",
    "run_standard_bootstrap",
    "evaluate_tree",
    "GTRModel",
    "LikelihoodEngine",
    "RateModel",
    "MACHINES",
    "analysis_time",
    "finegrain_speedup",
    "machine_by_name",
    "profile_for",
    "serial_time",
    "ComprehensiveConfig",
    "ComprehensiveResult",
    "StageParams",
    "run_comprehensive",
    "Alignment",
    "PatternAlignment",
    "compress_alignment",
    "Tree",
    "parse_newick",
    "robinson_foulds",
    "write_newick",
]
