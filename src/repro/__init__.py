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

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datasets.registry": ("BENCHMARK_DATASETS", "DatasetSpec"),
    "repro.datasets.generator": (
        "simulate_alignment", "simulate_dataset", "test_dataset",
    ),
    "repro.hybrid.driver": ("HybridConfig", "run_hybrid_analysis"),
    "repro.hybrid.results": ("HybridResult",),
    "repro.hybrid.analyses": (
        "MultiSearchConfig", "MultiSearchResult", "run_multiple_ml_searches",
        "run_standard_bootstrap",
    ),
    "repro.search.schedule": ("WorkSchedule", "make_schedule"),
    "repro.search.evaluate": ("evaluate_tree",),
    "repro.likelihood.gtr": ("GTRModel",),
    "repro.likelihood.engine": ("LikelihoodEngine", "RateModel"),
    "repro.perfmodel.machines": ("MACHINES", "machine_by_name"),
    "repro.perfmodel.coarse": ("analysis_time", "serial_time"),
    "repro.perfmodel.finegrain": ("finegrain_speedup",),
    "repro.perfmodel.profiles": ("profile_for",),
    "repro.search.searches": ("StageParams",),
    "repro.search.comprehensive": (
        "ComprehensiveConfig", "ComprehensiveResult", "run_comprehensive",
    ),
    "repro.seq.alignment": ("Alignment",),
    "repro.seq.patterns": ("PatternAlignment", "compress_alignment"),
    "repro.tree.topology": ("Tree",),
    "repro.tree.newick": ("parse_newick", "write_newick"),
    "repro.tree.distances": ("robinson_foulds",),
})
__all__.insert(0, "__version__")
