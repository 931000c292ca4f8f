"""Dataset substrate: benchmark registry and sequence simulation.

The paper's five benchmark alignments (Table 3) are real rRNA/DNA data
sets that are no longer distributable here; :mod:`repro.datasets.registry`
records their shape parameters (taxa, characters, patterns, recommended
bootstraps), and :mod:`repro.datasets.generator` simulates alignments under
GTR+Γ on Yule trees so that every code path — including full comprehensive
analyses — can run on data with genuine phylogenetic signal.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".registry": (
        "DatasetSpec", "BENCHMARK_DATASETS", "dataset_by_patterns", "dataset_by_name",
    ),
    ".generator": (
        "SimulationParams", "simulate_alignment", "simulate_dataset", "test_dataset",
    ),
})
