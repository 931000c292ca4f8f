"""Table 4: the benchmark computers, plus calibrated model constants.

    Computer      Location  Processor                    Cores/node
    Abe           NCSA      2.33-GHz Intel Clovertown     8
    Dash          SDSC      2.4-GHz Intel Nehalem         8
    Ranger        TACC      2.3-GHz AMD Barcelona        16
    Triton PDAF   SDSC      2.5-GHz AMD Shanghai         32

Model constants encode the paper's qualitative characterisations:

* Dash's "newer cache design is more effective" → no cache-miss penalty
  (``cache_factor`` 1.0), so speedup is linear to 8 cores (Fig 8);
* Abe's "bus-based memory subsystem ... is generally slower" → large
  cache factor, low ``bandwidth_cores`` → superlinear 1→4 cores then the
  fastest efficiency drop;
* Ranger and Triton show cache superlinearity with a gentler drop and
  support 16/32 threads.

``sync_pattern_units`` (the quadratic barrier coefficient) and the
Triton cache constants are calibrated against the paper's Table 5 rows by
:mod:`repro.perfmodel.calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """One benchmark computer with its cost-model constants.

    ``core_speed`` is per-core in-cache throughput relative to Dash.
    ``cache_factor`` is the per-pattern slowdown of fully out-of-cache
    work; ``cache_patterns`` is the per-thread chunk size at which half
    the working set misses.  ``bandwidth_cores`` is how many concurrently
    active threads the node's memory can feed at full speed; the miss-cost
    inflation beyond that is ``bandwidth_penalty``-strong.
    ``sync_pattern_units``·T^``sync_exponent`` is the per-region barrier
    cost (in units of one pattern-category computation): exponent 2 models
    a busy-wait flat barrier (cache-line traffic ∝ T²), exponent 1 a
    tree/hierarchical barrier.

    Communication carries no machine constants: every run prices its
    messages with the flat :class:`~repro.mpi.comm.CommTiming` defaults,
    whatever the machine (the paper finds communication negligible).
    """

    name: str
    location: str
    processor: str
    cores_per_node: int
    clock_ghz: float
    core_speed: float
    cache_factor: float
    cache_patterns: float
    bandwidth_cores: int
    bandwidth_penalty: float
    sync_pattern_units: float
    sync_exponent: float = 2.0
    memory_per_node_gb: float = 32.0

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        if self.core_speed <= 0 or self.clock_ghz <= 0:
            raise ValueError("core_speed and clock_ghz must be positive")
        if self.cache_factor < 1.0:
            raise ValueError("cache_factor must be >= 1 (1 = no miss penalty)")
        if self.cache_patterns <= 0:
            raise ValueError("cache_patterns must be positive")
        if self.bandwidth_cores < 1:
            raise ValueError("bandwidth_cores must be >= 1")
        if self.bandwidth_penalty < 0 or self.sync_pattern_units < 0:
            raise ValueError("penalties must be non-negative")
        if self.sync_exponent < 0.5:
            raise ValueError("sync_exponent must be >= 0.5")
        if self.memory_per_node_gb <= 0:
            raise ValueError("memory_per_node_gb must be positive")

    def max_threads(self) -> int:
        """Threads are "limited to the number of cores per node" (paper)."""
        return self.cores_per_node


#: The four benchmark computers of Table 4 with calibrated constants.
MACHINES: dict[str, MachineSpec] = {
    "abe": MachineSpec(
        name="Abe",
        location="NCSA",
        processor="2.33-GHz Intel Clovertown",
        cores_per_node=8,
        clock_ghz=2.33,
        core_speed=0.88,
        cache_factor=2.1,
        cache_patterns=900.0,
        bandwidth_cores=4,
        bandwidth_penalty=1.0,
        sync_pattern_units=3.0,
        memory_per_node_gb=8.0,
    ),
    "dash": MachineSpec(
        name="Dash",
        location="SDSC",
        processor="2.4-GHz Intel Nehalem",
        cores_per_node=8,
        clock_ghz=2.4,
        core_speed=1.0,
        cache_factor=1.0,
        cache_patterns=4000.0,
        bandwidth_cores=8,
        bandwidth_penalty=0.1,
        sync_pattern_units=1.75,
        memory_per_node_gb=48.0,
    ),
    "ranger": MachineSpec(
        name="Ranger",
        location="TACC",
        processor="2.3-GHz AMD Barcelona",
        cores_per_node=16,
        clock_ghz=2.3,
        core_speed=0.80,
        cache_factor=1.9,
        cache_patterns=1400.0,
        bandwidth_cores=10,
        bandwidth_penalty=0.5,
        sync_pattern_units=2.0,
        memory_per_node_gb=32.0,
    ),
    "triton": MachineSpec(
        name="Triton PDAF",
        location="SDSC",
        processor="2.5-GHz AMD Shanghai",
        cores_per_node=32,
        clock_ghz=2.5,
        core_speed=0.9773,
        cache_factor=1.4,
        cache_patterns=400.0,
        bandwidth_cores=24,
        bandwidth_penalty=0.3,
        sync_pattern_units=12.395,
        sync_exponent=1.0,
        memory_per_node_gb=256.0,
    ),
}


def machine_by_name(name: str) -> MachineSpec:
    """Look up a machine case-insensitively ('dash', 'Triton PDAF', ...)."""
    key = name.strip().lower().split()[0]
    if key == "triton":
        return MACHINES["triton"]
    if key in MACHINES:
        return MACHINES[key]
    raise KeyError(f"unknown machine {name!r}; known: {sorted(MACHINES)}")
