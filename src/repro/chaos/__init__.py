"""Deterministic chaos-campaign harness for the resilient runtime.

Sweeps seeded randomized :class:`~repro.mpi.faults.FaultPlan`\\ s — rank
kills at every kind of injection point, transient collective glitches,
and combinations — over a pinned comprehensive analysis
on both execution backends, asserting the three invariants a resilient
SPMD runtime owes its users: no hangs, bit-identical results whenever
recovery succeeds, and checkpoint→resume equivalence mid-fault.

Run it::

    PYTHONPATH=src python -m repro.chaos --scenarios 200 \\
        --out benchmarks/output/BENCH_chaos.json

Every scenario is a pure function of ``(seed, schedule, index)``; a
violation reported in ``BENCH_chaos.json`` can be replayed in isolation
with :func:`repro.chaos.campaign.replay_scenario`.
"""

from repro.chaos.campaign import replay_scenario, run_campaign, run_scenario
from repro.chaos.plans import ScenarioSpec, generate_scenario

__all__ = [
    "ScenarioSpec",
    "generate_scenario",
    "run_campaign",
    "run_scenario",
    "replay_scenario",
]
