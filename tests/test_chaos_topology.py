"""Chaos checks specific to the topology-aware communication substrate.

The invariant under test everywhere: hierarchical collectives change
*modelled communication time only* — every analysis output (best lnL,
best tree, bootstrap multiset) is bit-identical to the flat world, under
fault-free runs, node-leader deaths mid-collective (both phases, both
schedules), and checkpoint → resume.
"""

import tempfile
from pathlib import Path

import pytest

from repro.chaos.campaign import (
    _capture,
    _make_inputs,
    _run,
    run_leader_death_probes,
    run_scenario,
)
from repro.chaos.plans import ScenarioSpec, generate_scenario


@pytest.fixture(scope="module")
def inputs():
    return _make_inputs()


@pytest.fixture(scope="module")
def flat_baselines(inputs):
    """Fault-free flat-model p = 2 results per schedule — the oracle."""
    pal, cc = inputs
    out = {}
    for schedule in ("static", "work-steal"):
        spec = ScenarioSpec(index=-1, schedule=schedule, n_processes=2,
                            plan=None, equality="baseline", deaths=())
        out[schedule] = _run(pal, cc, spec)
    return out


class TestLeaderDeathProbes:
    def test_all_probes_clean(self, inputs):
        pal, cc = inputs
        with tempfile.TemporaryDirectory() as tmp:
            probes = run_leader_death_probes(pal, cc, workdir=Path(tmp))
        assert len(probes) == 6  # 3 plans x 2 schedules
        for record in probes:
            assert record["violations"] == [], record
            assert record["ranks_per_node"] == 2
        # Both phases were exercised: kills at collective call indices
        # (mid-collective, inter-phase leaders) and at a stage boundary.
        kinds = {record["probe"] for record in probes}
        assert kinds == {"leader-node0-collective", "leader-node1-stage",
                         "both-leaders-collective"}
        # The checkpoint -> resume leg ran for both schedules.
        resumed = [r for r in probes if "resume" in r["checks"]]
        assert len(resumed) == 2


class TestHierarchicalScenarioSweep:
    @pytest.mark.parametrize("index", range(4))
    def test_generated_scenarios_match_flat_baseline(
        self, inputs, flat_baselines, index
    ):
        # A slice of the campaign generator run under rpn=2: same seeds,
        # same plans, hierarchical costs — compared against the *flat*
        # fault-free baseline, which is the cross-model bit-identity
        # claim the full 50-scenario CI sweep scales up.
        pal, cc = inputs
        schedule = ("static", "work-steal")[index % 2]
        spec = generate_scenario(index, 20260808, schedule, 2,
                                 ranks_per_node=2)
        assert spec.ranks_per_node == 2
        record = run_scenario(
            pal, cc, spec, _capture(flat_baselines[schedule]), None
        )
        assert record["violations"] == [], record
        assert record["ranks_per_node"] == 2

    def test_generation_ignores_topology(self):
        # The same (seed, schedule, index) must yield the same faults
        # under either communication model — topology never perturbs
        # plan generation.
        a = generate_scenario(7, 123, "static", 3)
        b = generate_scenario(7, 123, "static", 3, ranks_per_node=2)
        assert a.plan == b.plan
        assert a.deaths == b.deaths
