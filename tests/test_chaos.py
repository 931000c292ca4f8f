"""Tests for the deterministic chaos-campaign harness (:mod:`repro.chaos`).

The generator must be a pure function of ``(seed, schedule, index)`` and
only ever emit *legal, recoverable* plans; the campaign runner must
catch violations, and a miniature campaign must come out clean.
"""

import json

import pytest

from repro.chaos.campaign import (
    _make_inputs,
    replay_scenario,
    run_campaign,
    run_scenario,
)
from repro.chaos.plans import MAX_GLITCH_FAILURES, generate_scenario

SEED = 20260808


class TestGenerator:
    def test_pure_function_of_inputs(self):
        a = generate_scenario(17, SEED, "static", 3)
        b = generate_scenario(17, SEED, "static", 3)
        assert a == b
        assert generate_scenario(18, SEED, "static", 3) != a
        assert generate_scenario(17, SEED + 1, "static", 3) != a

    @pytest.mark.parametrize("schedule", ["static", "work-steal"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_generated_plans_are_legal(self, schedule, p):
        """Sweep many indices: every plan must construct (FaultPlan
        validates itself) and respect the recoverability bounds."""
        for index in range(300):
            spec = generate_scenario(index, SEED, schedule, p)
            assert spec.equality == "full"
            # At least one original rank survives every doomed set.
            assert len(spec.deaths) <= p - 1
            for k in spec.plan.kills:
                assert 0 <= k.rank < p
            for g in spec.plan.glitches:
                assert 0 <= g.rank < p
                if g.kind == "fail":
                    assert 1 <= g.failures <= MAX_GLITCH_FAILURES
            # Glitch injection points are unique per (rank, call).
            points = [(g.rank, g.call_index) for g in spec.plan.glitches]
            assert len(points) == len(set(points))

    def test_deaths_cover_hangs(self):
        """A hang glitch dooms its rank; the spec's death set must say so."""
        for index in range(300):
            spec = generate_scenario(index, SEED, "static", 3)
            doomed = {k.rank for k in spec.plan.kills}
            doomed |= {g.rank for g in spec.plan.glitches if g.kind == "hang"}
            assert set(spec.deaths) == doomed


class TestScenarioDocs:
    def test_as_doc_roundtrips_to_json(self):
        spec = generate_scenario(6, SEED, "static", 3)
        doc = json.loads(json.dumps(spec.as_doc()))
        assert doc["index"] == 6
        assert doc["schedule"] == "static"
        assert doc["n_processes"] == 3
        assert len(doc["kills"]) == len(spec.plan.kills)
        assert len(doc["glitches"]) == len(spec.plan.glitches)


class TestCampaign:
    @pytest.fixture(scope="class")
    def inputs(self):
        return _make_inputs()

    def test_mini_campaign_is_clean(self, tmp_path):
        report = run_campaign(n_scenarios=4, seed=SEED,
                              out=tmp_path / "BENCH_chaos.json",
                              workdir=tmp_path / "work")
        assert report["n_violations"] == 0, report["violations"]
        # 4 scenarios + 6 targeted-death probes.
        assert report["n_records"] == 10
        probes = [r for r in report["scenarios"] if "probe" in r]
        assert len(probes) == 6  # 3 plans x 2 schedules
        assert {r["probe"] for r in probes} == {
            "rank0-collective", "rank2-stage", "ranks02-collective"}
        # The two-death probe's checkpoint -> resume leg ran for both
        # schedules.
        assert sum("resume" in r["checks"] for r in probes) == 2
        assert (tmp_path / "BENCH_chaos.json").exists()
        on_disk = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert on_disk["n_records"] == report["n_records"]
        assert set(report["counts"]["by_schedule"]) == {"static", "work-steal"}

    def test_scenario_detects_a_planted_violation(self, inputs, tmp_path):
        """Feed a wrong baseline: the equality check must fire."""
        pal, cc = inputs
        spec = generate_scenario(1, SEED, "static", 2)
        bogus = {"best_lnl": 0.0, "best_newick": "(a,b);",
                 "bootstrap_newicks": [], "n_bootstraps_done": -1}
        record = run_scenario(pal, cc, spec, bogus, None)
        assert record["violations"]

    def test_replay_scenario_matches_campaign(self, tmp_path):
        record = replay_scenario(2, SEED, "static", 2)
        assert record["violations"] == []
        assert record["index"] == 2
