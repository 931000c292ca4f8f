"""End-to-end tests of --schedule work-steal through the hybrid driver:
bit-identical results vs. static, rank-death transparency (satellite:
recovery + scheduling interplay), resume from per-rank journals, and the
scheduling metrics surfaced in results and reports."""

import pytest

from repro.datasets import test_dataset as make_test_dataset
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi.faults import FaultPlan, KillSpec
from repro.search.comprehensive import ComprehensiveConfig, run_comprehensive
from repro.search.searches import StageParams
from repro.tree.newick import write_newick
from tests.conftest import assert_bit_identical

QUICK = StageParams(
    bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
    thorough_max_rounds=2, brlen_passes=1,
)


@pytest.fixture(scope="module")
def pal():
    pal, _ = make_test_dataset(n_taxa=6, n_sites=90, seed=301)
    return pal


@pytest.fixture(scope="module")
def quick_cc():
    return ComprehensiveConfig(n_bootstraps=4, cat_categories=3, stage_params=QUICK)


def run(pal, cc, **kw):
    kw.setdefault("n_processes", 2)
    kw.setdefault("n_threads", 2)
    return run_hybrid_analysis(
        pal, HybridConfig(comprehensive=cc, **kw)
    )


@pytest.fixture(scope="module")
def static_result(pal, quick_cc):
    return run(pal, quick_cc, schedule="static")


@pytest.fixture(scope="module")
def ws_result(pal, quick_cc):
    return run(pal, quick_cc, schedule="work-steal")


class TestModeParity:
    def test_bit_identical_results(self, static_result, ws_result):
        """The acceptance criterion: best tree, likelihood and bootstrap
        support identical across schedule modes for the same seed."""
        assert_bit_identical(static_result, ws_result)

    def test_rng_fingerprints_identical(self, static_result, ws_result):
        assert static_result.rng_fingerprint is not None
        assert static_result.rng_fingerprint == ws_result.rng_fingerprint

    def test_mode_recorded(self, static_result, ws_result):
        assert static_result.schedule_mode == "static"
        assert static_result.sched is None
        assert ws_result.schedule_mode == "work-steal"
        assert ws_result.sched is not None and ws_result.sched["mode"] == "work-steal"

    def test_single_process_worksteal(self, pal, quick_cc):
        serial = run(pal, quick_cc, n_processes=1, n_threads=1, schedule="static")
        ws = run(pal, quick_cc, n_processes=1, n_threads=1, schedule="work-steal")
        # One rank, one stage boundary: not only the results but every
        # virtual second agrees — the barrier sits in the bootstrap window
        # and finalize is gather + bcast under both schedules.
        assert_bit_identical(serial, ws, timings=True)
        assert serial.ranks[0].stage_seconds == ws.ranks[0].stage_seconds

    def test_stage_seconds_keys_match(self, static_result, ws_result):
        for st, ws in zip(static_result.ranks, ws_result.ranks):
            assert set(st.stage_seconds) == set(ws.stage_seconds)
            assert set(st.stage_ops) == set(ws.stage_ops)

    @pytest.mark.parametrize("clv_cache", [False, True])
    def test_op_totals_schedule_independent(self, pal, clv_cache):
        """A rank that owns two fast searches charges the same ops and
        virtual seconds in both modes — with the CLV cache on too (one
        engine per search unit, not one per static stage)."""
        cc = ComprehensiveConfig(
            n_bootstraps=10, cat_categories=3, stage_params=QUICK
        )
        kw = dict(n_processes=1, n_threads=2, clv_cache=clv_cache)
        static = run(pal, cc, schedule="static", **kw)
        ws = run(pal, cc, schedule="work-steal", **kw)
        assert static.ranks[0].n_fast == ws.ranks[0].n_fast == 2
        assert_bit_identical(static, ws)
        stages = ("setup", "bootstrap", "fast", "slow", "thorough")
        static_ops = {s: static.ranks[0].stage_ops[s] for s in stages}
        assert static_ops == {s: ws.ranks[0].stage_ops[s] for s in stages}
        assert static.total_seconds == ws.total_seconds
        if not clv_cache:
            assert run_comprehensive(pal, cc).stage_ops == static_ops

    def test_sched_doc_in_report(self, ws_result):
        rep = ws_result.to_report()
        assert rep["schedule_mode"] == "work-steal"
        assert rep["rng_fingerprint"] == ws_result.rng_fingerprint
        sched = rep["sched"]
        assert set(sched) >= {
            "mode", "stage_stats", "steal_log", "idle_tail",
            "steal_attempts", "steal_grants",
        }
        boot = sched["stage_stats"]["bootstrap"]
        assert sum(d["executed"] for d in boot.values()) == 4
        for tails in sched["idle_tail"].values():
            assert set(tails) == {"setup", "bootstrap", "fast", "slow", "thorough"}

    def test_validation(self, quick_cc):
        with pytest.raises(ValueError):
            HybridConfig(2, 2, comprehensive=quick_cc, schedule="round-robin")
        with pytest.raises(ValueError):
            HybridConfig(
                2, 2, comprehensive=quick_cc, schedule="work-steal",
                bootstopping=True,
            )


class TestDeathTransparency:
    """Satellite: kill a rank mid-queue via repro.mpi.faults; the global
    replicate set completes exactly once with unchanged final results."""

    def test_mid_queue_kill_bit_identical(self, pal, quick_cc, ws_result):
        plan = FaultPlan(kills=(KillSpec(rank=1, replicate=1),))
        killed = run(pal, quick_cc, schedule="work-steal", fault_plan=plan)
        assert killed.failed_ranks == [1]
        # The dead rank files no report, so compare everything but the
        # per-rank list; the survivor's thorough lnL must still match.
        assert_bit_identical(killed, ws_result, ignore=("rank_lnls",))
        assert killed.rank_lnls() == [ws_result.rank_lnls()[0]]

    def test_replicates_completed_exactly_once(self, pal, quick_cc, ws_result):
        plan = FaultPlan(kills=(KillSpec(rank=1, replicate=1),))
        killed = run(pal, quick_cc, schedule="work-steal", fault_plan=plan)
        newicks = [write_newick(t, digits=None) for t in killed.bootstrap_trees]
        assert len(newicks) == 4  # the full global replicate set...
        assert sorted(newicks) == sorted(
            write_newick(t, digits=None) for t in ws_result.bootstrap_trees
        )  # ...each exactly once, bit-equal to the no-fault run
        boot = killed.sched["stage_stats"]["bootstrap"]
        assert sum(d["executed"] for d in boot.values()) >= 4
        assert sum(d["tasks_lost"] for d in boot.values()) >= 1

    def test_stage_boundary_kill(self, pal, quick_cc, ws_result):
        plan = FaultPlan(kills=(KillSpec(rank=1, stage="fast"),))
        killed = run(pal, quick_cc, schedule="work-steal", fault_plan=plan)
        assert killed.failed_ranks == [1]
        assert_bit_identical(killed, ws_result, ignore=("rank_lnls",))


class TestResume:
    def test_full_resume_skips_all_work(self, pal, quick_cc, tmp_path):
        base = dict(schedule="work-steal", checkpoint_dir=str(tmp_path))
        first = run(pal, quick_cc, **base)
        resumed = run(pal, quick_cc, resume=True, **base)
        assert_bit_identical(first, resumed)
        assert resumed.rng_fingerprint == first.rng_fingerprint
        executed = sum(
            d["executed"]
            for stage in ("bootstrap", "fast", "slow", "thorough")
            for d in resumed.sched["stage_stats"].get(stage, {}).values()
        )
        assert executed == 0
        # Journalled stage accounting survives the instant drain, and the
        # per-stage clock re-anchoring keeps the whole timeline exact.
        assert resumed.stage_seconds == first.stage_seconds

    def test_resume_after_kill(self, pal, quick_cc, ws_result, tmp_path):
        base = dict(schedule="work-steal", checkpoint_dir=str(tmp_path))
        plan = FaultPlan(kills=(KillSpec(rank=1, replicate=1),))
        run(pal, quick_cc, fault_plan=plan, **base)
        resumed = run(pal, quick_cc, resume=True, **base)
        assert_bit_identical(resumed, ws_result)

    def test_fingerprint_separates_modes(self, pal, quick_cc, tmp_path):
        """Static checkpoints and work-steal journals describe different
        progress units; resuming across modes must refuse, not mix."""
        from repro.hybrid.checkpoint import config_fingerprint

        a = HybridConfig(2, 2, comprehensive=quick_cc, schedule="static")
        b = HybridConfig(2, 2, comprehensive=quick_cc, schedule="work-steal")
        assert config_fingerprint(pal, a) != config_fingerprint(pal, b)
