"""Tests for fault injection, failure recovery, and checkpoint/restart.

The two hard guarantees of the resilience layer:

1. a run killed at *any* stage boundary and resumed from its checkpoints
   produces a bit-identical :class:`HybridResult` (trees, likelihoods,
   support values, virtual stage times);
2. a run that loses a rank mid-flight completes with the *identical*
   global bootstrap replicate set (dead ranks' replicates are replayed
   from their ``seed + 10000·r`` streams) and reports the recovery cost.
"""

import json
import time

import pytest

from repro.datasets import test_dataset as make_test_dataset
from repro.hybrid.checkpoint import (
    STAGE_ORDER,
    CheckpointError,
    CheckpointStore,
    config_fingerprint,
)
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi.faults import CollectiveGlitch, FaultPlan, KillSpec, RankKilledError
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import (
    BASE_BACKOFF,
    AllRanksDeadError,
    RankFailure,
    RetryExhaustedError,
    SPMDError,
)
from repro.mpi.policy import TimeoutPolicy
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from repro.tree.newick import write_newick
from tests.conftest import assert_bit_identical


@pytest.fixture(scope="module")
def pal():
    pal, _ = make_test_dataset(n_taxa=6, n_sites=90, seed=301)
    return pal


@pytest.fixture(scope="module")
def quick_cc():
    return ComprehensiveConfig(
        n_bootstraps=4,
        cat_categories=3,
        stage_params=StageParams(
            bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
            thorough_max_rounds=2, brlen_passes=1,
        ),
    )


def hybrid_config(quick_cc, **kw):
    kw.setdefault("n_processes", 2)
    kw.setdefault("n_threads", 2)
    return HybridConfig(comprehensive=quick_cc, **kw)


@pytest.fixture(scope="module")
def baseline(pal, quick_cc):
    """An uninterrupted p=2 run every resilience scenario is compared to."""
    return run_hybrid_analysis(pal, hybrid_config(quick_cc))


def bootstrap_newick_multiset(result):
    return sorted(write_newick(t) for t in result.bootstrap_trees)


# ---------------------------------------------------------------------------
# Fault-plan construction
# ---------------------------------------------------------------------------


class TestFaultPlanValidation:
    def test_killspec_needs_exactly_one_point(self):
        with pytest.raises(ValueError, match="exactly one"):
            KillSpec(rank=0)
        with pytest.raises(ValueError, match="exactly one"):
            KillSpec(rank=0, stage="fast", replicate=1)

    def test_killspec_rejects_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            KillSpec(rank=0, stage="warmup")

    def test_killspec_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            KillSpec(rank=0, replicate=-1)
        with pytest.raises(ValueError):
            KillSpec(rank=0, collective=-2)

    def test_glitch_validation(self):
        with pytest.raises(ValueError, match="unknown glitch kind"):
            CollectiveGlitch(rank=0, call_index=0, kind="flaky")
        with pytest.raises(ValueError, match="failures"):
            CollectiveGlitch(rank=0, call_index=0, kind="fail", failures=0)
        with pytest.raises(ValueError, match="delay_seconds"):
            CollectiveGlitch(rank=0, call_index=0, kind="delay")

    def test_plan_rejects_duplicate_glitches(self):
        g = CollectiveGlitch(rank=0, call_index=3, kind="delay", delay_seconds=1.0)
        with pytest.raises(ValueError, match="multiple glitches"):
            FaultPlan(glitches=(g, g))

    def test_kill_wildcard_targets_every_rank(self):
        spec = KillSpec(rank=None, stage="fast")
        assert spec.targets(0) and spec.targets(7)
        with pytest.raises(RankKilledError):
            FaultPlan(kills=(spec,)).kill_at_stage(3, "fast")


# ---------------------------------------------------------------------------
# Collective-level faults in the communicator
# ---------------------------------------------------------------------------


class TestCollectiveFaults:
    def test_transient_failure_retried_with_backoff(self):
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=0, call_index=0, kind="fail", failures=3),
        ))

        def body(comm):
            comm.barrier()
            return comm.account.n_retries, comm.clock.now

        out = run_spmd(body, 2, fault_plan=plan, timeout_policy=TimeoutPolicy(10.0, 10.0))
        (r0, t0), (r1, t1) = out
        assert r0 == 3 and r1 == 0
        # Backoff doubles per attempt: 1 + 2 + 4 units of base_backoff,
        # and the barrier synchronises rank 1 up to rank 0's delayed entry.
        assert t0 >= BASE_BACKOFF * 7
        assert t1 == t0

    def test_retry_budget_exhaustion_is_fatal(self):
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=0, call_index=0, kind="fail", failures=99),
        ))
        with pytest.raises(RetryExhaustedError, match="still failing"):
            run_spmd(lambda comm: comm.barrier(), 2, fault_plan=plan,
                     timeout_policy=TimeoutPolicy(5.0, 5.0))

    def test_delay_glitch_charges_virtual_time(self):
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=1, call_index=0, kind="delay", delay_seconds=2.5),
        ))

        def body(comm):
            comm.barrier()
            return comm.clock.now

        times = run_spmd(body, 2, fault_plan=plan, timeout_policy=TimeoutPolicy(10.0, 10.0))
        assert min(times) >= 2.5  # everyone waits for the delayed rank

    def test_kill_inside_collective_raises_rankfailure_on_survivors(self):
        plan = FaultPlan(kills=(KillSpec(rank=1, collective=0),))

        def body(comm):
            try:
                comm.barrier()
            except RankFailure as rf:
                # Survivors keep communicating; the dead rank shows as None.
                gathered = comm.allgather(comm.rank)
                return rf.dead, gathered
            return "no failure seen"

        out = run_spmd(body, 3, fault_plan=plan, timeout_policy=TimeoutPolicy(10.0, 10.0))
        assert out[1] is None  # the killed rank produced no result
        for res in (out[0], out[2]):
            dead, gathered = res
            assert dead == (1,)
            assert gathered == [0, None, 2]

    def test_death_sets_are_consistent_across_survivors(self):
        plan = FaultPlan(kills=(KillSpec(rank=2, collective=1),))

        def body(comm):
            seen = []
            for _ in range(3):
                try:
                    comm.barrier()
                except RankFailure as rf:
                    seen.append(rf.dead)
            return seen

        out = run_spmd(body, 4, fault_plan=plan, timeout_policy=TimeoutPolicy(10.0, 10.0))
        survivors = [out[r] for r in (0, 1, 3)]
        assert survivors[0] == survivors[1] == survivors[2] == [(2,)]

    def test_hung_rank_suspected_via_deadline(self):
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=1, call_index=0, kind="hang"),
        ))

        def body(comm):
            try:
                comm.barrier()
            except RankFailure as rf:
                return rf.dead
            return "no failure seen"

        started = time.monotonic()
        out = run_spmd(body, 2, fault_plan=plan, timeout_policy=TimeoutPolicy(1.0, 1.0))
        elapsed = time.monotonic() - started
        assert out == [(1,), None]
        assert elapsed < 10.0  # deadline-bounded, not wedged forever

    def test_hang_in_a_one_rank_world_ends_at_the_world_deadline(self):
        """A lone rank has no peer to give up on it: its hang lasts until
        the world deadline and ends as a death, so nobody is left."""
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=0, call_index=0, kind="hang"),
        ))
        started = time.monotonic()
        with pytest.raises(AllRanksDeadError):
            run_spmd(lambda comm: comm.barrier(), 1, fault_plan=plan,
                     timeout_policy=TimeoutPolicy(0.3, 1.0))
        assert 1.0 <= time.monotonic() - started < 5.0

    def test_all_ranks_dead_is_reported(self):
        plan = FaultPlan(kills=(KillSpec(rank=None, collective=0),))
        with pytest.raises(AllRanksDeadError):
            run_spmd(lambda comm: comm.barrier(), 2, fault_plan=plan,
                     timeout_policy=TimeoutPolicy(5.0, 5.0))

    def test_non_resilient_worlds_still_abort_on_kill(self):
        """Without a fault plan a RankKilledError is a bug and surfaces."""

        def body(comm):
            if comm.rank == 0:
                raise RankKilledError("stray kill")
            return "ok"

        with pytest.raises((RankKilledError, SPMDError)):
            run_spmd(body, 2, timeout_policy=TimeoutPolicy(2.0, 2.0))


# ---------------------------------------------------------------------------
# Launcher semantics (satellites: shared deadline, error aggregation)
# ---------------------------------------------------------------------------


class TestLauncher:
    def test_join_uses_one_shared_deadline(self):
        """n hung ranks must cost ~timeout total, not n x timeout."""

        def body(comm):
            time.sleep(30.0)

        started = time.monotonic()
        with pytest.raises(SPMDError, match="shared"):
            run_spmd(body, 4, timeout_policy=TimeoutPolicy(1.0, 1.0))
        assert time.monotonic() - started < 10.0

    def test_secondary_rank_errors_attached_as_notes(self):
        def body(comm):
            raise ValueError(f"boom on rank {comm.rank}")

        with pytest.raises(ValueError, match="boom on rank 0") as info:
            run_spmd(body, 3, timeout_policy=TimeoutPolicy(5.0, 5.0))
        notes = "\n".join(getattr(info.value, "__notes__", []))
        assert "rank 1" in notes and "rank 2" in notes

    def test_non_spmd_error_wins_over_collateral_spmd_errors(self):
        def body(comm):
            if comm.rank == 1:
                raise KeyError("the real bug")
            comm.barrier()  # rank 1 never joins: collateral SPMDError

        with pytest.raises(KeyError, match="the real bug"):
            run_spmd(body, 2, timeout_policy=TimeoutPolicy(5.0, 5.0))


# ---------------------------------------------------------------------------
# Checkpoint store
# ---------------------------------------------------------------------------


class TestCheckpointStore:
    def test_roundtrip_and_atomicity(self, tmp_path):
        store = CheckpointStore(tmp_path, rank=3, fingerprint="fp")
        payload = {"results": [["(a,b,c);", -1.25, 2]], "clock": 0.5}
        store.save("bootstrap", payload)
        assert store.load("bootstrap") == payload
        assert not list(tmp_path.glob("*.tmp"))  # temp file was renamed away

    def test_missing_checkpoint_is_none(self, tmp_path):
        store = CheckpointStore(tmp_path, rank=0, fingerprint="fp")
        assert store.load("setup") is None

    def test_fingerprint_mismatch_refused(self, tmp_path):
        CheckpointStore(tmp_path, 0, "run-A").save("setup", {})
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointStore(tmp_path, 0, "run-B").load("setup")

    def test_older_format_refused_loudly(self, tmp_path):
        """Format 2 changed the fingerprint rule and the journal layout,
        format 3 put the comm account into every stage document, format 4
        dropped its intra/inter-node split; an older file is rejected, not
        migrated or silently re-run."""
        store = CheckpointStore(tmp_path, 0, "fp")
        store.save("setup", {})
        doc = json.loads(store.path("setup").read_text(encoding="ascii"))
        assert doc["format"] == 4
        for older in (1, 2):
            doc["format"] = older
            store.path("setup").write_text(json.dumps(doc), encoding="ascii")
            with pytest.raises(
                CheckpointError, match=f"unsupported checkpoint format {older}"
            ):
                store.load("setup")
        # A format-3 stage document: its comm account still carries the
        # split, which CommAccount no longer takes.  The format check
        # refuses it before the account is rebuilt from it.
        doc["format"] = 3
        doc["payload"] = {"clock": 0.5, "stage_seconds": 0.5, "stage_ops": 7,
                          "comm": {"seconds": 0.0, "intra_seconds": 0.0,
                                   "inter_seconds": 0.0, "n_retries": 0,
                                   "backoff_seconds": 0.0}}
        store.path("setup").write_text(json.dumps(doc), encoding="ascii")
        with pytest.raises(CheckpointError, match="unsupported checkpoint format 3"):
            store.load("setup")

    def test_journal_speaks_the_store_protocol(self, tmp_path):
        """The task journal is a stage store too: stage documents
        round-trip, tasks use the one result codec, and the usable stages
        are the contiguous prefix noted."""
        from repro.hybrid.checkpoint import results_to_payload
        from repro.sched.checkpoint import SchedJournal, open_journal
        from repro.sched.tasks import Task
        from repro.search.hillclimb import SearchResult
        from repro.tree.newick import parse_newick

        taxa = ("a", "b", "c")
        result = SearchResult(parse_newick("(a:0.1,b:0.2,c:0.3);", taxa=taxa), -1.25, 2)
        journal = SchedJournal(tmp_path, 0, "fp")
        journal.record(Task("bootstrap", 0, 0), result, clock_now=0.5)
        doc = {"stage_seconds": 0.5, "stage_ops": 7, "clock": 0.5}
        journal.save("setup", doc)
        journal.save("fast", doc)  # a gap: no bootstrap document
        reopened, restored = open_journal(tmp_path, 0, 1, "fp", taxa, resume=True)
        assert reopened.load("setup") == doc and reopened.load("slow") is None
        assert reopened.available_stages() == ("setup",)
        assert results_to_payload(restored.values()) == results_to_payload([result])
        assert list(restored) == ["bootstrap:0:0"]

    def test_corrupt_json_refused(self, tmp_path):
        store = CheckpointStore(tmp_path, 0, "fp")
        store.save("setup", {})
        store.path("setup").write_text("{half a doc", encoding="ascii")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load("setup")

    def test_available_stages_is_contiguous_prefix(self, tmp_path):
        store = CheckpointStore(tmp_path, 0, "fp")
        for stage in ("setup", "bootstrap", "slow"):  # note the gap: no fast
            store.save(stage, {})
        assert store.available_stages() == ("setup", "bootstrap")

    def test_fingerprint_tracks_config_and_alignment(self, pal, quick_cc):
        cfg_a = hybrid_config(quick_cc)
        cfg_b = hybrid_config(quick_cc, n_threads=4)
        assert config_fingerprint(pal, cfg_a) != config_fingerprint(pal, cfg_b)
        # Resilience knobs must NOT change the fingerprint (a resumed run
        # and its killed predecessor share one by construction).
        cfg_c = hybrid_config(quick_cc, checkpoint_dir="/tmp/x", resume=True)
        assert config_fingerprint(pal, cfg_a) == config_fingerprint(pal, cfg_c)


# ---------------------------------------------------------------------------
# Checkpoint/restart: bit-identical resume at every stage boundary
# ---------------------------------------------------------------------------


class TestResumeDeterminism:
    @pytest.mark.parametrize("stage", STAGE_ORDER + ("finalize",))
    def test_kill_and_resume_is_bit_identical(self, stage, pal, quick_cc,
                                              baseline, tmp_path):
        plan = FaultPlan(kills=(KillSpec(rank=None, stage=stage),))
        with pytest.raises(SPMDError):
            run_hybrid_analysis(pal, hybrid_config(
                quick_cc, checkpoint_dir=str(tmp_path),
                fault_plan=plan, timeout_policy=TimeoutPolicy(60.0, 60.0),
            ))
        resumed = run_hybrid_analysis(pal, hybrid_config(
            quick_cc, checkpoint_dir=str(tmp_path), resume=True,
        ))
        # Virtual timings restore exactly, not approximately — the comm
        # account included: it is a stage quantity like the clock.
        assert_bit_identical(baseline, resumed, timings=True)
        for res_rank, base_rank in zip(resumed.ranks, baseline.ranks):
            assert res_rank.stage_ops == base_rank.stage_ops

    def test_resume_without_checkpoint_dir_rejected(self, quick_cc):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            hybrid_config(quick_cc, resume=True)

    def test_resume_under_changed_config_refused(self, pal, quick_cc, tmp_path):
        plan = FaultPlan(kills=(KillSpec(rank=None, stage="fast"),))
        with pytest.raises(SPMDError):
            run_hybrid_analysis(pal, hybrid_config(
                quick_cc, checkpoint_dir=str(tmp_path),
                fault_plan=plan, timeout_policy=TimeoutPolicy(60.0, 60.0),
            ))
        other_cc = ComprehensiveConfig(
            n_bootstraps=4, cat_categories=3, seed_p=999,
            stage_params=quick_cc.stage_params,
        )
        with pytest.raises(CheckpointError, match="different run"):
            run_hybrid_analysis(pal, hybrid_config(
                other_cc, checkpoint_dir=str(tmp_path), resume=True,
            ))


# ---------------------------------------------------------------------------
# Rank-death recovery: completion with the same replicate set
# ---------------------------------------------------------------------------


class TestRankDeathRecovery:
    def test_death_during_bootstrap_preserves_replicate_set(self, pal, quick_cc,
                                                            baseline):
        plan = FaultPlan(kills=(KillSpec(rank=1, replicate=1),))
        result = run_hybrid_analysis(pal, hybrid_config(
            quick_cc, fault_plan=plan, timeout_policy=TimeoutPolicy(60.0, 60.0),
        ))
        assert result.failed_ranks == [1]
        assert len(result.ranks) == 1  # only the survivor reports
        assert result.ranks[0].recovered_for == (1,)
        # The global replicate set is *identical*: the survivor re-derived
        # rank 1's seed stream and replayed its replicates.
        assert bootstrap_newick_multiset(result) == \
            bootstrap_newick_multiset(baseline)
        # Recovery is charged to virtual time and reported.
        assert result.stage_seconds["recovery"] > 0.0
        assert result.ranks[0].stage_seconds["recovery"] > 0.0

    def test_death_after_bootstrap_reproduces_baseline_answer(self, pal,
                                                              quick_cc,
                                                              baseline):
        """A rank dying late is fully replayed (its original Table 2
        shares), so the final selection sees the same candidate set."""
        plan = FaultPlan(kills=(KillSpec(rank=1, stage="slow"),))
        result = run_hybrid_analysis(pal, hybrid_config(
            quick_cc, fault_plan=plan, timeout_policy=TimeoutPolicy(60.0, 60.0),
        ))
        assert result.failed_ranks == [1]
        assert_bit_identical(baseline, result, ignore=("rank_lnls",))

    @pytest.mark.parametrize("bootstopping", [False, True])
    def test_replayed_share_is_the_dead_ranks_own(self, pal, quick_cc,
                                                  baseline, bootstopping):
        """A replay runs the dead rank's stages on a communicator-less
        context, where the post-bootstrap fuse keeps the original Table 2
        share whatever the mode — so the replayed rank 1 is the baseline's
        rank 1, replicate for replicate."""
        from repro.runtime.backends import StaticBackend

        config = hybrid_config(
            quick_cc, bootstopping=bootstopping, bootstop_max=8,
        )
        (replayed,) = run_spmd(
            lambda comm: StaticBackend()._replay(comm, pal, config, 1), 1
        )
        own = slice(baseline.ranks[0].n_bootstraps, None)
        assert replayed["bootstrap_newicks"] == [
            write_newick(t) for t in baseline.bootstrap_trees[own]
        ]
        assert replayed["thorough"].lnl == baseline.ranks[1].local_best_lnl
        assert write_newick(replayed["thorough"].tree) == \
            baseline.ranks[1].local_best_newick

    def test_recovery_reuses_dead_ranks_checkpoints(self, pal, quick_cc,
                                                    baseline, tmp_path):
        plan = FaultPlan(kills=(KillSpec(rank=1, stage="thorough"),))
        result = run_hybrid_analysis(pal, hybrid_config(
            quick_cc, checkpoint_dir=str(tmp_path),
            fault_plan=plan, timeout_policy=TimeoutPolicy(60.0, 60.0),
        ))
        assert result.failed_ranks == [1]
        # Rank 1 checkpointed setup..slow before dying; the survivor's
        # replay loads those instead of recomputing.
        dead_store = CheckpointStore(
            tmp_path, 1, config_fingerprint(pal, hybrid_config(quick_cc))
        )
        assert dead_store.available_stages() == ("setup", "bootstrap", "fast",
                                                 "slow")
        assert_bit_identical(baseline, result, ignore=("rank_lnls",))

    def test_transient_glitch_reported_in_rank_report(self, pal, quick_cc,
                                                      baseline):
        # Collective call 0 of rank 0 is the post-bootstrap barrier.
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=0, call_index=0, kind="fail", failures=2),
        ))
        result = run_hybrid_analysis(pal, hybrid_config(
            quick_cc, fault_plan=plan, timeout_policy=TimeoutPolicy(60.0, 60.0),
        ))
        assert result.ranks[0].n_retries == 2
        assert result.ranks[1].n_retries == 0
        assert result.failed_ranks == []
        # Retries delay the run but never change the answer.
        assert_bit_identical(baseline, result)

    def test_bootstopping_run_survives_rank_death(self, pal, quick_cc):
        plan = FaultPlan(kills=(KillSpec(rank=1, stage="fast"),))
        result = run_hybrid_analysis(pal, hybrid_config(
            quick_cc, bootstopping=True, bootstop_max=8,
            fault_plan=plan, timeout_policy=TimeoutPolicy(60.0, 60.0),
        ))
        assert result.failed_ranks == [1]
        assert result.best_lnl < 0.0
        assert result.support_tree is not None


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCheckpointCLI:
    def test_checkpoint_then_resume(self, tmp_path):
        from repro.cli import main

        ckpt = tmp_path / "ckpt"
        argv = ["--simulate", "6", "60", "-N", "2", "-np", "2", "-T", "1",
                "--quick", "-n", "ck", "-w", str(tmp_path),
                "--checkpoint-dir", str(ckpt)]
        assert main(argv) == 0
        assert list(ckpt.glob("ckpt-rank0000-*.json"))  # checkpoints on disk
        report_a = json.loads(
            (tmp_path / "RAxML_info.ck.json").read_text(encoding="ascii")
        )
        assert main(argv + ["--resume"]) == 0
        report_b = json.loads(
            (tmp_path / "RAxML_info.ck.json").read_text(encoding="ascii")
        )
        assert report_b == report_a  # resumed run is bit-identical

    def test_resume_requires_checkpoint_dir(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["--simulate", "6", "60", "-N", "2", "--resume"])
