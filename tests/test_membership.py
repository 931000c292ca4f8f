"""Tests for the epoch-based membership layer and the unified policies.

Covers the membership data model (:mod:`repro.mpi.membership`), the
retry backoff and the one :class:`TimeoutPolicy`
(:mod:`repro.mpi.policy`), the membership stamps checkpoints carry (a
resume under different membership must fail loudly), full recovery
from two deaths in a three-rank world, the pinned adoption claim (a
dead rank's share is replayed exactly once even when later deaths
reshuffle the survivor list), and the audit guarantee that
``RankKilledError`` — a ``BaseException`` — is never swallowed by a
broad ``except Exception`` on the way out of a dying rank.
"""

import json

import pytest

from repro.datasets import test_dataset as make_test_dataset
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi.faults import (
    CollectiveGlitch,
    FaultPlan,
    KillSpec,
    RankKilledError,
)
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import (
    BASE_BACKOFF,
    DistributedStateError,
    MembershipView,
)
from repro.mpi.policy import TimeoutPolicy
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from tests.conftest import assert_bit_identical


@pytest.fixture(scope="module")
def pal():
    pal, _ = make_test_dataset(n_taxa=6, n_sites=60, seed=301)
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
    kw.setdefault("n_threads", 1)
    kw.setdefault("comprehensive", quick_cc)
    kw.setdefault("timeout_policy",
                  TimeoutPolicy(collective_seconds=2.0, world_seconds=600.0))
    return HybridConfig(**kw)


# ---------------------------------------------------------------------------
# MembershipView data model
# ---------------------------------------------------------------------------


class TestMembershipView:
    def test_fingerprint_depends_only_on_epoch_and_live(self):
        a = MembershipView(epoch=3, live=(0, 2), dead=(1,))
        b = MembershipView(epoch=3, live=(0, 2), dead=())
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_epoch_or_live(self):
        base = MembershipView(epoch=1, live=(0, 1))
        assert base.fingerprint() != MembershipView(epoch=2, live=(0, 1)).fingerprint()
        assert base.fingerprint() != MembershipView(epoch=1, live=(0,)).fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError, match="epoch"):
            MembershipView(epoch=-1, live=(0,))
        with pytest.raises(ValueError, match="sorted"):
            MembershipView(epoch=0, live=(1, 0))

    def test_as_doc_roundtrips_to_json(self):
        view = MembershipView(epoch=2, live=(0, 1, 3), dead=(2,))
        doc = json.loads(json.dumps(view.as_doc()))
        assert doc["epoch"] == 2
        assert doc["live"] == [0, 1, 3]
        assert doc["dead"] == [2]
        assert doc["fingerprint"] == view.fingerprint()


# ---------------------------------------------------------------------------
# Retry backoff / TimeoutPolicy
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_backoff_is_exponential(self):
        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=0, call_index=0, kind="fail", failures=4),
        ))

        def body(comm):
            comm.barrier()
            return comm.account.n_retries, comm.account.backoff_seconds

        (retries, backoff), _ = run_spmd(body, 2, fault_plan=plan)
        assert retries == 4
        assert backoff == pytest.approx(BASE_BACKOFF * (1 + 2 + 4 + 8))

    def test_timeout_validation_and_backcompat(self):
        with pytest.raises(ValueError):
            TimeoutPolicy(collective_seconds=0.0)
        with pytest.raises(ValueError):
            TimeoutPolicy(world_seconds=-1.0)

    def test_policies_not_in_checkpoint_fingerprint(self, pal, quick_cc):
        from repro.hybrid.checkpoint import config_fingerprint

        a = hybrid_config(quick_cc)
        b = hybrid_config(
            quick_cc, timeout_policy=TimeoutPolicy(collective_seconds=1.0),
        )
        assert config_fingerprint(pal, a) == config_fingerprint(pal, b)


# ---------------------------------------------------------------------------
# Epoch advancement end to end
# ---------------------------------------------------------------------------


class TestEpochs:
    def test_fault_free_run_stays_at_epoch_zero(self, pal, quick_cc):
        result = run_hybrid_analysis(pal, hybrid_config(quick_cc))
        assert result.membership["epoch"] == 0
        assert result.membership["live"] == [0, 1]

    def test_death_bumps_epoch(self, pal, quick_cc):
        plan = FaultPlan(kills=(KillSpec(rank=1, stage="fast"),))
        result = run_hybrid_analysis(pal, hybrid_config(quick_cc, fault_plan=plan))
        assert result.failed_ranks == [1]
        assert result.membership["epoch"] >= 1
        assert result.membership["live"] == [0]


# ---------------------------------------------------------------------------
# The rank report has one schema
# ---------------------------------------------------------------------------


class _NoDefaults(dict):
    """A rank report that refuses defaulted reads of anything but the
    documented extras."""

    EXTRAS = {"sched"}

    def get(self, key, default=None):
        assert key in self.EXTRAS, f"defaulted read of common key {key!r}"
        return super().get(key, default)


class TestRankReportSchema:
    def test_static_and_worksteal_reports_share_one_schema(
        self, pal, quick_cc
    ):
        from repro.hybrid.results import assemble_hybrid_result
        from repro.runtime.backends import BACKENDS, run_rank

        common = None
        for schedule in ("static", "work-steal"):
            config = hybrid_config(quick_cc, schedule=schedule)
            board = BACKENDS[schedule].make_shared(config)
            raw = run_spmd(
                lambda comm, shared=None: run_rank(comm, pal, config, shared),
                config.n_processes, timeout_policy=config.timeout_policy,
                shared=board,
            )
            for r in raw:
                extras = {"sched"} if schedule == "work-steal" else set()
                assert set(r) & _NoDefaults.EXTRAS == extras
                keys = set(r) - _NoDefaults.EXTRAS
                common = common or keys
                assert keys == common
            result = assemble_hybrid_result(
                pal, config, [_NoDefaults(r) for r in raw], board
            )
            assert [r.rank for r in result.ranks] == [0, 1]


# ---------------------------------------------------------------------------
# Checkpoint membership stamps (--resume guard)
# ---------------------------------------------------------------------------


class TestCheckpointMembershipGuard:
    def test_resume_under_different_membership_is_rejected(
        self, pal, quick_cc, tmp_path
    ):
        ck = tmp_path / "ck"
        config = hybrid_config(quick_cc, checkpoint_dir=str(ck))
        run_hybrid_analysis(pal, config)

        # Tamper: pretend the checkpoints were written in a world that
        # had already advanced to a different epoch/live set.
        stamped = 0
        for path in ck.rglob("*.json"):
            doc = json.loads(path.read_text())
            stamp = (doc.get("payload") or {}).get("membership")
            if stamp is None:
                continue
            stamp["epoch"] += 7
            stamp["fingerprint"] = "0" * 16
            path.write_text(json.dumps(doc))
            stamped += 1
        assert stamped > 0, "no membership stamps found to tamper with"

        resume = hybrid_config(quick_cc, checkpoint_dir=str(ck), resume=True)
        with pytest.raises(DistributedStateError, match="membership"):
            run_hybrid_analysis(pal, resume)

    def test_resume_with_same_membership_succeeds(self, pal, quick_cc, tmp_path):
        ck = tmp_path / "ck"
        config = hybrid_config(quick_cc, checkpoint_dir=str(ck))
        baseline = run_hybrid_analysis(pal, config)
        resumed = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, checkpoint_dir=str(ck), resume=True)
        )
        assert_bit_identical(baseline, resumed, ignore=("rank_lnls",))


# ---------------------------------------------------------------------------
# Every death is replayed
# ---------------------------------------------------------------------------


class TestReplayRecovery:
    def test_two_of_three_dead_recover_fully(self, pal, quick_cc):
        baseline = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, n_processes=3)
        )
        plan = FaultPlan(kills=(KillSpec(rank=1, stage="fast"),
                                KillSpec(rank=2, stage="slow")))
        result = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, n_processes=3, fault_plan=plan)
        )
        assert_bit_identical(baseline, result, ignore=("rank_lnls",))


# ---------------------------------------------------------------------------
# Adoption is a pinned claim (no double replay)
# ---------------------------------------------------------------------------


class TestAdoptionClaim:
    def test_claim_stays_pinned_after_a_later_death(self, pal, quick_cc):
        """A later death reshuffles the survivor list between recoveries;
        the adopter claimed when the first death surfaced must stick, so
        no share is replayed twice and the result stays bit-identical."""
        baseline = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, n_processes=4)
        )
        # Rank 2's death surfaces with survivors [0, 1, 3]: the claim is
        # survivors[2 % 3] = rank 3.  Rank 0's death surfaces with
        # survivors [1, 3]: its claim is survivors[0 % 2] = rank 1.  A
        # claim recomputed from [1, 3] would hand rank 2 to rank 1 too.
        plan = FaultPlan(
            kills=(KillSpec(rank=2, stage="bootstrap"),
                   KillSpec(rank=0, stage="slow")),
        )
        result = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, n_processes=4, fault_plan=plan)
        )
        assert sorted(result.failed_ranks) == [0, 2]
        assert_bit_identical(baseline, result, ignore=("rank_lnls",))
        recovered = {r.rank: r.recovered_for for r in result.ranks}
        assert recovered == {1: (0,), 3: (2,)}
        flat = [d for adopted in recovered.values() for d in adopted]
        assert sorted(flat) == [0, 2]

    def test_claim_moves_when_the_adopter_itself_dies(self, pal, quick_cc):
        """An adopter's local replay dies with it: the versioned claim
        must advance past the dead owner so a survivor replays again."""
        baseline = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, n_processes=3)
        )
        # Rank 1 dies at 'bootstrap'; survivors [0, 2] elect rank 2
        # ((1 + 0) % 2) as adopter.  Rank 2 then dies at 'slow', taking
        # its replay of rank 1's share with it — the claim's version 1
        # must hand both shares to rank 0.
        plan = FaultPlan(
            kills=(KillSpec(rank=1, stage="bootstrap"),
                   KillSpec(rank=2, stage="slow")),
        )
        result = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, n_processes=3, fault_plan=plan)
        )
        assert sorted(result.failed_ranks) == [1, 2]
        assert_bit_identical(baseline, result, ignore=("rank_lnls",))
        assert sorted(result.ranks[0].recovered_for) == [1, 2]


# ---------------------------------------------------------------------------
# RankKilledError audit: a dying rank is never swallowed
# ---------------------------------------------------------------------------


class TestRankKilledErrorAudit:
    def test_rank_killed_error_is_base_exception(self):
        assert issubclass(RankKilledError, BaseException)
        assert not issubclass(RankKilledError, Exception)

    def test_except_exception_cannot_swallow_a_kill(self):
        """The exact leak the audit guards against: user-level code with
        a broad ``except Exception`` must not convert a kill into a
        survivable condition."""
        def body(comm):
            witnessed = []
            try:
                if comm.rank == 1:
                    raise RankKilledError("rank 1 killed at 'fast'")
            except Exception:  # the classic overbroad handler
                witnessed.append("swallowed")
            return comm.rank, witnessed

        results = run_spmd(body, 2, fault_plan=FaultPlan())
        assert results[0] == (0, [])
        assert results[1] is None  # rank 1 died, not recovered here

    def test_pool_releases_board_state_when_rank_dies(self, pal, quick_cc):
        """A kill inside a work-steal pool must abandon the rank's board
        state (releasing its queue to survivors), not wedge the drain."""
        baseline = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, schedule="work-steal")
        )
        plan = FaultPlan(kills=(KillSpec(rank=1, replicate=0),))
        result = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, schedule="work-steal", fault_plan=plan)
        )
        assert result.failed_ranks == [1]
        assert_bit_identical(baseline, result, ignore=("rank_lnls",))


# ---------------------------------------------------------------------------
# Recovery overhead reaches the obs report (Fig. 3-4 wiring)
# ---------------------------------------------------------------------------


class TestRecoveryObservability:
    def test_recovery_overhead_block_in_report(self, pal, quick_cc):
        plan = FaultPlan(kills=(KillSpec(rank=1, stage="fast"),))
        config = hybrid_config(
            quick_cc, fault_plan=plan, collect_metrics=True,
        )
        result = run_hybrid_analysis(pal, config)
        report = result.metrics["report"]
        overhead = report.get("recovery_overhead")
        assert overhead, "recovery_overhead block missing from the report"
        assert overhead["total_seconds"] > 0.0
        assert any(v > 0.0 for v in overhead["per_stage"].values())

    def test_fault_free_run_reports_zero_recovery(self, pal, quick_cc):
        result = run_hybrid_analysis(
            pal, hybrid_config(quick_cc, collect_metrics=True)
        )
        overhead = result.metrics["report"].get("recovery_overhead")
        if overhead is not None:
            assert overhead["total_seconds"] == 0.0

    def test_retry_and_backoff_counters_surface(self, pal, quick_cc):
        from repro.mpi.faults import CollectiveGlitch

        plan = FaultPlan(glitches=(
            CollectiveGlitch(rank=0, call_index=0, kind="fail", failures=2),
        ))
        result = run_hybrid_analysis(pal, hybrid_config(quick_cc, fault_plan=plan))
        assert sum(r.n_retries for r in result.ranks) >= 2
        assert sum(r.backoff_seconds for r in result.ranks) > 0.0
