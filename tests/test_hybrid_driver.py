"""Tests for the hybrid comprehensive-analysis driver (repro.hybrid).

These exercise the paper's four algorithmic deltas end to end on small
simulated data: per-rank work shares, local sorting, p thorough searches
with bcast selection, and rank-offset seeding.
"""

import pytest

from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.search.comprehensive import ComprehensiveConfig, run_comprehensive
from repro.search.searches import StageParams
from repro.tree.newick import write_newick


@pytest.fixture(scope="module")
def pal():
    from repro.datasets import test_dataset

    pal, _ = test_dataset(n_taxa=6, n_sites=90, seed=301)
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


@pytest.fixture(scope="module")
def result_p2(pal, quick_cc):
    return run_hybrid_analysis(
        pal, HybridConfig(n_processes=2, n_threads=2, comprehensive=quick_cc)
    )


class TestSchedule:
    def test_ranks_follow_table2_counts(self, result_p2):
        sched = result_p2.schedule
        for rank in result_p2.ranks:
            assert rank.n_bootstraps == sched.bootstraps_per_process
            assert rank.n_fast == sched.fast_per_process
            assert rank.n_slow == sched.slow_per_process

    def test_total_bootstraps_match_schedule(self, result_p2):
        assert result_p2.n_bootstraps_done == result_p2.schedule.total_bootstraps

    def test_every_rank_ran_thorough(self, result_p2):
        """Section 2.1: each rank runs its own thorough search."""
        assert len(result_p2.rank_lnls()) == 2
        for r in result_p2.ranks:
            assert r.stage_seconds["thorough"] > 0


class TestWinnerSelection:
    def test_winner_is_best_rank(self, result_p2):
        lnls = result_p2.rank_lnls()
        assert result_p2.best_lnl == max(lnls)
        assert result_p2.winner_rank == lnls.index(max(lnls))

    def test_best_tree_is_winners_tree(self, result_p2):
        winner = result_p2.ranks[result_p2.winner_rank]
        assert write_newick(result_p2.best_tree) == winner.local_best_newick

    def test_best_tree_valid(self, result_p2, pal):
        result_p2.best_tree.validate()
        assert result_p2.best_tree.taxa == pal.taxa


class TestReproducibility:
    def test_identical_reruns(self, pal, quick_cc, result_p2):
        again = run_hybrid_analysis(
            pal, HybridConfig(n_processes=2, n_threads=2, comprehensive=quick_cc)
        )
        assert write_newick(again.best_tree) == write_newick(result_p2.best_tree)
        assert again.best_lnl == result_p2.best_lnl
        assert again.total_seconds == result_p2.total_seconds
        assert again.stage_seconds == result_p2.stage_seconds

    def test_process_count_changes_results(self, pal, quick_cc, result_p2):
        """Section 2.4: results are reproducible *for a given number of MPI
        processes* — other process counts legitimately differ."""
        p3 = run_hybrid_analysis(
            pal, HybridConfig(n_processes=3, n_threads=2, comprehensive=quick_cc)
        )
        assert p3.n_bootstraps_done != result_p2.n_bootstraps_done or (
            write_newick(p3.best_tree) != write_newick(result_p2.best_tree)
            or p3.best_lnl != result_p2.best_lnl
        )

    def test_thread_count_does_not_change_results(self, pal, quick_cc, result_p2):
        """Fine-grained parallelism is numerically transparent: T only
        changes timing, never the inference."""
        t1 = run_hybrid_analysis(
            pal, HybridConfig(n_processes=2, n_threads=1, comprehensive=quick_cc)
        )
        assert write_newick(t1.best_tree) == write_newick(result_p2.best_tree)
        assert t1.best_lnl == pytest.approx(result_p2.best_lnl, abs=1e-9)


class TestQuality:
    def test_multiprocess_at_least_serial_quality(self, pal, quick_cc, result_p2):
        """Table 6: 'the multi-process solutions are as good as or better
        than the serial solutions'."""
        serial = run_comprehensive(pal, quick_cc)
        assert result_p2.best_lnl >= serial.best_lnl - 1e-6

    def test_hybrid_p1_matches_serial_pipeline(self, pal, quick_cc):
        """With one process the hybrid driver must reduce exactly to the
        serial algorithm (same seeds, same stage structure)."""
        serial = run_comprehensive(pal, quick_cc)
        hybrid = run_hybrid_analysis(
            pal, HybridConfig(n_processes=1, n_threads=2, comprehensive=quick_cc)
        )
        assert write_newick(hybrid.best_tree) == write_newick(serial.best_tree)
        assert hybrid.best_lnl == serial.best_lnl
        assert {
            s: hybrid.ranks[0].stage_ops[s] for s in serial.stage_ops
        } == serial.stage_ops


class TestTiming:
    def test_stage_seconds_are_max_over_ranks(self, result_p2):
        for stage, value in result_p2.stage_seconds.items():
            per_rank = [r.stage_seconds.get(stage, 0.0) for r in result_p2.ranks]
            assert value == pytest.approx(max(per_rank))

    def test_total_is_latest_finish(self, result_p2):
        assert result_p2.total_seconds == max(r.finish_time for r in result_p2.ranks)

    def test_more_threads_reduce_virtual_time(self, pal, quick_cc):
        t1 = run_hybrid_analysis(
            pal, HybridConfig(n_processes=1, n_threads=1, comprehensive=quick_cc)
        )
        t4 = run_hybrid_analysis(
            pal, HybridConfig(n_processes=1, n_threads=4, comprehensive=quick_cc)
        )
        assert t4.total_seconds < t1.total_seconds

    def test_communication_negligible_in_real_run(self, result_p2):
        """Section 4: interconnect speed has 'a negligible effect' — the
        *pure* communication overhead (the slowest rank barely waits at
        barriers) is a tiny fraction of the run."""
        min_comm = min(r.comm_seconds for r in result_p2.ranks)
        assert min_comm < 0.01 * result_p2.total_seconds

    def test_comm_trace_recorded(self, result_p2):
        """Every rank communicates: one barrier + allgather + bcast."""
        for r in result_p2.ranks:
            assert r.comm_seconds >= 0.0

    def test_more_processes_reduce_bootstrap_stage(self, pal, quick_cc, result_p2):
        p1 = run_hybrid_analysis(
            pal, HybridConfig(n_processes=1, n_threads=2, comprehensive=quick_cc)
        )
        assert result_p2.stage_seconds["bootstrap"] < p1.stage_seconds["bootstrap"]


class TestSupport:
    def test_support_tree_annotated(self, result_p2):
        sup = result_p2.support_tree
        assert sup is not None
        values = [e.support for e in sup.internal_edges()]
        assert values and all(0.0 <= v <= 1.0 for v in values)

    def test_bootstrap_trees_collected(self, result_p2):
        assert len(result_p2.bootstrap_trees) == result_p2.n_bootstraps_done
        for t in result_p2.bootstrap_trees:
            t.validate()


class TestConfigValidation:
    def test_thread_limit_enforced(self, quick_cc):
        """Threads are limited to the machine's cores per node."""
        with pytest.raises(ValueError, match="cores per node"):
            HybridConfig(n_processes=1, n_threads=16, machine="dash",
                         comprehensive=quick_cc)
        # 16 threads are fine on Ranger.
        HybridConfig(n_processes=1, n_threads=16, machine="ranger",
                     comprehensive=quick_cc)

    def test_positive_counts(self, quick_cc):
        with pytest.raises(ValueError):
            HybridConfig(n_processes=0, n_threads=1, comprehensive=quick_cc)
        with pytest.raises(ValueError):
            HybridConfig(n_processes=1, n_threads=0, comprehensive=quick_cc)

    def test_bootstop_step_validated(self, quick_cc):
        with pytest.raises(ValueError):
            HybridConfig(n_processes=1, n_threads=1, comprehensive=quick_cc,
                         bootstop_step=3)
