"""Tests for the layout advisor (repro.perfmodel.advisor) and the hybrid
run-report serialisation."""

import json

import pytest

from repro.perfmodel.advisor import recommend_layout
from repro.perfmodel.machines import MACHINES
from repro.perfmodel.profiles import default_profile, profile_for


class TestRecommendLayout:
    def test_matches_table5_1846_80c(self):
        """On 80 Dash cores with 100 bootstraps, the advisor must pick the
        paper's 10 x 8 layout for the 1,846-pattern set."""
        rec = recommend_layout(profile_for(1846), MACHINES["dash"], 100, 80)
        assert (rec.n_processes, rec.n_threads) == (10, 8)
        assert 28 <= rec.predicted_speedup <= 43

    def test_matches_table5_triton_64c(self):
        rec = recommend_layout(profile_for(19436), MACHINES["triton"], 100, 64)
        assert (rec.n_processes, rec.n_threads) == (2, 32)

    def test_more_bootstraps_more_processes(self):
        """Summary: 'The useful number of MPI processes increases with the
        number of bootstraps performed'."""
        dash = MACHINES["dash"]
        few = recommend_layout(profile_for(348), dash, 100, 80)
        many = recommend_layout(profile_for(348), dash, 1200, 80)
        assert many.n_processes >= few.n_processes

    def test_more_patterns_more_threads(self):
        """Summary: 'The optimal number of Pthreads increases with the
        number of patterns'."""
        dash = MACHINES["dash"]
        small = recommend_layout(profile_for(348), dash, 100, 16)
        large = recommend_layout(profile_for(19436), dash, 100, 16)
        assert large.n_threads >= small.n_threads

    def test_alternatives_sorted(self):
        rec = recommend_layout(profile_for(1846), MACHINES["dash"], 100, 40)
        times = [s for _, _, s in rec.alternatives]
        assert times == sorted(times)
        assert all(s >= rec.predicted_seconds for s in times)

    def test_memory_constraint_applies(self):
        """A pattern-rich future profile on memory-poor Abe must not pick
        one process per core."""
        from repro.datasets.registry import DatasetSpec

        spec = DatasetSpec("future", taxa=2048, characters=250_000,
                           patterns=200_000, recommended_bootstraps=100)
        prof = default_profile(spec)
        abe = MACHINES["abe"]
        try:
            rec = recommend_layout(prof, abe, 100, 8)
        except ValueError:
            return  # does not fit at all: also an acceptable outcome
        assert rec.n_threads > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            recommend_layout(profile_for(1846), MACHINES["dash"], 100, 0)


class TestRunReport:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.datasets import test_dataset
        from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
        from repro.search.comprehensive import ComprehensiveConfig
        from repro.search.searches import StageParams

        pal, _ = test_dataset(n_taxa=6, n_sites=80, seed=71)
        cfg = ComprehensiveConfig(
            n_bootstraps=2, cat_categories=3,
            stage_params=StageParams(slow_max_rounds=1, thorough_max_rounds=1,
                                     brlen_passes=1),
        )
        return run_hybrid_analysis(
            pal, HybridConfig(n_processes=2, n_threads=1, comprehensive=cfg)
        )

    def test_report_is_json_serialisable(self, result):
        text = json.dumps(result.to_report())
        back = json.loads(text)
        assert back["best_lnl"] == result.best_lnl
        assert back["winner_rank"] == result.winner_rank

    def test_report_contents(self, result):
        rep = result.to_report()
        assert rep["schedule"]["n_processes"] == 2
        assert len(rep["ranks"]) == 2
        assert rep["best_tree"].endswith(";")
        assert rep["support_tree"] is not None
        for rank in rep["ranks"]:
            assert rank["stage_seconds"]["thorough"] > 0

    def test_report_times_consistent(self, result):
        rep = result.to_report()
        assert rep["total_seconds"] == max(
            r["finish_time"] for r in rep["ranks"]
        )
