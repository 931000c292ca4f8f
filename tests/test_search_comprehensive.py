"""Tests for the serial comprehensive analysis (repro.search.comprehensive)."""

import weakref

import pytest

from repro.likelihood.engine import OpCounter
from repro.search import searches
from repro.search.comprehensive import (
    ComprehensiveConfig,
    default_engine_factory,
    fast_count,
    prepare_model_and_rates,
    run_comprehensive,
    search_unit,
    select_best,
    select_fast_starts,
    slow_count,
)
from repro.search.hillclimb import SearchResult
from repro.tree.newick import write_newick
from repro.util.rng import RAxMLRandom


class TestCounts:
    def test_fast_count_paper_values(self):
        assert fast_count(100) == 20
        assert fast_count(500) == 100
        assert fast_count(104) == 21
        assert fast_count(1) == 1

    def test_slow_count_paper_values(self):
        assert slow_count(20) == 10
        assert slow_count(100) == 10  # capped
        assert slow_count(3) == 2
        assert slow_count(1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            fast_count(0)
        with pytest.raises(ValueError):
            slow_count(0)


class TestSelection:
    def test_select_best_orders_by_lnl(self):
        results = [SearchResult(None, lnl) for lnl in (-5.0, -1.0, -3.0)]
        best = select_best(results, 2)
        assert [r.lnl for r in best] == [-1.0, -3.0]

    def test_select_best_validates(self):
        with pytest.raises(ValueError):
            select_best([SearchResult(None, -1.0)], 2)

    def test_select_fast_starts_every_fifth(self):
        trees = list(range(100))
        starts = select_fast_starts(trees, 20)
        assert starts == list(range(0, 100, 5))

    def test_select_fast_starts_validates(self):
        with pytest.raises(ValueError):
            select_fast_starts([1, 2], 3)


class TestConfig:
    def test_defaults_match_paper_command_line(self):
        cfg = ComprehensiveConfig()
        # -m GTRCAT -N 100 -p 12345 -x 12345 -f a
        assert cfg.n_bootstraps == 100
        assert cfg.seed_p == 12345
        assert cfg.seed_x == 12345
        assert cfg.use_cat is True

    def test_validation(self):
        with pytest.raises(ValueError):
            ComprehensiveConfig(n_bootstraps=0)
        with pytest.raises(ValueError):
            ComprehensiveConfig(seed_p=0)
        with pytest.raises(ValueError):
            ComprehensiveConfig(parsimony_refresh_every=0)


class TestRunComprehensive:
    @pytest.fixture(scope="class")
    def result(self, request):
        tiny_pal = request.getfixturevalue("tiny_pal")
        from repro.search.searches import StageParams

        cfg = ComprehensiveConfig(
            n_bootstraps=5,
            cat_categories=3,
            stage_params=StageParams(
                slow_max_rounds=1, thorough_max_rounds=2, brlen_passes=1
            ),
        )
        return run_comprehensive(tiny_pal, cfg), cfg, tiny_pal

    def test_counts_follow_schedule(self, result):
        res, cfg, _ = result
        assert len(res.bootstrap_trees) == 5
        assert len(res.fast_results) == fast_count(5)
        assert len(res.slow_results) == slow_count(fast_count(5))

    def test_stage_ops_recorded(self, result):
        res, _, _ = result
        for stage in ("setup", "bootstrap", "fast", "slow", "thorough"):
            assert res.stage_ops[stage] > 0
        # Bootstraps dominate the CAT stages.
        assert res.stage_ops["bootstrap"] > res.stage_ops["fast"]

    def test_best_is_thorough_result(self, result):
        res, _, _ = result
        assert res.best_lnl == res.thorough_result.lnl
        assert res.best_tree is res.thorough_result.tree
        res.best_tree.validate()

    def test_best_beats_all_slow_results(self, result):
        """The thorough search must not be worse than its starting point.
        (CAT and GAMMA likelihoods differ; compare progression loosely.)"""
        res, _, pal = result
        assert res.best_lnl >= max(r.lnl for r in res.slow_results) - 50.0

    def test_deterministic(self, result, tiny_pal):
        res, cfg, _ = result
        res2 = run_comprehensive(tiny_pal, cfg)
        assert write_newick(res2.best_tree) == write_newick(res.best_tree)
        assert res2.best_lnl == pytest.approx(res.best_lnl, abs=1e-12)

    def test_pattern_compression_is_exact(self, tiny_pal):
        """Dropping zero-weight patterns from bootstrap engines must not
        change any result (zero weight = zero contribution)."""
        import dataclasses

        from repro.search.searches import StageParams

        cfg = ComprehensiveConfig(
            n_bootstraps=3, cat_categories=3,
            stage_params=StageParams(slow_max_rounds=1, thorough_max_rounds=1,
                                     brlen_passes=1),
        )
        a = run_comprehensive(tiny_pal, cfg)
        b = run_comprehensive(
            tiny_pal, dataclasses.replace(cfg, compress_bootstrap_patterns=False)
        )
        assert [write_newick(t) for t in a.bootstrap_trees] == [
            write_newick(t) for t in b.bootstrap_trees
        ]
        assert a.best_lnl == pytest.approx(b.best_lnl, abs=1e-8)
        # Compression does strictly less kernel work in the bootstrap stage.
        assert a.stage_ops["bootstrap"] < b.stage_ops["bootstrap"]

    def test_seed_changes_result_path(self, tiny_pal):
        from repro.search.searches import StageParams

        params = StageParams(slow_max_rounds=1, thorough_max_rounds=1, brlen_passes=1)
        a = run_comprehensive(
            tiny_pal,
            ComprehensiveConfig(n_bootstraps=3, seed_x=1111, cat_categories=3, stage_params=params),
        )
        b = run_comprehensive(
            tiny_pal,
            ComprehensiveConfig(n_bootstraps=3, seed_x=2222, cat_categories=3, stage_params=params),
        )
        # Different bootstrap streams -> different bootstrap trees (almost surely).
        assert [write_newick(t) for t in a.bootstrap_trees] != [
            write_newick(t) for t in b.bootstrap_trees
        ]


class TestThoroughEngine:
    def test_the_starting_engine_is_gone_before_the_hill_climb(
        self, tiny_pal, quick_config, monkeypatch
    ):
        """Model optimisation replaces the thorough search's starting
        engine; nothing keeps the old one (and its CLV cache) alive
        through the hill climb."""
        p_rng, ops = RAxMLRandom(12345), OpCounter()
        setup = prepare_model_and_rates(tiny_pal, quick_config, p_rng, default_engine_factory, ops)
        built = []

        def factory(*args):
            engine = default_engine_factory(*args)
            built.append(weakref.ref(engine))
            return engine

        alive = []
        climb = searches.hill_climb

        def noting(engine, *args, **kwargs):
            alive.append([ref() is not None for ref in built])
            return climb(engine, *args, **kwargs)

        monkeypatch.setattr(searches, "hill_climb", noting)
        result, _model = search_unit(
            "thorough", 0, setup[3], setup, tiny_pal, p_rng, factory, ops, quick_config
        )
        assert alive == [[False]]
        assert result.lnl < 0

