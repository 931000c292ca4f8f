"""Tests for the scheduler task model (repro.sched.tasks): the LCG
jump-ahead, closed-form stream derivation, DAG shape, and the RNG-stream
fingerprint."""

import numpy as np
import pytest

from repro.search.comprehensive import (
    LABEL_FAST,
    LABEL_REPLICATE,
    LABEL_SLOW,
    LABEL_THOROUGH,
    ComprehensiveConfig,
)
from repro.search.schedule import make_schedule
from repro.sched.tasks import (
    TASK_KINDS,
    Task,
    build_dag,
    lcg_jump,
    replicate_x_state,
    rng_stream_fingerprint,
    task_id,
    task_streams,
)
from repro.util.rng import RAxMLRandom, rank_seed


class TestLcgJump:
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 48, 1000, 123457])
    def test_matches_scalar_stepping(self, k):
        state = RAxMLRandom(987654).seed & RAxMLRandom._MASK
        s = state
        for _ in range(min(k, 2000)):
            s = (s * RAxMLRandom._MULT + 1) & RAxMLRandom._MASK
        if k <= 2000:
            assert lcg_jump(state, k) == s
        else:
            # Compose two jumps instead of stepping a hundred thousand times.
            assert lcg_jump(state, k) == lcg_jump(lcg_jump(state, 2000), k - 2000)

    def test_identity_at_zero(self):
        assert lcg_jump(12345, 0) == 12345

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lcg_jump(1, -1)


class TestReplicateXState:
    def test_matches_sequential_consumption(self):
        """Jumping b·n_draws steps lands exactly where the static pipeline's
        sequential x-stream would be before replicate b."""
        cfg = ComprehensiveConfig(n_bootstraps=4, seed_x=991)
        n_draws = 37
        weights = np.ones(11) * np.array([1, 2, 3, 4, 5, 6, 2, 3, 4, 3, 4])
        x = RAxMLRandom(rank_seed(cfg.seed_x, 2))
        for b in range(4):
            assert x._state == replicate_x_state(cfg, 2, b, n_draws)
            x.weighted_multinomial_counts(n_draws, weights)

    def test_origin_zero_replicate_zero_is_base_seed(self):
        cfg = ComprehensiveConfig(seed_x=4711)
        assert replicate_x_state(cfg, 0, 0, 100) == 4711 & RAxMLRandom._MASK


class TestDagShape:
    def test_counts_match_schedule(self):
        sched = make_schedule(100, 8)  # b=13, f=3, s=2
        cfg = ComprehensiveConfig(n_bootstraps=100)
        dag = build_dag(sched, cfg, 8)
        assert sorted(dag) == sorted(TASK_KINDS)
        assert len(dag["setup"]) == 8
        assert len(dag["bootstrap"]) == 8 * 13
        assert len(dag["fast"]) == 8 * 3
        assert len(dag["slow"]) == 8 * 2
        assert len(dag["thorough"]) == 8

    def test_bootstrap_chain_breaks_at_refresh(self):
        sched = make_schedule(100, 8)
        cfg = ComprehensiveConfig(n_bootstraps=100, parsimony_refresh_every=5)
        dag = build_dag(sched, cfg, 8)
        by_id = {t.id: t for t in dag["bootstrap"]}
        for o in (0, 3):
            for b in range(13):
                deps = by_id[task_id("bootstrap", o, b)].deps
                chained = [d for d in deps if d.startswith("bootstrap:")]
                if b == 0 or b % 5 == 0:
                    assert chained == []
                else:
                    assert chained == [task_id("bootstrap", o, b - 1)]

    def test_fast_starts_follow_static_selection(self):
        """fast i starts from bootstrap (i·5) % nb, the static
        select_fast_starts rule."""
        sched = make_schedule(100, 8)
        dag = build_dag(sched, ComprehensiveConfig(n_bootstraps=100), 8)
        for t in dag["fast"]:
            assert t.deps[1] == task_id("bootstrap", t.origin, (t.index * 5) % 13)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_dag(make_schedule(10, 2), ComprehensiveConfig(), 0)
        with pytest.raises(ValueError):
            Task("bootstrap", -1, 0)


class TestStreamsAndFingerprint:
    def test_labels_match_static_scheme(self):
        cfg = ComprehensiveConfig(seed_p=777)
        assert task_streams(Task("fast", 3, 2), cfg, 10)["label"] == LABEL_FAST + 2
        assert task_streams(Task("slow", 3, 1), cfg, 10)["label"] == LABEL_SLOW + 1
        assert (
            task_streams(Task("thorough", 3, 0), cfg, 10)["label"] == LABEL_THOROUGH
        )
        b = task_streams(Task("bootstrap", 3, 4), cfg, 10)
        assert b["label"] == LABEL_REPLICATE + 4
        assert b["p_seed"] == rank_seed(777, 3)

    def test_fingerprint_deterministic_and_seed_sensitive(self):
        sched = make_schedule(8, 2)
        cfg = ComprehensiveConfig(n_bootstraps=8)
        fp = rng_stream_fingerprint(sched, cfg, 90, 2)
        assert fp == rng_stream_fingerprint(sched, cfg, 90, 2)
        other = ComprehensiveConfig(n_bootstraps=8, seed_x=999)
        assert fp != rng_stream_fingerprint(sched, other, 90, 2)
        assert fp != rng_stream_fingerprint(sched, cfg, 91, 2)
        assert fp != rng_stream_fingerprint(sched, cfg, 90, 4)
