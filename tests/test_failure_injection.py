"""Failure-injection tests: the runtime must fail loudly, not wrongly.

Covers SPMD contract violations, degenerate inputs, and boundary
conditions across the parallel substrates.
"""

import numpy as np
import pytest

from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import SPMDError
from repro.mpi.policy import TimeoutPolicy
from repro.threads.pool import VirtualThreadPool


class TestSPMDViolations:
    def test_mismatched_collectives_detected(self):
        """Rank 0 calls barrier while rank 1 calls allgather: a classic
        SPMD bug that must raise, not deadlock or corrupt."""

        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
            else:
                comm.allgather(1)

        with pytest.raises(SPMDError, match="mismatch|broken"):
            run_spmd(fn, 2, timeout_policy=TimeoutPolicy(5.0, 5.0))

    def test_missing_collective_detected(self):
        """One rank skips a collective entirely -> broken barrier."""

        def fn(comm):
            if comm.rank == 0:
                comm.barrier()
                comm.barrier()
            else:
                comm.barrier()

        with pytest.raises(SPMDError):
            run_spmd(fn, 2, timeout_policy=TimeoutPolicy(2.0, 2.0))

    def test_one_rank_crashes_others_released(self):
        """A crash on one rank must not hang peers blocked in collectives."""

        def fn(comm):
            if comm.rank == 0:
                raise ValueError("injected failure")
            comm.barrier()

        with pytest.raises(ValueError, match="injected failure"):
            run_spmd(fn, 3, timeout_policy=TimeoutPolicy(10.0, 10.0))

    def test_extra_collective_call_detected(self):
        def fn(comm):
            comm.barrier()
            if comm.rank == 0:
                comm.allgather(1)  # peers already finished

        with pytest.raises(SPMDError):
            run_spmd(fn, 2, timeout_policy=TimeoutPolicy(2.0, 2.0))


class TestDegenerateEngineInputs:
    @pytest.fixture()
    def engine(self, handmade_pal, gtr_model):
        return LikelihoodEngine(handmade_pal, gtr_model, RateModel.gamma(1.0, 2))

    def test_all_zero_weights(self, handmade_pal, gtr_model, five_taxon_tree, tiny_tree):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(handmade_pal.taxa, RAxMLRandom(3))
        engine = LikelihoodEngine(
            handmade_pal, gtr_model, weights=np.zeros(handmade_pal.n_patterns)
        )
        assert engine.loglikelihood(tree) == 0.0

    def test_single_pattern_alignment(self, gtr_model):
        from repro.seq.alignment import Alignment
        from repro.seq.patterns import compress_alignment
        from repro.tree.newick import parse_newick

        pal = compress_alignment(
            Alignment.from_sequences([("a", "A"), ("b", "A"), ("c", "A")])
        )
        tree = parse_newick("(a:0.1,b:0.1,c:0.1);", taxa=pal.taxa)
        engine = LikelihoodEngine(pal, gtr_model)
        assert np.isfinite(engine.loglikelihood(tree))

    def test_threaded_engine_more_threads_than_patterns(self, handmade_pal, gtr_model):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(handmade_pal.taxa, RAxMLRandom(3))
        serial = LikelihoodEngine(handmade_pal, gtr_model)
        threaded = LikelihoodEngine(handmade_pal, gtr_model, pool=VirtualThreadPool(64))
        assert threaded.loglikelihood(tree) == pytest.approx(
            serial.loglikelihood(tree), abs=1e-9
        )

    def test_extreme_branch_lengths_finite(self, handmade_pal, gtr_model):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(handmade_pal.taxa, RAxMLRandom(3))
        engine = LikelihoodEngine(handmade_pal, gtr_model)
        tree.map_branch_lengths(lambda t: 30.0)  # MAX_BRANCH_LENGTH
        assert np.isfinite(engine.loglikelihood(tree))
        tree.map_branch_lengths(lambda t: 1e-6)  # MIN_BRANCH_LENGTH
        assert np.isfinite(engine.loglikelihood(tree))


class TestNewtonBoundaries:
    def test_optimum_at_lower_bound(self, handmade_pal, gtr_model):
        """Identical sequences push every branch to the minimum length."""
        from repro.likelihood.brlen import optimize_branch_lengths
        from repro.seq.alignment import Alignment
        from repro.seq.patterns import compress_alignment
        from repro.tree.newick import parse_newick
        from repro.tree.topology import MIN_BRANCH_LENGTH

        pal = compress_alignment(
            Alignment.from_sequences(
                [("a", "ACGTACGT"), ("b", "ACGTACGT"), ("c", "ACGTACGT")]
            )
        )
        tree = parse_newick("(a:0.5,b:0.5,c:0.5);", taxa=pal.taxa)
        engine = LikelihoodEngine(pal, gtr_model)
        optimize_branch_lengths(engine, tree, passes=4)
        for e in tree.edges():
            assert e.length <= MIN_BRANCH_LENGTH * 100

    def test_saturated_data_hits_upper_region(self, gtr_model):
        """Maximally conflicting tips drive the centre branch long."""
        from repro.likelihood.brlen import optimize_edge
        from repro.seq.alignment import Alignment
        from repro.seq.patterns import compress_alignment
        from repro.tree.newick import parse_newick

        pal = compress_alignment(
            Alignment.from_sequences(
                [("a", "ACGT" * 4), ("b", "GTAC" * 4), ("c", "CAGT" * 4),
                 ("d", "TGCA" * 4)]
            )
        )
        tree = parse_newick("((a:0.1,b:0.1):0.1,c:0.1,d:0.1);", taxa=pal.taxa)
        engine = LikelihoodEngine(pal, gtr_model)
        internal = tree.internal_edges()[0]
        new_len = optimize_edge(engine, tree, internal)
        assert new_len > 0.1  # pulled away from the short start


class TestPoolBoundaries:
    def test_zero_patterns_region(self):
        pool = VirtualThreadPool(4)
        results = pool.run_region(lambda sl: 1, 0)
        assert results == [None] * 4

    def test_charge_zero_regions(self):
        pool = VirtualThreadPool(2)
        assert pool.charge_regions(0, 100, 1) == 0.0
