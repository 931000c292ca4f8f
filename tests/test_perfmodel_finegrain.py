"""Tests for the fine-grained timing model (repro.perfmodel.finegrain,
repro.perfmodel.machines)."""

import math

import pytest

from repro.perfmodel.finegrain import (
    MachineRegionTiming,
    finegrain_speedup,
    pattern_cost,
    region_pattern_units,
    serial_pattern_cost,
)
from repro.perfmodel.machines import MACHINES, MachineSpec, machine_by_name
from repro.threads.partition import chunk_sizes


class TestMachines:
    def test_table4_roster(self):
        """Table 4: four machines with the right cores per node."""
        assert MACHINES["abe"].cores_per_node == 8
        assert MACHINES["dash"].cores_per_node == 8
        assert MACHINES["ranger"].cores_per_node == 16
        assert MACHINES["triton"].cores_per_node == 32

    def test_table4_processors(self):
        assert "Clovertown" in MACHINES["abe"].processor
        assert "Nehalem" in MACHINES["dash"].processor
        assert "Barcelona" in MACHINES["ranger"].processor
        assert "Shanghai" in MACHINES["triton"].processor

    def test_lookup_case_insensitive(self):
        assert machine_by_name("Dash").name == "Dash"
        assert machine_by_name("Triton PDAF").name == "Triton PDAF"
        with pytest.raises(KeyError):
            machine_by_name("cray")

    def test_max_threads_is_node_width(self):
        for m in MACHINES.values():
            assert m.max_threads() == m.cores_per_node

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MachineSpec("x", "y", "z", 0, 2.0, 1.0, 1.0, 100, 4, 0.0, 1.0)
        with pytest.raises(ValueError):
            MachineSpec("x", "y", "z", 8, 2.0, 1.0, 0.5, 100, 4, 0.0, 1.0)


class TestPatternCost:
    def test_dash_is_flat(self):
        """Dash has no cache penalty: cost independent of chunk size."""
        dash = MACHINES["dash"]
        assert pattern_cost(dash, 100, 1) == pytest.approx(pattern_cost(dash, 20000, 1))

    def test_abe_cost_grows_with_chunk(self):
        abe = MACHINES["abe"]
        assert pattern_cost(abe, 20000, 1) > pattern_cost(abe, 500, 1)

    def test_bandwidth_contention_above_limit(self):
        abe = MACHINES["abe"]  # bandwidth_cores=4
        assert pattern_cost(abe, 5000, 8) > pattern_cost(abe, 5000, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            pattern_cost(MACHINES["dash"], -1, 1)
        with pytest.raises(ValueError):
            pattern_cost(MACHINES["dash"], 100, 0)


class TestFinegrainSpeedup:
    def test_one_thread_is_one(self):
        for m in MACHINES.values():
            assert finegrain_speedup(m, 1846, 1) == 1.0

    def test_bounded_reasonably(self):
        """Sub-linear except for cache superlinearity (bounded by ~1.3x T)."""
        for m in MACHINES.values():
            for t in (2, 4, 8):
                s = finegrain_speedup(m, 19436, t)
                assert 0.5 < s <= 1.3 * t

    def test_threads_beyond_node_rejected(self):
        with pytest.raises(ValueError):
            finegrain_speedup(MACHINES["dash"], 1846, 16)

    def test_optimal_threads_grow_with_patterns(self):
        """Paper: 'the optimal number of Pthreads increases with the number
        of distinct patterns'."""
        dash = MACHINES["dash"]

        def best_threads(m):
            return max((1, 2, 4, 8), key=lambda t: finegrain_speedup(dash, m, t))

        assert best_threads(348) <= best_threads(1846) <= best_threads(19436)
        assert best_threads(19436) == 8

    def test_dash_linear_to_eight_for_large_patterns(self):
        """Fig 8: Dash exhibits near-ideal speedup up to 8 cores."""
        s8 = finegrain_speedup(MACHINES["dash"], 19436, 8)
        assert s8 > 7.4

    def test_dash_1846_matches_paper_implied_efficiency(self):
        """Paper Section 5.1 implies S_f(8) ~= 5.5 for the 1,846-pattern set
        (35.5 overall / 6.5 node-level)."""
        s8 = finegrain_speedup(MACHINES["dash"], 1846, 8)
        assert 4.8 <= s8 <= 6.2

    def test_abe_superlinear_at_four_threads(self):
        """Fig 8: Abe's speed per core *rises* from 1 to 4 cores."""
        abe = MACHINES["abe"]
        assert finegrain_speedup(abe, 19436, 4) > 4.0

    def test_triton_superlinear_at_eight(self):
        """Paper Table 5: Triton 8c speedup 8.49 (efficiency > 1)."""
        s = finegrain_speedup(MACHINES["triton"], 19436, 8)
        assert s > 8.0

    def test_small_patterns_punish_many_threads(self):
        dash = MACHINES["dash"]
        assert finegrain_speedup(dash, 348, 8) < finegrain_speedup(dash, 348, 4)

    def test_gamma_categories_improve_thread_scaling(self):
        """4 rate categories amortise the barrier: S_f rises with k."""
        dash = MACHINES["dash"]
        s1 = region_pattern_units(dash, 1846, 1, 1) / region_pattern_units(dash, 1846, 8, 1)
        s4 = region_pattern_units(dash, 1846, 1, 4) / region_pattern_units(dash, 1846, 8, 4)
        assert s4 > s1


class TestSerialCost:
    def test_dash_fastest_core(self):
        costs = {k: serial_pattern_cost(m, 19436) for k, m in MACHINES.items()}
        assert costs["dash"] == min(costs.values())

    def test_ratio_dash_triton_near_paper(self):
        """Table 5 serial times: 22,970 s (Dash) vs 32,627 s (Triton)."""
        ratio = serial_pattern_cost(MACHINES["triton"], 19436) / serial_pattern_cost(
            MACHINES["dash"], 19436
        )
        assert ratio == pytest.approx(32627 / 22970, rel=0.10)


class TestMachineRegionTiming:
    def test_protocol_compatible(self):
        from repro.threads.timing import RegionTiming

        timing = MachineRegionTiming(MACHINES["dash"])
        assert isinstance(timing, RegionTiming)

    def test_seconds_positive_and_scale(self):
        timing = MachineRegionTiming(MACHINES["dash"], seconds_per_pattern_unit=1e-6)
        t1 = timing.region_seconds([100], 1)
        t4 = timing.region_seconds([25, 25, 25, 25], 1)
        assert t1 > 0
        assert t4 < t1  # four threads split the work


#: Pattern counts of the region-price grid: every small count, and the
#: wide benchmark shape, the paper's data sets and their neighbours.
_GRID_PATTERNS = [*range(60), 87, 230, 4_610, 19_436, 19_441]
_GRID_CATEGORIES = (1, 4, 5, 8, 25)


class TestOneRegionPrice:
    """``region_pattern_units`` and ``MachineRegionTiming.region_seconds``
    price a region through one helper; both must equal the written-out
    ``region(T) = max_chunk · c(chunk, T) + sync · T^e`` bit for bit, on
    every machine and T up to its cores (20,800 cases in all)."""

    @staticmethod
    def _formula(machine, chunk, t, k):
        compute = chunk * k * pattern_cost(machine, chunk, t)
        sync = machine.sync_pattern_units * t**machine.sync_exponent if t > 1 else 0.0
        return compute + sync

    @pytest.mark.parametrize("name", sorted(MACHINES))
    def test_grid_bit_equal(self, name):
        machine = MACHINES[name]
        timing = MachineRegionTiming(machine)
        for t in range(1, machine.cores_per_node + 1):
            for n in _GRID_PATTERNS:
                chunks = chunk_sizes(n, t)
                for k in _GRID_CATEGORIES:
                    units = self._formula(machine, math.ceil(n / t), t, k)
                    assert region_pattern_units(machine, n, t, k) == units, (t, n, k)
                    assert timing.region_seconds(chunks, k) == (
                        units * timing.seconds_per_pattern_unit / machine.core_speed
                    ), (t, n, k)
