"""Coherence between the two timing paths.

The analytic model (`repro.perfmodel.finegrain`) and the real-mode
accounting (`MachineRegionTiming` driving the virtual thread pool) must
agree: running the same likelihood workload through the pool at different
thread counts must produce exactly the speedups the analytic S_f(T)
formula predicts, because the figures' model results and the driver's
real-mode results claim to describe the same machine.
"""

import pytest

from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.perfmodel.finegrain import MachineRegionTiming, finegrain_speedup
from repro.perfmodel.machines import MACHINES
from repro.threads.pool import VirtualThreadPool
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom


@pytest.mark.parametrize("machine_key", ["dash", "triton", "abe"])
@pytest.mark.parametrize("n_threads", [2, 4, 8])
def test_pool_speedup_matches_analytic_model(small_pal, gtr_model, machine_key, n_threads):
    machine = MACHINES[machine_key]
    tree = yule_tree(small_pal.taxa, RAxMLRandom(17))
    times = {}
    for t in (1, n_threads):
        pool = VirtualThreadPool(t, MachineRegionTiming(machine))
        engine = LikelihoodEngine(small_pal, gtr_model, RateModel.single(), pool=pool)
        engine.loglikelihood(tree)
        times[t] = pool.virtual_time
    measured = times[1] / times[n_threads]
    predicted = finegrain_speedup(machine, small_pal.n_patterns, n_threads)
    assert measured == pytest.approx(predicted, rel=1e-9)


def test_gamma_workload_also_coheres(small_pal, gtr_model):
    """With 4 rate categories the region costs change, but both paths must
    change identically."""
    from repro.perfmodel.finegrain import region_pattern_units

    machine = MACHINES["dash"]
    tree = yule_tree(small_pal.taxa, RAxMLRandom(17))
    times = {}
    for t in (1, 8):
        pool = VirtualThreadPool(t, MachineRegionTiming(machine))
        engine = LikelihoodEngine(
            small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=pool,
        )
        engine.loglikelihood(tree)
        times[t] = pool.virtual_time
    measured = times[1] / times[8]
    m = small_pal.n_patterns
    predicted = region_pattern_units(machine, m, 1, 4) / region_pattern_units(
        machine, m, 8, 4
    )
    assert measured == pytest.approx(predicted, rel=1e-9)
