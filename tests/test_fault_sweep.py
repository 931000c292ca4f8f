"""Property test: the exhaustive single-fault collective sweep.

Killing any one rank at *any* collective call index — under both
``--schedule`` modes — must yield a final result bit-identical to the
fault-free baseline: static recovery replays the dead rank's whole
original share (never re-partitioning the survivors' streams), and
work-steal task streams are origin-pure.

The sweep is exhaustive by construction: collective indices are swept
upward until a kill no longer fires (the index exceeded the victim's
collective count for the run), so every collective the victim ever
participates in is covered.
"""

import pytest

from repro.chaos.campaign import _make_inputs, _run
from repro.chaos.plans import ScenarioSpec
from repro.mpi.faults import FaultPlan, KillSpec
from tests.conftest import assert_bit_identical

#: Safety stop only — the toy analysis has well under this many
#: collectives per rank; reaching it would itself be a bug.
MAX_COLLECTIVES = 40


@pytest.fixture(scope="module")
def inputs():
    return _make_inputs()


def _spec(schedule, plan=None, deaths=()):
    return ScenarioSpec(index=-1, schedule=schedule, n_processes=2,
                        plan=plan, equality="full", deaths=tuple(deaths))


@pytest.mark.parametrize("schedule", ["static", "work-steal"])
@pytest.mark.parametrize("victim", [0, 1])
def test_any_collective_kill_is_bit_identical(inputs, schedule, victim):
    pal, cc = inputs
    baseline = _run(pal, cc, _spec(schedule))

    index = 0
    while index < MAX_COLLECTIVES:
        plan = FaultPlan(kills=(KillSpec(rank=victim, collective=index),))
        result = _run(pal, cc, _spec(schedule, plan, deaths=(victim,)))
        if victim not in result.failed_ranks:
            # The kill never fired: the index walked past the victim's
            # last collective — the sweep is complete.
            break
        assert_bit_identical(
            baseline, result, ignore=("rank_lnls",),
            context=f"{schedule}: killing rank {victim} at collective {index}: ",
        )
        index += 1
    else:
        pytest.fail(f"sweep did not terminate within {MAX_COLLECTIVES} indices")
    assert index >= 1, "no collective kill ever fired — sweep vacuous"


@pytest.mark.parametrize("schedule", ["static", "work-steal"])
def test_any_stage_kill_is_bit_identical(inputs, schedule):
    """Companion sweep over the coarser stage-boundary kill points."""
    pal, cc = inputs
    baseline = _run(pal, cc, _spec(schedule))
    for stage in ("setup", "bootstrap", "fast", "slow", "thorough"):
        plan = FaultPlan(kills=(KillSpec(rank=1, stage=stage),))
        result = _run(pal, cc, _spec(schedule, plan, deaths=(1,)))
        assert result.failed_ranks == [1]
        assert_bit_identical(
            baseline, result, ignore=("rank_lnls",),
            context=f"{schedule}: killing rank 1 at stage {stage!r}: ",
        )
