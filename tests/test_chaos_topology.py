"""Targeted-death probes of the chaos campaign, run on their own.

The probes kill rank 0 and rank 2 of a p = 4 world (the first rank of
each half) mid-collective and at a stage boundary, under both
schedules; the survivors must reproduce the fault-free baseline bit for
bit, and the two-death probe must also survive checkpoint -> resume.
"""

import tempfile
from pathlib import Path

import pytest

from repro.chaos.campaign import _make_inputs, run_targeted_death_probes


@pytest.fixture(scope="module")
def inputs():
    return _make_inputs()


class TestLeaderDeathProbes:
    def test_all_probes_clean(self, inputs):
        pal, cc = inputs
        with tempfile.TemporaryDirectory() as tmp:
            probes = run_targeted_death_probes(pal, cc, workdir=Path(tmp))
        assert len(probes) == 6  # 3 plans x 2 schedules
        for record in probes:
            assert record["violations"] == [], record
            assert record["n_processes"] == 4
        # Kills at collective call indices (mid-collective) and at a
        # stage boundary were both exercised.
        kinds = {record["probe"] for record in probes}
        assert kinds == {"rank0-collective", "rank2-stage",
                         "ranks02-collective"}
        # The checkpoint -> resume leg ran for both schedules.
        resumed = [r for r in probes if "resume" in r["checks"]]
        assert len(resumed) == 2
