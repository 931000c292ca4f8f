"""Regression pins for the flat communication cost model.

Every hop costs the same, wherever the two ranks live; these tests pin
:class:`~repro.mpi.comm.CommTiming` byte-for-byte to the hand-trace in
its docstring.  The log-tree sweep over world sizes lives beside the
other ``CommTiming`` tests in ``tests/test_mpi.py``.
"""

from repro.mpi import CommTiming


class TestFlatCostRegression:
    """Pin the flat model byte-for-byte (the docstring's hand-trace)."""

    def test_message_seconds(self):
        t = CommTiming()
        assert t.message_seconds(1000) == 5e-6 + 1000 * 1e-9
        assert t.message_seconds(0) == 5e-6

    def test_barrier_seconds(self):
        t = CommTiming()
        assert t.barrier_seconds(8) == 3 * 1e-5
        assert t.barrier_seconds(2) == 1e-5

    def test_size_one_is_free(self):
        t = CommTiming()
        assert t.barrier_seconds(1) == 0.0
        assert t.collective_seconds(1, 10_000) == 0.0
