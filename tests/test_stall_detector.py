"""One stall detector for every wait on a peer.

A rank waiting for a peer — in a collective or a blocking receive — gives
up on it only when the peer's virtual clock has stopped moving for
``TimeoutPolicy.collective_seconds``, in plain and resilient worlds
alike.  A peer that is busy computing (its clock advancing) is waited
for however long its work takes in wall time; a frozen one is given up
on: a plain world raises :class:`SPMDError`, a resilient one declares it
dead and the survivor sees :class:`RankFailure`.  Every world here runs
its ranks as processes: the waiting rank's hub thread reads the frozen
peer's clock from the world's shared clock window.
"""

import time

import pytest

from repro.mpi import FaultPlan, RankFailure, SPMDError, TimeoutPolicy, run_spmd

#: A suspicion deadline far shorter than the peer's work below.
POLICY = TimeoutPolicy(0.3, 30.0)

#: How late past the deadline a waiting rank may notice a frozen peer:
#: one poll of the wait loop, plus scheduling slack.
POLL_SLACK = 0.25 + 0.25

WORLDS = pytest.mark.parametrize(
    "fault_plan", [None, FaultPlan()], ids=["plain", "resilient"]
)


def compute(comm, seconds):
    """Work the way a rank does it: wall time passes, the clock advances."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        comm.clock.advance(1e-6)


#: How long a frozen rank stands still: well past the suspicion deadline.
FREEZE_SECONDS = 2.0


def freeze():
    """Hang the way a wedged rank does: wall time passes, the clock does
    not."""
    time.sleep(FREEZE_SECONDS)


@WORLDS
def test_slow_peer_before_a_barrier_completes(fault_plan):
    def body(comm):
        if comm.rank == 1:
            compute(comm, 1.0)
        comm.barrier()
        return comm.known_dead

    out = run_spmd(body, 2, fault_plan=fault_plan, timeout_policy=POLICY)
    assert out == [[], []]


@WORLDS
def test_slow_sender_completes_a_recv(fault_plan):
    def body(comm):
        if comm.rank == 1:
            compute(comm, 1.0)
            comm.send("late", 0)
            return comm.known_dead
        return comm.recv(1), comm.known_dead

    out = run_spmd(body, 2, fault_plan=fault_plan, timeout_policy=POLICY)
    assert out == [("late", []), []]


def give_up_on(fault_plan, wait):
    """Run rank 0's ``wait(comm)`` on a frozen rank 1.  Returns the
    seconds rank 0 waited and the world's wall time."""

    def body(comm):
        if comm.rank == 1:
            freeze()
            return None
        t0 = time.monotonic()
        try:
            wait(comm)
        except SPMDError as exc:
            exc.waited = time.monotonic() - t0  # travels with the error
            if fault_plan is None:
                raise
            assert isinstance(exc, RankFailure) and exc.dead == (1,)
            return exc.waited, comm.known_dead
        return None, "no failure seen"

    t0 = time.monotonic()
    if fault_plan is None:
        with pytest.raises(SPMDError) as info:
            run_spmd(body, 2, timeout_policy=POLICY)
        return info.value.waited, time.monotonic() - t0
    (seconds, known_dead), dead = run_spmd(
        body, 2, fault_plan=fault_plan, timeout_policy=POLICY
    )
    assert dead is None and known_dead == [1]
    return seconds, time.monotonic() - t0


@WORLDS
def test_frozen_peer_is_given_up_on_at_the_deadline(fault_plan):
    seconds, wall = give_up_on(fault_plan, lambda comm: comm.barrier())
    assert POLICY.collective_seconds <= seconds
    assert seconds < POLICY.collective_seconds + POLL_SLACK
    if fault_plan is not None:
        # The launcher does not wait for a rank declared dead: it kills it.
        assert wall < FREEZE_SECONDS


@WORLDS
def test_frozen_sender_is_given_up_on_at_the_deadline(fault_plan):
    """The receive waits in the same detector as the collective: a
    resilient receiver declares its frozen source dead."""
    seconds, _ = give_up_on(fault_plan, lambda comm: comm.recv(1))
    assert POLICY.collective_seconds <= seconds
    assert seconds < POLICY.collective_seconds + POLL_SLACK
