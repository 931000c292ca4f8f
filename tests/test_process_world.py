"""The rank processes of ``run_spmd``: ranks in forked children, the
shared world served from the launcher.

The oracle is a thread world kept here, in the tests: the same rank
bodies run as threads of this process over one world, with no process,
pipe or proxy between them.  A hybrid analysis (both schedules,
checkpoint and resume, trace and metrics), the multiple-ML-search
analysis and a rank error give the same bits in both.  The failure
tests pin what a rank process that raises, raises something
unpicklable, dies, or outlives the deadline does to the launcher, with
and without a fault plan — and that every child is reaped whichever way
the world ends.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.hybrid.analyses as analyses
import repro.hybrid.driver as driver
import repro.mpi.launcher as launcher
from repro.datasets import test_dataset as make_test_dataset
from repro.hybrid.analyses import MultiSearchConfig, run_multiple_ml_searches
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.mpi import CommTiming, FaultPlan, KillSpec, SPMDError, TimeoutPolicy, run_spmd
from repro.mpi.comm import SimComm, _World
from repro.mpi.membership import FaultPlane
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from repro.tree.newick import write_newick
from repro.util.timing import VirtualClock
from tests.conftest import assert_bit_identical

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

QUICK = StageParams(
    bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
    thorough_max_rounds=2, brlen_passes=1,
)


@pytest.fixture(scope="module")
def pal():
    return make_test_dataset(n_taxa=6, n_sites=90, seed=301)[0]


@pytest.fixture()
def forks(monkeypatch):
    """The pids of every child forked while the test runs."""
    pids: list[int] = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # reaped: no such child any more


def run_threads(fn, n_ranks, comm_timing=None, clocks=None, fault_plan=None,
                timeout_policy=TimeoutPolicy(), *, shared=None):
    """The oracle: ``run_spmd`` with every rank a thread of this process
    over one world (fault-free worlds only)."""
    assert fault_plan is None
    world = _World(FaultPlane(n_ranks, timeout_policy), comm_timing or CommTiming())
    body = launcher._rank_body(fn, shared)
    outcomes = [None] * n_ranks

    def rank(r):
        outcomes[r] = body(SimComm(world, r, clocks and clocks[r]), shared)

    threads = [threading.Thread(target=rank, args=(r,)) for r in range(n_ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout_policy.world_seconds)
    assert not any(t.is_alive() for t in threads)
    launcher._raise_rank_errors([out[1] for out in outcomes])
    return [out[0] for out in outcomes]


def thread_world(module, monkeypatch):
    """Make ``module``'s ``run_spmd`` run the thread world."""
    monkeypatch.setattr(module, "run_spmd", run_threads)


def config(n_processes: int, schedule: str = "static", **kw) -> HybridConfig:
    return HybridConfig(
        n_processes=n_processes, n_threads=2, schedule=schedule,
        comprehensive=ComprehensiveConfig(
            n_bootstraps=4, cat_categories=3, stage_params=QUICK
        ),
        **kw,
    )


def both_worlds(pal, cfg, monkeypatch, forks):
    process = run_hybrid_analysis(pal, cfg)
    assert len(forks) == cfg.n_processes
    with monkeypatch.context() as patch:
        thread_world(driver, patch)
        thread = run_hybrid_analysis(pal, cfg)
    assert len(forks) == cfg.n_processes
    return process, thread


# -- the oracle: a thread world ---------------------------------------------


@pytest.mark.parametrize("n_processes", [2, 4])
@pytest.mark.parametrize("schedule", ["static", "work-steal"])
def test_analysis_bit_identical_to_the_thread_world(
    pal, schedule, n_processes, monkeypatch, forks
):
    process, thread = both_worlds(
        pal, config(n_processes, schedule), monkeypatch, forks
    )
    assert_bit_identical(thread, process, timings=True)
    assert process.to_report() == thread.to_report()


@pytest.mark.parametrize("schedule", ["static", "work-steal"])
def test_checkpoints_and_resume_match_the_thread_world(
    pal, schedule, tmp_path, monkeypatch, forks
):
    runs = {}
    for world in ("process", "thread"):
        ck = tmp_path / world
        with monkeypatch.context() as patch:
            if world == "thread":
                thread_world(driver, patch)
            fresh = run_hybrid_analysis(
                pal, config(2, schedule, checkpoint_dir=str(ck))
            )
            resumed = run_hybrid_analysis(
                pal, config(2, schedule, checkpoint_dir=str(ck), resume=True)
            )
        files = {
            p.relative_to(ck): p.read_bytes() for p in ck.rglob("*") if p.is_file()
        }
        runs[world] = (fresh, resumed, files)
    assert len(forks) == 4  # two process-world runs of two ranks
    (pf, pr, pfiles), (tf, tr, tfiles) = runs["process"], runs["thread"]
    assert pfiles and pfiles == tfiles
    assert_bit_identical(tf, pf, timings=True)
    assert_bit_identical(tr, pr, timings=True)
    assert pr.to_report() == tr.to_report()


def test_trace_and_metrics_match_the_thread_world(pal, monkeypatch, forks):
    process, thread = both_worlds(
        pal, config(2, "work-steal", collect_trace=True, collect_metrics=True),
        monkeypatch, forks,
    )
    assert process.trace["traceEvents"] == thread.trace["traceEvents"]
    assert process.metrics == thread.metrics
    assert process.metrics["per_rank"]["1"]["counters"]["comm.calls.barrier"] == 1


def test_multiple_ml_searches_match_the_thread_world(pal, monkeypatch, forks):
    cfg = MultiSearchConfig(n_searches=2, stage_params=QUICK)
    process = run_multiple_ml_searches(pal, cfg, n_processes=2)
    assert len(forks) == 2
    thread_world(analyses, monkeypatch)
    thread = run_multiple_ml_searches(pal, cfg, n_processes=2)
    assert len(forks) == 2
    assert process.lnls == thread.lnls
    assert [write_newick(t) for t in process.trees] == [
        write_newick(t) for t in thread.trees
    ]
    assert process.total_seconds == thread.total_seconds
    assert process.stage_seconds_per_rank == thread.stage_seconds_per_rank


def test_a_killed_rank_process_is_a_death_its_peers_recover(
    pal, monkeypatch, forks
):
    """A rank process SIGKILLed at a planned point is a death the plane
    agrees on: the survivors replay its share and reach the results of
    the same point given as a :class:`KillSpec`."""
    point = KillSpec(rank=1, stage="fast")
    planned = run_hybrid_analysis(pal, config(3, fault_plan=FaultPlan(kills=(point,))))
    kill_at_stage = FaultPlan.kill_at_stage

    def sigkill(plan, rank, stage):
        if (rank, stage) == (point.rank, point.stage):
            os.kill(os.getpid(), signal.SIGKILL)  # in rank 1's process
        kill_at_stage(plan, rank, stage)

    monkeypatch.setattr(FaultPlan, "kill_at_stage", sigkill)
    killed = run_hybrid_analysis(pal, config(3, fault_plan=FaultPlan()))
    assert len(forks) == 6
    assert killed.failed_ranks == planned.failed_ranks == [1]
    assert write_newick(killed.best_tree) == write_newick(planned.best_tree)
    assert killed.best_lnl == planned.best_lnl
    assert killed.rng_fingerprint == planned.rng_fingerprint
    assert_bit_identical(planned, killed)


# -- the launcher's side ------------------------------------------------------


class Tally:
    """A shared object: what ranks add lands in the launcher's copy."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.seen: list[tuple[int, str]] = []

    def add(self, rank: int, status_of) -> int:
        with self.lock:
            self.seen.append((rank, status_of(rank)))
            return len(self.seen)


def test_shared_object_and_clocks_stay_in_the_launcher(forks):
    tally = Tally()
    clocks = [VirtualClock() for _ in range(3)]

    def body(comm, shared):
        comm.clock.advance(1.0 + comm.rank)
        shared.add(comm.rank, comm.faults.status_of)  # a remote method travels
        comm.barrier()
        return os.getpid()

    pids = run_spmd(body, 3, clocks=clocks, shared=tally)
    assert sorted(pids) == sorted(forks) and os.getpid() not in pids
    assert sorted(tally.seen) == [(0, "running"), (1, "running"), (2, "running")]
    # Every rank leaves the barrier at the slowest entry plus its price.
    assert len({c.now for c in clocks}) == 1 and clocks[0].now > 3.0


def test_many_ranks_hammer_the_launcher(forks):
    """More rank processes than cores, each interleaving p2p messages,
    collectives and calls on one shared object: no update is lost and
    every message arrives in order."""
    n, rounds = 6, 60
    tally = Tally()

    def body(comm, shared):
        right, left = (comm.rank + 1) % n, (comm.rank - 1) % n
        got = []
        for i in range(rounds):
            shared.add(comm.rank, comm.faults.status_of)
            comm.send((comm.rank, i), right, tag=7)
            got.append(comm.recv(left, tag=7))
        total = comm.allreduce(len(got))
        return got, total

    out = run_spmd(
        body, n, shared=tally,
        timeout_policy=TimeoutPolicy(world_seconds=120.0),
    )
    assert len(forks) == n
    for rank, (got, total) in enumerate(out):
        assert got == [((rank - 1) % n, i) for i in range(rounds)]
        assert total == n * rounds
    assert len(tally.seen) == n * rounds


def test_fault_plans_fork_one_rank_worlds_run_in_the_caller_nested_worlds_fork(
    forks
):
    def here(comm):
        return os.getpid(), threading.get_ident()

    def pid(comm):
        return os.getpid()

    assert run_spmd(here, 1) == [(os.getpid(), threading.get_ident())]
    assert run_spmd(here, 1, fault_plan=FaultPlan()) == [
        (os.getpid(), threading.get_ident())
    ]
    assert forks == []
    assert run_spmd(pid, 2, fault_plan=FaultPlan()) == forks

    def nested(comm):
        return os.getpid(), run_spmd(pid, 2)

    outer = run_spmd(nested, 2)
    assert len(forks) == 4  # the inner worlds forked from the rank processes
    for rank_pid, inner in outer:
        assert rank_pid in forks[2:] and len(set(inner)) == 2
        assert not set(inner) & {os.getpid(), *forks}


def test_one_rank_world_sees_what_a_fresh_rank_sees():
    """The body runs in the caller with no recorder installed; the
    caller's recorder is back afterwards, also when the body raises."""
    from repro.obs.recorder import Recorder, current, recording

    outer = Recorder(rank=0)
    with recording(outer):
        assert run_spmd(lambda comm: current(), 1) == [None]
        with pytest.raises(KeyError):
            run_spmd(lambda comm: {}["missing"], 1)
        assert current() is outer


def test_without_fork_a_multi_rank_world_is_refused(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(RuntimeError, match="needs os.fork"):
        run_spmd(lambda comm: None, 2)
    assert run_spmd(lambda comm: comm.size, 1) == [1]


# -- failure semantics -----------------------------------------------------------


def _raise_on_one(comm):
    if comm.rank == 1:
        raise KeyError("rank one gives up")
    comm.barrier()


def test_rank_error_matches_the_thread_world(forks):
    caught = {}
    for world, run in (("thread", run_threads), ("process", run_spmd)):
        with pytest.raises(KeyError) as info:
            run(_raise_on_one, 3)
        caught[world] = info.value
    thread, process = caught["thread"], caught["process"]
    assert str(process) == str(thread)
    assert process.__notes__ == thread.__notes__
    assert len(process.__notes__) == 2  # ranks 0 and 2 left the barrier broken
    assert "_raise_on_one" in str(process.__cause__)  # the child's traceback
    assert len(forks) == 3


@pytest.mark.parametrize("first", ["the-failure", "the-barrier"])
def test_a_failed_peer_is_reported_the_same_whoever_comes_first(first):
    """Rank 1 raises while rank 0 enters a barrier.  Whether rank 1 had
    already failed when rank 0 opened the collective or failed while rank
    0 waited in it, rank 0 reports a peer that left without joining."""

    def body(comm):
        if (comm.rank == 0) == (first == "the-failure"):
            time.sleep(0.3)
        if comm.rank == 1:
            raise KeyError("rank one gives up")
        comm.barrier()

    with pytest.raises(KeyError) as info:
        run_spmd(body, 2)
    assert info.value.__notes__ == [
        "[simmpi] also failed: rank 0: SPMDError: collective 'barrier' "
        "(generation 0) broken: rank(s) [1] left the computation without "
        "joining it (mismatched collective ordering?)"
    ]


class Unpicklable(Exception):
    def __init__(self) -> None:
        super().__init__("holds a lock")
        self.lock = threading.Lock()


def test_unpicklable_error_comes_back_as_runtime_error(forks):
    def body(comm):
        if comm.rank == 0:
            raise Unpicklable()

    with pytest.raises(RuntimeError) as info:
        run_spmd(body, 2)
    text = str(info.value)
    assert "Unpicklable('holds a lock')" in text
    assert "Traceback" in text and "raise Unpicklable()" in text


@pytest.mark.parametrize("how", ["exit", "sigkill"])
def test_dead_child_fails_the_world_fast(how, forks):
    def body(comm):
        if comm.rank == 1:
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        comm.barrier()  # rank 0 waits for a peer that is gone
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(SPMDError, match="rank 1 ended without a result") as info:
        run_spmd(body, 3)
    assert time.monotonic() - t0 < 10.0
    assert ("exit code 3" if how == "exit" else "SIGKILL") in str(info.value)


def test_world_deadline_kills_and_reaps(forks):
    def body(comm):
        if comm.rank == 1:
            time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(SPMDError, match="simmpi-rank-1 did not finish"):
        run_spmd(body, 2, timeout_policy=TimeoutPolicy(world_seconds=1.0))
    assert time.monotonic() - t0 < 10.0


def test_no_hub_thread_outlives_its_world(forks):
    with pytest.raises(KeyError):
        run_spmd(_raise_on_one, 3)
    run_spmd(lambda comm: comm.barrier(), 2)
    assert not [t for t in threading.enumerate() if t.name.startswith("simmpi-")]


# -- the channel: two OS pipes per rank ------------------------------------------


def test_a_large_message_crosses_a_fork_intact():
    """A message far larger than a pipe's buffer arrives whole: the
    writer blocks while the reader drains, each way."""
    payload = os.urandom(1 << 20)
    ours, theirs = launcher._pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ours.close()
            theirs.send_bytes(bytes(theirs.recv_bytes())[::-1])
            code = 0
        finally:
            os._exit(code)
    theirs.close()
    try:
        ours.send_bytes(payload)
        assert ours.recv_bytes() == payload[::-1]
    finally:
        ours.close()
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def test_recv_from_a_closed_peer_raises_eof():
    ours, theirs = launcher._pipe()
    theirs.send_bytes(b"last words")
    theirs.close()
    assert ours.recv_bytes() == b"last words"
    with pytest.raises(EOFError):
        ours.recv_bytes()
    ours.close()


def test_closing_twice_is_harmless():
    """A second ``close`` is a no-op, even once the descriptor numbers
    have been handed out again."""
    ours, theirs = launcher._pipe()
    ours.close()
    theirs.close()
    again = launcher._pipe()
    ours.close()
    theirs.close()
    again[0].send_bytes(b"still open")
    assert again[1].recv_bytes() == b"still open"
    for end in again:
        end.close()


_ORPHAN_RUN = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.mpi import run_spmd

def body(comm):
    tmp = os.path.join({out!r}, "tmp%d" % comm.rank)
    with open(tmp, "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(tmp, os.path.join({out!r}, "pid%d" % comm.rank))
    time.sleep(120)

run_spmd(body, 2)
"""


def _gone(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl")
def test_rank_processes_die_with_their_launcher(tmp_path):
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    launcher = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_RUN.format(src=src, out=str(tmp_path))]
    )
    try:
        deadline = time.monotonic() + 60.0
        while len(list(tmp_path.glob("pid*"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = [int(p.read_text()) for p in tmp_path.glob("pid*")]
        assert len(pids) == 2
    finally:
        launcher.kill()
        launcher.wait(30)
    deadline = time.monotonic() + 10.0
    while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_gone(pid) for pid in pids)
