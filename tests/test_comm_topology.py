"""Tests for the topology-aware communication substrate.

Two layers are covered here (plus their wiring through
:class:`~repro.hybrid.driver.HybridConfig`):

* the :class:`~repro.mpi.topology.Topology` model and the two-tier
  :class:`~repro.mpi.topology.HierarchicalCommTiming` cost split,
  including the regression pins that keep the *flat* model's costs
  byte-for-byte what they always were;
* :class:`~repro.mpi.comm.SimComm` running hierarchical collectives:
  identical payload semantics, intra/inter attribution, deterministic
  node-leader re-election when a leader dies mid-collective.
"""

import math

import pytest

from repro.mpi.faults import FaultPlan, KillSpec
from repro.mpi.launcher import run_spmd
from repro.mpi.membership import MembershipView, RankFailure
from repro.mpi.policy import TimeoutPolicy
from repro.mpi.topology import (
    CommPhases,
    CommTiming,
    HierarchicalCommTiming,
    Topology,
)
from repro.perfmodel.machines import MACHINES, machine_by_name


class TestTopology:
    def test_consecutive_packing(self):
        topo = Topology(8, ranks_per_node=4)
        assert topo.n_nodes == 2
        assert [topo.node_of(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert topo.same_node(0, 3)
        assert not topo.same_node(3, 4)

    def test_ragged_last_node(self):
        topo = Topology(10, ranks_per_node=4)
        assert topo.n_nodes == 3
        assert topo.node_members(2) == [8, 9]

    def test_joiner_ranks_map_beyond_size(self):
        # node_of is the rank // ranks_per_node rule for any rank, and
        # leaders() is a pure function of whatever rank set it is given.
        topo = Topology(4, ranks_per_node=2)
        assert topo.node_of(5) == 2
        assert topo.leaders([0, 1, 2, 3, 4, 5]) == {0: 0, 1: 2, 2: 4}

    def test_trivial(self):
        assert Topology(4).is_trivial
        assert not Topology(4, ranks_per_node=2).is_trivial

    def test_leaders_are_min_alive(self):
        topo = Topology(6, ranks_per_node=3)
        assert topo.leaders(range(6)) == {0: 0, 1: 3}
        # Leader 0 dies: node 0's leader is re-derived as the next rank.
        assert topo.leaders([1, 2, 3, 4, 5]) == {0: 1, 1: 3}
        # An entire node dies: it simply has no leader.
        assert topo.leaders([3, 4, 5]) == {1: 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            Topology(0)
        with pytest.raises(ValueError):
            Topology(4, ranks_per_node=0)
        with pytest.raises(ValueError):
            Topology(4, ranks_per_node=2).node_of(-1)


class TestFlatCostRegression:
    """Pin the flat model byte-for-byte (the docstring's hand-trace)."""

    def test_message_seconds(self):
        t = CommTiming()
        assert t.message_seconds(1000) == 5e-6 + 1000 * 1e-9
        assert t.message_seconds(0) == 5e-6

    def test_collective_is_log_tree_not_linear(self):
        t = CommTiming()
        m = t.message_seconds(1000)
        assert t.collective_seconds(8, 1000) == 3 * m  # ceil(log2 8) = 3
        assert t.collective_seconds(9, 1000) == 4 * m  # ceil(log2 9) = 4
        assert t.collective_seconds(64, 1000) == 6 * m
        # Linear would be 63 * m at p=64 — an order of magnitude off.
        assert t.collective_seconds(64, 1000) < 63 * m / 5

    def test_barrier_seconds(self):
        t = CommTiming()
        assert t.barrier_seconds(8) == 3 * 1e-5
        assert t.barrier_seconds(2) == 1e-5

    def test_size_one_is_free(self):
        t = CommTiming()
        assert t.barrier_seconds(1) == 0.0
        assert t.collective_seconds(1, 10_000) == 0.0


class TestMachineCommTiers:
    def test_every_machine_has_valid_tiers(self):
        for machine in MACHINES.values():
            assert 0 < machine.intra_node_latency <= machine.inter_node_latency
            assert 0 < machine.intra_node_byte_time <= machine.inter_node_byte_time

    def test_default_inter_constants_reproduce_flat(self):
        # The historical flat constants are the inter-node defaults, so a
        # trivial topology on any default machine *is* CommTiming().
        for machine in MACHINES.values():
            timing = HierarchicalCommTiming.for_machine(machine, Topology(8))
            assert isinstance(timing, CommTiming)
            assert timing == CommTiming()

    def test_invalid_tier_ordering_rejected(self):
        import dataclasses

        dash = machine_by_name("dash")
        with pytest.raises(ValueError):
            dataclasses.replace(dash, intra_node_latency=1e-5)
        with pytest.raises(ValueError):
            dataclasses.replace(dash, intra_node_byte_time=1e-8)
        with pytest.raises(ValueError):
            dataclasses.replace(dash, intra_node_latency=0.0)


class TestHierarchicalCommTiming:
    def setup_method(self):
        self.machine = machine_by_name("dash")
        self.topo = Topology(8, ranks_per_node=4)
        self.timing = HierarchicalCommTiming.for_machine(self.machine, self.topo)

    def test_intra_must_not_exceed_inter(self):
        with pytest.raises(ValueError):
            HierarchicalCommTiming(
                topology=self.topo,
                intra=CommTiming(latency=1e-5),
                inter=CommTiming(latency=5e-6),
            )

    def test_message_seconds_is_hop_aware(self):
        on_node = self.timing.message_seconds(1000, src=0, dst=3)
        cross = self.timing.message_seconds(1000, src=0, dst=4)
        assert on_node == self.timing.intra.message_seconds(1000)
        assert cross == self.timing.inter.message_seconds(1000)
        assert on_node < cross
        # Without endpoints the conservative inter price is used.
        assert self.timing.message_seconds(1000) == cross

    def test_bcast_phases_hand_trace(self):
        # 8 ranks on 2 nodes of 4: intra tree = ceil(log2 4) = 2 rounds,
        # inter leader tree = ceil(log2 2) = 1 round.
        phases = self.timing.collective_phases("bcast", range(8), 1000)
        assert phases.intra == 2 * self.timing.intra.message_seconds(1000)
        assert phases.inter == 1 * self.timing.inter.message_seconds(1000)
        assert phases.total == phases.intra + phases.inter

    def test_allreduce_inter_phase_is_rabenseifner(self):
        n_bytes = 1 << 20
        topo = Topology(64, ranks_per_node=8)
        timing = HierarchicalCommTiming.for_machine(self.machine, topo)
        phases = timing.collective_phases("allreduce", range(64), n_bytes)
        k = 8  # nodes
        want_inter = (
            2 * math.ceil(math.log2(k)) * timing.inter.latency
            + 2.0 * (k - 1) / k * n_bytes * timing.inter.byte_time
        )
        assert phases.inter == pytest.approx(want_inter, rel=0, abs=0)
        assert phases.intra == (
            2 * math.ceil(math.log2(8)) * timing.intra.message_seconds(n_bytes)
        )

    def test_barrier_phases(self):
        phases = self.timing.collective_phases("barrier", range(8), 0)
        assert phases.intra == 2 * 2 * self.timing.intra.barrier_base
        assert phases.inter == 1 * self.timing.inter.barrier_base

    def test_members_not_sizes_drive_the_split(self):
        # The same op over only node 0's ranks has no inter phase at all.
        phases = self.timing.collective_phases("allreduce", range(4), 64)
        assert phases.inter == 0.0
        assert phases.intra > 0.0

    def test_single_member_is_free(self):
        assert self.timing.collective_phases("allreduce", [3], 64) == CommPhases()

    def test_modeled_allreduce_beats_flat_tree_at_scale(self):
        # The acceptance claim: >= 2x at 64 ranks (8 per node), 1 MiB.
        n_bytes = 1 << 20
        flat = CommTiming().collective_seconds(64, n_bytes)
        topo = Topology(64, ranks_per_node=8)
        hier = HierarchicalCommTiming.for_machine(self.machine, topo)
        assert flat / hier.allreduce_seconds(64, n_bytes) >= 2.0


class TestSimCommHierarchical:
    def _timing(self, size, rpn):
        return HierarchicalCommTiming.for_machine(
            machine_by_name("dash"), Topology(size, ranks_per_node=rpn)
        )

    def test_payloads_identical_to_flat(self):
        def body(comm):
            s = comm.allreduce(comm.rank + 1)
            g = comm.allgather(comm.rank * 2)
            b = comm.bcast("root" if comm.rank == 0 else None, root=0)
            return s, g, b

        flat = run_spmd(body, 4)
        hier = run_spmd(body, 4, comm_timing=self._timing(4, 2))
        assert flat == hier  # bit-identical payload semantics

    def test_comm_split_recorded(self):
        timing = self._timing(4, 2)

        def body(comm):
            comm.allreduce(1.0)
            comm.barrier()
            return (comm.account.seconds, comm.account.intra_seconds,
                    comm.account.inter_seconds)

        from repro.mpi.comm import _payload_bytes

        payload = _payload_bytes(1.0)
        for total, intra, inter in run_spmd(body, 4, comm_timing=timing):
            want = timing.collective_phases("allreduce", range(4), payload)
            want_b = timing.collective_phases("barrier", range(4), 0)
            assert intra == want.intra + want_b.intra
            assert inter == want.inter + want_b.inter
            # The split covers the transfer cost exactly; any extra
            # comm_seconds is synchronisation wait (totals and splits
            # accumulate separately, hence the fp tolerance).
            assert total >= intra + inter or math.isclose(
                total, intra + inter, rel_tol=1e-12
            )

    def test_flat_world_records_no_split(self):
        def body(comm):
            comm.allreduce(1.0)
            return comm.account.intra_seconds, comm.account.inter_seconds

        assert run_spmd(body, 4) == [(0.0, 0.0)] * 4

    def test_node_leaders_view(self):
        timing = self._timing(4, 2)

        def body(comm):
            return comm.node_leaders()

        assert run_spmd(body, 4, comm_timing=timing) == [{0: 0, 1: 2}] * 4

    def test_flat_world_has_no_leaders(self):
        def body(comm):
            return comm.node_leaders()

        assert run_spmd(body, 4) == [{}] * 4

    def test_leader_death_reelects_deterministically(self):
        # Rank 0 leads node 0; killing it mid-collective must re-elect
        # rank 1 identically on every survivor.
        timing = self._timing(4, 2)
        plan = FaultPlan(kills=(KillSpec(rank=0, collective=0),))
        policy = TimeoutPolicy(collective_seconds=2.0, world_seconds=60.0)

        def body(comm):
            try:
                comm.barrier()
            except RankFailure as rf:
                leaders = comm.node_leaders()
                # Survivors still collectively agree after re-election.
                alive = comm.allgather(comm.rank)
                return rf.dead, leaders, alive
            return "unreachable"

        out = run_spmd(body, 4, fault_plan=plan, timeout_policy=policy,
                       comm_timing=timing)
        assert out[0] is None
        for dead, leaders, alive in (out[1], out[2], out[3]):
            assert dead == (0,)
            assert leaders == {0: 1, 1: 2}
            assert alive == [None, 1, 2, 3]

    def test_non_leader_death_charges_no_reelection(self):
        timing = self._timing(4, 2)
        plan = FaultPlan(kills=(KillSpec(rank=1, collective=0),))
        policy = TimeoutPolicy(collective_seconds=2.0, world_seconds=60.0)

        def body(comm):
            try:
                comm.barrier()
            except RankFailure:
                return comm.node_leaders()
            return "unreachable"

        out = run_spmd(body, 4, fault_plan=plan, timeout_policy=policy,
                       comm_timing=timing)
        for leaders in (out[0], out[2], out[3]):
            assert leaders == {0: 0, 1: 2}  # unchanged


class TestHybridConfigTopology:
    def _config(self, **kw):
        from repro.hybrid.driver import HybridConfig

        return HybridConfig(n_processes=4, n_threads=2, **kw)

    def test_topology_and_timing_selection(self):
        flat = self._config()
        assert flat.topology() is None
        assert flat.comm_timing() == CommTiming()
        hier = self._config(ranks_per_node=2)
        topo = hier.topology()
        assert topo == Topology(4, ranks_per_node=2)
        assert hasattr(hier.comm_timing(), "collective_phases")

    def test_node_overpacking_rejected(self):
        # dash has 8 cores/node: 4 ranks x 2 threads fits, 8 x 2 does not.
        self._config(ranks_per_node=4)
        with pytest.raises(ValueError):
            self._config(ranks_per_node=8)

    def test_fingerprint_has_one_rule(self):
        """Topology knobs are fingerprint fields like any other: always in
        the document, unset ones as ``null``."""
        from repro.hybrid.checkpoint import fingerprint_doc

        flat = fingerprint_doc(self._config())
        assert flat["ranks_per_node"] is None
        rich = fingerprint_doc(self._config(ranks_per_node=2))
        assert rich["ranks_per_node"] == 2
        assert set(rich) == set(flat)
        assert {k: v for k, v in rich.items() if v != flat[k]} == {
            "ranks_per_node": 2,
        }


class TestMembershipLeaders:
    def test_view_node_leaders(self):
        view = MembershipView(epoch=1, live=(1, 2, 3))
        topo = Topology(4, ranks_per_node=2)
        assert view.node_leaders(topo) == {0: 1, 1: 2}
        assert view.node_leaders(None) == {}
        assert view.node_leaders(Topology(4)) == {}


class TestPerfmodelTopology:
    def test_analysis_time_topology_changes_only_comm(self):
        from repro.perfmodel.coarse import analysis_time
        from repro.perfmodel.profiles import PROFILES

        profile = next(iter(PROFILES.values()))
        machine = machine_by_name("dash")
        flat = analysis_time(profile, machine, 100, 16, 2)
        hier = analysis_time(profile, machine, 100, 16, 2,
                             topology=Topology(16, ranks_per_node=4))
        assert hier.bootstrap == flat.bootstrap
        assert hier.thorough == flat.thorough
        assert hier.comm != flat.comm

    def test_compare_layouts(self):
        from repro.perfmodel.advisor import compare_layouts
        from repro.perfmodel.profiles import PROFILES

        profile = next(iter(PROFILES.values()))
        machine = machine_by_name("dash")
        verdict = compare_layouts(profile, machine, 100,
                                  [(8, 4), (4, 8), (16, 2)])
        assert len(verdict["layouts"]) == 3
        by_layout = {(e["n_processes"], e["n_threads"]): e
                     for e in verdict["layouts"]}
        # dash has 8 cores/node: T=8 implies 1 rank/node (more nodes),
        # T=2 packs 4 ranks/node onto fewer nodes.
        assert by_layout[(4, 8)]["ranks_per_node"] == 1
        assert by_layout[(16, 2)]["ranks_per_node"] == 4
        assert by_layout[(16, 2)]["n_nodes"] == 4
        assert verdict["best"] in verdict["layouts"]
        for entry in verdict["layouts"]:
            assert entry["predicted_seconds"] > 0


class TestOneCostProtocol:
    """Both models answer the same pricing protocol, and every consumer
    — communicator, steal board, advisor — asks it."""

    OPS = ("barrier", "bcast", "gather", "allgather", "allreduce")

    @pytest.mark.parametrize("op", OPS)
    def test_flat_phases_are_the_hand_traced_log_tree(self, op):
        t = CommTiming()
        n_bytes = 1000
        for p in range(1, 66):
            rounds = math.ceil(math.log2(p)) if p > 1 else 0
            phases = t.collective_phases(op, range(p), n_bytes)
            if op == "barrier":
                assert phases.total == t.barrier_seconds(p) == rounds * 1e-5
            else:
                assert phases.total == t.collective_seconds(p, n_bytes)
                assert phases.total == rounds * (5e-6 + n_bytes * 1e-9)
            # The flat model has no tiers: the whole price is untiered.
            assert (phases.intra, phases.inter) == (0.0, 0.0)
            # Handed a world size, the flat model prices it, not the members.
            assert t.collective_phases(op, [0], n_bytes, world_size=p) == phases

    def test_flat_hop_ignores_endpoints(self):
        t = CommTiming()
        assert t.message_seconds(1000, src=0, dst=5) == t.message_seconds(1000)
        assert t.hop_phases(1000, 0, 5) == CommPhases(untiered=6.0e-6)

    def test_two_tier_ignores_world_size(self):
        timing = HierarchicalCommTiming.for_machine(
            machine_by_name("dash"), Topology(8, ranks_per_node=4))
        assert timing.collective_phases(
            "bcast", range(4), 64, world_size=8
        ) == timing.collective_phases("bcast", range(4), 64)

    @pytest.mark.parametrize("ranks_per_node", [None, 2])
    def test_dead_rank_pricing_rule(self, ranks_per_node):
        # One death in a 2-rank world: the flat log tree still prices the
        # world size, the two-tier model the alive set (one rank: free).
        topo = None if ranks_per_node is None else Topology(2, ranks_per_node)
        timing = HierarchicalCommTiming.for_machine(machine_by_name("dash"), topo)
        plan = FaultPlan(kills=(KillSpec(rank=1, collective=0),))

        def body(comm):
            with pytest.raises(RankFailure):
                comm.barrier()
            t0 = comm.clock.now
            comm.barrier()
            return comm.clock.now, t0, comm.trace[-1]

        now, t0, event = run_spmd(body, 2, comm_timing=timing, fault_plan=plan)[0]
        if ranks_per_node is None:
            assert now == t0 + CommTiming().barrier_seconds(2) > t0
        else:
            assert timing.collective_phases("barrier", [0], 0).total == 0.0
            assert timing.barrier_seconds(2) > 0.0
            assert now == t0
        assert (event.intra_seconds, event.inter_seconds) == (0.0, 0.0)

    @pytest.mark.parametrize("ranks_per_node", [None, 2])
    def test_split_is_what_the_phases_carry(self, ranks_per_node):
        from repro.obs.recorder import Recorder, recording

        topo = None if ranks_per_node is None else Topology(4, ranks_per_node)
        timing = HierarchicalCommTiming.for_machine(machine_by_name("dash"), topo)

        def body(comm):
            rec = Recorder(rank=comm.rank, clock=comm.clock)
            with recording(rec):
                comm.allreduce(1.0)
                comm.barrier()
                if comm.rank == 0:
                    comm.send("x", 1)
                    comm.send("x", 3)
                elif comm.rank in (1, 3):
                    comm.recv(0)
            return comm.trace, rec.metrics.counters

        for rank, (trace, counters) in enumerate(
            run_spmd(body, 4, comm_timing=timing)
        ):
            split = [(e.intra_seconds, e.inter_seconds) for e in trace]
            if ranks_per_node is None:
                assert all(s == (0.0, 0.0) for s in split)
                assert "comm.seconds.intra" not in counters
                assert "comm.seconds.inter" not in counters
                continue
            assert counters["comm.seconds.intra"] == sum(s[0] for s in split)
            assert counters["comm.seconds.inter"] == sum(s[1] for s in split)
            assert all(i > 0.0 and x > 0.0 for i, x in split[:2])
            if rank == 0:
                # 0 → 1 stays on node 0; 0 → 3 crosses to node 1.
                on_node, cross = trace[2], trace[3]
                assert on_node.intra_seconds > 0.0 == on_node.inter_seconds
                assert cross.inter_seconds > 0.0 == cross.intra_seconds

    def test_one_intra_hop_formula(self):
        for machine in MACHINES.values():
            tier = HierarchicalCommTiming.for_machine(
                machine, Topology(4, ranks_per_node=2)).intra
            for n_bytes in (0, 8, 256, 1 << 20):
                want = (machine.intra_node_latency
                        + machine.intra_node_byte_time * n_bytes)
                assert tier.message_seconds(n_bytes) == want

    @pytest.mark.parametrize("ranks_per_node", [None, 2])
    def test_board_charges_the_cost_models_steal(self, ranks_per_node):
        # The work-steal backend's board charges the configured cost
        # model's steal price, per (thief, victim) hop.
        from repro.hybrid.driver import HybridConfig
        from repro.runtime.backends import WorkStealBackend

        config = HybridConfig(n_processes=4, n_threads=2,
                              schedule="work-steal",
                              ranks_per_node=ranks_per_node)
        board = WorkStealBackend.make_shared(config)
        timing = config.comm_timing()
        for thief, victim in ((0, 1), (1, 0), (0, 2), (3, 0)):
            charged = board.steal_cost(thief, victim)
            assert charged > 0.0
            assert charged == timing.steal_seconds(thief, victim)
        on_node, cross = board.steal_cost(0, 1), board.steal_cost(0, 2)
        if ranks_per_node is None:
            assert on_node == cross == 2 * CommTiming().message_seconds(256)
        else:
            assert on_node < cross
