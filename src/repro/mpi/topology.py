"""Node topology of the simulated cluster, and the two-tier cost model.

The paper's whole premise is that a hybrid MPI/Pthreads code must treat
intra-node and inter-node communication differently: threads inside one
node share memory, ranks across nodes cross the interconnect.  The flat
:class:`~repro.mpi.comm.CommTiming` prices every hop identically; this
module adds the node structure and a hierarchical cost model on top of
it, following the two-stage collective design of "MPI Collectives for
Multi-core Clusters": every collective runs an *intra-node phase* among
the ranks of each node (at shared-memory cost) and an *inter-node phase*
among one elected leader per node (at network cost).

Only **costs and attribution** are hierarchical.  The data plane — the
scratch-board exchange in :class:`~repro.mpi.comm.SimComm`, its
reduction order, death sets, epochs and retries — is untouched, which is
what keeps hierarchical runs bit-identical to flat runs in every
analysis output.

Leaders are not state: the leader of a node is *defined* as the smallest
alive rank mapped to it, recomputed from the survivor set at every
collective.  When a leader dies mid-collective the next collective's
leader set is therefore already re-elected, deterministically and
identically on every survivor — no election protocol, no extra
messages (an optional re-election charge can be modelled via
:class:`~repro.mpi.policy.TimeoutPolicy.reelection_charge_seconds`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Iterable

from repro.mpi.comm import CommTiming


@dataclass(frozen=True)
class Topology:
    """Rank→node map of a run: ``ranks_per_node`` consecutive ranks per node.

    ``size`` is the number of ranks the run *starts* with; elastic
    joiners get ranks above it and are mapped by the same rule
    (``rank // ranks_per_node``), so membership growth never reshuffles
    the placement of existing ranks.
    """

    size: int
    ranks_per_node: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"topology size must be >= 1, got {self.size}")
        if self.ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {self.ranks_per_node}"
            )

    @property
    def n_nodes(self) -> int:
        """Nodes occupied by the initial ``size`` ranks."""
        return ceil(self.size / self.ranks_per_node)

    @property
    def is_trivial(self) -> bool:
        """One rank per node — the flat world."""
        return self.ranks_per_node == 1

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank`` (joiner ranks >= size included)."""
        if rank < 0:
            raise ValueError(f"invalid rank {rank}")
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def node_members(self, node: int, among: Iterable[int] | None = None) -> list[int]:
        """Ranks of ``node`` (restricted to ``among`` when given), sorted."""
        if among is None:
            among = range(self.size)
        return sorted(r for r in among if self.node_of(r) == node)

    def leaders(self, alive: Iterable[int]) -> dict[int, int]:
        """Node → leader (smallest alive rank on the node).

        Pure function of the alive set — this *is* the re-election rule:
        every survivor recomputes the same map from the same death set.
        """
        out: dict[int, int] = {}
        for r in sorted(alive):
            out.setdefault(self.node_of(r), r)
        return out

    def leader_of(self, rank: int, alive: Iterable[int]) -> int:
        """The current leader of ``rank``'s node."""
        node = self.node_of(rank)
        members = self.node_members(node, among=alive)
        if not members:
            raise ValueError(f"node {node} has no alive ranks")
        return members[0]

    def as_doc(self) -> dict:
        return {
            "size": self.size,
            "ranks_per_node": self.ranks_per_node,
            "n_nodes": self.n_nodes,
        }


@dataclass(frozen=True)
class CommPhases:
    """Modelled transfer cost of one collective, split by tier."""

    intra: float = 0.0  # intra-node phases (shared-memory cost)
    inter: float = 0.0  # inter-node leader phase (network cost)

    @property
    def total(self) -> float:
        return self.intra + self.inter


def _tree_rounds(n: int) -> int:
    """Rounds of a binomial tree over ``n`` participants."""
    return ceil(log2(n)) if n > 1 else 0


@dataclass(frozen=True)
class HierarchicalCommTiming:
    """Two-tier communication costs over a :class:`Topology`.

    Superset of :class:`~repro.mpi.comm.CommTiming`:
    ``message_seconds``/``barrier_seconds``/``collective_seconds`` keep
    working (as totals), and :meth:`collective_phases` exposes the
    intra/inter split that :class:`~repro.mpi.comm.SimComm` records.
    ``SimComm`` tells the two models apart by ``topology`` — ``None`` on
    the flat one.

    Per-collective model (``r_max`` = ranks on the fullest node among
    the members, ``k`` = nodes represented, ``b`` = payload bytes):

    =========== ======================================= ==========================================
    op          intra phases                            inter leader phase
    =========== ======================================= ==========================================
    barrier     2·⌈log2 r_max⌉ rounds at intra base     ⌈log2 k⌉ rounds at inter base
    bcast       ⌈log2 r_max⌉ tree rounds (fan-out)      ⌈log2 k⌉ tree rounds
    gather      ⌈log2 r_max⌉ tree rounds (fan-in)       ⌈log2 k⌉ tree rounds
    allgather   2·⌈log2 r_max⌉ (fan-in + fan-out)       ⌈log2 k⌉ tree rounds
    allreduce   2·⌈log2 r_max⌉ (reduce + bcast)         Rabenseifner: 2⌈log2 k⌉·L + 2·(k−1)/k·b·B
    =========== ======================================= ==========================================

    The inter allreduce is a reduce-scatter + allgather (Rabenseifner):
    byte-count ~2b instead of the tree's ⌈log2 k⌉·b, which is where the
    ≥2× modelled win over the flat log-tree at 64 ranks comes from.
    """

    topology: Topology
    intra: CommTiming
    inter: CommTiming

    def __post_init__(self) -> None:
        if self.intra.latency > self.inter.latency:
            raise ValueError(
                "intra-node latency must not exceed inter-node latency: "
                f"{self.intra.latency} > {self.inter.latency}"
            )
        if self.intra.byte_time > self.inter.byte_time:
            raise ValueError(
                "intra-node byte time must not exceed inter-node byte time: "
                f"{self.intra.byte_time} > {self.inter.byte_time}"
            )

    @classmethod
    def for_machine(cls, machine, topology: Topology):
        """The machine's two-tier model over ``topology``.

        A trivial topology (one rank per node) *is* the flat world, so
        this returns a plain flat :class:`CommTiming` built from the
        machine's inter-node constants — which default to the historical
        flat numbers, reproducing today's costs exactly.
        """
        inter = CommTiming(
            latency=machine.inter_node_latency,
            byte_time=machine.inter_node_byte_time,
        )
        if topology.is_trivial:
            return inter
        # The barrier base scales with the tier's latency so that the
        # intra arrive/release rounds stay proportionally cheaper.
        intra = CommTiming(
            latency=machine.intra_node_latency,
            byte_time=machine.intra_node_byte_time,
            barrier_base=inter.barrier_base
            * (machine.intra_node_latency / machine.inter_node_latency),
        )
        return cls(topology=topology, intra=intra, inter=inter)

    # -- flat-compatible API -------------------------------------------------

    def message_seconds(self, n_bytes: int, src: int | None = None,
                        dst: int | None = None) -> float:
        """Point-to-point cost; hop-aware when both endpoints are given."""
        if src is not None and dst is not None and self.topology.same_node(src, dst):
            return self.intra.message_seconds(n_bytes)
        return self.inter.message_seconds(n_bytes)

    def barrier_seconds(self, size: int) -> float:
        return self.collective_phases("barrier", range(size), 0).total

    def collective_seconds(self, size: int, n_bytes: int) -> float:
        """Total cost of a tree data collective over ranks 0..size-1."""
        return self.collective_phases("bcast", range(size), n_bytes).total

    def allreduce_seconds(self, size: int, n_bytes: int) -> float:
        return self.collective_phases("allreduce", range(size), n_bytes).total

    # -- the hierarchical split ----------------------------------------------

    def collective_phases(self, op: str, members: Iterable[int],
                          n_bytes: int) -> CommPhases:
        """Intra/inter cost split of one collective over ``members``.

        ``members`` is the alive set the collective runs over (possibly
        shrunk by deaths or grown by joins); the split is a pure function
        of it, so every survivor charges identical virtual time.
        """
        per_node: dict[int, int] = {}
        n = 0
        for r in members:
            n += 1
            node = self.topology.node_of(r)
            per_node[node] = per_node.get(node, 0) + 1
        if n <= 1:
            return CommPhases()
        k = len(per_node)
        intra_rounds = _tree_rounds(max(per_node.values()))
        inter_rounds = _tree_rounds(k)
        if op == "barrier":
            return CommPhases(
                intra=2 * intra_rounds * self.intra.barrier_base,
                inter=inter_rounds * self.inter.barrier_base,
            )
        m_in = self.intra.message_seconds(n_bytes)
        m_out = self.inter.message_seconds(n_bytes)
        if op == "allreduce":
            # Leaders run reduce-scatter + allgather (Rabenseifner):
            # 2·log2(k) latency terms but only ~2·(k-1)/k payload sends.
            inter = (
                2 * inter_rounds * self.inter.latency
                + 2.0 * (k - 1) / k * n_bytes * self.inter.byte_time
            )
            return CommPhases(intra=2 * intra_rounds * m_in, inter=inter)
        if op in ("bcast", "gather"):
            return CommPhases(intra=intra_rounds * m_in,
                              inter=inter_rounds * m_out)
        # allgather and any other data collective: node-local fan-in,
        # leader exchange, node-local fan-out.
        return CommPhases(intra=2 * intra_rounds * m_in,
                          inter=inter_rounds * m_out)
