"""Node topology of the simulated cluster, and what communication costs.

The paper's whole premise is that a hybrid MPI/Pthreads code must treat
intra-node and inter-node communication differently: threads inside one
node share memory, ranks across nodes cross the interconnect.  Every
modelled price — a collective, a hop, a steal round-trip — is asked of
one protocol (:class:`CommCostModel`) with two models behind it: the
flat :class:`CommTiming` prices every hop identically, and
:class:`HierarchicalCommTiming` follows the two-stage collective design
of "MPI Collectives for Multi-core Clusters": an *intra-node phase*
among the ranks of each node (at shared-memory cost) and an *inter-node
phase* among one elected leader per node (at network cost).

Only **costs and attribution** differ between the models.  The data
plane — the slot exchange in :class:`~repro.mpi.comm.SimComm` and its
reduction order — and the fault/epoch plane — death sets, epochs,
retries — are untouched, which is what keeps hierarchical runs
bit-identical to flat runs in every analysis output.

Leaders are not state: the leader of a node is *defined* as the smallest
alive rank mapped to it, recomputed from the survivor set at every
collective.  When a leader dies mid-collective the next collective's
leader set is therefore already re-elected, deterministically and
identically on every survivor — no election protocol, no extra
messages, and no modelled cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import ceil, log2
from typing import ClassVar, Collection, Iterable


@dataclass(frozen=True)
class Topology:
    """Rank→node map of a run: ``ranks_per_node`` consecutive ranks per node.

    ``size`` is the number of ranks of the run; a rank's node is
    ``rank // ranks_per_node``.
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
        """Nodes occupied by the ``size`` ranks."""
        return ceil(self.size / self.ranks_per_node)

    @property
    def is_trivial(self) -> bool:
        """One rank per node — the flat world."""
        return self.ranks_per_node == 1

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``."""
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


@dataclass(frozen=True)
class CommPhases:
    """Modelled transfer cost of one operation, split by tier.

    A two-tier price is ``intra + inter``; the flat model has no tiers,
    so its whole price is ``untiered`` and the split stays zero.
    """

    intra: float = 0.0  # intra-node phases (shared-memory cost)
    inter: float = 0.0  # inter-node leader phase (network cost)
    untiered: float = 0.0  # flat-model price (no node structure)

    @property
    def total(self) -> float:
        return self.intra + self.inter + self.untiered


def _tree_rounds(n: int) -> int:
    """Rounds of a binomial tree over ``n`` participants."""
    return ceil(log2(n)) if n > 1 else 0


#: Wire size of one steal request or grant message.
STEAL_BYTES = 256


class CommCostModel:
    """The pricing protocol both timing models implement.

    A model supplies two prices; every other one is derived from them
    here, once.  It also carries the ``topology`` it prices (``None`` on
    the flat model), from which node leaders are elected.
    """

    def collective_phases(self, op: str, members: Collection[int],
                          n_bytes: int, world_size: int | None = None) -> CommPhases:
        """One collective.  The communicator hands over the alive member
        set *and* the world size: the flat model prices the size (its
        log tree ignores deaths; without one it counts the members), the
        two-tier model the member set."""
        raise NotImplementedError

    def hop_phases(self, n_bytes: int, src: int | None = None,
                   dst: int | None = None) -> CommPhases:
        """One message ``src → dst``.  The flat model ignores the
        endpoints; without them the two-tier one charges the
        conservative inter-node price."""
        raise NotImplementedError

    def message_seconds(self, n_bytes: int, src: int | None = None,
                        dst: int | None = None) -> float:
        return self.hop_phases(n_bytes, src, dst).total

    def barrier_seconds(self, size: int) -> float:
        return self.collective_phases("barrier", range(size), 0).total

    def collective_seconds(self, size: int, n_bytes: int) -> float:
        """Total cost of a tree data collective over ranks 0..size-1."""
        return self.collective_phases("bcast", range(size), n_bytes).total

    def allreduce_seconds(self, size: int, n_bytes: int) -> float:
        return self.collective_phases("allreduce", range(size), n_bytes).total

    def steal_seconds(self, thief: int, victim: int | None) -> float:
        """Round-trip of one steal: a request/grant message pair between
        thief and victim, charged to the thief.  The victim is fixed at
        commit time, so a per-hop price stays deterministic."""
        return 2 * self.message_seconds(STEAL_BYTES, thief, victim)


@dataclass(frozen=True)
class CommTiming(CommCostModel):
    """Virtual-time costs of communication operations (seconds).

    This is the *flat* model: every hop costs the same, regardless of
    where the two ranks live.  Costs scale with a **log tree**, not
    linearly — a collective over ``p`` ranks is modelled as a binomial
    tree of ``ceil(log2(p))`` rounds, each round shipping the full
    payload once, never as ``p`` sequential messages.

    Hand-trace (defaults: latency 5e-6 s, byte_time 1e-9 s/B,
    barrier_base 1e-5 s)::

        message_seconds(1000)       = 5e-6 + 1000*1e-9     = 6.0e-6
        collective_seconds(8, 1000) = ceil(log2(8)) * 6e-6 = 1.8e-5
        collective_seconds(9, 1000) = ceil(log2(9)) * 6e-6 = 2.4e-5
        barrier_seconds(8)          = 1e-5 * 3             = 3.0e-5
        barrier_seconds(1)          = 0.0   (nobody to sync with)

    Doubling ``p`` therefore adds *one round* (+6e-6 above), where a
    linear model would double the cost — the distinction the scaling
    curves past 32 ranks hinge on.  These numbers are pinned
    byte-for-byte by the regression tests; the two-tier model must
    reproduce them exactly whenever the topology is trivial.
    """

    latency: float = 5e-6  # per point-to-point message
    byte_time: float = 1e-9  # per payload byte (~1 GB/s interconnect)
    barrier_base: float = 1e-5  # per barrier, times ceil(log2(p))
    topology: ClassVar[None] = None  # the flat model prices no node structure

    def message_seconds(self, n_bytes, src=None, dst=None) -> float:
        return self.latency + self.byte_time * n_bytes

    def hop_phases(self, n_bytes, src=None, dst=None) -> CommPhases:
        return CommPhases(untiered=self.message_seconds(n_bytes))

    def collective_phases(self, op, members, n_bytes, world_size=None) -> CommPhases:
        """``ceil(log2(p))`` tree rounds — ``barrier_base`` each for a
        barrier, one full-payload message each otherwise; free for a
        single rank (log-tree, not linear-in-p)."""
        size = len(members) if world_size is None else world_size
        per_round = (
            self.barrier_base if op == "barrier"
            else self.message_seconds(n_bytes)
        )
        return CommPhases(untiered=_tree_rounds(size) * per_round)


def intra_node_timing(machine) -> CommTiming:
    """The machine's shared-memory tier: what a hop between two ranks
    of one node costs.  The barrier base scales with the tier's latency
    so that the intra arrive/release rounds stay proportionally
    cheaper."""
    return CommTiming(
        latency=machine.intra_node_latency,
        byte_time=machine.intra_node_byte_time,
        barrier_base=CommTiming.barrier_base
        * (machine.intra_node_latency / machine.inter_node_latency),
    )


@dataclass(frozen=True)
class HierarchicalCommTiming(CommCostModel):
    """Two-tier communication costs over a :class:`Topology`.

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
    def for_machine(cls, machine, topology: Topology | None) -> CommCostModel:
        """The cost model of ``machine`` under ``topology``.

        No topology is the historical flat world: the pinned default
        :class:`CommTiming`, whatever the machine.  A trivial topology
        (one rank per node) is flat too, built from the machine's
        inter-node constants — which default to those same numbers.
        Anything else is the two-tier model.
        """
        if topology is None:
            return CommTiming()
        inter = CommTiming(
            latency=machine.inter_node_latency,
            byte_time=machine.inter_node_byte_time,
        )
        if topology.is_trivial:
            return inter
        return cls(topology=topology, intra=intra_node_timing(machine),
                   inter=inter)

    def hop_phases(self, n_bytes, src=None, dst=None) -> CommPhases:
        if src is not None and dst is not None and self.topology.same_node(src, dst):
            return CommPhases(intra=self.intra.message_seconds(n_bytes))
        return CommPhases(inter=self.inter.message_seconds(n_bytes))

    def collective_phases(self, op, members, n_bytes, world_size=None) -> CommPhases:
        """Intra/inter cost split of one collective over ``members``.

        ``members`` is the alive set the collective runs over (possibly
        shrunk by deaths); the split is a pure function
        of it, so every survivor charges identical virtual time.
        """
        if len(members) <= 1:
            return CommPhases()
        per_node = Counter(map(self.topology.node_of, members))
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
