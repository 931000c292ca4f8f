"""Communication microbenchmark: flat vs hierarchical.

Two legs, both deterministic, both written to ``output/BENCH_comm.json``:

* **Modeled collectives** — flat log-tree vs two-phase hierarchical
  costs for allreduce and bcast, swept over 8–128 ranks at 8 ranks/node
  on two machine topologies (dash and abe), at small and large (1 MiB)
  payloads.
* **End-to-end** — real ``run_spmd`` worlds of 8–64 ranks running a
  fixed collective sequence under both cost models (and the two-tier
  intra/inter attribution of the hierarchical one); the data plane is
  identical, so the payloads returned are asserted bit-equal.

Acceptance claims asserted here:

* modeled hierarchical allreduce is >= 2x cheaper than the flat tree at
  64 ranks (8 per node, 1 MiB payload) on both machines, and the
  advantage improves monotonically past 32 ranks;
* end-to-end hierarchical comm_seconds beat flat at every swept size
  with bit-identical collective results.
"""

import json

from repro.mpi.launcher import run_spmd
from repro.mpi.topology import CommTiming, HierarchicalCommTiming, Topology
from repro.perfmodel.machines import machine_by_name
from repro.util.tables import format_table

from conftest import OUTPUT_DIR

MACHINES = ("dash", "abe")
RANKS_PER_NODE = 8
MODEL_SIZES = (8, 16, 32, 64, 128)
PAYLOADS = (1024, 65536, 1 << 20)
#: The payload the >= 2x and monotonicity claims are asserted at.
CLAIM_PAYLOAD = 1 << 20

E2E_SIZES = (8, 16, 32, 64)
E2E_PAYLOAD = 4096
E2E_ROUNDS = 3


def modeled_sweep():
    """Flat vs hierarchical modeled collective costs per machine."""
    flat = CommTiming()
    out = {}
    for name in MACHINES:
        machine = machine_by_name(name)
        rows = []
        for p in MODEL_SIZES:
            topo = Topology(p, ranks_per_node=RANKS_PER_NODE)
            hier = HierarchicalCommTiming.for_machine(machine, topo)
            for b in PAYLOADS:
                rows.append({
                    "ranks": p,
                    "nodes": topo.n_nodes,
                    "payload_bytes": b,
                    "flat_allreduce": flat.collective_seconds(p, b),
                    "hier_allreduce": hier.allreduce_seconds(p, b),
                    "flat_bcast": flat.collective_seconds(p, b),
                    "hier_bcast": hier.collective_seconds(p, b),
                    "allreduce_ratio": (
                        flat.collective_seconds(p, b)
                        / hier.allreduce_seconds(p, b)
                    ),
                })
        out[name] = rows
    return out


def end_to_end_sweep():
    """Real run_spmd worlds under both cost models."""
    blob = b"x" * E2E_PAYLOAD
    machine = machine_by_name("dash")

    def body(comm):
        total = 0.0
        for _ in range(E2E_ROUNDS):
            total += comm.allreduce(float(comm.rank))
            comm.bcast(blob if comm.rank == 0 else None, root=0)
            comm.barrier()
        return (total, comm.account.seconds, comm.account.intra_seconds,
                comm.account.inter_seconds)

    rows = []
    for p in E2E_SIZES:
        flat = run_spmd(body, p)
        topo = Topology(p, ranks_per_node=RANKS_PER_NODE)
        hier = run_spmd(
            body, p,
            comm_timing=HierarchicalCommTiming.for_machine(machine, topo),
        )
        # Bit-identical payload semantics: the reduced values agree.
        assert [r[0] for r in flat] == [r[0] for r in hier]
        rows.append({
            "ranks": p,
            "nodes": topo.n_nodes,
            "flat_comm_seconds": max(r[1] for r in flat),
            "hier_comm_seconds": max(r[1] for r in hier),
            "hier_intra_seconds": max(r[2] for r in hier),
            "hier_inter_seconds": max(r[3] for r in hier),
        })
    return rows


def run_all():
    return {
        "modeled": modeled_sweep(),
        "end_to_end": end_to_end_sweep(),
    }


def test_comm_microbench(benchmark, emit):
    out = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert run_all() == out  # deterministic, bit-equal across runs

    # -- modeled claims -----------------------------------------------------
    for name in MACHINES:
        ratios = {
            r["ranks"]: r["allreduce_ratio"]
            for r in out["modeled"][name]
            if r["payload_bytes"] == CLAIM_PAYLOAD
        }
        assert ratios[64] >= 2.0, (name, ratios)
        assert ratios[32] < ratios[64] < ratios[128], (name, ratios)

    # -- end-to-end claims --------------------------------------------------
    for row in out["end_to_end"]:
        assert row["hier_comm_seconds"] < row["flat_comm_seconds"], row
        assert row["hier_intra_seconds"] > 0.0
    by_ranks = {r["ranks"]: r for r in out["end_to_end"]}
    assert by_ranks[8]["hier_inter_seconds"] == 0.0  # one node: no network

    doc = {
        "config": {
            "machines": list(MACHINES),
            "ranks_per_node": RANKS_PER_NODE,
            "model_sizes": list(MODEL_SIZES),
            "payload_bytes": list(PAYLOADS),
            "claim_payload_bytes": CLAIM_PAYLOAD,
            "e2e_sizes": list(E2E_SIZES),
            "e2e_rounds": E2E_ROUNDS,
        },
        **out,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_comm.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="ascii"
    )

    claim = {
        name: {
            r["ranks"]: r["allreduce_ratio"]
            for r in out["modeled"][name]
            if r["payload_bytes"] == CLAIM_PAYLOAD
        }
        for name in MACHINES
    }
    emit(
        "comm_microbench",
        format_table(
            ["Ranks", "dash flat/hier", "abe flat/hier",
             "e2e flat s", "e2e hier s"],
            [
                [p, claim["dash"][p], claim["abe"][p],
                 by_ranks[p]["flat_comm_seconds"] if p in by_ranks else 0.0,
                 by_ranks[p]["hier_comm_seconds"] if p in by_ranks else 0.0]
                for p in MODEL_SIZES
            ],
            formats=[None, ".3f", ".3f", ".6f", ".6f"],
            title=(
                "COMM MICROBENCH: FLAT VS HIERARCHICAL ALLREDUCE "
                f"({RANKS_PER_NODE} ranks/node, 1 MiB payload)\n"
                f"64-rank modeled speedup: dash {claim['dash'][64]:.2f}x, "
                f"abe {claim['abe'][64]:.2f}x"
            ),
        ),
    )
