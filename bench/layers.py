"""Per-layer metrics of one traced repetition, by the names BENCHMARK.json lists."""

from __future__ import annotations

from tracer import LAYERS, Tracer

COLLECTIVES = ("barrier", "bcast", "gather", "allgather", "allreduce")
_ZERO = {"calls": 0, "self_s": 0.0, "self_cpu_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tracer: Tracer, rep: dict, untraced_wall_s: float, cpu_s: float, import_s: float
) -> dict[str, float]:
    """``rep`` is the traced repetition (``workloads.run_once``), ``cpu_s`` the
    process CPU seconds it took, ``untraced_wall_s`` the same analysis with
    tracing off.  A ratio whose denominator is 0 on this workload reads 0."""
    agg = tracer.aggregate()
    counts = tracer.counters()

    def of(layer: str, *names: str) -> dict[str, float]:
        """Sum over the named callables of a layer (all of them if none named)."""
        total = dict(_ZERO)
        for (lay, name), a in agg.items():
            if lay == layer and (not names or name in names):
                for k in total:
                    total[k] += a[k]
        return total

    m: dict[str, float] = {}
    for layer in LAYERS:
        a = of(layer)
        m[f"{layer}.calls"] = a["calls"]
        m[f"{layer}.self_s"] = a["self_s"]
        m[f"{layer}.self_cpu_s"] = a["self_cpu_s"]

    einsum, kernels = of("numpy.einsum"), of("likelihood.kernels")
    pattern_ops = rep["sim"]["pattern_ops"]
    m["numpy.einsum.us_per_call"] = 1e6 * _ratio(einsum["self_s"], einsum["calls"])
    build = of("likelihood.gtr", "transition_matrices")
    m["likelihood.gtr.us_per_build"] = 1e6 * _ratio(build["wall_s"], build["calls"])
    m["likelihood.gtr.repeat_share"] = _ratio(counts["gtr.repeats"], build["calls"])
    m["likelihood.kernels.us_per_call"] = 1e6 * _ratio(kernels["self_s"], kernels["calls"])
    m["likelihood.kernels.ns_per_pattern_op"] = 1e9 * _ratio(
        kernels["self_s"] + einsum["self_s"], pattern_ops
    )
    m["likelihood.kernels.pattern_ops"] = pattern_ops
    m["likelihood.plan.hit_ratio"] = _ratio(
        counts["plan.probe_hits"], of("likelihood.plan", "probe")["calls"]
    )
    plan = of("likelihood.plan", "plan_traversal")
    m["likelihood.plan.us_per_plan"] = 1e6 * _ratio(plan["wall_s"], plan["calls"])
    m["likelihood.brlen.deriv_evals_per_edge"] = _ratio(
        of("likelihood.engine", "edge_lnl_and_derivatives")["calls"],
        of("likelihood.brlen", "optimize_edge")["calls"],
    )

    m["search.searches"] = of(
        "search", "bootstrap_replicate_search", "fast_search", "slow_search",
        "thorough_search",
    )["calls"]
    m["search.spr_rounds"] = of("search", "spr_round")["calls"]
    m["search.moves_tried"] = counts["search.moves_tried"]
    m["search.accept_ratio"] = _ratio(
        counts["search.moves_accepted"], counts["search.moves_tried"]
    )

    regions = of("threads", "charge_region")["calls"] + counts["threads.regions"]
    m["threads.us_per_region"] = 1e6 * _ratio(of("threads")["self_s"], regions)

    ranks = of("runtime", "run_rank")
    m["runtime.rank_cpu_s"] = ranks["cpu_s"]
    m["runtime.rank_wall_s"] = ranks["wall_s"]
    m["runtime.wait_share"] = max(0.0, 1.0 - _ratio(ranks["cpu_s"], ranks["wall_s"]))
    m["runtime.cpu_s"] = cpu_s

    simcomm = of("mpi", "send", "recv", *COLLECTIVES)
    m["mpi.collectives"] = of("mpi", *COLLECTIVES)["calls"]
    m["mpi.p2p_msgs"] = of("mpi", "send")["calls"]
    m["mpi.wait_s"] = max(0.0, simcomm["self_s"] - simcomm["self_cpu_s"])

    counted = rep["layer"]
    m["sched.tasks"] = counted["sched.tasks"]
    m["sched.steal_attempts"] = counted["sched.steal_attempts"]
    m["sched.grant_ratio"] = _ratio(
        counted["sched.steal_grants"], counted["sched.steal_attempts"]
    )

    writes = of("hybrid.checkpoint", "save", "record")
    m["hybrid.checkpoint.writes"] = writes["calls"]
    m["hybrid.checkpoint.bytes"] = counted.get("hybrid.checkpoint.bytes", 0)
    m["hybrid.checkpoint.write_s"] = writes["wall_s"]
    m["hybrid.checkpoint.resume_s"] = rep.get("resume_s", 0.0)
    m["obs.events"] = counted.get("obs.events", 0)
    m["cli.import_s"] = import_s

    m["trace.overhead_ratio"] = _ratio(rep["wall_s"], untraced_wall_s)
    m["trace.spans"] = tracer.n_spans()
    return m
