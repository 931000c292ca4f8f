"""Result containers of hybrid runs, and the per-rank → global fold."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.bootstop.support import map_support
from repro.bootstop.table import BipartitionTable, merge_tables
from repro.obs.metrics import aggregate
from repro.obs.report import ALL_STAGES, run_report
from repro.obs.trace import chrome_trace
from repro.search.schedule import WorkSchedule, make_schedule
from repro.sched.tasks import rng_stream_fingerprint
from repro.tree.newick import parse_newick, write_newick
from repro.tree.topology import Tree


@dataclass
class RankReport:
    """What one simulated MPI rank did and how long (virtual) it took."""

    rank: int
    stage_seconds: dict[str, float]
    stage_ops: dict[str, int]
    local_best_lnl: float  # this rank's thorough-search GAMMA lnL
    local_best_newick: str
    n_bootstraps: int
    n_fast: int
    n_slow: int
    finish_time: float  # rank virtual clock at completion
    comm_seconds: float = 0.0  # virtual time spent communicating/waiting
    n_retries: int = 0  # transiently-failed collectives retried (with backoff)
    recovered_for: tuple[int, ...] = ()  # dead ranks whose work this rank replayed
    backoff_seconds: float = 0.0  # virtual time charged to retry backoff
    #: Replay time bucketed by the stage whose boundary triggered it.
    recovery_by_stage: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())


@dataclass
class HybridResult:
    """Outcome of one hybrid comprehensive analysis."""

    best_tree: Tree
    best_lnl: float
    winner_rank: int
    schedule: WorkSchedule
    ranks: list[RankReport]
    stage_seconds: dict[str, float]  # per stage, last process to finish
    total_seconds: float  # latest rank finish time
    support_tree: Tree | None = None
    bootstrap_trees: list[Tree] = field(default_factory=list)
    wc_trace: list[tuple[int, float]] = field(default_factory=list)
    failed_ranks: list[int] = field(default_factory=list)  # ranks that died mid-run
    #: Chrome-trace-event document (``--trace``), loadable in Perfetto.
    trace: dict | None = None
    #: Per-rank + aggregated metrics and the stage report (``--metrics-out``).
    metrics: dict | None = None
    #: ``--schedule`` mode this run used ("static" | "work-steal").
    schedule_mode: str = "static"
    #: Digest of every task's derived RNG stream keys — identical across
    #: schedule modes of the same configuration by construction.
    rng_fingerprint: str | None = None
    #: Work-steal scheduling statistics (per-stage, per-rank counters,
    #: steal log, idle tails); None for static runs.
    sched: dict | None = None
    #: Final membership picture (epoch, live set, deltas, fingerprint)
    #: as observed by the lowest surviving rank.
    membership: dict | None = None

    @property
    def n_bootstraps_done(self) -> int:
        """Replicates in the global bootstrap set, whoever computed them
        — reporting ranks' own shares plus the ones they adopted."""
        return sum(r.n_bootstraps for r in self.ranks)

    def rank_lnls(self) -> list[float]:
        """Per-rank thorough-search likelihoods (Table 6's comparison)."""
        return [r.local_best_lnl for r in self.ranks]

    def identity(self, timings: bool = False) -> dict:
        """The one definition of *bit-identical* (serial = threaded =
        batched = work-steal = resumed = recovered), as a JSON-exact dict
        two runs are compared by.

        The results view is what every such pair must agree on: the
        winner, all trees at full float precision, the replicate set and
        the RNG stream keys.  (``rank_lnls`` lists reporting ranks only —
        compare it only between runs with the same deaths.)
        ``timings=True`` adds what two runs of the same schedule, fault
        plan and machine must also agree on: virtual seconds, per-stage
        op totals and the death set.
        """
        def newick(tree, **kw):
            return write_newick(tree, **kw) if tree is not None else None

        doc = {
            "best_lnl": self.best_lnl,
            "winner_rank": self.winner_rank,
            "best_newick": newick(self.best_tree, digits=None),
            "support_newick": newick(self.support_tree, support=True),
            "bootstrap_newicks": sorted(
                write_newick(t, digits=None) for t in self.bootstrap_trees
            ),
            "n_bootstraps_done": self.n_bootstraps_done,
            "rng_fingerprint": self.rng_fingerprint,
            "rank_lnls": self.rank_lnls(),
            "wc_trace": [list(t) for t in self.wc_trace],
        }
        if timings:
            stage_ops: Counter = Counter()
            for r in self.ranks:
                stage_ops.update(r.stage_ops)
            doc.update(
                stage_seconds=dict(self.stage_seconds),
                total_seconds=self.total_seconds,
                finish_times=[r.finish_time for r in self.ranks],
                comm_seconds=[r.comm_seconds for r in self.ranks],
                stage_ops=dict(stage_ops),
                failed_ranks=list(self.failed_ranks),
            )
        return doc

    def to_report(self) -> dict:
        """A JSON-serialisable run report (the CLI's info file)."""
        return {
            "best_lnl": self.best_lnl,
            "winner_rank": self.winner_rank,
            "best_tree": write_newick(self.best_tree),
            "support_tree": (
                write_newick(self.support_tree, support=True)
                if self.support_tree is not None
                else None
            ),
            "schedule": {
                "n_processes": self.schedule.n_processes,
                "bootstraps_per_process": self.schedule.bootstraps_per_process,
                "fast_per_process": self.schedule.fast_per_process,
                "slow_per_process": self.schedule.slow_per_process,
                "total_bootstraps": self.schedule.total_bootstraps,
            },
            "n_bootstraps_done": self.n_bootstraps_done,
            "schedule_mode": self.schedule_mode,
            "rng_fingerprint": self.rng_fingerprint,
            "sched": self.sched,
            "failed_ranks": list(self.failed_ranks),
            "membership": self.membership,
            "stage_seconds": dict(self.stage_seconds),
            "total_seconds": self.total_seconds,
            "wc_trace": [list(t) for t in self.wc_trace],
            "ranks": [self._rank_row(r) for r in self.ranks],
        }

    @staticmethod
    def _rank_row(r: RankReport) -> dict:
        return {
            "rank": r.rank,
            "stage_seconds": dict(r.stage_seconds),
            "stage_pattern_ops": dict(r.stage_ops),
            "thorough_lnl": r.local_best_lnl,
            "n_bootstraps": r.n_bootstraps,
            "n_fast": r.n_fast,
            "n_slow": r.n_slow,
            "finish_time": r.finish_time,
            "n_retries": r.n_retries,
            "recovered_for": list(r.recovered_for),
            "comm_seconds": r.comm_seconds,
        }


def assemble_hybrid_result(pal, config, raw, board=None) -> HybridResult:
    """Fold the per-rank report dicts of a run into one global result.

    Mirrors what the MPI code's rank 0 does after the final exchange:
    every surviving rank already agrees on the winner, so assembly is
    pure bookkeeping — rank reports, per-stage maxima, support mapping
    (merging bootstopping's sharded bipartition tables exactly), and the
    optional trace/metrics documents.  Ranks killed by a fault plan
    contribute ``None`` entries: their work was adopted by survivors.
    """
    results = [r for r in raw if r is not None]
    results.sort(key=lambda r: r["rank"])

    ranks = [
        RankReport(
            rank=r["rank"],
            stage_seconds=r["stage_seconds"],
            stage_ops=r["stage_ops"],
            local_best_lnl=r["local_lnl"],
            local_best_newick=r["local_newick"],
            n_bootstraps=len(r["bootstrap_newicks"]),
            n_fast=r["n_fast"],
            n_slow=r["n_slow"],
            finish_time=r["finish_time"],
            comm_seconds=r["comm_seconds"],
            n_retries=r["n_retries"],
            recovered_for=tuple(r["recovered_for"]),
            backoff_seconds=r["backoff_seconds"],
            recovery_by_stage=dict(r["recovery_seconds_by_stage"]),
        )
        for r in results
    ]
    stage_seconds = {
        s: max(r.stage_seconds.get(s, 0.0) for r in ranks) for s in ALL_STAGES
    }
    best_tree = parse_newick(results[0]["best_newick"], taxa=pal.taxa)
    schedule = make_schedule(config.comprehensive.n_bootstraps, config.n_processes)
    rng_fp = rng_stream_fingerprint(
        schedule, config.comprehensive, int(pal.weights.sum()), config.n_processes
    )
    sched_doc = None
    if board is not None:
        sched_doc = {
            "mode": "work-steal",
            "stage_stats": {
                s: {str(r): d for r, d in per.items()}
                for s, per in board.stage_stats().items()
            },
            "steal_log": board.steal_log(),
            "idle_tail": {
                str(r["rank"]): r["sched"]["idle_tail"] for r in results
            },
            "steal_attempts": sum(
                d.get("steal_attempts", 0)
                for per in board.stage_stats().values()
                for d in per.values()
            ),
            "steal_grants": sum(
                d.get("steal_grants", 0)
                for per in board.stage_stats().values()
                for d in per.values()
            ),
        }

    bootstrap_trees = [
        parse_newick(n, taxa=pal.taxa)
        for r in results
        for n in r["bootstrap_newicks"]
    ]
    support_tree = None
    if len(pal.taxa) >= 4:
        shards = [r["shard"] for r in results]
        if len(results) == config.n_processes and all(s is not None for s in shards):
            # Bootstopping runs kept a rank-sharded distributed table;
            # merging the shards reproduces the global table exactly.
            table = merge_tables(shards)
        else:
            table = BipartitionTable(len(pal.taxa))
            table.add_trees(bootstrap_trees)
        support_tree = map_support(best_tree, table)

    trace = None
    if config.collect_trace:
        events = [e for r in results for e in (r["trace_events"] or [])]
        trace = chrome_trace(events, n_threads=config.n_threads, meta={
            "n_processes": config.n_processes,
            "n_threads": config.n_threads,
            "machine": config.machine,
            "dropped_events": sum(r["trace_dropped"] for r in results),
        })
    metrics = None
    if config.collect_trace or config.collect_metrics:
        per_rank = {str(r["rank"]): r["metrics"] for r in results}
        metrics = {
            "per_rank": per_rank,
            "aggregate": aggregate(list(per_rank.values())),
            "report": run_report(
                [r.stage_seconds for r in ranks],
                comm_seconds=[r.comm_seconds for r in ranks],
                n_processes=config.n_processes,
                n_threads=config.n_threads,
                sched=sched_doc,
                recovery=[r.recovery_by_stage for r in ranks],
            ),
        }

    return HybridResult(
        best_tree=best_tree,
        best_lnl=results[0]["winner_lnl"],
        winner_rank=results[0]["winner_rank"],
        schedule=schedule,
        ranks=ranks,
        stage_seconds=stage_seconds,
        total_seconds=max(r.finish_time for r in ranks),
        support_tree=support_tree,
        bootstrap_trees=bootstrap_trees,
        wc_trace=results[0]["wc_trace"],
        failed_ranks=results[0]["failed_ranks"],
        trace=trace,
        metrics=metrics,
        schedule_mode=config.schedule,
        rng_fingerprint=rng_fp,
        sched=sched_doc,
        membership=results[0]["membership"],
    )
