"""A RAxML-flavoured command line for the hybrid comprehensive analysis.

Mirrors the invocation the paper benchmarks (Section 5): ::

    repro-raxml -s data.phy -n run1 -m GTRCAT -N 100 -p 12345 -x 12345 \\
                -f a -np 10 -T 8 --machine dash

Outputs the best ML tree (with bootstrap support values) as Newick, plus a
run report with per-stage virtual times, speedup-relevant counts, and the
final likelihood.  ``--simulate`` generates a data set on the fly for
experimentation without input files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.perfmodel.machines import machine_by_name
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from repro.seq.io_phylip import read_phylip
from repro.seq.patterns import compress_alignment
from repro.tree.newick import write_newick


#: Generator seed of ``--simulate`` alignments.
SIMULATE_SEED = 4242


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-raxml",
        description="Hybrid MPI/Pthreads comprehensive phylogenetic analysis "
        "(reproduction of Pfeiffer & Stamatakis 2010).",
    )
    from repro import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro-raxml {__version__} "
                                "(reproduction of RAxML 7.2.4 hybrid)")
    parser.add_argument("-s", dest="alignment", help="input alignment (PHYLIP or FASTA)")
    parser.add_argument("-n", dest="name", default="run", help="run name (output prefix)")
    parser.add_argument(
        "-m", dest="model", default="GTRCAT",
        choices=["GTRCAT", "GTRGAMMA", "GTRGAMMAI"],
        help="model: GTRCAT (CAT search stages), GTRGAMMA, or GTRGAMMAI "
             "(adds the +I invariant-sites parameter; used by -f e)",
    )
    parser.add_argument("-N", dest="bootstraps", type=int, default=100,
                        help="number of rapid bootstraps (default 100)")
    parser.add_argument("-p", dest="seed_p", type=int, default=12345,
                        help="random seed for searches")
    parser.add_argument("-x", dest="seed_x", type=int, default=12345,
                        help="random seed for rapid bootstrapping")
    parser.add_argument("-f", dest="algorithm", default="a", choices=["a", "d", "e"],
                        help="analysis: 'a' comprehensive, 'd' multiple ML "
                             "searches, 'e' evaluate a fixed topology (-t)")
    parser.add_argument("-t", dest="tree", help="input tree (Newick) for -f e")
    parser.add_argument("-b", dest="seed_b", type=int, default=None,
                        help="standard-bootstrap seed: run -N full bootstrap "
                             "searches instead of a comprehensive analysis")
    parser.add_argument("-T", dest="threads", type=int, default=1,
                        help="Pthreads per MPI process")
    parser.add_argument("-np", dest="processes", type=int, default=1,
                        help="number of (simulated) MPI processes")
    parser.add_argument("--machine", default="dash",
                        help="machine timing model: abe|dash|ranger|triton")
    parser.add_argument("--clv-cache", dest="clv_cache", action="store_true",
                        help="cache conditional likelihood vectors by subtree "
                             "signature so searches only recompute partials "
                             "invalidated by each move")
    parser.add_argument("--bootstopping", action="store_true",
                        help="enable the WC bootstopping test (extension)")
    from repro.runtime import available_schedules

    parser.add_argument("--schedule", default="static",
                        choices=list(available_schedules()),
                        help="execution backend: 'static' (the paper's "
                             "fixed Table 2 shares) or 'work-steal' (dynamic "
                             "deques with deterministic work stealing; "
                             "bit-identical results by construction)")
    parser.add_argument("--checkpoint-dir", dest="checkpoint_dir", default=None,
                        help="write per-rank, per-stage checkpoints to this "
                             "directory (atomic JSON; enables --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="resume a killed run from --checkpoint-dir "
                             "(bit-identical to an uninterrupted run)")
    parser.add_argument("--simulate", nargs=2, type=int, metavar=("TAXA", "SITES"),
                        help="simulate an alignment (generator seed "
                             f"{SIMULATE_SEED}) instead of reading one")
    parser.add_argument("--trace", dest="trace", metavar="OUT.json", default=None,
                        help="write a Chrome-trace-event timeline of the run "
                             "(open in https://ui.perfetto.dev): one process "
                             "per rank, one lane per virtual thread")
    parser.add_argument("--metrics-out", dest="metrics_out", metavar="M.json",
                        default=None,
                        help="write per-rank and aggregated metrics (counters/"
                             "gauges/histograms) plus the Fig. 3-4 stage "
                             "decomposition report as JSON")
    parser.add_argument("-w", dest="outdir", default=".", help="output directory")
    parser.add_argument("--quick", action="store_true",
                        help="reduced search effort (demo-friendly run times)")
    parser.add_argument("-J", dest="consensus", choices=["MR", "MRE"], default=None,
                        help="also write a majority-rule consensus of the "
                             "bootstrap trees (MRE: extended, threshold 0.5)")
    return parser


def validate_args(args) -> None:
    """Reject flag combinations and values that would otherwise be
    silently ignored or die deep inside the run with an unhelpful
    traceback."""
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.algorithm == "e" and not args.tree:
        raise SystemExit("-f e requires an input tree via -t")
    if args.tree and args.algorithm != "e":
        raise SystemExit(
            "-t is only consumed by -f e (evaluate a fixed topology); "
            f"-f {args.algorithm} would silently ignore the input tree"
        )
    if args.bootstopping and args.schedule != "static":
        raise SystemExit(
            "--bootstopping requires --schedule static: the replicate set "
            "grows round-synchronised across ranks"
        )
    if args.algorithm != "a" or args.seed_b is not None:
        # Only the comprehensive analysis consumes these; anything else
        # would run fine but silently drop the request.
        mode = "-b" if args.seed_b is not None else f"-f {args.algorithm}"

        def reject(flags, consumers: str) -> None:
            ignored = [flag for flag, on in flags if on]
            if ignored:
                raise SystemExit(
                    f"{', '.join(ignored)}: only {consumers} this; "
                    f"{mode} would silently ignore it"
                )

        reject(
            (
                ("--bootstopping", args.bootstopping),
                ("--checkpoint-dir", args.checkpoint_dir is not None),
                ("--resume", args.resume),
                ("--trace", args.trace is not None),
                ("--metrics-out", args.metrics_out is not None),
                ("-J", args.consensus is not None),
                ("--schedule", args.schedule != "static"),
            ),
            "the comprehensive analysis (-f a) supports",
        )
        if args.algorithm != "e":
            reject(
                (("--clv-cache", args.clv_cache),),
                "the comprehensive analysis (-f a) and tree evaluation "
                "(-f e) support",
            )
        else:
            reject(
                (
                    ("-np", args.processes != 1),
                    ("-T", args.threads != 1),
                    ("--machine", args.machine.lower() != "dash"),
                    ("-N", args.bootstraps != 100),
                    ("--quick", args.quick),
                ),
                "the comprehensive analysis (-f a), -f d and -b support",
            )
    if args.algorithm == "e":
        return
    try:
        machine = machine_by_name(args.machine)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    if args.algorithm == "d" or args.seed_b is not None:
        # -f d and -b hand -np and -T to the launcher with no config
        # in between to vet them.
        if args.processes < 1:
            raise SystemExit(f"-np {args.processes}: at least one process "
                             "is needed")
        if not 1 <= args.threads <= machine.cores_per_node:
            raise SystemExit(
                f"-T {args.threads}: {machine.name} runs 1 to "
                f"{machine.cores_per_node} threads per process"
            )


def load_alignment(args) -> "PatternAlignment":
    """The input alignment, pattern-compressed; an input the simulator or
    the readers reject exits with one line naming it."""
    if args.simulate is not None:
        from repro.datasets.generator import SimulationParams, simulate_alignment

        n_taxa, n_sites = args.simulate
        try:
            aln, _ = simulate_alignment(SimulationParams(
                n_taxa=n_taxa, n_sites=n_sites, seed=SIMULATE_SEED
            ))
        except ValueError as exc:
            raise SystemExit(f"--simulate {n_taxa} {n_sites}: {exc}") from None
        return compress_alignment(aln)
    if not args.alignment:
        raise SystemExit("either -s <alignment> or --simulate TAXA SITES is required")
    path = Path(args.alignment)
    if not path.exists():
        raise SystemExit(f"alignment file not found: {path}")
    try:
        text = path.read_text(encoding="ascii")
        if text.lstrip().startswith(">"):
            from repro.seq.io_fasta import read_fasta

            aln = read_fasta(path)
        else:
            aln = read_phylip(path)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}") from None
    return compress_alignment(aln)


def _run_evaluate(args, pal) -> int:
    """-f e: score a fixed topology."""
    from repro.search.evaluate import evaluate_tree
    from repro.tree.newick import parse_newick

    tree_path = Path(args.tree)
    if not tree_path.exists():
        raise SystemExit(f"tree file not found: {tree_path}")
    try:
        tree = parse_newick(tree_path.read_text(encoding="ascii"), taxa=pal.taxa)
    except ValueError as exc:
        raise SystemExit(f"{tree_path}: {exc}") from None
    result = evaluate_tree(
        pal, tree, plus_invariant=(args.model == "GTRGAMMAI"),
        clv_cache=args.clv_cache,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / f"RAxML_result.{args.name}.nwk"
    out.write_text(write_newick(result.tree) + "\n", encoding="ascii")
    extra = (
        f", p-invariant {result.p_invariant:.4f}"
        if args.model == "GTRGAMMAI"
        else ""
    )
    print(f"evaluated fixed topology: lnL {result.lnl:.4f} "
          f"(alpha {result.alpha:.4f}{extra})")
    print(f"optimised tree written to {out}")
    return 0


def _run_multisearch(args, pal, stage_params) -> int:
    """-f d (multiple ML searches) or -b (standard bootstrap)."""
    from repro.hybrid.analyses import (
        MultiSearchConfig,
        run_multiple_ml_searches,
        run_standard_bootstrap,
    )

    config = MultiSearchConfig(
        n_searches=args.bootstraps,
        seed_p=args.seed_p,
        seed_b=args.seed_b or args.seed_p,
        stage_params=stage_params,
    )
    kind = "standard bootstrap" if args.seed_b is not None else "multiple ML searches"
    print(f"{kind}: N={args.bootstraps}, p={args.processes} x T={args.threads} "
          f"on {args.machine}")
    if args.seed_b is not None:
        result = run_standard_bootstrap(
            pal, config, args.processes, args.threads, args.machine
        )
    else:
        result = run_multiple_ml_searches(
            pal, config, args.processes, args.threads, args.machine
        )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    best = outdir / f"RAxML_bestTree.{args.name}.nwk"
    best.write_text(write_newick(result.best_tree) + "\n", encoding="ascii")
    print(f"{len(result.trees)} searches done "
          f"(per rank: {result.per_rank_counts}); best lnL {result.best_lnl:.4f}")
    print(f"virtual time: {result.total_seconds:.4f} s")
    print(f"best tree written to {best}")
    if result.support_table is not None:
        trees_path = outdir / f"RAxML_bootstrap.{args.name}.nwk"
        trees_path.write_text(
            "".join(write_newick(t) + "\n" for t in result.trees), encoding="ascii"
        )
        print(f"bootstrap trees written to {trees_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    validate_args(args)
    pal = load_alignment(args)

    stage_params = (
        StageParams(slow_max_rounds=2, thorough_max_rounds=3)
        if args.quick
        else StageParams()
    )
    if args.algorithm == "e":
        return _run_evaluate(args, pal)
    if args.algorithm == "d" or args.seed_b is not None:
        return _run_multisearch(args, pal, stage_params)
    try:
        ccfg = ComprehensiveConfig(
            n_bootstraps=args.bootstraps,
            seed_p=args.seed_p,
            seed_x=args.seed_x,
            use_cat=(args.model == "GTRCAT"),
            stage_params=stage_params,
        )
        config = HybridConfig(
            n_processes=args.processes,
            n_threads=args.threads,
            comprehensive=ccfg,
            machine=args.machine,
            bootstopping=args.bootstopping,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            schedule=args.schedule,
            clv_cache=args.clv_cache,
            collect_trace=args.trace is not None,
            collect_metrics=args.metrics_out is not None,
        )
    except ValueError as exc:
        # A value the configs reject (-T 0, -np 0, an unknown machine, ...)
        # is a usage error like any other: one line, no traceback.
        raise SystemExit(str(exc)) from None

    print(f"repro-raxml: {pal.n_taxa} taxa, {pal.n_sites} sites, "
          f"{pal.n_patterns} patterns")
    print(f"  comprehensive analysis: N={args.bootstraps} bootstraps, "
          f"p={args.processes} processes x T={args.threads} threads "
          f"on {args.machine}")
    result = run_hybrid_analysis(pal, config)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    best_path = outdir / f"RAxML_bestTree.{args.name}.nwk"
    best_path.write_text(write_newick(result.best_tree) + "\n", encoding="ascii")
    if result.support_tree is not None:
        support_path = outdir / f"RAxML_bipartitions.{args.name}.nwk"
        support_path.write_text(
            write_newick(result.support_tree, support=True) + "\n", encoding="ascii"
        )
        print(f"  support tree written to {support_path}")
    print(f"  best tree written to {best_path}")
    if args.consensus and result.bootstrap_trees:
        from repro.bootstop.consensus import majority_consensus
        from repro.bootstop.table import BipartitionTable

        table = BipartitionTable(len(result.best_tree.taxa))
        table.add_trees(result.bootstrap_trees)
        cons = majority_consensus(
            table, result.best_tree.taxa, extended=(args.consensus == "MRE")
        )
        cons_path = outdir / f"RAxML_MajorityRuleConsensusTree.{args.name}.nwk"
        cons_path.write_text(
            write_newick(cons, lengths=False, support=True) + "\n", encoding="ascii"
        )
        print(f"  consensus tree written to {cons_path}")

    import json

    info_path = outdir / f"RAxML_info.{args.name}.json"
    info_path.write_text(
        json.dumps(result.to_report(), indent=2) + "\n", encoding="ascii"
    )
    print(f"  run report written to {info_path}")

    if args.trace is not None and result.trace is not None:
        from repro.obs.trace import write_chrome_trace

        trace_path = write_chrome_trace(args.trace, result.trace)
        print(f"  trace written to {trace_path} "
              "(open in https://ui.perfetto.dev)")
    if args.metrics_out is not None and result.metrics is not None:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(result.metrics, indent=2) + "\n", encoding="ascii"
        )
        print(f"  metrics written to {metrics_path}")
    if result.metrics is not None:
        from repro.obs.report import format_stage_report

        rows = result.metrics["report"]["stages"]
        print()
        print(format_stage_report(rows, title="Stage decomposition (Fig. 3-4)"))

    print(f"\nFinal GAMMA log-likelihood: {result.best_lnl:.4f} "
          f"(winner: rank {result.winner_rank} of {args.processes})")
    print(f"Bootstraps done: {result.n_bootstraps_done} "
          f"(requested {args.bootstraps})")
    if result.failed_ranks:
        adopters = {
            d: r.rank for r in result.ranks for d in r.recovered_for
        }
        recovered = ", ".join(
            f"rank {d} (replayed by rank {adopters[d]})" if d in adopters
            else f"rank {d}"
            for d in result.failed_ranks
        )
        print(f"Recovered from failures: {recovered}")
    if result.wc_trace:
        last_n, last_stat = result.wc_trace[-1]
        print(f"WC bootstopping: stopped at {last_n} replicates "
              f"(statistic {last_stat:.4f})")
    print("Virtual stage times (last process to finish):")
    for stage, seconds in result.stage_seconds.items():
        print(f"  {stage:10s} {seconds:12.4f} s")
    print(f"  {'total':10s} {result.total_seconds:12.4f} s")
    if result.sched is not None:
        attempts = result.sched.get("steal_attempts", 0)
        grants = result.sched.get("steal_grants", 0)
        print(f"Work stealing: {grants} steals granted "
              f"({attempts} attempts)")
        worst_tail: dict[str, float] = {}
        for tails in result.sched.get("idle_tail", {}).values():
            for stage, t in tails.items():
                worst_tail[stage] = max(worst_tail.get(stage, 0.0), float(t))
        for stage in result.stage_seconds:
            if stage in worst_tail:
                print(f"  idle tail {stage:10s} {worst_tail[stage]:12.4f} s "
                      "(worst rank)")
    if result.rng_fingerprint is not None:
        print(f"RNG stream fingerprint: {result.rng_fingerprint[:16]}… "
              "(schedule-mode independent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
