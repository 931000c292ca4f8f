"""CLI of the chaos campaign: ``python -m repro.chaos``."""

from __future__ import annotations

import argparse
import sys

from repro.chaos.campaign import replay_scenario, run_campaign


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic chaos campaign over the resilient "
                    "hybrid runtime (both --schedule backends).",
    )
    parser.add_argument("--scenarios", type=int, default=200,
                        help="number of generated fault scenarios "
                             "(default 200; targeted-death probes ride on top)")
    parser.add_argument("--seed", type=int, default=20260808,
                        help="campaign seed (every scenario is a pure "
                             "function of seed/schedule/index)")
    parser.add_argument("--out", default="benchmarks/output/BENCH_chaos.json",
                        help="report path (default %(default)s)")
    parser.add_argument("--replay", type=int, default=None, metavar="INDEX",
                        help="re-run one scenario from a previous campaign "
                             "instead of sweeping (with --replay-schedule/"
                             "--replay-np from the report record)")
    parser.add_argument("--replay-schedule", default="static",
                        choices=["static", "work-steal"])
    parser.add_argument("--replay-np", type=int, default=2)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario progress lines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay is not None:
        record = replay_scenario(args.replay, args.seed,
                                 args.replay_schedule, args.replay_np)
        import json

        print(json.dumps(record, indent=1, sort_keys=True))
        return 1 if record["violations"] else 0

    def progress(record):
        if args.quiet:
            return
        status = "FAIL" if record["violations"] else "ok"
        print(f"  [{record['index']:>4}] {record['schedule']:<10} "
              f"p={record['n_processes']} {record['equality']:<5} "
              f"checks={','.join(record['checks'])} {status}", flush=True)
        for v in record["violations"]:
            print(f"         violation: {v}", flush=True)

    report = run_campaign(n_scenarios=args.scenarios, seed=args.seed,
                          out=args.out, progress=progress)
    print(f"chaos campaign: {report['n_records']} records, "
          f"{report['n_violations']} violations, "
          f"{report['elapsed_seconds']:.1f}s -> {args.out}")
    if report["n_violations"]:
        for v in report["violations"]:
            print(f"  VIOLATION [{v['index']}/{v['schedule']}]: "
                  f"{'; '.join(v['violations'])}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
