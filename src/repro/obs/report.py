"""Paper-style run reports: stage decomposition, imbalance, efficiency.

Figures 3–4 of the paper decompose total run time into the four
comprehensive-analysis stages — bootstraps, fast, slow, thorough — where
each stage's time is "that of the last process to finish".  This module
reproduces those buckets from per-rank stage seconds and adds the two
quantities hybrid-runtime tuning actually needs per stage:

* **load imbalance** ``max / mean`` (1.0 = perfectly balanced; the
  paper's Section 5.1 attributes efficiency loss to exactly this), and
* **parallel efficiency** ``mean / max`` — the fraction of the stage's
  critical path the average rank was busy.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.util.tables import format_table

#: The Fig. 3–4 buckets, in pipeline order.
PAPER_STAGES = ("bootstrap", "fast", "slow", "thorough")

#: Every stage the driver accounts, in execution order.
ALL_STAGES = ("setup",) + PAPER_STAGES + ("finalize", "recovery")


def fig34_decomposition(
    per_rank: Sequence[Mapping[str, float]],
    stages: Sequence[str] = PAPER_STAGES,
) -> dict[str, float]:
    """Stage → seconds of the last process to finish (the Fig. 3–4 bars)."""
    if not per_rank:
        raise ValueError("need at least one rank's stage seconds")
    return {
        s: max(float(r.get(s, 0.0)) for r in per_rank) for s in stages
    }


def stage_decomposition(
    per_rank: Sequence[Mapping[str, float]],
    stages: Sequence[str] = ALL_STAGES,
) -> list[dict]:
    """Per-stage cross-rank statistics (one row per stage with any time).

    Each row holds ``stage``, ``max``/``mean``/``min`` seconds,
    ``imbalance`` (max/mean) and ``efficiency`` (mean/max).  Stages no
    rank spent time in are omitted.
    """
    if not per_rank:
        raise ValueError("need at least one rank's stage seconds")
    rows: list[dict] = []
    for stage in stages:
        values = [float(r.get(stage, 0.0)) for r in per_rank]
        mx = max(values)
        if mx <= 0.0:
            continue
        mean = sum(values) / len(values)
        rows.append({
            "stage": stage,
            "max": mx,
            "mean": mean,
            "min": min(values),
            "imbalance": (mx / mean) if mean > 0 else float("inf"),
            "efficiency": mean / mx,
        })
    return rows


def format_stage_report(rows: Sequence[Mapping], title: str | None = None) -> str:
    """Render :func:`stage_decomposition` rows as an aligned table."""
    return format_table(
        ["stage", "max s", "mean s", "min s", "imbalance", "efficiency"],
        [
            [r["stage"], r["max"], r["mean"], r["min"], r["imbalance"],
             r["efficiency"]]
            for r in rows
        ],
        formats=[None, ".4f", ".4f", ".4f", ".3f", ".3f"],
        title=title,
    )


def run_report(
    per_rank: Sequence[Mapping[str, float]],
    comm_seconds: Sequence[float],
    n_processes: int | None = None,
    n_threads: int | None = None,
    sched: Mapping | None = None,
    recovery: Sequence[Mapping[str, float]] | None = None,
) -> dict:
    """The complete JSON report block written by ``--metrics-out``.

    Contains the Fig. 3–4 buckets, the per-stage statistics table, total
    time (slowest rank, summed over stages), and each rank's
    communication seconds and their share of its total.  For work-steal
    runs, ``sched`` (the driver's scheduling document: steal
    attempts/grants, per-stage queue stats, per-rank idle tails) is
    embedded verbatim under ``"sched"`` so the Fig. 3–4 stage report
    carries the idle-tail deltas dynamic scheduling achieved.

    ``recovery`` is each rank's replay time bucketed by the pipeline
    stage whose boundary triggered it; when any rank recovered, the
    report carries a ``"recovery_overhead"`` block so the Fig. 3–4
    decomposition can show what resilience cost per stage.
    """
    rows = stage_decomposition(per_rank)
    totals = [sum(float(v) for v in r.values()) for r in per_rank]
    doc: dict = {
        "layout": {"n_processes": n_processes, "n_threads": n_threads},
        "fig34_stage_seconds": fig34_decomposition(per_rank),
        "stages": rows,
        "total_seconds": max(totals) if totals else 0.0,
        "total_imbalance": (
            max(totals) * len(totals) / sum(totals)
            if totals and sum(totals) > 0 else 1.0
        ),
        "comm_seconds": list(comm_seconds),
        "comm_fraction": [
            (c / t) if t > 0 else 0.0 for c, t in zip(comm_seconds, totals)
        ],
    }
    if sched is not None:
        doc["sched"] = dict(sched)
    if recovery is not None and any(recovery):
        stages = sorted(
            {s for r in recovery for s in r},
            key=lambda s: ALL_STAGES.index(s) if s in ALL_STAGES else len(ALL_STAGES),
        )
        doc["recovery_overhead"] = {
            "per_stage": {
                s: max(float(r.get(s, 0.0)) for r in recovery) for s in stages
            },
            "per_rank": [dict(r) for r in recovery],
            "total_seconds": sum(
                float(v) for r in recovery for v in r.values()
            ),
        }
    return doc
