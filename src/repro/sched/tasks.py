"""The task model: the comprehensive analysis as a DAG of search tasks.

One task is one unit the static pipeline already treats as atomic — a
bootstrap replicate, a fast search, a slow search, the thorough search,
or a rank's model setup.  Tasks carry their *origin* (the logical rank
whose Table 2 share they belong to) and *index* within that share; the
pair is the task's global identity.

Determinism discipline
----------------------

The static pipeline derives all randomness from two per-rank streams
(``seed + 10000·r``): the ``-x`` stream is consumed sequentially (one
bootstrap replicate = exactly ``n_sites`` draws) and the ``-p`` stream is
never advanced, only forked via :func:`~repro.util.rng.spawn_stream`
with per-purpose labels.  Both facts make every task's randomness
derivable in closed form from its global identity:

* the x-stream state a replicate ``b`` of origin ``o`` observes is
  ``lcg_jump(rank_seed(seed_x, o), b · n_sites)`` — a jump-ahead of the
  48-bit LCG, no replay needed;
* every search stream is ``spawn_stream(p_rng(o), label)`` where the
  labels (the ``LABEL_*`` table of :mod:`repro.search.comprehensive`)
  depend only on the task identity and ``spawn_stream`` reads the
  parent's original seed.

A stolen task therefore draws exactly the numbers it would have drawn on
its origin rank: executor-independence is by construction, and
``--schedule work-steal`` reproduces ``--schedule static`` bit for bit.
The only inter-task data flow — bootstrap start trees chaining from the
previous replicate, stage-to-stage tree selection — is expressed as
explicit dependencies below.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from repro.search.comprehensive import (
    LABEL_REFRESH,
    STAGE_LABEL,
    STAGE_ORDER,
    ComprehensiveConfig,
    bootstrap_replicate,
    fast_start_index,
    prepare_model_and_rates,
    search_unit,
    select_best,
)
from repro.search.schedule import WorkSchedule
from repro.util.rng import RAxMLRandom, rank_seed

#: Task kinds in pipeline-stage order (one scheduling pool per kind).
TASK_KINDS = STAGE_ORDER


def lcg_jump(state: int, k: int) -> int:
    """State of the 48-bit RAxML LCG after ``k`` steps from ``state``.

    One step is ``s -> (s·A + 1) mod 2^48``.  Composing affine maps with
    fast exponentiation gives the k-step map ``s -> a·s + c`` in
    O(log k): applying ``(a1, c1)`` then ``(a2, c2)`` yields
    ``(a2·a1, a2·c1 + c2)``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    mask = RAxMLRandom._MASK
    a, c = 1, 0  # accumulated map (identity)
    sa, sc = RAxMLRandom._MULT, 1  # the single-step map
    while k:
        if k & 1:
            a, c = (sa * a) & mask, (sa * c + sc) & mask
        sa, sc = (sa * sa) & mask, (sa * sc + sc) & mask
        k >>= 1
    return (a * (state & mask) + c) & mask


@dataclass(frozen=True)
class Task:
    """One schedulable unit: ``kind`` of ``origin``'s share, position ``index``.

    ``deps`` are task ids that must be complete before this task is
    *ready*; they encode the start-tree chain between bootstrap
    replicates (broken at parsimony-refresh points, where the start is
    derived from the replicate's own weights) and the stage-to-stage
    tree selections.
    """

    kind: str
    origin: int
    index: int
    deps: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.origin < 0 or self.index < 0:
            raise ValueError(f"origin/index must be non-negative: {self!r}")

    @property
    def id(self) -> str:
        return f"{self.kind}:{self.origin}:{self.index}"


def task_id(kind: str, origin: int, index: int) -> str:
    return f"{kind}:{origin}:{index}"


def build_dag(
    schedule: WorkSchedule, cfg: ComprehensiveConfig, n_origins: int
) -> dict[str, list[Task]]:
    """All tasks of a work-steal run, grouped per stage.

    ``n_origins`` is the world size: one Table 2 share per logical rank,
    identical to what the static pipeline would run.  Per-origin fast and
    slow counts are clipped to the share sizes exactly the way the static
    driver clips them (``min(n_fast, len(starts))`` is a no-op for the
    Table 2 numbers, but the clip keeps degenerate configs safe).
    """
    if n_origins < 1:
        raise ValueError("n_origins must be >= 1")
    nb = schedule.bootstraps_per_process
    nf = min(schedule.fast_per_process, nb)
    ns = min(schedule.slow_per_process, nf)
    dag: dict[str, list[Task]] = {k: [] for k in TASK_KINDS}
    for o in range(n_origins):
        setup = task_id("setup", o, 0)
        dag["setup"].append(Task("setup", o, 0))
        for b in range(nb):
            deps = [setup]
            if b > 0 and b % cfg.parsimony_refresh_every != 0:
                # Start tree chains from the previous replicate; refresh
                # points start from a fresh parsimony tree instead (drawn
                # from the replicate's own weights — no dependency).
                deps.append(task_id("bootstrap", o, b - 1))
            dag["bootstrap"].append(Task("bootstrap", o, b, tuple(deps)))
        for i in range(nf):
            start = task_id("bootstrap", o, fast_start_index(i, nb))
            dag["fast"].append(Task("fast", o, i, (setup, start)))
        fast_ids = tuple(task_id("fast", o, i) for i in range(nf))
        for i in range(ns):
            # select_best needs the origin's whole fast pool.
            dag["slow"].append(Task("slow", o, i, (setup,) + fast_ids))
        slow_ids = tuple(task_id("slow", o, i) for i in range(ns))
        dag["thorough"].append(Task("thorough", o, 0, (setup,) + slow_ids))
    return dag


# ---------------------------------------------------------------------------
# Stream derivation
# ---------------------------------------------------------------------------


def replicate_x_state(cfg: ComprehensiveConfig, origin: int, b: int, n_draws: int) -> int:
    """The x-stream LCG state replicate ``b`` of ``origin`` starts from.

    The static pipeline consumes exactly ``n_draws`` doubles per
    replicate (one per alignment site), so the state before replicate
    ``b`` is a ``b·n_draws``-step jump from the rank-seeded origin state.
    """
    base = rank_seed(cfg.seed_x, origin) & RAxMLRandom._MASK
    return lcg_jump(base, b * n_draws)


def task_streams(
    task: Task, cfg: ComprehensiveConfig, n_draws: int
) -> dict[str, int]:
    """The derived stream keys of one task (the fingerprint material)."""
    doc = {
        "p_seed": rank_seed(cfg.seed_p, task.origin),
        "label": STAGE_LABEL[task.kind] + task.index,
    }
    if task.kind == "bootstrap":
        doc["x_state"] = replicate_x_state(cfg, task.origin, task.index, n_draws)
        if task.index > 0 and task.index % cfg.parsimony_refresh_every == 0:
            doc["refresh_label"] = LABEL_REFRESH + task.index
    return doc


def rng_stream_fingerprint(
    schedule: WorkSchedule, cfg: ComprehensiveConfig, n_draws: int, n_origins: int
) -> str:
    """Digest of every task's derived stream keys.

    A pure function of the configuration — *not* of the schedule mode or
    of which rank executed what — so static and work-steal runs of the
    same configuration report the same fingerprint (the CI smoke job
    asserts exactly this), and any change to the stream-keying scheme
    shows up as a fingerprint change.
    """
    dag = build_dag(schedule, cfg, n_origins)
    doc = {
        t.id: task_streams(t, cfg, n_draws)
        for stage in TASK_KINDS
        for t in dag[stage]
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("ascii")
    ).hexdigest()


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


def execute_task(task: Task, ctx, get: Callable[[str], object]):
    """Run one task on ``ctx``, the executing rank's context; ``get``
    resolves completed dependency results.

    The *streams* come from the task's origin; the *engines, thread pool
    and op counter* (``ctx.engine_factory``, ``ctx.ops``) come from the
    executor — which is exactly why results are executor-independent but
    virtual time is charged to whoever runs the task.

    Returns the setup artefact tuple for ``setup`` tasks and a
    :class:`~repro.search.hillclimb.SearchResult` for everything else —
    bit-identical to what the static pipeline produces for the same
    (origin, index), wherever it runs.
    """
    cfg = ctx.cfg
    o = task.origin
    # The origin's ``-p`` parent stream: never advanced by the pipeline
    # (searches fork labelled children), so a fresh instance is exact.
    p_rng = RAxMLRandom(rank_seed(cfg.seed_p, o))
    if task.kind == "setup":
        return prepare_model_and_rates(
            ctx.pal, cfg, p_rng, ctx.engine_factory, ctx.ops
        )
    setup = get(task_id("setup", o, 0))
    if task.kind == "bootstrap":
        model, search_rm, _gamma_rm, init_tree = setup
        b = task.index
        n_draws = int(ctx.pal.weights.sum())
        x_rng = RAxMLRandom.from_state(replicate_x_state(cfg, o, b, n_draws))
        # The DAG chains a replicate to its predecessor except where the
        # recipe refreshes the start from the replicate's own weights.
        prev = get(task.deps[1]).tree if len(task.deps) > 1 else init_tree
        return bootstrap_replicate(
            ctx.pal, model, search_rm, b, x_rng, p_rng, ctx.engine_factory,
            ctx.ops, cfg, prev,
        )
    pool = [get(d) for d in task.deps[1:]]
    if task.kind == "fast":
        start = pool[0].tree  # its one bootstrap tree
    else:
        # Static parity: the slow stage ranks the origin's whole fast pool
        # (the stable rounded sort of select_best) and starts slow search
        # i from the i-th best tree; the thorough search starts from the
        # best slow tree.
        start = select_best(pool, len(pool))[task.index].tree
    result, _model = search_unit(
        task.kind, task.index, start, setup, ctx.pal, p_rng,
        ctx.engine_factory, ctx.ops, cfg,
    )
    return result
