"""Dynamic task scheduling with deterministic work stealing.

The paper's static ``ceil(N/p)`` partition (Table 2) leaves ranks idle
whenever replicate run times vary; this package turns the comprehensive
analysis into a DAG of tasks over per-rank deques with deterministic
work stealing across the simulated MPI ranks.  Determinism is the hard
constraint: every task's random streams are a pure function of its
*global* identity (origin rank × index — generalising the paper's
``seed + 10000·r`` per-rank scheme), so a stolen task produces
bit-identical trees regardless of which rank executes it.

Modules:

* :mod:`repro.sched.tasks` — the task model, stage DAG, and closed-form
  stream derivation (LCG jump-ahead);
* :mod:`repro.sched.queue` — per-rank deques plus the conservative
  virtual-time protocol that makes concurrent stealing reproducible;
* :mod:`repro.sched.stealing` — the per-rank pool loop used by the
  work-steal runtime backend;
* :mod:`repro.sched.placement` — the initial assignment (the static
  partition);
* :mod:`repro.sched.checkpoint` — per-rank task journals backing
  ``--resume`` for work-steal runs.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".tasks": ("Task", "build_dag", "rng_stream_fingerprint"),
    ".queue": ("StealBoard",),
    ".stealing": ("run_rank_pool",),
})
