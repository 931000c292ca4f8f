"""Shared utilities: deterministic RNG streams, virtual clocks, tables.

These helpers are deliberately dependency-light; every other subpackage is
allowed to import :mod:`repro.util`, and :mod:`repro.util` imports nothing
from the rest of the package.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".rng": ("RAxMLRandom", "rank_seed", "spawn_stream"),
    ".timing": ("VirtualClock", "StageTimer", "WallTimer"),
    ".tables": ("format_table",),
    ".validation": ("check_positive", "check_probability_vector"),
})
