"""Pluggable likelihood kernel backends.

A backend implements every pattern-axis computation the engine issues
(see :class:`~repro.likelihood.kernels.base.KernelBackend`).  Two ship
by default: ``reference`` (the plain per-node NumPy math, the oracle
every parity test compares against) and ``batched`` (level-batched
tensor contractions with contribution memoisation — see
:class:`~repro.likelihood.kernels.batched.BatchedKernel`).  Backends are
registered by name and selected via ``LikelihoodEngine(kernel=...)`` or
the ``--kernel`` CLI flag:

>>> from repro.likelihood.kernels import register_kernel, get_kernel
>>> class MyKernel(ReferenceKernel):
...     name = "mine"
>>> register_kernel(MyKernel)
>>> get_kernel("mine") is MyKernel
True

A new backend must keep results bit-identical to the reference (the
property tests enforce this) and must not charge the
:class:`~repro.likelihood.kernels.base.OpCounter` itself — charging
happens once per logical kernel call in the base class, which is what
keeps serial, threaded, and cached op totals comparable.
"""

from __future__ import annotations

from repro.likelihood.kernels.base import KernelBackend, OpCounter, Partial
from repro.likelihood.kernels.batched import BatchedKernel
from repro.likelihood.kernels.reference import ReferenceKernel

_REGISTRY: dict[str, type[KernelBackend]] = {}


def register_kernel(cls: type[KernelBackend]) -> type[KernelBackend]:
    """Register a backend class under ``cls.name`` (usable as a decorator)."""
    if not cls.name:
        raise ValueError("kernel backend must define a non-empty name")
    _REGISTRY[cls.name] = cls
    return cls


def get_kernel(name: str) -> type[KernelBackend]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_kernels()}"
        ) from None


def available_kernels() -> list[str]:
    return sorted(_REGISTRY)


register_kernel(ReferenceKernel)
register_kernel(BatchedKernel)

__all__ = [
    "KernelBackend",
    "OpCounter",
    "Partial",
    "ReferenceKernel",
    "BatchedKernel",
    "register_kernel",
    "get_kernel",
    "available_kernels",
]
