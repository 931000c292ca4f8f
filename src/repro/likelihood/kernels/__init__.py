"""The likelihood kernel.

:class:`~repro.likelihood.kernels.base.KernelBackend` implements every
pattern-axis computation the engine issues, and charges the shared
:class:`~repro.likelihood.kernels.base.OpCounter` once per logical
kernel call, which keeps serial, threaded and cached op totals
comparable.

``BatchedKernel``, :func:`get_kernel` and :func:`available_kernels` keep
the two names the benchmark harness passes (``"reference"`` and
``"batched"``), both for the one kernel, until its harness stops
passing a kernel name (ROADMAP item 1(e)):

>>> get_kernel("reference") is get_kernel("batched") is KernelBackend
True
"""

from __future__ import annotations

from repro.likelihood.kernels.base import KernelBackend, OpCounter, Partial

#: The benchmark harness's name for the kernel, until ROADMAP item 1(e).
BatchedKernel = KernelBackend

_NAMES = ("batched", "reference")


def get_kernel(name: str) -> type[KernelBackend]:
    """The kernel class for either name the benchmark harness passes."""
    if name not in _NAMES:
        raise ValueError(f"unknown kernel backend {name!r}; available: {list(_NAMES)}")
    return KernelBackend


def available_kernels() -> list[str]:
    return list(_NAMES)


__all__ = [
    "KernelBackend",
    "OpCounter",
    "Partial",
    "BatchedKernel",
    "get_kernel",
    "available_kernels",
]
