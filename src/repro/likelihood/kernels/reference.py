"""The reference NumPy kernel backend.

This is the baseline the batched backend (and any future compiled
backend) must match bit-for-bit: the :class:`KernelBackend` protocol
defaults, unmodified — every kernel one sweep over the whole pattern
axis, one ``propagate`` product per child edge, the product and its
threshold scaling.
"""

from __future__ import annotations

from repro.likelihood.kernels.base import KernelBackend


class ReferenceKernel(KernelBackend):
    """One span per sweep; the inherited defaults and span primitives verbatim."""

    name = "reference"
