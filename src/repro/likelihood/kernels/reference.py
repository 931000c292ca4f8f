"""The reference NumPy kernel backend.

This is the baseline the batched backend (and any future compiled
backend) must match bit-for-bit: each shard is processed whole with the
einsum formulations inherited from the original monolithic engine.
"""

from __future__ import annotations

from repro.likelihood.kernels.base import KernelBackend


class ReferenceKernel(KernelBackend):
    """One span per shard; the inherited span primitives verbatim."""

    name = "reference"
