"""Kernel layer: registry-dispatched hot loops in two tiers.

``repro.kernels`` holds the repo's hot kernels — stack and search
``expand_cycle`` and the :class:`~repro.workmodel.mega.MegaArena` grid
kernels — behind one ``(name, backend)`` registry:

- ``backend="numpy"`` — the reference tier (the exact historical code),
  registered for every kernel;
- ``backend="fused"`` — zero-allocation pure numpy over a per-workload
  :class:`KernelWorkspace`, registered only for the stack and search
  ``expand_cycle`` kernels, where it carries a measured win.

See ``docs/performance.md`` ("Kernel tiers") for the dispatch rules,
workspace lifetime and the bit-identity gating story.
"""

from repro.kernels.dispatch import (
    BACKENDS,
    check_backend,
    get_kernel,
    register,
    registered_kernels,
)
from repro.kernels.workspace import KernelWorkspace

__all__ = [
    "BACKENDS",
    "KernelWorkspace",
    "check_backend",
    "get_kernel",
    "register",
    "registered_kernels",
]
