"""MegaArena grid kernels (numpy reference tier).

The batched grid executor advances every cell with one full-width
``expand_all`` plus segmented busy/non-idle reductions per cycle.  The
bodies below are the exact pre-dispatch arena method bodies; each
returns a freshly allocated per-cell count vector.  They sit in the
registry so the kernel layer has one place where every hot loop can be
looked up and timed.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.dispatch import register

__all__ = ["mega_expand_numpy", "mega_busy_numpy", "mega_nonzero_numpy", "mega_remaining_numpy"]


def mega_expand_numpy(work, starts, expanded) -> np.ndarray:  # repro: kernel
    """One unmasked full-width expansion cycle, all cells."""
    active = work > 0
    counts = np.add.reduceat(active.astype(np.int64), starts)
    np.subtract(work, 1, out=work, where=active)
    expanded += counts
    return counts


def mega_busy_numpy(work, starts) -> np.ndarray:  # repro: kernel
    """Per-cell busy (``work >= 2``) PE counts."""
    return np.add.reduceat((work > 1).astype(np.int64), starts)


def mega_nonzero_numpy(work, starts) -> np.ndarray:  # repro: kernel
    """Per-cell non-idle (``work >= 1``) PE counts."""
    return np.add.reduceat((work > 0).astype(np.int64), starts)


def mega_remaining_numpy(work, starts) -> np.ndarray:  # repro: kernel
    """Per-cell unexpanded node totals."""
    return np.add.reduceat(work, starts)


register("mega.expand_all", "numpy", mega_expand_numpy)
register("mega.busy_counts", "numpy", mega_busy_numpy)
register("mega.nonzero_counts", "numpy", mega_nonzero_numpy)
register("mega.remaining", "numpy", mega_remaining_numpy)
