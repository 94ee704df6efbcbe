"""Deterministic crash injection for the ``run_grid`` process pool.

:class:`GridChaos` is a test hook shipped inside the worker payload: it
names one grid cell (by flat index) and a crash ``kind``, and fires on
the configured attempt numbers only.  Because the trigger is a pure
function of ``(index, attempt)`` — no randomness, no clocks — chaos runs
are exactly reproducible and the retried attempt is guaranteed clean,
which is what lets the hardened grid assert that a retried cell's record
equals the serial oracle's.

The grid's worker pool honors it on either engine: each shard calls
:meth:`GridChaos.maybe_trigger` inside its armed watchdog window, for
every cell index the shard carries, with the *shard's* attempt number —
so the same ``GridChaos(index=...)`` crashes the same logical work on
the serial engine's one-cell shards and the batched engine's wider
ones, a ``"hang"`` is cut short by the timeout, and a shard retried
after a crash runs clean.  Passing ``chaos`` always routes a grid
through the pool, so an ``"exit"`` kills a worker, never the caller.

Kinds:

- ``"exit"`` — hard-kill the worker process (``os._exit``), which the
  parent observes as ``BrokenProcessPool``; exercises pool respawn;
- ``"raise"`` — raise a :class:`~repro.errors.GridCellError` inside the
  worker; exercises per-cell retry accounting;
- ``"hang"`` — sleep past any per-cell timeout; exercises the in-worker
  alarm path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.errors import ConfigError, GridCellError

__all__ = ["GridChaos", "CHAOS_KINDS"]

CHAOS_KINDS = ("exit", "raise", "hang")

# How long a "hang" sleeps; far past any sane per-cell timeout but small
# enough that an un-timed-out test still finishes.
_HANG_SECONDS = 120.0


@dataclass(frozen=True)
class GridChaos:
    """Crash cell ``index`` with ``kind`` on the listed ``attempts``."""

    index: int
    kind: str = "exit"
    attempts: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ConfigError(
                f"chaos kind must be one of {CHAOS_KINDS}, got {self.kind!r}"
            )
        if self.index < 0:
            raise ConfigError(f"chaos cell index must be >= 0, got {self.index}")
        if not self.attempts or any(a < 0 for a in self.attempts):
            raise ConfigError(
                f"chaos attempts must be non-empty and >= 0, got {self.attempts}"
            )

    def maybe_trigger(self, index: int, attempt: int) -> None:
        """Fire the configured crash if ``(index, attempt)`` matches.

        Runs inside the pool worker, after the shard's watchdog is armed
        and before the cell's simulation starts.
        """
        if index != self.index or attempt not in self.attempts:
            return
        if self.kind == "exit":
            # Bypass all cleanup so the parent sees an abrupt worker death,
            # exactly like an OOM kill or segfault would look.
            os._exit(1)
        if self.kind == "raise":
            raise GridCellError(
                f"chaos: injected failure in cell {index} (attempt {attempt})"
            )
        time.sleep(_HANG_SECONDS)
