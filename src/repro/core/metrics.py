"""Run metrics and per-cycle traces.

``RunMetrics`` carries exactly the columns of the paper's tables:
``N_expand`` (node-expansion cycles), ``N_lb`` (load-balancing phases),
``*N_lb`` (work transfers — what Table 4 reports for D_P) and efficiency
``E``, alongside the full time ledger.

``Trace`` optionally records the busy-PE count at every cycle and the
cycle index of every LB phase — the raw series behind Figure 8.  The
series live in *bounded* ring buffers (``maxlen`` entries each, newest
kept) so a long ``run_grid`` cell cannot balloon host memory; pass
``maxlen=None`` as the explicit escape hatch when a full-length series
is worth the bytes, or give the scheduler an ``Observability`` bundle
with a streaming :class:`~repro.obs.events.JsonlSink` — it receives
every cycle as a :class:`~repro.obs.events.CycleEvent` at O(1) memory.
``dropped_cycles`` always tells whether the window is complete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.simd.machine import TimeLedger

__all__ = ["Trace", "RunMetrics", "DEFAULT_TRACE_MAXLEN"]

#: Ring capacity per series; ~5x the paper's largest cycle count.
DEFAULT_TRACE_MAXLEN = 1 << 16


class Trace:
    """Per-cycle record of one run (enable via ``Scheduler(trace=True)``).

    Parameters
    ----------
    maxlen:
        Ring capacity of each series — the most recent ``maxlen`` cycles
        are retained.  ``None`` is the explicit unbounded escape hatch.

    Attributes
    ----------
    busy_per_cycle:
        ``A`` after each retained cycle (list copy of the ring).
    expanding_per_cycle:
        Number of PEs that expanded in each retained cycle.
    lb_cycle_indices:
        Cycle index (0-based, counted over expansion cycles) after which
        each LB phase occurred.
    trigger_r1 / trigger_r2:
        The two Figure 1 areas observed after each cycle.

    All mutation goes through :meth:`record_cycle` / :meth:`record_lb`
    (lint rule R005 flags direct series appends outside ``repro.obs``).
    """

    def __init__(self, maxlen: int | None = DEFAULT_TRACE_MAXLEN) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError(f"trace maxlen must be >= 1 or None, got {maxlen}")
        self.maxlen = maxlen
        self._busy: deque[int] = deque(maxlen=maxlen)
        self._expanding: deque[int] = deque(maxlen=maxlen)
        self._r1: deque[float] = deque(maxlen=maxlen)
        self._r2: deque[float] = deque(maxlen=maxlen)
        self._lb: deque[int] = deque(maxlen=maxlen)
        self.n_cycles_recorded = 0
        self.n_lb_recorded = 0

    # -- recording ---------------------------------------------------------

    def record_cycle(self, busy: int, expanding: int, r1: float, r2: float) -> None:
        self._busy.append(busy)
        self._expanding.append(expanding)
        self._r1.append(r1)
        self._r2.append(r2)
        self.n_cycles_recorded += 1

    def record_lb(self, cycle_index: int) -> None:
        self._lb.append(cycle_index)
        self.n_lb_recorded += 1

    # -- ring status -------------------------------------------------------

    @property
    def dropped_cycles(self) -> int:
        """Cycles evicted by the ring (0 means the series is complete)."""
        return self.n_cycles_recorded - len(self._busy)

    @property
    def dropped_lb(self) -> int:
        """LB indices evicted by the ring."""
        return self.n_lb_recorded - len(self._lb)

    # -- series views (list copies, oldest retained first) -----------------

    @property
    def busy_per_cycle(self) -> list[int]:
        return list(self._busy)

    @property
    def expanding_per_cycle(self) -> list[int]:
        return list(self._expanding)

    @property
    def lb_cycle_indices(self) -> list[int]:
        return list(self._lb)

    @property
    def trigger_r1(self) -> list[float]:
        return list(self._r1)

    @property
    def trigger_r2(self) -> list[float]:
        return list(self._r2)

    def _series(self) -> tuple:
        return (
            tuple(self._busy),
            tuple(self._expanding),
            tuple(self._r1),
            tuple(self._r2),
            tuple(self._lb),
            self.n_cycles_recorded,
            self.n_lb_recorded,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._series() == other._series()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Trace(cycles={self.n_cycles_recorded}, lb={self.n_lb_recorded}, "
            f"maxlen={self.maxlen}, dropped={self.dropped_cycles})"
        )


@dataclass
class RunMetrics:
    """Aggregate outcome of one scheduled run.

    Field names follow the paper's table headers where one exists.
    """

    scheme: str
    n_pes: int
    total_work: int
    n_expand: int
    n_lb: int
    n_transfers: int
    n_init_lb: int
    ledger: TimeLedger
    trace: Trace | None = None
    #: Fault-recovery phases run (0 on fault-free runs).
    n_recovery: int = 0
    #: ``repro.faults.runtime.FaultReport`` when faults were injected.
    faults: object | None = None

    @property
    def efficiency(self) -> float:
        """``E = T_calc / (T_calc + T_idle + T_lb + T_recovery)``."""
        return self.ledger.efficiency()

    @property
    def speedup(self) -> float:
        """``S = T_calc / T_par``."""
        return self.ledger.speedup(self.n_pes)

    @property
    def avg_busy_fraction(self) -> float:
        """Mean fraction of PEs expanding per cycle (requires a trace)."""
        if self.trace is None or not self.trace.n_cycles_recorded:
            raise ValueError("avg_busy_fraction requires a recorded trace")
        retained = self.trace.expanding_per_cycle
        total = sum(retained)
        return total / (len(retained) * self.n_pes)

    def summary_row(self) -> tuple[str, int, int, int, float]:
        """(scheme, N_expand, N_lb, transfers, E) — one table row."""
        return (self.scheme, self.n_expand, self.n_lb, self.n_transfers, self.efficiency)
