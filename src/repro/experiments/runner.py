"""Run helpers: single scheduled runs and (scheme, W, P) grids.

A :class:`Scale` bundles the machine size and the four problem sizes of
the paper's Table 2.  ``PAPER_SCALE`` is the CM-2 configuration verbatim
(P = 8192, W up to 1.61e7 — fully affordable on the vectorized divisible
workload); ``SMALL_SCALE`` divides both by 16 for quick test runs, and
``TINY_SCALE`` is for unit tests.

Grid execution is durable and hardened (see ``docs/durability.md``):

- ``run_grid(journal=path)`` records each completed cell into a
  write-ahead :class:`~repro.experiments.journal.CellJournal`, and
  ``resume=True`` skips journaled cells, bit-identically;
- transient cell failures retry under a deterministic
  :class:`RetryPolicy` (exponential backoff whose jitter is a pure
  function of the cell seed — replayable, never wall-clock-derived);
- cells that exhaust their retries are quarantined: the raised
  :class:`~repro.errors.GridCellError` carries every *completed*
  record and a typed :class:`QuarantineReport` instead of discarding
  the sweep.

Execution has two independent settings: the engine (``executor``,
serial or batched) and whether cells run in process or on one hardened
worker pool (``n_jobs > 1``, ``timeout`` or ``chaos``).
"""

from __future__ import annotations

import signal
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.config import Scheme, make_scheme, parse_scheme_spec
from repro.core.metrics import RunMetrics
from repro.core.scheduler import Scheduler
from repro.core.splitting import WorkSplitter
from repro.errors import ConfigError, GridCellError, TimeoutUnenforcedWarning
from repro.experiments.batched import CellPlan, is_batchable, run_batched_cells
from repro.faults import CheckpointConfig, FaultPlan, GridChaos
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry, record_run
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.util.rng import spawn_child
from repro.workmodel.divisible import DivisibleWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.experiments.journal import CellJournal

__all__ = [
    "Scale",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "TINY_SCALE",
    "GridRecord",
    "GridFailure",
    "GRID_EXECUTORS",
    "RetryPolicy",
    "QuarantineReport",
    "cell_seed",
    "plan_grid",
    "run_divisible",
    "run_grid",
    "default_init_threshold",
]

#: Accepted ``run_grid(executor=...)`` values: the engine that runs a
#: shard's cells.  ``"serial"`` (the default) is the one-cell-at-a-time
#: oracle; ``"batched"`` packs cells into one mega-arena.  Whether cells
#: run in worker processes is a separate choice (see :func:`run_grid`).
GRID_EXECUTORS = ("serial", "batched")


@dataclass(frozen=True)
class Scale:
    """An experiment scale: machine size and the four Table 2 work sizes."""

    name: str
    n_pes: int
    works: tuple[int, int, int, int]
    table5_work: int

    @property
    def largest_work(self) -> int:
        return self.works[-1]


#: The paper's CM-2 configuration (Section 5): 8192 processors, the four
#: 15-puzzle problem sizes of Table 2, and Table 5's W = 2067137.
PAPER_SCALE = Scale(
    "paper", 8192, (941_852, 3_055_171, 6_073_623, 16_110_463), 2_067_137
)

#: Everything divided by 16 — same W/P ratios, 16x faster runs.
SMALL_SCALE = Scale("small", 512, (58_866, 190_948, 379_601, 1_006_904), 129_196)

#: Unit-test scale.
TINY_SCALE = Scale("tiny", 64, (7_358, 23_868, 47_450, 125_863), 16_149)

SCALES = {s.name: s for s in (PAPER_SCALE, SMALL_SCALE, TINY_SCALE)}


def default_init_threshold(scheme: Scheme | str) -> float | None:
    """Section 7's convention: dynamic triggers get the S^0.85 initial
    distribution phase; static triggers start cold."""
    spec = scheme.name if isinstance(scheme, Scheme) else scheme
    try:
        _, trig, _ = parse_scheme_spec(spec)
    except ValueError:
        # Baseline schemes (FESS, ...) distribute on their own trigger.
        return None
    return 0.85 if trig in ("DP", "DK") else None


@dataclass(frozen=True)
class GridRecord:
    """One cell of a run grid."""

    scheme: str
    n_pes: int
    total_work: int
    metrics: RunMetrics

    @property
    def efficiency(self) -> float:
        return self.metrics.efficiency


def run_divisible(
    scheme: Scheme | str,
    total_work: int,
    n_pes: int,
    *,
    cost_model: CostModel | None = None,
    splitter: WorkSplitter | None = None,
    seed: int = 0,
    init_threshold: float | None | str = "auto",
    initial: str = "root",
    trace: bool = False,
    max_cycles: int | None = None,
    faults: "FaultPlan | None" = None,
    checkpoint: "CheckpointConfig | None" = None,
    sanitize: bool = False,
    obs: Observability | None = None,
) -> RunMetrics:
    """One scheduled run of a scheme over a divisible workload.

    ``init_threshold="auto"`` applies the paper's convention (0.85 for
    dynamic triggers, none for static); pass ``None`` or a float to
    override.  ``faults`` injects a deterministic
    :class:`~repro.faults.FaultPlan`; ``checkpoint`` periodically
    serializes the run (see :mod:`repro.faults.checkpoint`); ``obs``
    attaches an :class:`~repro.obs.Observability` bundle (typed events,
    metrics, profiling — observation never changes the run, and the
    final metrics are folded into ``obs.metrics`` when present).
    """
    if init_threshold == "auto":
        init_threshold = default_init_threshold(scheme)
    workload = DivisibleWorkload(
        total_work, n_pes, splitter=splitter, rng=seed, initial=initial
    )
    machine = SimdMachine(n_pes, cost_model if cost_model is not None else CostModel())
    scheduler = Scheduler(
        workload,
        machine,
        scheme,
        init_threshold=init_threshold,
        trace=trace,
        max_cycles=max_cycles,
        faults=faults,
        checkpoint=checkpoint,
        sanitize=sanitize,
        obs=obs,
    )
    metrics = scheduler.run()
    if obs is not None and obs.metrics is not None:
        record_run(obs.metrics, metrics)
    return metrics


def cell_seed(base_seed: int, index: int) -> int:
    """The deterministic seed of grid cell ``index``.

    Derived from ``spawn_child(base_seed, index)`` — a pure function of
    ``(base_seed, index)`` independent of process, platform, and of which
    other cells run — so serial and process-parallel grids see identical
    streams.  ``index`` enumerates cells in **scheme-major order**: the
    nested loops run ``for scheme: for n_pes: for total_work``, i.e.
    ``index = (i_scheme * len(pes) + i_pes) * len(works) + i_work``.
    The regression suite asserts this order so parallelization can never
    silently reshuffle seeds.
    """
    return int(spawn_child(base_seed, index).integers(0, 2**31 - 1))


@dataclass(frozen=True)
class GridFailure:
    """One grid cell that exhausted its retries."""

    index: int
    scheme: str
    n_pes: int
    total_work: int
    attempts: int
    error: str


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry budget and backoff for grid cells.

    ``delay(seed, attempt)`` is a **pure function** of its arguments —
    exponential growth ``base_delay * 2^attempt`` capped at
    ``max_delay``, then shrunk by up to ``jitter`` of itself using a
    ``spawn_child(seed, attempt)`` draw.  No wall clock and no global
    RNG ever enter the decision path, so a sweep's complete backoff
    schedule is replayable from its cell seeds alone (and the strict
    lint's RNG-provenance rules hold by construction).  Only the
    ``time.sleep`` that *executes* a computed delay touches real time.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError(
                "retry delays must be >= 0, got "
                f"base_delay={self.base_delay} max_delay={self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, seed: int, attempt: int) -> float:
        """Backoff seconds before retry number ``attempt`` (0-based) of
        the cell seeded ``seed``.  Pure and replayable."""
        bounded = min(self.max_delay, self.base_delay * (2.0**attempt))
        if bounded <= 0.0 or self.jitter == 0.0:
            return bounded
        frac = float(spawn_child(seed, attempt).random())
        return bounded * (1.0 - self.jitter * frac)


@dataclass(frozen=True)
class QuarantineReport:
    """Summary of the poison cells a grid quarantined.

    Attached to the :class:`~repro.errors.GridCellError` a failed sweep
    raises, next to the ``completed`` records — the typed counterpart of
    the human-readable per-cell report in the exception message.
    """

    failures: tuple[GridFailure, ...]
    n_cells: int
    n_completed: int
    max_retries: int

    @property
    def indices(self) -> tuple[int, ...]:
        """Grid indices of the quarantined cells, ascending."""
        return tuple(f.index for f in self.failures)


def plan_grid(
    schemes: list[Scheme | str],
    works: list[int],
    pes: list[int],
    *,
    base_seed: int = 0,
    init_threshold: float | None | str = "auto",
) -> list[CellPlan]:
    """The planning pass: enumerate grid cells as executable CellPlans.

    Cells come back in scheme-major order with their deterministic
    :func:`cell_seed` and the init threshold already resolved (the
    ``"auto"`` convention applied per scheme), so both engines, in
    process or pooled, start from the same plan and cannot disagree
    about seeds or thresholds.
    """
    grid_schemes = [make_scheme(s) if isinstance(s, str) else s for s in schemes]
    plans: list[CellPlan] = []
    index = 0
    for scheme in grid_schemes:
        threshold = (
            default_init_threshold(scheme)
            if init_threshold == "auto"
            else init_threshold
        )
        for n_pes in pes:
            for total_work in works:
                plans.append(
                    CellPlan(
                        index=index,
                        scheme=scheme,
                        n_pes=n_pes,
                        total_work=total_work,
                        seed=cell_seed(base_seed, index),
                        init_threshold=threshold,
                    )
                )
                index += 1
    return plans


def _run_cells(
    plans: list[CellPlan],
    executor: str,
    *,
    cost_model: CostModel | None,
    splitter: WorkSplitter | None,
    sanitize: bool,
    on_done: Callable[[CellPlan, RunMetrics], None] | None = None,
) -> dict[int, RunMetrics]:
    """Run planned cells in this process on ``executor``'s engine.

    ``"batched"`` packs every batchable cell into one
    :class:`~repro.workmodel.mega.MegaArena`; cells it cannot replicate
    (opaque scheme factories), and every cell on the ``"serial"``
    engine, run one at a time through :func:`run_divisible`.
    ``on_done`` sees each cell the moment it finishes (the journal hook).
    """
    results: dict[int, RunMetrics] = {}
    if executor == "batched":
        results = run_batched_cells(
            [p for p in plans if is_batchable(p.scheme)],
            cost_model=cost_model,
            splitter=splitter,
            sanitize=sanitize,
            on_cell_done=on_done,
        )
        plans = [p for p in plans if p.index not in results]
    for plan in plans:
        metrics = run_divisible(
            plan.scheme,
            plan.total_work,
            plan.n_pes,
            cost_model=cost_model,
            splitter=splitter,
            seed=plan.seed,
            init_threshold=plan.init_threshold,
            sanitize=sanitize,
        )
        results[plan.index] = metrics
        if on_done is not None:
            on_done(plan, metrics)
    return results


def _describe(shard: list[CellPlan]) -> str:
    """Name a shard's cells in error messages (coordinates for one)."""
    if len(shard) == 1:
        p = shard[0]
        return f"cell {p.index} ({p.scheme.name!r}, W={p.total_work}, P={p.n_pes})"
    return f"cells {[p.index for p in shard]}"


def _run_shard(payload: tuple) -> list[tuple[int, RunMetrics]]:
    """One shard of planned cells, picklable for pool workers.

    Schemes travel as spec strings (Scheme factories close over locals
    and do not pickle) and are rebuilt with ``make_scheme`` here, once
    per shard; ``engine`` (cost model, splitter, sanitize)
    pickles as-is.  The shard runs on ``executor``'s engine
    (:func:`_run_cells`).

    ``timeout`` arms one in-worker ``SIGALRM`` watchdog of ``timeout *
    len(shard)`` seconds — a per-cell budget scaled to the shard (a
    batched shard's cells advance in lock-step).  ``chaos`` fires inside
    the armed window, once per cell index the shard carries with the
    shard's attempt number, so an injected hang is timed out like any
    wedged cell and the same ``GridChaos(index=...)`` crashes the same
    work on either engine.  A tripped watchdog raises a retryable
    :class:`~repro.errors.GridCellError` naming the shard.  Off POSIX
    the parent warns with :class:`~repro.errors.TimeoutUnenforcedWarning`
    instead of silently dropping the bound.
    """
    rows, executor, engine, timeout, chaos, attempt = payload
    plans = [
        CellPlan(
            index=index,
            scheme=make_scheme(spec),
            n_pes=n_pes,
            total_work=total_work,
            seed=seed,
            init_threshold=threshold,
        )
        for (index, spec, total_work, n_pes, seed, threshold) in rows
    ]
    watchdog = None if timeout is None else timeout * len(plans)
    use_alarm = watchdog is not None and hasattr(signal, "SIGALRM")
    if use_alarm:

        def _on_alarm(signum: int, frame: object) -> None:
            raise GridCellError(f"{_describe(plans)} timed out after {watchdog}s")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, watchdog)
    try:
        if chaos is not None:
            for plan in plans:
                chaos.maybe_trigger(plan.index, attempt)
        results = _run_cells(plans, executor, **engine)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return sorted(results.items())


#: One-per-process latch for the off-POSIX timeout warning.
_TIMEOUT_WARNING_EMITTED = False


def _warn_timeout_unenforced() -> None:
    global _TIMEOUT_WARNING_EMITTED
    if _TIMEOUT_WARNING_EMITTED:
        return
    _TIMEOUT_WARNING_EMITTED = True
    warnings.warn(
        "run_grid(timeout=...) cannot be enforced on this platform: the "
        "in-worker watchdog needs signal.SIGALRM (POSIX only).  Cells "
        "run without a wall-clock bound; grid metadata records "
        "grid.timeout_enforced = 0.",
        TimeoutUnenforcedWarning,
        stacklevel=3,
    )


def _raise_quarantine(
    plans: list[CellPlan],
    results: dict[int, RunMetrics],
    failures: list[GridFailure],
    max_retries: int,
    registry: MetricsRegistry | None,
    journal: "CellJournal | None",
) -> None:
    """Quarantine the poison cells: raise one :class:`GridCellError`
    carrying the structured failures, every completed record (scheme-
    major order), and a typed :class:`QuarantineReport` — graceful
    degradation instead of a discarded sweep."""
    failures.sort(key=lambda f: f.index)
    completed = tuple(
        GridRecord(p.scheme.name, p.n_pes, p.total_work, results[p.index])
        for p in plans
        if p.index in results
    )
    report = QuarantineReport(
        failures=tuple(failures),
        n_cells=len(plans),
        n_completed=len(completed),
        max_retries=max_retries,
    )
    if registry is not None:
        registry.counter("grid.quarantined").inc(len(failures))
    lines = [
        f"run_grid: {len(failures)} of {len(plans)} cells failed "
        f"after {max_retries} retries:"
    ]
    lines += [
        f"  cell {f.index}: scheme={f.scheme!r} W={f.total_work} "
        f"P={f.n_pes} attempts={f.attempts} last_error={f.error}"
        for f in failures
    ]
    lines.append(
        f"quarantined {len(failures)} poison cell(s); "
        f"{len(completed)} completed record(s) attached on .completed"
    )
    if journal is not None:
        lines.append(
            f"completed cells are journaled in {journal.path}; rerun with "
            "resume=True to retry only the quarantined cells"
        )
    raise GridCellError(
        "\n".join(lines),
        failures=tuple(failures),
        completed=completed,
        quarantine=report,
    )


def run_grid(
    schemes: list[Scheme | str],
    works: list[int],
    pes: list[int],
    *,
    cost_model: CostModel | None = None,
    splitter: WorkSplitter | None = None,
    base_seed: int = 0,
    init_threshold: float | None | str = "auto",
    n_jobs: int | None = None,
    timeout: float | None = None,
    max_retries: int = 2,
    retry: RetryPolicy | None = None,
    chaos: GridChaos | None = None,
    registry: MetricsRegistry | None = None,
    executor: str = "serial",
    sanitize: bool = False,
    journal: "str | Path | None" = None,
    resume: bool = False,
) -> list[GridRecord]:
    """The full cross product of schemes x W x P (Figure 4/7 grids).

    Each cell gets the deterministic child seed :func:`cell_seed`
    ``(base_seed, index)`` with ``index`` in scheme-major order (see
    there), so cells are reproducible independently of grid shape and of
    how the grid is executed.

    Two independent settings decide how cells run, and every
    combination returns the same records in the same scheme-major order:

    - ``executor`` (:data:`GRID_EXECUTORS`) picks the engine: ``"serial"``
      (default) runs one cell at a time through :func:`run_divisible` —
      the oracle; ``"batched"`` packs cells into one
      :class:`~repro.workmodel.mega.MegaArena` and advances them with
      single full-width kernel calls (cells whose scheme it cannot
      replicate run serially);
    - the **worker pool** is used exactly when ``n_jobs > 1`` or
      ``timeout``/``chaos`` is given.  The serial engine ships one-cell
      shards; the batched engine one contiguous shard per worker, so
      spawn and scheme rebuild are paid per shard.  Pooled execution
      requires every scheme's name to round-trip through ``make_scheme``
      (all Table 1 schemes do; baseline schemes with opaque factories
      must run in-process).

    **Durability** — ``journal`` names a write-ahead
    :class:`~repro.experiments.journal.CellJournal` file: every
    completed cell is CRC-framed and fsynced into it the moment it
    finishes, keyed by ``(spec, W, P, cell_seed, code_version)``.
    ``resume=True`` replays the journal first and skips every cell it
    already holds; because cells are pure functions of their key and
    the journal round-trips records exactly, a killed-and-resumed grid
    returns records **bit-identical** to an uninterrupted run.

    The pool is hardened against worker failure:

    - ``timeout`` bounds each cell's wall-clock seconds (a shard gets
      ``timeout * len(shard)``; enforced in-worker via ``SIGALRM`` on
      POSIX; elsewhere a one-time
      :class:`~repro.errors.TimeoutUnenforcedWarning` is emitted and
      ``grid.timeout_enforced`` is recorded as 0 instead of silently
      pretending the bound held);
    - a shard that raises, times out, or loses its worker is retried
      whole under ``retry`` (a :class:`RetryPolicy`; defaults to
      ``RetryPolicy(max_retries=max_retries)``) **with the same**
      :func:`cell_seed` values, after a deterministic exponential
      backoff whose jitter derives from the cell seed — so a retried
      cell's record is identical to an undisturbed one and the whole
      backoff schedule is replayable;
    - a ``BrokenProcessPool`` (worker killed hard) respawns the pool and
      requeues every unfinished in-flight shard, each charged one
      attempt and reported with its cells' ``(scheme, W, P)``;
    - cells that exhaust their retries are **quarantined**: the raised
      :class:`~repro.errors.GridCellError` carries the structured
      :class:`GridFailure` list, every completed :class:`GridRecord`
      (``.completed``), and a typed :class:`QuarantineReport`
      (``.quarantine``) — with a journal attached the finished cells
      are already durable and a ``resume=True`` rerun retries only the
      poison cells.

    ``chaos`` injects deterministic worker crashes (exit/raise/hang) for
    testing this machinery; see :class:`repro.faults.chaos.GridChaos`.

    ``registry`` folds every cell's metrics into a
    :class:`~repro.obs.registry.MetricsRegistry` (plus ``grid.*``
    operational counters: cells/retries totals, resumed and quarantined
    cells, the engine, and whether a requested timeout is enforceable).
    Recording happens in the parent process in cell-index order on
    every path, so all paths produce identical snapshots.

    ``sanitize`` turns on the runtime invariant checks in every cell
    (either engine, in-process or pooled); sanitized records are
    bit-identical to unsanitized ones.
    """
    if executor not in GRID_EXECUTORS:
        raise ConfigError(
            f"executor must be one of {GRID_EXECUTORS}, got {executor!r} "
            "(worker processes are chosen by n_jobs > 1 or timeout/chaos, "
            "not by the executor)"
        )
    if retry is None:
        retry = RetryPolicy(max_retries=max_retries)
    if timeout is not None and timeout <= 0:
        raise ConfigError(f"timeout must be positive, got {timeout}")
    if resume and journal is None:
        raise ConfigError("run_grid(resume=True) requires journal=<path>")
    plans = plan_grid(
        schemes, works, pes, base_seed=base_seed, init_threshold=init_threshold
    )

    cell_journal: "CellJournal | None" = None
    if journal is not None:
        # Imported lazily: journal.py imports store.py, which imports
        # this module back for GridRecord.
        from repro.experiments.journal import CellJournal

        cell_journal = CellJournal(journal)

    results: dict[int, RunMetrics] = {}
    resumed = 0
    if cell_journal is not None and resume:
        for plan in plans:
            record = cell_journal.lookup(plan)
            if record is not None:
                results[plan.index] = record.metrics
                resumed += 1
    todo = [p for p in plans if p.index not in results]

    def on_done(plan: CellPlan, metrics: RunMetrics) -> None:
        if cell_journal is not None:
            cell_journal.record_cell(plan, metrics)

    timeout_enforced = timeout is None or hasattr(signal, "SIGALRM")
    if not timeout_enforced:
        _warn_timeout_unenforced()
    if registry is not None:
        registry.counter("grid.executor", {"path": executor}).inc()
        if timeout is not None:
            registry.gauge("grid.timeout_enforced").set(
                1.0 if timeout_enforced else 0.0
            )

    pooled = (
        (n_jobs is not None and n_jobs > 1)
        or timeout is not None
        or chaos is not None
    )
    engine = {
        "cost_model": cost_model,
        "splitter": splitter,
        "sanitize": sanitize,
    }
    retries = 0
    if pooled and todo:
        retries, failures = _execute_pool(
            todo,
            results,
            on_done,
            executor=executor,
            engine=engine,
            n_jobs=n_jobs,
            timeout=timeout,
            chaos=chaos,
            retry=retry,
        )
        if failures:
            _raise_quarantine(
                plans, results, failures, retry.max_retries, registry, cell_journal
            )
    else:
        results.update(_run_cells(todo, executor, on_done=on_done, **engine))

    records = [
        GridRecord(p.scheme.name, p.n_pes, p.total_work, results[p.index])
        for p in plans
    ]
    _fold_grid_metrics(registry, records, retries=retries, resumed=resumed)
    return records


def _require_spec_named(plans: list[CellPlan]) -> None:
    for plan in plans:
        try:
            make_scheme(plan.scheme.name)
        except ValueError:
            raise ConfigError(
                f"scheme {plan.scheme.name!r} cannot be rebuilt from its "
                "spec; the worker pool (n_jobs > 1, timeout or chaos) "
                "supports spec-named schemes only — run it serially "
                "in-process"
            ) from None


def _shard_plans(plans: list[CellPlan], n_shards: int) -> list[list[CellPlan]]:
    """Split plans into at most ``n_shards`` contiguous, near-equal chunks."""
    n_shards = max(1, min(n_shards, len(plans)))
    size, rem = divmod(len(plans), n_shards)
    shards: list[list[CellPlan]] = []
    start = 0
    for s in range(n_shards):
        stop = start + size + (1 if s < rem else 0)
        shards.append(plans[start:stop])
        start = stop
    return shards


def _execute_pool(
    todo: list[CellPlan],
    results: dict[int, RunMetrics],
    on_done: Callable[[CellPlan, RunMetrics], None],
    *,
    executor: str,
    engine: dict,
    n_jobs: int | None,
    timeout: float | None,
    chaos: GridChaos | None,
    retry: RetryPolicy,
) -> tuple[int, list[GridFailure]]:
    """Run ``todo`` as shards on a hardened worker pool.

    Returns the number of failed shard attempts (``grid.retries_total``)
    and the cells of every shard that exhausted the retry budget, for
    the caller to quarantine.  The serial engine ships one-cell shards;
    the batched engine one contiguous shard per worker.  A failed shard
    is retried whole with the same seeds after a deterministic backoff;
    a broken pool is respawned and its unfinished shards requeued.
    Running even a single worker out of process means an injected
    ``os._exit`` kills a worker, never the caller.
    """
    _require_spec_named(todo)
    workers = n_jobs if n_jobs is not None and n_jobs > 1 else 1
    if executor == "serial":
        shards = [[plan] for plan in todo]
    else:
        shards = _shard_plans(todo, workers)
    by_index = {p.index: p for p in todo}

    def payload_for(shard: list[CellPlan], attempt: int) -> tuple:
        rows = [
            (p.index, p.scheme.name, p.total_work, p.n_pes, p.seed, p.init_threshold)
            for p in shard
        ]
        return (rows, executor, engine, timeout, chaos, attempt)

    attempts = [0] * len(shards)
    pending = list(range(len(shards)))
    failures: list[GridFailure] = []
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while pending:
            in_flight = {
                pool.submit(_run_shard, payload_for(shards[s], attempts[s])): s
                for s in pending
            }
            pending = []
            delays: list[float] = []
            pool_broken = False
            for fut in as_completed(in_flight):
                s = in_flight[fut]
                shard = shards[s]
                try:
                    for index, metrics in fut.result():
                        results[index] = metrics
                        on_done(by_index[index], metrics)
                    continue
                except BrokenProcessPool:
                    pool_broken = True
                    error = f"worker pool broke while {_describe(shard)} was in flight"
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                attempts[s] += 1
                if attempts[s] > retry.max_retries:
                    failures.extend(
                        GridFailure(
                            p.index,
                            p.scheme.name,
                            p.n_pes,
                            p.total_work,
                            attempts[s],
                            error,
                        )
                        for p in shard
                    )
                else:
                    pending.append(s)
                    delays.append(retry.delay(shard[0].seed, attempts[s] - 1))
            if pool_broken:
                # A hard worker death poisons every future in the old
                # pool; respawn and let the requeued shards rerun with
                # their original seeds.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=workers)
            pending.sort()
            if pending and delays:
                # One sleep per resubmission round — the *decision* (how
                # long) came from RetryPolicy.delay, which is pure.
                time.sleep(max(delays))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return sum(attempts), failures


def _fold_grid_metrics(
    registry: MetricsRegistry | None,
    records: list[GridRecord],
    *,
    retries: int,
    resumed: int = 0,
) -> None:
    """Record a finished grid into ``registry`` (parent process only).

    Workers cannot share a registry object across process boundaries, so
    every execution path folds the returned records here, in index order
    — serial and parallel grids produce identical snapshots.
    """
    if registry is None:
        return
    registry.counter("grid.cells_total").inc(len(records))
    registry.counter("grid.retries_total").inc(retries)
    if resumed:
        registry.counter("grid.resumed_cells").inc(resumed)
    for record in records:
        record_run(registry, record.metrics)
