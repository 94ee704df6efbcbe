"""run_grid under worker failure: timeout, retry, backoff, and pool loss.

``GridChaos`` deterministically sabotages one cell on chosen attempts,
exercising each failure path; in every recoverable case the final
records must be **identical** to an undisturbed serial grid, because
retries rerun the cell with the same ``cell_seed``.

These tests run the default serial engine, whose pool ships one-cell
shards; the batched engine's wider shards are covered in
``test_durability.py``.  Every fault test also asserts the counter that
proves its path ran (``grid.retries_total``, ``grid.quarantined``), so a
chaos hook that never fires cannot pass.
"""

import signal
import time

import pytest

from repro.errors import ConfigError, GridCellError, TimeoutUnenforcedWarning
from repro.experiments import runner as runner_mod
from repro.experiments.runner import (
    GridFailure,
    QuarantineReport,
    RetryPolicy,
    run_grid,
)
from repro.faults import GridChaos
from repro.faults.chaos import _HANG_SECONDS
from repro.obs import MetricsRegistry

SCHEMES = ["nGP-S0.75", "GP-DP"]
WORKS = [1_500, 3_000]
PES = [16]

#: Fast backoff for chaos tests — same decision structure, tiny sleeps.
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.002)


@pytest.fixture(scope="module")
def serial_oracle():
    return run_grid(SCHEMES, WORKS, PES, base_seed=7)


def _retries(registry: MetricsRegistry) -> float:
    return registry.counter("grid.retries_total").value


def test_worker_raise_is_retried_with_same_seed(serial_oracle):
    registry = MetricsRegistry()
    records = run_grid(
        SCHEMES,
        WORKS,
        PES,
        base_seed=7,
        n_jobs=2,
        registry=registry,
        retry=FAST_RETRY,
        chaos=GridChaos(index=1, kind="raise", attempts=(0,)),
    )
    assert records == serial_oracle
    assert _retries(registry) == 1


def test_worker_death_respawns_pool_and_requeues(serial_oracle):
    # kind="exit" hard-kills the worker process: every in-flight future
    # breaks with BrokenProcessPool, the pool is respawned, and all
    # unfinished cells rerun with their original seeds.
    registry = MetricsRegistry()
    records = run_grid(
        SCHEMES,
        WORKS,
        PES,
        base_seed=7,
        n_jobs=2,
        registry=registry,
        retry=FAST_RETRY,
        chaos=GridChaos(index=2, kind="exit", attempts=(0,)),
    )
    assert records == serial_oracle
    assert _retries(registry) >= 1


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="watchdog needs SIGALRM"
)
def test_hung_cell_times_out_and_retries(serial_oracle):
    registry = MetricsRegistry()
    t0 = time.monotonic()
    records = run_grid(
        SCHEMES,
        WORKS,
        PES,
        base_seed=7,
        n_jobs=2,
        registry=registry,
        timeout=5.0,
        retry=FAST_RETRY,
        chaos=GridChaos(index=3, kind="hang", attempts=(0,)),
    )
    elapsed = time.monotonic() - t0
    assert records == serial_oracle
    # The watchdog cut the hang short instead of waiting it out.
    assert _retries(registry) >= 1
    assert elapsed < _HANG_SECONDS / 4


def test_serial_engine_hardening_runs_on_the_pool(serial_oracle):
    """chaos on the default serial engine without n_jobs is not ignored:
    it routes the grid through the worker pool, fires, and is retried."""
    registry = MetricsRegistry()
    records = run_grid(
        SCHEMES,
        WORKS,
        PES,
        base_seed=7,
        executor="serial",
        registry=registry,
        retry=FAST_RETRY,
        chaos=GridChaos(index=0, kind="raise", attempts=(0,)),
    )
    assert records == serial_oracle
    assert _retries(registry) == 1


def test_persistent_failure_raises_structured_report():
    registry = MetricsRegistry()
    with pytest.raises(GridCellError) as excinfo:
        run_grid(
            SCHEMES,
            WORKS,
            PES,
            base_seed=7,
            n_jobs=2,
            registry=registry,
            retry=RetryPolicy(
                max_retries=1, base_delay=0.001, max_delay=0.002
            ),
            chaos=GridChaos(index=0, kind="raise", attempts=(0, 1)),
        )
    err = excinfo.value
    assert len(err.failures) == 1
    failure = err.failures[0]
    assert isinstance(failure, GridFailure)
    assert failure.index == 0
    # The report names the cell's coordinates, not just an index.
    assert failure.scheme == "nGP-S0.75"
    assert failure.total_work == WORKS[0]
    assert failure.n_pes == PES[0]
    assert failure.attempts == 2
    assert "nGP-S0.75" in str(err)
    # Graceful degradation: the other three cells' records ride along,
    # and the typed quarantine report mirrors the text.
    assert len(err.completed) == 3
    assert all(r.metrics.total_work == r.total_work for r in err.completed)
    assert isinstance(err.quarantine, QuarantineReport)
    assert err.quarantine.indices == (0,)
    assert err.quarantine.n_cells == 4
    assert err.quarantine.n_completed == 3
    assert err.quarantine.max_retries == 1
    assert registry.counter("grid.quarantined").value == 1


def test_retry_and_timeout_config_validated():
    with pytest.raises(ConfigError):
        run_grid(SCHEMES, WORKS, PES, max_retries=-1)
    with pytest.raises(ConfigError):
        run_grid(SCHEMES, WORKS, PES, timeout=0.0)
    with pytest.raises(ConfigError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ConfigError):
        RetryPolicy(base_delay=-0.1)


def test_chaos_validation():
    with pytest.raises(ConfigError):
        GridChaos(index=0, kind="segfault")
    with pytest.raises(ConfigError):
        GridChaos(index=-1)


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_replayable(self):
        policy = RetryPolicy(max_retries=3, base_delay=0.05, max_delay=1.0)
        schedule = [policy.delay(1234, a) for a in range(4)]
        # Pure function of (seed, attempt): replaying gives the same floats.
        assert schedule == [policy.delay(1234, a) for a in range(4)]
        # A different cell seed de-synchronizes the jitter.
        assert schedule != [policy.delay(4321, a) for a in range(4)]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=0.2, jitter=0.0)
        assert [policy.delay(0, a) for a in range(4)] == [
            0.05,
            0.1,
            0.2,
            0.2,
        ]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.08, max_delay=1.0, jitter=0.5)
        for attempt in range(3):
            d = policy.delay(99, attempt)
            full = min(1.0, 0.08 * 2**attempt)
            assert full * 0.5 <= d <= full


class TestTimeoutEnforcement:
    def test_posix_timeout_reports_enforced(self):
        registry = MetricsRegistry()
        run_grid(
            SCHEMES[:1],
            [400],
            [8],
            base_seed=1,
            executor="serial",
            timeout=30.0,
            registry=registry,
        )
        assert registry.snapshot()["gauges"]["grid.timeout_enforced"] == 1.0

    def test_off_posix_timeout_warns_once_and_flags_metadata(self, monkeypatch):
        monkeypatch.delattr(signal, "SIGALRM")
        monkeypatch.setattr(runner_mod, "_TIMEOUT_WARNING_EMITTED", False)
        registry = MetricsRegistry()
        with pytest.warns(TimeoutUnenforcedWarning, match="SIGALRM"):
            run_grid(
                SCHEMES[:1],
                [400],
                [8],
                base_seed=1,
                executor="serial",
                timeout=30.0,
                registry=registry,
            )
        assert registry.snapshot()["gauges"]["grid.timeout_enforced"] == 0.0
        # The warning is a one-per-process latch; the metadata is not.
        import warnings as _warnings

        registry2 = MetricsRegistry()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", TimeoutUnenforcedWarning)
            run_grid(
                SCHEMES[:1],
                [400],
                [8],
                base_seed=1,
                executor="serial",
                timeout=30.0,
                registry=registry2,
            )
        assert registry2.snapshot()["gauges"]["grid.timeout_enforced"] == 0.0
