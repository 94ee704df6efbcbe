"""Bounded job queue: jobs, states, and the worker pool.

Jobs run on a fixed :class:`~concurrent.futures.ThreadPoolExecutor`
(the compute inside each job is numpy kernels — for grids, the default
serial ``run_grid`` engine in process, no worker processes — which
release the GIL well enough for a service whose point is *not*
computing most requests).  Admission is
bounded: at most ``max_pending`` jobs may be queued-or-running, and the
next submission raises :class:`~repro.errors.QueueFullError` — explicit
backpressure instead of an unbounded backlog.  Cache hits bypass the
queue entirely (they are registered already-done), so a saturated
worker pool never blocks the cheap path.

A failed job is never lost: the exception's type and message land on
the job (``status="failed"``), and the HTTP layer serves them from
``GET /jobs/{id}`` — typed error reporting, not a dropped future.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.errors import ConfigError, JobNotFoundError, QueueFullError

__all__ = ["Job", "JobQueue"]

#: The job states ``GET /jobs/{id}`` reports.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One submitted experiment and its lifecycle bookkeeping.

    ``keys`` holds the content-addressed cell key of every cell the job
    covers (one for a solve, the scheme-major list for a grid);
    ``cached_cells`` / ``computed_cells`` split them by how they were
    satisfied.  ``cache_hit`` is true only for the *whole-job* hit —
    every cell served from the store, nothing queued.
    """

    id: str
    kind: str  # "solve" | "grid"
    request: dict
    keys: list[str] = field(default_factory=list)
    status: str = "queued"
    cache_hit: bool = False
    n_cells: int = 0
    cached_cells: int = 0
    computed_cells: int = 0
    error: str | None = None
    error_type: str | None = None
    events_path: Path | None = None
    _seq: itertools.count = field(default_factory=itertools.count, repr=False)

    def next_seq(self) -> int:
        """Monotone sequence number for this job's lifecycle events."""
        return next(self._seq)

    def view(self) -> dict:
        """The job as its stable JSON response shape."""
        out = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "request": self.request,
            "cache_hit": self.cache_hit,
            "n_cells": self.n_cells,
            "cached_cells": self.cached_cells,
            "computed_cells": self.computed_cells,
            "keys": list(self.keys),
        }
        if self.error is not None:
            out["error"] = self.error
            out["error_type"] = self.error_type
        return out


class JobQueue:
    """A registry of jobs plus a bounded worker pool.

    ``max_pending`` bounds queued-plus-running jobs (admission control);
    finished jobs stay in the registry for status/result lookups.
    """

    def __init__(self, workers: int = 2, max_pending: int = 32) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1, got {max_pending}")
        self.workers = workers
        self.max_pending = max_pending
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._futures: dict[str, Future] = {}
        self._active = 0
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    @property
    def active(self) -> int:
        """Jobs currently queued or running."""
        with self._lock:
            return self._active

    def register(self, job: Job) -> Job:
        """Track a job that never enters the pool (a whole-job cache hit)."""
        with self._lock:
            self._jobs[job.id] = job
        return job

    def submit(self, job: Job, fn: Callable[[Job], None]) -> Job:
        """Admit ``job`` and run ``fn(job)`` on the pool.

        Raises :class:`~repro.errors.QueueFullError` when ``max_pending``
        jobs are already queued or running — the job is *not* registered
        in that case, so a rejected submission leaves no trace.
        """
        with self._lock:
            if self._active >= self.max_pending:
                raise QueueFullError(
                    f"job queue is full ({self._active} of {self.max_pending} "
                    "slots busy); retry later — cached re-submissions are "
                    "never queued"
                )
            self._active += 1
            self._jobs[job.id] = job
        future = self._pool.submit(self._run, job, fn)
        with self._lock:
            self._futures[job.id] = future
        return job

    def _run(self, job: Job, fn: Callable[[Job], None]) -> None:
        job.status = "running"
        try:
            fn(job)
            job.status = "done"
        except Exception as exc:  # typed error reporting, never a lost future
            job.status = "failed"
            job.error = str(exc)
            job.error_type = type(exc).__name__
        finally:
            with self._lock:
                self._active -= 1

    def get(self, job_id: str) -> Job:
        """The job under ``job_id``; typed 404 when unknown."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` leaves the pool; return it.

        Failures are reported on the job (``status="failed"``), not
        re-raised — callers inspect the view, exactly like HTTP clients.
        """
        job = self.get(job_id)
        with self._lock:
            future = self._futures.get(job_id)
        if future is not None:
            future.result(timeout=timeout)
        return job

    def shutdown(self) -> None:
        """Stop the pool (running jobs finish; queued ones are dropped)."""
        self._pool.shutdown(wait=True, cancel_futures=True)
