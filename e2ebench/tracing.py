"""In-memory span tracer that wraps the program's public layer functions.

The benchmark measures the program from outside: nothing under ``src/``
knows about this module.  :func:`install_layer_wrappers` replaces a fixed
set of public functions and methods (module or class attributes) with
transparent wrappers that record one span per call -- name, start, end,
parent span, thread, run id -- and a few exact counters taken from the
call's arguments and result.  Spans stay in memory and are written once,
after the traced pass (:meth:`Tracer.write_jsonl`).

Self time of a span is its duration minus the union of its children's
intervals.  A span opened on a thread with no open span of its own (the
service's HTTP and worker threads) is parented to the pass span, so the
pass's self time -- ``unattributed.s`` -- is wall time that no wrapped
layer covered on any thread.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

#: Root span of one workload pass; its self time is ``unattributed.s``.
PASS = "pass"
#: A client request span (closed loop): the server works inside it.
CLIENT = "serve.client"


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float, int, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.root = 0
        self.run_id = ""

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        if name == PASS:
            self.root = sid
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, t0, t1, threading.get_ident(), self.run_id)
            )

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        hook: Callable[["Tracer", tuple, object, float], None] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call; ``hook`` sees the
        arguments, result and duration afterwards (for counters)."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append(
                    (sid, parent, name, t0, t1, threading.get_ident(), self.run_id)
                )
            if hook is not None:
                hook(self, args, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner: object, attr: str, name: str, hook=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.replace(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, dict[str, float]], float, float]:
        """Per span name: calls, inclusive seconds and self seconds; plus
        the pass spans' duration and self time (``unattributed``)."""
        children: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
        for _sid, parent, _name, t0, t1, tid, _run in self.spans:
            children[parent].append((t0, t1, tid))
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        # A client request waits for the server: its self time excludes
        # the pass-level spans that other threads ran meanwhile.
        foreign: dict[tuple[int, int], list[tuple[float, float]]] = {}
        pass_wall = pass_self = 0.0
        for sid, parent, name, t0, t1, tid, _run in self.spans:
            intervals = [(a, b) for a, b, _ in children.get(sid, ())]
            if name == CLIENT:
                key = (parent, tid)
                if key not in foreign:
                    foreign[key] = _merge(
                        (a, b) for a, b, t in children.get(parent, ()) if t != tid
                    )
                merged = _merge(intervals + foreign[key]) if intervals else foreign[key]
                self_s = (t1 - t0) - _covered(merged, t0, t1)
            else:
                self_s = (t1 - t0) - _covered(_merge(intervals), t0, t1)
            if name == PASS:
                pass_wall += t1 - t0
                pass_self += self_s
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += t1 - t0
            entry["self_s"] += self_s
        return dict(totals), pass_wall, pass_self

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line, in one go."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(
                {"run": run, "id": sid, "parent": parent, "name": name,
                 "start": t0, "end": t1, "thread": tid},
                separators=(",", ":"),
            )
            for sid, parent, name, t0, t1, tid, run in self.spans
        ]
        path.write_text("\n".join(lines) + "\n")


def _merge(intervals) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``intervals``."""
    merged: list[list[float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def _covered(merged: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``merged``."""
    if not merged:
        return 0.0
    total = 0.0
    start = max(0, bisect.bisect_right(merged, (lo, lo)) - 1)
    for a, b in merged[start:]:
        if a >= hi:
            break
        total += max(0.0, min(b, hi) - max(a, lo))
    return total


# -- counters taken at the layer boundaries --------------------------------


def _divisible_expand(tr: Tracer, args, result, dt) -> None:
    tr.add("workmodel.lanes_expanding", result)
    tr.add("workmodel.lanes", len(args[0].work))


def _search_expand(tr: Tracer, args, result, dt) -> None:
    tr.add("search.nodes", result)
    tr.add("search.lanes", args[0].n_pes)


def _match(tr: Tracer, args, result, dt) -> None:
    tr.add("core.match.pairs", len(result))


def _mega_expand(tr: Tracer, args, result, dt) -> None:
    tr.add("kernels.mega.lane_work", args[0].size)


def _run_grid(tr: Tracer, args, result, dt) -> None:
    tr.add(
        "experiments.grid.useful_lanes",
        sum(r.n_pes * r.metrics.n_expand for r in result),
    )


def _kernel_hook(name: str):
    return _mega_expand if name == "mega.expand_all" else None


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (undone by ``uninstall``)."""
    import repro.experiments.figures as figures
    import repro.experiments.runner as runner
    import repro.experiments.tables as tables
    import repro.kernels.dispatch as dispatch
    import repro.search.parallel as parallel
    import repro.workmodel.mega as mega
    import repro.workmodel.stackmodel as stackmodel
    from repro.core.matching import GPMatcher, NGPMatcher
    from repro.core.scheduler import Scheduler
    from repro.core.triggering import DKTrigger, DPTrigger, StaticTrigger
    from repro.experiments.journal import CellJournal
    from repro.serve.queue import JobQueue
    from repro.serve.service import ExperimentService
    from repro.serve.store import RecordStore
    from repro.simd.machine import SimdMachine
    from repro.workmodel.divisible import DivisibleWorkload

    p = tracer.patch
    # workmodel
    p(DivisibleWorkload, "expand_cycle", "workmodel.expand_cycle", _divisible_expand)
    p(DivisibleWorkload, "transfer", "workmodel.transfer")
    for mask in ("expanding_mask", "busy_mask", "idle_mask"):
        p(DivisibleWorkload, mask, "workmodel.masks")
    # core
    p(Scheduler, "run", "core.scheduler")
    p(GPMatcher, "match", "core.match", _match)
    p(NGPMatcher, "match", "core.match", _match)
    for trig in (StaticTrigger, DPTrigger, DKTrigger):
        p(trig, "after_cycle", "core.trigger")
    # simd
    for charge in (
        "charge_expansion_cycle", "charge_lb_phase", "charge_recovery_phase",
        "charge_collective", "charge_custom_phase",
    ):
        p(SimdMachine, charge, "simd.charge")
    # search
    p(parallel.ParallelIDAStar, "run", "search.ida")
    p(parallel.SearchWorkload, "expand_cycle", "search.expand_cycle", _search_expand)
    p(parallel.SearchWorkload, "transfer", "search.transfer")
    for mask in ("expanding_mask", "busy_mask", "idle_mask"):
        p(parallel.SearchWorkload, mask, "search.masks")

    # kernels: wrap whatever the registry hands out, wherever it is bound.
    get_kernel = dispatch.get_kernel

    def traced_get_kernel(name: str, backend: str = "auto"):
        fn = get_kernel(name, backend)
        return tracer.wrap(f"kernels.{name}", fn, _kernel_hook(name))

    for module in (dispatch, parallel, mega, stackmodel):
        tracer.replace(module, "get_kernel", traced_get_kernel)

    # experiments (``figures`` and ``tables`` bind the runner's names).
    p(runner, "run_grid", "experiments.run_grid", _run_grid)
    p(figures, "run_grid", "experiments.run_grid", _run_grid)
    p(tables, "run_divisible", "experiments.run_divisible")
    p(CellJournal, "__init__", "experiments.journal.open")
    p(CellJournal, "append", "experiments.journal.append")
    # serve
    p(ExperimentService, "submit_grid", "serve.submit", _service_call)
    p(ExperimentService, "job", "serve.job", _service_call)
    p(ExperimentService, "record", "serve.record", _service_call)
    p(RecordStore, "put", "serve.store.put")
    p(RecordStore, "get", "serve.store.get")
    p(RecordStore, "get_payload", "serve.store.get")
    p(RecordStore, "__contains__", "serve.store.contains")

    submit = JobQueue.submit

    def traced_submit(queue, job, fn):
        t_submit = time.perf_counter()

        def timed(job_):
            tracer.sample("serve.queue_wait_s", time.perf_counter() - t_submit)
            return fn(job_)

        return submit(queue, job, timed)

    tracer.replace(JobQueue, "submit", traced_submit)


def _service_call(tr: Tracer, args, result, dt) -> None:
    """Server-side duration of each HTTP-facing service call, in order
    (the client is closed-loop, so the i-th call serves request i)."""
    tr.sample("serve.call_s", dt)
