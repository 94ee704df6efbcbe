"""The four benchmark workloads, their inputs and their output oracles.

Every workload is driven through the package's public API, in one
process.  ``setup`` turns the benchmark seed into the workload's inputs
(the program only ever sees those inputs); ``run_pass`` is one full,
timed pass; ``check`` compares a pass's outputs with an oracle and runs
outside every timed region.

Why these four (each stresses layers the others bypass; ``BENCHMARK.json``
runs all but ``isoeff-grids``, whose batched-executor and ``kernels.mega``
layers ``serve-cache`` also loads):

- ``tables-paper`` is the serial ``Scheduler`` + ``DivisibleWorkload``
  path of ``repro table N --scale paper``; no kernel, batched executor
  or I/O runs on it, so it is the control for changes to those.
- ``isoeff-grids`` is the only workload on the batched
  ``MegaGridExecutor`` and the ``kernels.mega`` tier (Fig. 4 and Fig. 7
  grids through ``run_grid(executor="auto")``).
- ``puzzle-ida`` is real 15-puzzle parallel IDA* -- the paper's own
  experiment -- and the only workload on ``search`` and
  ``kernels.search``; it bypasses the work model.
- ``serve-cache`` is the only workload on ``serve``, the write-ahead
  journal and the ``RecordStore``; its cold, warm and read phases split
  the store into writes, existence checks and reads.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

from tracing import CLIENT  # noqa: E402

#: Per-workload documentation: why it was chosen, which layers it loads
#: and bypasses, its input size, and which end-to-end metric each layer
#: metric should move on it.  ``run.py --describe`` prints this.
SPEC = {
    "tables-paper": {
        "why": "the serial Scheduler + DivisibleWorkload path that "
        "`repro table N --scale paper` runs (Tables 2, 4, 5 at P=8192)",
        "loads": ["core", "workmodel", "simd", "experiments.tables"],
        "bypasses": ["kernels", "experiments.batched", "search", "serve",
                     "experiments.journal"],
        "input": "65 cells per pass at P=8192, sum W = 3.85e8 nodes",
        "moves": {
            "workmodel.*": "wall_s, nodes_per_s",
            "core.match.*, core.trigger.*, core.scheduler.self_s": "wall_s",
            "simd.charge.*": "nothing: the control",
            "core.lb_phases, core.transfers": "exact; change only by claim",
        },
    },
    "isoeff-grids": {
        "why": "Fig. 4 and Fig. 7 isoefficiency grids through "
        "run_grid(executor='auto'), i.e. the batched MegaGridExecutor; "
        "kept out of BENCHMARK.json: with four workloads the time budget "
        "allows only ~24-s runs, whose spreads neared the 0.25 bound",
        "loads": ["experiments.batched", "kernels.mega", "core.match"],
        "bypasses": ["core.scheduler", "workmodel.DivisibleWorkload",
                     "search", "serve"],
        "input": "224 cells per pass (P 128-1024, W = r P log2 P, "
        "r 4-256), sum W = 7.23e7 nodes",
        "moves": {
            "kernels.mega.*": "wall_s, nodes_per_s",
            "experiments.run_grid.self_s, experiments.grid."
            "useful_lane_ratio": "wall_s",
        },
    },
    "puzzle-ida": {
        "why": "real 15-puzzle parallel IDA* (GP-DK, init 0.85, arena "
        "backend, fused kernels, P=1024): the paper's experiment",
        "loads": ["search", "kernels.search", "core", "simd"],
        "bypasses": ["workmodel", "experiments", "serve"],
        "input": "one dense (W/P > 2000) plus sparse (W/P < 300) "
        "instances, sum W within 3% below 3.6e6 nodes per pass",
        "moves": {
            "search.*, kernels.search.*": "nodes_per_s, wall_s",
            "core.match.*": "nothing here (moves tables-paper)",
        },
    },
    "serve-cache": {
        "why": "stdlib `repro serve` driven by one closed-loop client on "
        "one keep-alive connection: cold grids, warm re-submits, reads",
        "loads": ["serve", "experiments.journal", "RecordStore",
                  "experiments.run_grid (batched)", "kernels.mega"],
        "bypasses": ["search", "core.scheduler"],
        "input": "100 distinct 2-cell grids (GP-DK, W 3e4 and 6e4, "
        "P=256) per pass: 100 cold POST + polls, 100 warm POST, "
        "200 record GETs",
        "moves": {
            "serve.transport_ms": "serve latencies and wall_s",
            "experiments.journal.*, serve.store.put.*": "serve.cold_*",
            "serve.store.contains.*": "serve.warm_*",
            "serve.store.get.*, serve.record.s": "serve.read_*",
            "kernels.mega.*, experiments.run_grid.self_s": "serve.cold_*",
        },
    },
}


def ledger_ok(n_pes: int, ledger: dict, rel_tol: float = 1e-9) -> bool:
    """``P * T_par == T_calc + T_idle + T_lb + T_recovery``."""
    lhs = n_pes * ledger["elapsed"]
    rhs = ledger["t_calc"] + ledger["t_idle"] + ledger["t_lb"] + ledger["t_recovery"]
    return abs(lhs - rhs) <= rel_tol * max(abs(lhs), abs(rhs), 1.0)


def ledger_dict(metrics) -> dict:
    led = metrics.ledger
    return {"t_calc": led.t_calc, "t_idle": led.t_idle, "t_lb": led.t_lb,
            "t_recovery": led.t_recovery, "elapsed": led.elapsed}


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text())


@dataclass
class PassResult:
    """What one pass produced: the simulated node count, a digest of every
    output (traced and untraced passes must agree on it), and whatever the
    oracle needs."""

    nodes: int
    digest: str
    outputs: object
    #: ``(n_lb, n_transfers)`` of every run the pass made.
    runs: list[tuple[int, int]] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Checks:
    """Oracle verdicts: one attempted operation per check."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name = ""
    #: Every pass sees the same inputs, so every pass (traced or not) must
    #: produce the same outputs digest.
    repeatable = True

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size
        #: The active :class:`tracing.Tracer` during traced passes.
        self.tracer = None

    def setup(self) -> None:
        """Build the inputs (and, for a service, bind it)."""

    def warmup(self) -> None:
        """Untimed call that fills lazy imports and caches."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult, checks: Checks) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# tables-paper


class TablesPaper(Workload):
    name = "tables-paper"
    TABLES = (2, 4, 5)

    def setup(self) -> None:
        import repro.experiments.tables as tables

        self.tables = tables
        self.scale = "paper" if self.size == "full" else "tiny"
        self.calls: list[tuple[int, int, object]] = []
        # The paper tables call run_divisible once per cell; keep every
        # RunMetrics so the oracle can check the ledger of each one.
        original = tables.run_divisible

        def collect(scheme, total_work, n_pes, **kwargs):
            metrics = original(scheme, total_work, n_pes, **kwargs)
            self.calls.append((int(total_work), int(n_pes), metrics))
            return metrics

        tables.run_divisible = collect
        self._original = original

    def warmup(self) -> None:
        self.tables.table2(scale="tiny", seed=self.seed)
        self.calls.clear()

    def run_pass(self, index: int) -> PassResult:
        self.calls.clear()
        bodies = {}
        for n in self.TABLES:
            result = getattr(self.tables, f"table{n}")(scale=self.scale, seed=self.seed)
            bodies[n] = _table_body(result.render())
        cells = list(self.calls)
        return PassResult(
            nodes=sum(w for w, _, _ in cells),
            digest=digest({
                "bodies": bodies,
                "ledgers": [ledger_dict(m) for _, _, m in cells],
            }),
            outputs=(bodies, cells),
            runs=[(m.n_lb, m.n_transfers) for _, _, m in cells],
        )

    def check(self, result: PassResult, checks: Checks) -> None:
        bodies, cells = result.outputs
        for work, n_pes, m in cells:
            checks.expect(
                m.total_work == work and ledger_ok(n_pes, ledger_dict(m)),
                f"cell W={work} P={n_pes} {m.scheme}: ledger or W conservation",
            )
        if self.size != "full":
            return
        if self.seed == 0:
            for n, body in bodies.items():
                committed = ROOT / "results" / f"table{n}_paper.txt"
                checks.expect(
                    body == _table_body(committed.read_text()),
                    f"table{n} body differs from {committed.name}",
                )
        else:
            pinned = load_pins()["tables"].get(str(self.seed))
            if pinned is not None:
                checks.expect(
                    digest(bodies_key(bodies)) == pinned,
                    f"table bodies differ from the pin for seed {self.seed}",
                )

    def close(self) -> None:
        self.tables.run_divisible = self._original


def bodies_key(bodies: dict) -> dict:
    return {str(n): body for n, body in sorted(bodies.items())}


def _table_body(text: str) -> str:
    """A rendered table without its title line (the committed files name
    the experiment ``tableN_paper``)."""
    return "\n".join(line.rstrip() for line in text.strip().splitlines()[1:])


# --------------------------------------------------------------------------
# isoeff-grids


class IsoeffGrids(Workload):
    name = "isoeff-grids"

    def setup(self) -> None:
        import repro.experiments.figures as figures
        from repro.experiments.store import record_to_dict

        self.figures = figures
        self.record_to_dict = record_to_dict
        self.kwargs = (
            {} if self.size == "full"
            else {"pes": [16, 32], "ratios": [4.0, 16.0, 64.0]}
        )
        self.records: list = []
        self.executor: str | None = None
        original = figures.run_grid

        def collect(*args, **kwargs):
            if self.executor is not None:
                kwargs["executor"] = self.executor
            records = original(*args, **kwargs)
            self.records.extend(records)
            return records

        figures.run_grid = collect
        self._original = original

    def warmup(self) -> None:
        self.figures.fig4(pes=[16], ratios=[4.0, 8.0], seed=self.seed)
        self.records.clear()

    def _grids(self) -> tuple[list, list[str]]:
        self.records.clear()
        notes = []
        for fig in (self.figures.fig4, self.figures.fig7):
            notes.extend(fig(seed=self.seed, **self.kwargs).notes)
        return list(self.records), notes

    def run_pass(self, index: int) -> PassResult:
        records, notes = self._grids()
        dicts = [self.record_to_dict(r) for r in records]
        return PassResult(
            nodes=sum(r.total_work for r in records),
            digest=digest({"records": dicts, "notes": notes}),
            outputs=(records, dicts),
            runs=[(r.metrics.n_lb, r.metrics.n_transfers) for r in records],
        )

    def serial_digest(self) -> str:
        """The records digest of the one-cell-at-a-time oracle path."""
        self.executor = "serial"
        try:
            records, _ = self._grids()
        finally:
            self.executor = None
        return digest([self.record_to_dict(r) for r in records])

    def check(self, result: PassResult, checks: Checks) -> None:
        records, dicts = result.outputs
        for r, d in zip(records, dicts):
            checks.expect(
                r.metrics.total_work == r.total_work and ledger_ok(r.n_pes, d["ledger"]),
                f"cell {r.scheme} W={r.total_work} P={r.n_pes}: ledger or W",
            )
        pinned = None
        if self.size == "full":
            pinned = load_pins()["isoeff_serial"].get(str(self.seed))
        if pinned is None:
            pinned = self.serial_digest()
        checks.expect(digest(dicts) == pinned, "records differ from executor='serial'")

    def close(self) -> None:
        self.figures.run_grid = self._original


# --------------------------------------------------------------------------
# puzzle-ida

#: Every pass's instances add up to within 3% below this many nodes.
PUZZLE_TARGET_W = 3_600_000
PUZZLE_PES = 1024


def select_puzzles(pool: dict, seed: int, target: int = PUZZLE_TARGET_W) -> list[dict]:
    """One dense instance, then sparse ones, drawn in a seed-shuffled
    order, filling up to ``target`` nodes; returns pool entries."""
    import numpy as np

    rng = np.random.default_rng(seed)
    dense = [pool["dense"][i] for i in rng.permutation(len(pool["dense"]))]
    sparse = [pool["sparse"][i] for i in rng.permutation(len(pool["sparse"]))]
    chosen = [dense[0]]
    total = dense[0]["W"]
    for entry in sparse:
        if total + entry["W"] <= target:
            chosen.append(entry)
            total += entry["W"]
    return chosen


class PuzzleIda(Workload):
    name = "puzzle-ida"

    def setup(self) -> None:
        from repro import ParallelIDAStar, scrambled_fifteen_puzzle

        self.solver = ParallelIDAStar
        if self.size == "full":
            self.entries = select_puzzles(load_pins()["puzzles"], self.seed)
        else:
            # Tiny: short scrambles whose serial oracle is cheap to run live.
            self.entries = [
                {"scramble": 24, "rng": 1000 * self.seed + k} for k in range(3)
            ]
        self.instances = [
            scrambled_fifteen_puzzle(e["scramble"], rng=e["rng"]) for e in self.entries
        ]
        self.n_pes = PUZZLE_PES if self.size == "full" else 64

    def _solve(self, puzzle):
        return self.solver(
            puzzle, self.n_pes, "GP-DK", init_threshold=0.85,
            backend="arena", kernel_backend="fused",
        ).run()

    def warmup(self) -> None:
        from repro import scrambled_fifteen_puzzle

        self._solve(scrambled_fifteen_puzzle(20, rng=self.seed))

    def run_pass(self, index: int) -> PassResult:
        results = [self._solve(p) for p in self.instances]
        return PassResult(
            nodes=sum(r.total_expanded for r in results),
            digest=digest([
                [r.solution_cost, r.solutions, r.total_expanded,
                 list(r.per_iteration_expanded), r.metrics.n_expand,
                 r.metrics.n_lb, r.metrics.n_transfers, ledger_dict(r.metrics)]
                for r in results
            ]),
            outputs=results,
            runs=[(r.metrics.n_lb, r.metrics.n_transfers) for r in results],
        )

    def check(self, result: PassResult, checks: Checks) -> None:
        from repro import ida_star

        live = {min(range(len(self.entries)), key=lambda i: self.entries[i].get("W", 0))}
        if self.size != "full":
            live = set(range(len(self.entries)))
        for i, (entry, r) in enumerate(zip(self.entries, result.outputs)):
            m = r.metrics
            checks.expect(
                ledger_ok(m.n_pes, ledger_dict(m))
                and m.total_work == r.total_expanded == sum(r.per_iteration_expanded),
                f"instance {entry}: ledger or W conservation",
            )
            if i in live:
                serial = ida_star(self.instances[i])
                expected = (serial.solution_cost, serial.total_expanded)
            else:
                expected = (entry["cost"], entry["W"])
            checks.expect(
                (r.solution_cost, r.total_expanded) == expected,
                f"instance {entry}: cost/W {(r.solution_cost, r.total_expanded)} "
                f"!= serial ida_star {expected}",
            )


# --------------------------------------------------------------------------
# serve-cache

SERVE_GRID = {"schemes": ["GP-DK"], "works": [30000, 60000], "pes": [256]}


class ServeCache(Workload):
    name = "serve-cache"
    #: Each pass submits fresh grids, so every cold phase is really cold.
    repeatable = False

    def setup(self) -> None:
        from repro.serve import ExperimentService, create_server

        self.n_grids = 100 if self.size == "full" else 10
        self.root = ROOT / ".e2ebench_work" / f"serve-{id(self):x}-{time.time_ns()}"
        self.service = ExperimentService(self.root, workers=2)
        self.server = create_server(self.service, "127.0.0.1", 0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        with self.tracer.span(CLIENT) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            latency = time.perf_counter() - t0
        return response.status, json.loads(raw), latency

    def base_seed(self, index: int, k: int) -> int:
        return (self.seed * 1000 + index) * 1000 + k

    def warmup(self) -> None:
        # Distinct seeds from every pass: warms the connection, the worker
        # pool and the lazy imports of the job path, caches nothing a pass
        # reads.
        for k in range(2):
            grid = dict(SERVE_GRID, base_seed=10**9 + self.seed * 10 + k)
            _, view, _ = self.request("POST", "/grid", grid)
            while view.get("status") in ("queued", "running"):
                _, view, _ = self.request("GET", f"/jobs/{view['id']}")

    def run_pass(self, index: int) -> PassResult:
        grids = [dict(SERVE_GRID, base_seed=self.base_seed(index, k))
                 for k in range(self.n_grids)]
        ops: list[tuple[str, int, bool]] = []  # (phase, status, ok)
        cold, warm, read = [], [], []
        every: list[float] = []  # each request's latency, in order
        jobs = []
        hits0, total0 = self.cache_counts()
        for grid in grids:
            t0 = time.perf_counter()
            status, view, latency = self.request("POST", "/grid", grid)
            every.append(latency)
            ops.append(("cold", status, status == 200 and not view.get("cache_hit")))
            while status == 200 and view.get("status") in ("queued", "running"):
                status, view, latency = self.request("GET", f"/jobs/{view['id']}")
                every.append(latency)
                ops.append(("poll", status, status == 200))
            cold.append(time.perf_counter() - t0)
            ops.append(("job", status, view.get("status") == "done"))
            jobs.append(view)
        for grid in grids:
            status, view, latency = self.request("POST", "/grid", grid)
            warm.append(latency)
            every.append(latency)
            ops.append(("warm", status, status == 200 and view.get("cache_hit") is True
                        and view.get("status") == "done"))
        payloads = []
        for view in jobs:
            for key in view.get("keys", []):
                status, payload, latency = self.request("GET", f"/records/{key}")
                read.append(latency)
                every.append(latency)
                ops.append(("read", status, status == 200))
                payloads.append(payload.get("record"))
        hits1, total1 = self.cache_counts()
        return PassResult(
            nodes=sum(sum(g["works"]) * len(g["pes"]) for g in grids),
            digest=digest(payloads),
            outputs=(grids, ops, payloads),
            runs=[(p["n_lb"], p["n_transfers"]) for p in payloads if p],
            samples={"cold": cold, "warm": warm, "read": read, "all": every},
            extra={"hit_ratio": (hits1 - hits0) / max(1.0, total1 - total0)},
        )

    def cache_counts(self) -> tuple[float, float]:
        """``serve.cache`` hits and hits + misses so far (GET /metrics)."""
        _, snap, _ = self.request("GET", "/metrics")
        hits = misses = 0.0
        for name, value in snap["counters"].items():
            if name.startswith("serve.cache"):
                if "result=hit" in name:
                    hits += value
                elif "result=miss" in name:
                    misses += value
        return hits, hits + misses

    def disk_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())

    def check(self, result: PassResult, checks: Checks) -> None:
        from repro.experiments.runner import run_grid
        from repro.experiments.store import record_to_dict

        grids, ops, payloads = result.outputs
        for phase, status, ok in ops:
            checks.expect(ok, f"{phase} request: HTTP {status}")
        expected = []
        for grid in grids:
            records = run_grid(grid["schemes"], grid["works"], grid["pes"],
                               base_seed=grid["base_seed"], executor="serial")
            expected.extend(record_to_dict(r) for r in records)
        checks.expect(len(payloads) == len(expected), "record count")
        for got, want in zip(payloads, expected):
            checks.expect(
                got == want and ledger_ok(want["n_pes"], want["ledger"]),
                f"served record differs from direct run_grid: {want['scheme']} "
                f"W={want['total_work']}",
            )

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.thread.join(timeout=30)
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TablesPaper, IsoeffGrids, PuzzleIda, ServeCache)}


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by the inclusive method."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[min(98, max(0, round(q * 100) - 1))]
