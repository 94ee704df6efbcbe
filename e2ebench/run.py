"""End-to-end, layer-attributed benchmark of the repro package.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload tables-paper --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of several fresh interpreters that import ``repro``, build
the inputs and, for the service, bind it), the median wall time of the
full passes that fit in ``--seconds``, simulated nodes per wall second,
and peak resident memory.  ``--trace 1`` runs untraced passes
and then traced passes, with every layer's public entry points wrapped
(``tracing.py``), and reports per-layer counts and self times, the
unattributed remainder and the tracing overhead.  Every pass's outputs
are checked against an oracle outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the four workloads one after another in this process.  ``--size tiny``
shrinks every workload for the self-tests; ``--describe`` prints what
each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench_work"

#: Fresh interpreters started per run to time set-up; the median is
#: reported.  One runs ahead of each timed pass (the rest after the last),
#: so the samples spread over the run instead of sharing one moment.
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run (per pass) and their units.
PER_LAYER = {
    "workmodel.expand_cycle.calls": "count",
    "workmodel.expand_cycle.s": "s",
    "workmodel.transfer.calls": "count",
    "workmodel.transfer.s": "s",
    "workmodel.masks.calls": "count",
    "workmodel.masks.s": "s",
    "workmodel.lane_util": "ratio",
    "core.match.calls": "count",
    "core.match.s": "s",
    "core.match.pairs_per_call": "count",
    "core.trigger.calls": "count",
    "core.trigger.s": "s",
    "core.scheduler.self_s": "s",
    "core.lb_phases": "count",
    "core.transfers": "count",
    "simd.charge.calls": "count",
    "simd.charge.s": "s",
    "search.expand_cycle.calls": "count",
    "search.expand_cycle.s": "s",
    "search.transfer.s": "s",
    "search.masks.s": "s",
    "search.nodes": "count",
    "search.lane_util": "ratio",
    "kernels.search.expand_cycle.calls": "count",
    "kernels.search.expand_cycle.s": "s",
    "kernels.mega.expand_all.calls": "count",
    "kernels.mega.expand_all.s": "s",
    "kernels.mega.busy_counts.calls": "count",
    "kernels.mega.busy_counts.s": "s",
    "kernels.mega.lane_work": "count",
    "kernels.mega.bytes_computed": "B",
    "experiments.run_grid.calls": "count",
    "experiments.run_grid.s": "s",
    "experiments.run_grid.self_s": "s",
    "experiments.grid.useful_lane_ratio": "ratio",
    "experiments.journal.append.calls": "count",
    "experiments.journal.append.s": "s",
    "experiments.journal.open.calls": "count",
    "experiments.journal.open.s": "s",
    "serve.client.calls": "count",
    "serve.client.s": "s",
    "serve.submit.s": "s",
    "serve.record.s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.store.put.calls": "count",
    "serve.store.put.s": "s",
    "serve.store.get.calls": "count",
    "serve.store.get.s": "s",
    "serve.store.contains.calls": "count",
    "serve.store.contains.s": "s",
    "serve.cache.hit_ratio": "ratio",
    "serve.disk_bytes": "B",
    "serve.transport_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.cold_p90_ms": "ms",
    "serve.cold_n": "count",
    "serve.warm_p50_ms": "ms",
    "serve.warm_p90_ms": "ms",
    "serve.warm_n": "count",
    "serve.read_p50_ms": "ms",
    "serve.read_p90_ms": "ms",
    "serve.read_n": "count",
    "unattributed.s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Span names reported as ``<name>.s`` (self time) and, where listed in
#: PER_LAYER, ``<name>.calls``.
SPAN_LAYERS = (
    "workmodel.expand_cycle", "workmodel.transfer", "workmodel.masks",
    "core.match", "core.trigger", "simd.charge",
    "search.expand_cycle", "search.transfer", "search.masks",
    "kernels.search.expand_cycle", "kernels.mega.expand_all",
    "kernels.mega.busy_counts", "experiments.journal.append",
    "experiments.journal.open", "serve.client", "serve.submit", "serve.record",
    "serve.store.put", "serve.store.get", "serve.store.contains",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--describe", action="store_true")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.describe and args.workload is None:
        ap.error("--workload is required")
    return args


def probe_setup(args: argparse.Namespace) -> int:
    """Child side of the set-up timing: import, build inputs, report."""
    import workloads  # noqa: F401  (imports nothing from repro)
    import repro  # noqa: F401

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    wl.setup()
    print("ready", flush=True)
    wl.close()
    return 0


def measure_setup(args: argparse.Namespace, name: str) -> float:
    """Wall seconds from process start to "ready" in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(args.seed),
           "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


def run_passes(wl, seconds: float, first_index: int, tracer=None, before=None):
    """Full passes (at least one) until another pass of median length
    would end past ``seconds``.  ``before()`` runs untimed ahead of every
    pass."""
    from tracing import PASS, install_layer_wrappers

    results, walls = [], []
    index = first_index
    if tracer is not None:
        install_layer_wrappers(tracer)
        wl.tracer = tracer
    try:
        while True:
            if before is not None:
                before()
            t0 = time.perf_counter()
            if tracer is None:
                result = wl.run_pass(index)
            else:
                tracer.run_id = f"{wl.name}-{wl.seed}-{index}"
                with tracer.span(PASS):
                    result = wl.run_pass(index)
            walls.append(time.perf_counter() - t0)
            results.append(result)
            index += 1
            if sum(walls) + statistics.median(walls) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
            wl.tracer = None
    return results, walls


def check_passes(wl, results, checks) -> None:
    """Oracle on the first pass; every later pass must reproduce it (a
    workload whose passes take fresh inputs is checked pass by pass)."""
    wl.check(results[0], checks)
    for r in results[1:]:
        if wl.repeatable:
            checks.expect(r.digest == results[0].digest,
                          "pass outputs differ between passes")
        else:
            wl.check(r, checks)


def quantile_ms(values: list[float], q: float) -> float:
    from workloads import percentile

    return percentile(values, q) * 1e3 if values else 0.0


def layer_metrics(wl, tracer, traced, walls_untraced, walls_traced, untraced) -> dict:
    totals, _pass_wall, pass_self = tracer.layer_totals()
    n = len(traced)
    out = {name: 0.0 for name in PER_LAYER}

    def total(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    for name in SPAN_LAYERS:
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = total(name, "calls") / n
        out[f"{name}.s"] = total(name, "self_s") / n
    c = tracer.counters
    if c["workmodel.lanes"]:
        out["workmodel.lane_util"] = c["workmodel.lanes_expanding"] / c["workmodel.lanes"]
    if total("core.match", "calls"):
        out["core.match.pairs_per_call"] = c["core.match.pairs"] / total("core.match", "calls")
    out["core.scheduler.self_s"] = total("core.scheduler", "self_s") / n
    runs = traced[0].runs
    out["core.lb_phases"] = float(sum(lb for lb, _ in runs))
    out["core.transfers"] = float(sum(t for _, t in runs))
    out["search.nodes"] = c["search.nodes"] / n
    if c["search.lanes"]:
        out["search.lane_util"] = c["search.nodes"] / c["search.lanes"]
    out["kernels.mega.lane_work"] = c["kernels.mega.lane_work"] / n
    out["kernels.mega.bytes_computed"] = out["kernels.mega.lane_work"] * 8
    out["experiments.run_grid.calls"] = total("experiments.run_grid", "calls") / n
    out["experiments.run_grid.s"] = total("experiments.run_grid", "s") / n
    out["experiments.run_grid.self_s"] = total("experiments.run_grid", "self_s") / n
    if c["kernels.mega.lane_work"]:
        out["experiments.grid.useful_lane_ratio"] = (
            c["experiments.grid.useful_lanes"] / c["kernels.mega.lane_work"]
        )
    if wl.name == "serve-cache":
        waits = tracer.samples["serve.queue_wait_s"]
        out["serve.queue_wait_ms"] = quantile_ms(waits, 0.5)
        calls = tracer.samples["serve.call_s"]
        client = [x for r in traced for x in r.samples["all"]]
        if len(calls) == len(client):
            out["serve.transport_ms"] = statistics.median(
                (a - b) * 1e3 for a, b in zip(client, calls)
            )
        first = untraced[0]
        for phase in ("cold", "warm", "read"):
            values = first.samples[phase]
            out[f"serve.{phase}_p50_ms"] = quantile_ms(values, 0.5)
            out[f"serve.{phase}_p90_ms"] = quantile_ms(values, 0.9)
            out[f"serve.{phase}_n"] = float(len(values))
        out["serve.cache.hit_ratio"] = first.extra["hit_ratio"]
        out["serve.disk_bytes"] = float(wl.disk_bytes())
    out["unattributed.s"] = pass_self / n
    out["trace.overhead_ratio"] = statistics.median(walls_traced) / statistics.median(
        walls_untraced
    )
    return out


def print_layer_table(wl, tracer, n: int, wall: float) -> None:
    totals, _, pass_self = tracer.layer_totals()
    print(f"\n[{wl.name}] per-layer self time per traced pass "
          f"(wall {wall:.4f} s, {len(tracer.spans)} spans)")
    print(f"  {'layer':36s} {'calls':>10s} {'self s':>10s} {'share':>7s}")
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:36s} {t['calls'] / n:10.0f} {t['self_s'] / n:10.4f} "
              f"{t['self_s'] / n / wall:7.1%}")
    print(f"  {'unattributed':36s} {'':>10s} {pass_self / n:10.4f} "
          f"{pass_self / n / wall:7.1%}")
    print("  (self time is per thread: service spans on HTTP and worker "
          "threads overlap the client's wait)")


def run_workload(args: argparse.Namespace, name: str) -> dict:
    """One workload's run; prints its human-readable report and returns
    the result object."""
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[name](args.seed, args.size)
    checks = Checks()
    metrics: dict[str, float] = {}
    try:
        wl.setup()
        wl.warmup()
        if args.trace == 0:
            setup_times: list[float] = []

            def probe() -> None:
                if len(setup_times) < SETUP_REPEATS:
                    setup_times.append(measure_setup(args, name))

            results, walls = run_passes(wl, args.seconds, 0, before=probe)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            while len(setup_times) < SETUP_REPEATS:
                probe()
            wall = statistics.median(walls)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall,
                "nodes_per_s": results[0].nodes / wall,
                "peak_rss_mb": rss_mb,
            }
            check_passes(wl, results, checks)
            print(f"[{name}] seed {args.seed}: {len(results)} passes, "
                  f"walls {[round(w, 4) for w in walls]}, "
                  f"setup {[round(s, 4) for s in setup_times]}")
            if name == "serve-cache":
                first = results[0]
                for phase in ("cold", "warm", "read"):
                    values = first.samples[phase]
                    print(f"  {phase}_p50_ms {quantile_ms(values, 0.5):.3f} ms  "
                          f"{phase}_p90_ms {quantile_ms(values, 0.9):.3f} ms  "
                          f"(n={len(values)})")
        else:
            from tracing import Tracer

            untraced, walls_u = run_passes(wl, args.seconds / 2, 0)
            tracer = Tracer()
            traced, walls_t = run_passes(wl, args.seconds / 2, len(untraced), tracer)
            check_passes(wl, untraced + traced, checks)
            metrics = layer_metrics(wl, tracer, traced, walls_u, walls_t, untraced)
            print_layer_table(wl, tracer, len(traced), statistics.median(walls_t))
            tracer.write_jsonl(WORK / f"spans-{name}.jsonl")
    except Exception:  # any failure still ends in a result line
        traceback.print_exc()
        checks.expect(False, "workload raised")
    finally:
        wl.close()

    units = END_TO_END if args.trace == 0 else PER_LAYER
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    ratio = len(checks.failures) / max(1, checks.attempted)
    print(f"  failed_ratio {ratio} ratio ({len(checks.failures)}/{checks.attempted})")
    for metric, value in metrics.items():
        print(f"  {metric} {value} {units[metric]}")
    return {
        "correct": not checks.failures and set(metrics) == set(units),
        "attempted": max(1, checks.attempted),
        "failed": len(checks.failures),
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.describe:
        from workloads import SPEC

        print(json.dumps(SPEC, indent=1))
        return 0
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS) or (args.probe_setup and len(names) > 1):
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)

    import repro  # noqa: F401

    results = {name: run_workload(args, name) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        # ``--workload all``: every workload in this one process; metric
        # names are prefixed with the workload.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
