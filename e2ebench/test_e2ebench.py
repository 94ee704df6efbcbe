"""Self-tests of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest e2ebench``.  Each
test starts ``run.py`` the way the benchmark is driven and reads its
last output line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload run.py knows, including any BENCHMARK.json leaves out.
WORKLOADS = list(workloads.WORKLOADS)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_untraced_run_passes_oracles_and_emits_end_to_end_metrics(workload, seed):
    result = result_of(run_bench(workload, seed, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = result_of(run_bench(workload, 1, trace=1))
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["unattributed.s"] >= 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_puzzle_selection_is_seeded_and_near_the_node_target():
    pool = workloads.load_pins()["puzzles"]
    first = workloads.select_puzzles(pool, 3)
    assert first == workloads.select_puzzles(pool, 3)
    for seed in range(20):
        chosen = workloads.select_puzzles(pool, seed)
        total = sum(e["W"] for e in chosen)
        assert 0.97 * workloads.PUZZLE_TARGET_W <= total <= workloads.PUZZLE_TARGET_W
        per_pe = [e["W"] / workloads.PUZZLE_PES for e in chosen]
        assert max(per_pe) > 2000 and min(per_pe) < 300


def test_self_time_subtracts_children_and_the_servers_work():
    tr = tracing.Tracer()
    # pass [0, 10]: a main-thread span [1, 4] with a child [2, 3], and a
    # client request [5, 9] during which another thread worked [6, 8].
    tr.spans = [
        (3, 2, "child", 2.0, 3.0, 1, "r"),
        (2, 1, "layer", 1.0, 4.0, 1, "r"),
        (5, 1, "server", 6.0, 8.0, 2, "r"),
        (4, 1, tracing.CLIENT, 5.0, 9.0, 1, "r"),
        (1, 0, tracing.PASS, 0.0, 10.0, 1, "r"),
    ]
    totals, wall, unattributed = tr.layer_totals()
    assert totals["layer"]["self_s"] == 2.0
    assert totals["child"]["self_s"] == 1.0
    assert totals[tracing.CLIENT]["self_s"] == 2.0
    assert wall == 10.0 and unattributed == 10.0 - 3.0 - 4.0


def test_wrappers_are_transparent_and_removable():
    sys.path.insert(0, str(ROOT / "src"))
    from repro import run_divisible
    from repro.workmodel.divisible import DivisibleWorkload

    original = DivisibleWorkload.expand_cycle
    plain = run_divisible("GP-DK", 20000, 64, init_threshold=0.85)
    tr = tracing.Tracer()
    tracing.install_layer_wrappers(tr)
    try:
        traced = run_divisible("GP-DK", 20000, 64, init_threshold=0.85)
    finally:
        tr.uninstall()
    assert DivisibleWorkload.expand_cycle is original
    assert traced.ledger == plain.ledger and traced.n_lb == plain.n_lb
    assert tr.counters["workmodel.lanes_expanding"] == 20000
