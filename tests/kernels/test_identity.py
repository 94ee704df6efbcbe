"""Bit-identity of every kernel tier against the list oracle.

The acceptance gate for the kernel layer: across all six paper schemes
(GP/nGP x S^x/D_P/D_K), with the runtime sanitizer asserting the
lock-step invariants, the fused tier produces *exactly* the runs the
list oracle produces: same RunMetrics, same traces, same stacks, same
RNG stream position.  Covers both workload families with a fused tier:
the synthetic stack model and the real 15-puzzle search, including the
fused search tier's sparse-frontier row loop on its own.  (The
mega-arena grid kernels have only the numpy tier; batched == serial is
gated in ``tests/experiments/test_batched_grid.py``.)
"""

import numpy as np
import pytest

from repro.core.config import PAPER_SCHEMES
from repro.core.scheduler import Scheduler
from repro.experiments.runner import default_init_threshold
from repro.kernels.dispatch import BACKENDS, get_kernel
from repro.kernels.search import _expand_rows_driver
from repro.kernels.workspace import KernelWorkspace
from repro.problems.fifteen_puzzle import BENCH_INSTANCES
from repro.search.parallel import ParallelIDAStar, SearchWorkload
from repro.simd.cost import CostModel
from repro.simd.machine import SimdMachine
from repro.workmodel.stackmodel import StackWorkload

WORK, N_PES, SEED = 8_000, 32, 7

#: Non-reference tiers to gate.
TIERS = tuple(t for t in BACKENDS if t != "numpy")

_stack_oracle: dict[str, object] = {}
_search_oracle: dict[str, object] = {}


def _stack_run(spec: str, kernel_backend: str, backend: str = "arena"):
    workload = StackWorkload(
        WORK,
        N_PES,
        rng=SEED,
        backend=backend,
        sampler="batched",
        kernel_backend=kernel_backend,
    )
    machine = SimdMachine(N_PES, CostModel())
    metrics = Scheduler(
        workload,
        machine,
        spec,
        init_threshold=default_init_threshold(spec),
        trace=True,
        sanitize=True,
    ).run()
    assert workload.done() and workload.check_conservation()
    return metrics, workload


class TestStackTierIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_tier_matches_list_oracle(self, spec, tier):
        if spec not in _stack_oracle:
            _stack_oracle[spec] = _stack_run(spec, "numpy", backend="list")
        oracle_metrics, oracle_wl = _stack_oracle[spec]
        metrics, workload = _stack_run(spec, tier)
        assert metrics == oracle_metrics
        assert metrics.trace is not None
        assert [list(s) for s in oracle_wl.stacks] == workload.stacks
        assert (
            workload.rng.bit_generator.state
            == oracle_wl.rng.bit_generator.state
        )


class TestSearchTierIdentity:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("spec", PAPER_SCHEMES)
    def test_tier_matches_list_oracle(self, spec, tier):
        if spec not in _search_oracle:
            _search_oracle[spec] = ParallelIDAStar(
                BENCH_INSTANCES["tiny"],
                64,
                spec,
                init_threshold=default_init_threshold(spec),
                backend="list",
                sanitize=True,
            ).run()
        oracle = _search_oracle[spec]
        result = ParallelIDAStar(
            BENCH_INSTANCES["tiny"],
            64,
            spec,
            init_threshold=default_init_threshold(spec),
            backend="arena",
            kernel_backend=tier,
            sanitize=True,
        ).run()
        assert result.total_expanded == oracle.total_expanded
        assert result.bounds == oracle.bounds
        assert result.per_iteration_expanded == oracle.per_iteration_expanded
        assert result.solution_cost == oracle.solution_cost
        assert result.solutions == oracle.solutions
        assert result.metrics == oracle.metrics



def _spread_workload(cycles: int = 24) -> SearchWorkload:
    problem = BENCH_INSTANCES["tiny"]
    bound = problem.heuristic(problem.initial_state()) + 10
    wl = SearchWorkload(problem, bound, 16, backend="arena")
    for _ in range(cycles):
        if wl.done():
            break
        wl.expand_cycle()
    return wl


def _search_state(wl: SearchWorkload) -> tuple:
    return (
        wl.total_expanded(),
        wl.next_bound,
        wl.solutions,
        sorted(wl.goal_depths),
        wl._counts().tolist(),
    )


class TestPythonRowLoopTwin:
    """The fused search tier's sparse-frontier row loop, run on every
    cycle regardless of frontier width."""

    def test_row_loop_matches_numpy_kernel(self):
        reference = _spread_workload()
        subject = _spread_workload(cycles=0)
        ws = KernelWorkspace()
        numpy_kernel = get_kernel("search.expand_cycle", "numpy")
        for _ in range(24):
            if subject.done():
                break
            pes = np.flatnonzero(subject._counts() > 0)
            if len(pes) == 0:
                numpy_kernel(subject, None)
                continue
            subject._cached_counts = None
            _expand_rows_driver(subject, pes, ws)
        assert _search_state(subject) == _search_state(reference)
