"""repro — Unstructured Tree Search on SIMD Parallel Computers.

A full reproduction of Karypis & Kumar (1992): dynamic load balancing for
lock-step parallel depth-first search, with the GP global-pointer matching
scheme, the S^x / D_P / D_K triggering schemes, a simulated CM-2-class
SIMD machine, real 15-puzzle IDA*, the related-work baselines, and the
paper's scalability analysis.

Quickstart::

    from repro import run_divisible
    metrics = run_divisible("GP-DK", total_work=1_000_000, n_pes=1024)
    print(metrics.efficiency)

Or search a real problem::

    from repro import ParallelIDAStar, scrambled_fifteen_puzzle
    puzzle = scrambled_fifteen_puzzle(30, rng=1)
    result = ParallelIDAStar(puzzle, 64, "GP-DK", init_threshold=0.85).run()
    print(result.solution_cost, result.metrics.efficiency)
"""

from repro.core import (
    Scheduler,
    Scheme,
    make_scheme,
    PAPER_SCHEMES,
    NGPMatcher,
    GPMatcher,
    StaticTrigger,
    DPTrigger,
    DKTrigger,
    AlphaSplitter,
    HalfSplitter,
    UnitSplitter,
    RunMetrics,
)
from repro.simd import (
    SimdMachine,
    CostModel,
    CM2Topology,
    HypercubeTopology,
    MeshTopology,
)
from repro.workmodel import DivisibleWorkload, StackWorkload
from repro.search import (
    SearchProblem,
    ida_star,
    depth_bounded_dfs,
    ParallelIDAStar,
    parallel_depth_bounded,
    BnBProblem,
    serial_dfbb,
    ParallelDFBB,
)
from repro.problems import (
    SlidingPuzzle,
    FifteenPuzzle,
    scrambled_fifteen_puzzle,
    NQueensProblem,
    SyntheticTreeProblem,
    KnapsackProblem,
    TSPProblem,
    GraphColoringProblem,
)
from repro.analysis import (
    optimal_static_trigger,
    isoefficiency_points,
    growth_exponent,
)
from repro.experiments.runner import (
    run_divisible,
    run_grid,
    PAPER_SCALE,
    SMALL_SCALE,
    RetryPolicy,
    QuarantineReport,
)
from repro.experiments.journal import CellJournal
from repro.errors import (
    ReproError,
    ConfigError,
    FaultInjectionError,
    CheckpointCorruptError,
    JournalCorruptError,
    GridCellError,
    TimeoutUnenforcedWarning,
)
from repro.faults import (
    FaultPlan,
    PEFailure,
    Straggler,
    FaultReport,
    CheckpointConfig,
    write_checkpoint,
    load_checkpoint,
    resume_run,
)
from repro.errors import RecordStoreError
from repro.lint import Finding, LintResult, run_lint
from repro.lint.runtime import SanitizerError, check_observation_purity
from repro.obs import (
    Observability,
    MetricsRegistry,
    RingBufferSink,
    JsonlSink,
    Profiler,
    profiled,
)

__version__ = "1.0.0"

__all__ = [
    "Scheduler",
    "Scheme",
    "make_scheme",
    "PAPER_SCHEMES",
    "NGPMatcher",
    "GPMatcher",
    "StaticTrigger",
    "DPTrigger",
    "DKTrigger",
    "AlphaSplitter",
    "HalfSplitter",
    "UnitSplitter",
    "RunMetrics",
    "SimdMachine",
    "CostModel",
    "CM2Topology",
    "HypercubeTopology",
    "MeshTopology",
    "DivisibleWorkload",
    "StackWorkload",
    "SearchProblem",
    "ida_star",
    "depth_bounded_dfs",
    "ParallelIDAStar",
    "parallel_depth_bounded",
    "SlidingPuzzle",
    "FifteenPuzzle",
    "scrambled_fifteen_puzzle",
    "NQueensProblem",
    "SyntheticTreeProblem",
    "KnapsackProblem",
    "TSPProblem",
    "GraphColoringProblem",
    "BnBProblem",
    "serial_dfbb",
    "ParallelDFBB",
    "optimal_static_trigger",
    "isoefficiency_points",
    "growth_exponent",
    "run_divisible",
    "run_grid",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "RetryPolicy",
    "QuarantineReport",
    "CellJournal",
    "ReproError",
    "ConfigError",
    "FaultInjectionError",
    "CheckpointCorruptError",
    "JournalCorruptError",
    "GridCellError",
    "TimeoutUnenforcedWarning",
    "FaultPlan",
    "PEFailure",
    "Straggler",
    "FaultReport",
    "CheckpointConfig",
    "write_checkpoint",
    "load_checkpoint",
    "resume_run",
    "Finding",
    "LintResult",
    "run_lint",
    "SanitizerError",
    "check_observation_purity",
    "RecordStoreError",
    "Observability",
    "MetricsRegistry",
    "RingBufferSink",
    "JsonlSink",
    "Profiler",
    "profiled",
    "__version__",
]
