"""Test-suite generation search algorithms and their benchmark problems."""

from .algorithms import (
    MioConfig,
    MosaConfig,
    SearchResult,
    WtsConfig,
    mutate,
    run_mio,
    run_mosa,
    run_random,
    run_wts,
)
from .archive import Archive, ScoredTest, TargetPopulation
from .core import (
    Budget,
    BudgetExhaustedError,
    EmptyArchiveError,
    HeuristicVector,
    ParameterSchedule,
    TestCase,
)
from .harness import (
    ExperimentPlan,
    ExperimentResult,
    RawRun,
    derive_seed,
    emit_csv,
    figure_plans,
    read_config,
    read_raw_csv,
    run_plan,
    summarize_rows,
    sut_plans,
)
from .problems import (
    ArtificialProblem,
    InputSpec,
    SutFault,
    SutProblem,
    SUT_NAMES,
    branch_distances,
    rho,
)
from .stats import mann_whitney_u, vargha_delaney_a12

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "ArtificialProblem",
    "Budget",
    "BudgetExhaustedError",
    "EmptyArchiveError",
    "ExperimentPlan",
    "ExperimentResult",
    "HeuristicVector",
    "InputSpec",
    "MioConfig",
    "MosaConfig",
    "ParameterSchedule",
    "RawRun",
    "ScoredTest",
    "SearchResult",
    "SutFault",
    "SutProblem",
    "SUT_NAMES",
    "TargetPopulation",
    "TestCase",
    "WtsConfig",
    "branch_distances",
    "derive_seed",
    "emit_csv",
    "figure_plans",
    "mann_whitney_u",
    "mutate",
    "read_config",
    "read_raw_csv",
    "rho",
    "run_mio",
    "run_mosa",
    "run_plan",
    "run_random",
    "run_wts",
    "summarize_rows",
    "sut_plans",
    "vargha_delaney_a12",
]
