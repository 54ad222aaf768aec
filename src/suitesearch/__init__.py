"""Test-suite generation search algorithms and their benchmark problems."""

from .algorithms import run_mio, run_mosa, run_random, run_wts
from .core import Budget, TestCase
from .harness import ExperimentPlan, run_plan
from .problems import ArtificialProblem, SutProblem
from .stats import mann_whitney_u, vargha_delaney_a12

__version__ = "0.1.0"

__all__ = [
    "ArtificialProblem",
    "Budget",
    "ExperimentPlan",
    "SutProblem",
    "TestCase",
    "mann_whitney_u",
    "run_mio",
    "run_mosa",
    "run_plan",
    "run_random",
    "run_wts",
    "vargha_delaney_a12",
]
