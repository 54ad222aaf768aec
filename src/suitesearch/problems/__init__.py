"""Benchmark problems: artificial fitness landscapes and instrumented
numerical functions with statement/branch coverage targets."""

from .artificial import ARTIFICIAL_KINDS, INFEASIBLE, ArtificialProblem, rho
from .suts import SUT_NAMES, SutFault, SutProblem

__all__ = [
    "ARTIFICIAL_KINDS",
    "INFEASIBLE",
    "ArtificialProblem",
    "rho",
    "SUT_NAMES",
    "SutProblem",
    "SutFault",
]
