"""Shared domain types: test cases, heuristic vectors, evaluation budgets and
the time-linear parameter schedules that drive the exploration/exploitation
tradeoff.

Time is measured in fitness evaluations, never wall-clock: the elapsed
fraction ``t = used / max`` is what every schedule sees, so runs are
deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class BudgetExhaustedError(RuntimeError):
    """Raised when an evaluation is requested from a spent budget."""


class EmptyArchiveError(RuntimeError):
    """Raised when sampling from an archive with no stored tests."""


class TestCase:
    """One candidate test: a target-family id plus a numeric input vector.

    ``id`` selects which family of targets the test can possibly cover
    (e.g. which function is called); ``inputs`` are the call arguments.
    ``size`` is the cost measure used to break replacement ties; both the
    artificial landscapes and the bundled numerical functions use
    single-call tests of size 1.

    Equality and hashing are structural over ``(id, inputs)`` only, which
    is also the identity used for suite deduplication.
    """

    __test__ = False  # keep pytest from collecting this as a test container
    __slots__ = ("id", "inputs", "size")

    def __init__(self, id: int, inputs: tuple, size: int = 1):
        if id < 0:
            raise ValueError(f"test id must be non-negative, got {id}")
        if size < 1:
            raise ValueError(f"test size must be >= 1, got {size}")
        self.id = id
        self.inputs = inputs
        self.size = size

    def __eq__(self, other):
        return (
            isinstance(other, TestCase)
            and self.id == other.id
            and self.inputs == other.inputs
        )

    def __hash__(self):
        return hash((self.id, self.inputs))

    def __repr__(self):
        return f"TestCase(id={self.id}, inputs={self.inputs!r}, size={self.size})"


class HeuristicVector:
    """Per-target heuristic values h_k in [0, 1], where 1 means covered.

    Stored sparsely: most tests score 0 on most targets, and a zero entry
    can never enter the archive, so only the non-zero entries matter.
    """

    __slots__ = ("length", "nonzero")

    def __init__(self, length: int, nonzero: dict):
        self.length = length
        self.nonzero = nonzero

    @classmethod
    def single(cls, length: int, index: int, value: float) -> "HeuristicVector":
        """Vector that is zero everywhere except one target."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"heuristic value out of [0, 1]: {value}")
        if not 0 <= index < length:
            raise ValueError(f"target index {index} out of range for {length} targets")
        return cls(length, {index: value} if value > 0.0 else {})

    @classmethod
    def from_dense(cls, values) -> "HeuristicVector":
        nonzero = {}
        for k, v in enumerate(values):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"heuristic value out of [0, 1] at target {k}: {v}")
            if v > 0.0:
                nonzero[k] = v
        return cls(len(values), nonzero)

    def __len__(self):
        return self.length

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < self.length:
            raise IndexError(k)
        return self.nonzero.get(k, 0.0)

    def items(self):
        """Non-zero (target, value) pairs."""
        return self.nonzero.items()

    def sum(self) -> float:
        """Sum of heuristic values over all targets (the coverage sum)."""
        return sum(self.nonzero.values())

    def dense(self) -> np.ndarray:
        """All ``length`` values as one float32 row.

        MOSA ranks and WTS scores suites on these rows, and the pinned
        outputs were produced by float32 comparisons: values closer than
        float32 precision (about 6e-8 relative) tie. Widening the rows to
        float64 breaks such ties differently and changes results (the
        subject outputs pinned in bench/pins.json no longer match).
        """
        row = np.zeros(self.length, dtype=np.float32)
        for k, v in self.nonzero.items():
            row[k] = v
        return row

    def __repr__(self):
        return f"HeuristicVector(length={self.length}, nonzero={self.nonzero!r})"


class Budget:
    """Evaluation budget: a counter of test executions against a cap.

    One evaluation is one execution of a single test case against all
    targets. A cap of zero is allowed and means no evaluation may happen.
    """

    __slots__ = ("max_evaluations", "used_evaluations")

    def __init__(self, max_evaluations: int):
        if max_evaluations < 0:
            raise ValueError("budget must be non-negative")
        self.max_evaluations = max_evaluations
        self.used_evaluations = 0

    def has_remaining(self) -> bool:
        return self.used_evaluations < self.max_evaluations

    def consume(self):
        """Spend one evaluation."""
        if self.used_evaluations >= self.max_evaluations:
            raise BudgetExhaustedError(
                f"budget of {self.max_evaluations} evaluations exhausted"
            )
        self.used_evaluations += 1

    def elapsed_fraction(self) -> float:
        """Fraction of the budget already spent, in [0, 1]."""
        if self.max_evaluations == 0:
            return 1.0
        return self.used_evaluations / self.max_evaluations


def _round_half_away_from_zero(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class ParameterSchedule:
    """Linear interpolation of the search parameters up to the focus point.

    Each parameter moves linearly from its start value to its end value
    while ``t < focus_fraction`` and stays at the end value afterwards:
    the random-sampling probability decays, per-target population capacity
    shrinks, and the mutation count per sampled individual grows. With the
    degenerate ``focus_fraction = 0`` the end values apply from the very
    first moment after t = 0.
    """

    focus_fraction: float = 0.5
    pr_start: float = 0.5
    pr_end: float = 0.0
    n_start: int = 10
    n_end: int = 1
    m_start: int = 1
    m_end: int = 10

    def __post_init__(self):
        if not 0.0 <= self.focus_fraction <= 1.0:
            raise ValueError("focus_fraction must be in [0, 1]")
        for p in (self.pr_start, self.pr_end):
            if not 0.0 <= p <= 1.0:
                raise ValueError("sampling probabilities must be in [0, 1]")
        for v in (self.n_start, self.n_end, self.m_start, self.m_end):
            if v < 1:
                raise ValueError("population capacities and mutation counts must be >= 1")

    def _interp(self, start: float, end: float, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"elapsed fraction out of [0, 1]: {t}")
        if t >= self.focus_fraction:
            return end if (self.focus_fraction > 0.0 or t > 0.0) else start
        return start + (end - start) * (t / self.focus_fraction)

    def pr(self, t: float) -> float:
        return self._interp(self.pr_start, self.pr_end, t)

    def n(self, t: float) -> int:
        return self._int_value(self.n_start, self.n_end, t)

    def m(self, t: float) -> int:
        return self._int_value(self.m_start, self.m_end, t)

    def _int_value(self, start: int, end: int, t: float) -> int:
        """Interpolated value rounded half away from zero, then clamped to
        the interval spanned by ``start`` and ``end``."""
        raw = _round_half_away_from_zero(self._interp(start, end, t))
        lo, hi = min(start, end), max(start, end)
        return min(max(raw, lo), hi)
