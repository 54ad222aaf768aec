"""Artificial single-input landscapes with tunable difficulty.

Each instance has ``z`` independent targets. A test consists of a target id
and one integer input ``x`` in ``[0, r]``; target ``k`` can only be covered
by a test with ``id == k``, by hitting that target's randomly drawn optimum
exactly. The four families differ in the shape of the heuristic around the
optimum ``g``:

* gradient: a direct slope toward ``g`` from both sides,
* plateau: a slope for ``x <= g``, a constant mediocre value above,
* deceptive: a slope for ``x <= g``, and above it a second slope that pulls
  the search away from ``g`` toward ``r``,
* infeasible: ten gradient targets plus any number of targets whose
  heuristic is a constant plateau with no optimum at all.

Distances map to heuristics through ``rho(d) = 1 / (1 + d)``.
"""

from __future__ import annotations

from .base import InputSpec
from ..core import TestCase, randbelow

GRADIENT = "gradient"
PLATEAU = "plateau"
DECEPTIVE = "deceptive"
INFEASIBLE = "infeasible"
ARTIFICIAL_KINDS = (GRADIENT, PLATEAU, DECEPTIVE, INFEASIBLE)

# Number of gradient targets an infeasible instance always carries.
FEASIBLE_BASE = 10

DEFAULT_RANGE = 1000


def rho(d: float) -> float:
    """Map a non-negative distance into a heuristic in (0, 1]."""
    return 1.0 / (1.0 + d)


class ArtificialProblem:
    """One landscape instance: a kind, an input range and fixed optima."""

    def __init__(self, kind: str, optima, r: int = DEFAULT_RANGE, infeasible_count: int = 0):
        if kind not in ARTIFICIAL_KINDS:
            raise ValueError(f"unknown landscape kind: {kind!r}")
        if r < 1:
            raise ValueError("input range bound must be >= 1")
        optima = tuple(optima)
        if not optima:
            raise ValueError("at least one feasible target is required")
        for g in optima:
            if not 0 <= g <= r:
                raise ValueError(f"optimum {g} outside [0, {r}]")
        if kind == INFEASIBLE:
            if len(optima) != FEASIBLE_BASE:
                raise ValueError(
                    f"infeasible instances carry exactly {FEASIBLE_BASE} feasible targets"
                )
            if infeasible_count < 0:
                raise ValueError("infeasible_count must be >= 0")
        elif infeasible_count:
            raise ValueError("only the infeasible kind takes extra targets")
        self.kind = kind
        self.optima = optima
        self.r = r
        self.infeasible_count = infeasible_count if kind == INFEASIBLE else 0
        self.target_count = len(optima) + self.infeasible_count
        self.input_specs = (InputSpec(0, r, integer=True),)
        self._plateau_h = rho(0.1 * r)
        self._infeasible_h = rho(1.0)

    @classmethod
    def random_instance(cls, kind, rng, *, z=None, infeasible_count=None, r=DEFAULT_RANGE):
        """Draw the optima of a fresh instance uniformly from [0, r].

        For the infeasible kind pass ``infeasible_count``; for the others
        pass ``z``, the number of targets.
        """
        if kind == INFEASIBLE:
            if infeasible_count is None:
                raise ValueError("infeasible instances need infeasible_count")
            feasible = FEASIBLE_BASE
        else:
            if z is None or z < 1:
                raise ValueError("z must be a positive target count")
            feasible = z
            infeasible_count = 0
        optima = tuple(randbelow(rng, r + 1) for _ in range(feasible))
        return cls(kind, optima, r=r, infeasible_count=infeasible_count)

    # -- problem interface --------------------------------------------------

    def feasible_targets(self) -> range:
        return range(len(self.optima))

    def random_test(self, rng) -> TestCase:
        return TestCase(randbelow(rng, self.target_count), (randbelow(rng, self.r + 1),))

    def evaluate(self, test: TestCase) -> dict:
        """Heuristics of one test, ``{id: h}``: every other target scores 0.
        Every landscape value is positive, so the entry is always there."""
        k = test.id
        if not 0 <= k < self.target_count:
            raise ValueError(f"test id {k} outside [0, {self.target_count})")
        x = test.inputs[0]
        if not 0 <= x <= self.r:
            raise ValueError(f"input {x} outside [0, {self.r}]")
        kind = self.kind
        if kind == GRADIENT:
            g = self.optima[k]
            d = x - g if x >= g else g - x
            h = 1.0 / (1.0 + d)
        elif kind == PLATEAU:
            g = self.optima[k]
            h = 1.0 / (1.0 + g - x) if g >= x else self._plateau_h
        elif kind == DECEPTIVE:
            g = self.optima[k]
            h = 1.0 / (1.0 + g - x) if g >= x else 1.0 / (2.0 + self.r - x)
        else:  # infeasible
            if k >= len(self.optima):
                h = self._infeasible_h
            else:
                g = self.optima[k]
                d = x - g if x >= g else g - x
                h = 1.0 / (1.0 + d)
        return {k: h}

    def manifest(self) -> dict:
        return {
            "family": self.kind,
            "targets": str(self.target_count),
            "r": str(self.r),
            "optima": ",".join(str(g) for g in self.optima),
            "infeasible_count": str(self.infeasible_count),
        }
