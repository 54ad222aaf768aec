"""Artificial single-input landscapes with tunable difficulty.

Each instance has ``z`` independent targets. A test consists of a target id
and one integer input ``x`` in ``[0, r]``; target ``k`` can only be covered
by a test with ``id == k``, by hitting that target's randomly drawn optimum
exactly. Distances map to heuristics through ``rho(d) = 1 / (1 + d)``.
Every family shares one slope up to the optimum ``g``: for ``x <= g`` the
heuristic is ``rho(g - x)``. The kind decides what lies above ``g``:

* gradient: the slope falls back down, ``rho(x - g)``,
* plateau: a constant mediocre value, ``rho(0.1 * r)``,
* deceptive: a second slope that pulls the search away from ``g`` toward
  ``r``, ``rho(1 + r - x)``,
* infeasible: ten gradient targets plus any number of targets with no
  optimum at all, whose heuristic is ``rho(1)`` for every input.
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
        self.infeasible_count = infeasible_count
        self.target_count = len(optima) + self.infeasible_count
        self.test_count = self.target_count * (r + 1)
        self.input_specs = (InputSpec(0, r),)
        self._plateau_h = rho(0.1 * r)
        self._infeasible_h = rho(1.0)

    @classmethod
    def random_instance(cls, kind, rng, z, r=DEFAULT_RANGE):
        """Draw the optima of a fresh instance uniformly from [0, r].

        ``z`` is the number of targets or, for the infeasible kind, the
        number of infeasible targets beside the ``FEASIBLE_BASE`` feasible
        ones. The constructor checks both counts.
        """
        feasible, infeasible_count = (FEASIBLE_BASE, z) if kind == INFEASIBLE else (z, 0)
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
        try:
            (x,) = test.inputs
        except ValueError:
            raise ValueError(f"landscape tests take 1 input, got {len(test.inputs)}") from None
        if not 0 <= x <= self.r:
            raise ValueError(f"input {x} outside [0, {self.r}]")
        if k >= len(self.optima):
            return {k: self._infeasible_h}
        # rho(d) written out: integer operands below 2**53 sum exactly in any order.
        g = self.optima[k]
        if x <= g:
            h = 1.0 / (1.0 + g - x)
        elif self.kind == PLATEAU:
            h = self._plateau_h
        elif self.kind == DECEPTIVE:
            h = 1.0 / (2.0 + self.r - x)
        else:
            h = 1.0 / (1.0 + x - g)
        return {k: h}
