"""Input descriptions shared by every problem family."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import randbelow


@dataclass(frozen=True)
class InputSpec:
    """Valid range of one numeric input: [low, high], integer or real."""

    low: float
    high: float
    integer: bool

    def clamp(self, value):
        if value < self.low:
            return self.low
        if value > self.high:
            return self.high
        return value

    def draw(self, rng):
        if self.integer:
            low = int(self.low)
            return low + randbelow(rng, int(self.high) - low + 1)
        return rng.uniform(self.low, self.high)
