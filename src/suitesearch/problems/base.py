"""Input descriptions shared by every problem family, and the interface
every family offers the algorithms.

A problem has ``target_count`` coverage targets, numbered from 0, and
``input_specs``, one :class:`InputSpec` per input. ``random_test(rng)``
draws a uniform test, and ``feasible_targets()`` names the targets some
test can cover. ``evaluate(test)`` returns ``{target: h}``: keys in
ascending target order, each value in (0, 1], 1 meaning covered, and every
target without an entry scoring 0. The archive stamps and sums the entries
in that order and may store any entry it is offered, so a zero must never
be an entry.
"""

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
