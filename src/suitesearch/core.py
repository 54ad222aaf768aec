"""Shared domain types: test cases and the search errors, plus the one
integer draw every search step uses.

Time is measured in fitness evaluations, never wall-clock, so runs are
deterministic given a seed. A budget is a plain int, the number of
evaluations a run may make; each run counts its own.
"""

from __future__ import annotations


class BudgetExhaustedError(RuntimeError):
    """Raised when an evaluation is requested from a spent budget."""


class EmptyArchiveError(RuntimeError):
    """Raised when sampling from an archive with no stored tests."""


def randbelow(rng, n: int) -> int:
    """A uniform int in [0, n), drawn from ``rng`` exactly as
    ``rng.randrange(n)`` draws it.

    This is CPython's ``Random._randbelow_with_getrandbits``: take
    ``n.bit_length()`` bits and draw again while the value is >= n. From the
    same generator state it returns the same value and leaves the same
    state as ``randrange``, so outputs stay reproducible, but it skips the
    two interpreter frames and argument checks ``randrange`` adds per draw.
    ``randint(a, b)`` is ``a + randbelow(rng, b - a + 1)``.
    """
    if n < 1:
        raise ValueError(f"empty range for randbelow: {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class TestCase:
    """One candidate test: a target-family id plus a numeric input vector.

    ``id`` selects which family of targets the test can possibly cover
    (e.g. which function is called); ``inputs`` are the call arguments.
    Every test is a single call, so tests have no length to compare.

    Equality and hashing are structural over ``(id, inputs)``, which is
    also the identity used for suite deduplication.
    """

    __test__ = False  # keep pytest from collecting this as a test container
    __slots__ = ("id", "inputs")

    def __init__(self, id: int, inputs: tuple):
        if id < 0:
            raise ValueError(f"test id must be non-negative, got {id}")
        self.id = id
        self.inputs = inputs

    def __eq__(self, other):
        return (
            isinstance(other, TestCase)
            and self.id == other.id
            and self.inputs == other.inputs
        )

    def __hash__(self):
        return hash((self.id, self.inputs))

    def __repr__(self):
        return f"TestCase(id={self.id}, inputs={self.inputs!r})"

