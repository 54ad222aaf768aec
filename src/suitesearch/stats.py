"""Effect sizes and significance tests for comparing repeated runs.

Coverage counts from repeated seeded runs are heavily tied integers, so
both statistics are computed with midranks: the Vargha-Delaney A12 effect
size (probability, with tie credit, that a value from the first sample
exceeds one from the second) and the two-sided Mann-Whitney U test. The U
test enumerates the exact null distribution for small samples (both sizes
at most 20) and otherwise uses the normal approximation with the standard
tie-variance correction and a continuity correction.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

EXACT_LIMIT = 20


def _as_array(sample, name: str) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sample")
    return arr


def _midranks(pooled: np.ndarray):
    """Ranks with ties averaged, plus the tie-group sizes."""
    _, inverse, sizes = np.unique(pooled, return_inverse=True, return_counts=True)
    # A group's midrank is its last 1-based rank minus half its spread.
    return (np.cumsum(sizes) - (sizes - 1) / 2)[inverse], sizes.tolist()


def _u_statistic(a, b):
    """(U1, n, m, tie-group sizes) of samples ``a`` and ``b``: U1 counts the
    cross pairs that ``a`` wins, a tie counting half."""
    x = _as_array(a, "a")
    y = _as_array(b, "b")
    n, m = x.size, y.size
    ranks, tie_sizes = _midranks(np.concatenate([x, y]))
    r1 = ranks[:n].sum()
    return r1 - n * (n + 1) / 2.0, n, m, tie_sizes


def vargha_delaney_a12(a, b) -> float:
    """A12 effect size: P(x > y) + 0.5 P(x = y) over all cross pairs."""
    u1, n, m, _ = _u_statistic(a, b)
    return u1 / (n * m)


@lru_cache(maxsize=None)
def _exact_u_counts(n: int, m: int) -> tuple:
    """Null distribution of U for group sizes (n, m): counts per U value."""
    if n == 0 or m == 0:
        return (1.0,)
    shorter = _exact_u_counts(n - 1, m)
    longer = _exact_u_counts(n, m - 1)
    counts = [0.0] * (n * m + 1)
    for u, c in enumerate(shorter):
        counts[u + m] += c
    for u, c in enumerate(longer):
        counts[u] += c
    return tuple(counts)


def _exact_two_sided(u: float, n: int, m: int) -> float:
    counts = _exact_u_counts(n, m)
    total = sum(counts)
    u_lo = min(u, n * m - u)
    tail = sum(counts[: int(math.floor(u_lo)) + 1])
    return min(1.0, 2.0 * tail / total)


def _approx_two_sided(u: float, n: int, m: int, tie_sizes) -> float:
    big_n = n + m
    mean = n * m / 2.0
    tie_term = sum(t ** 3 - t for t in tie_sizes)
    variance = (n * m / 12.0) * (big_n + 1.0 - tie_term / (big_n * (big_n - 1.0)))
    if variance <= 0.0:
        return 1.0
    u_lo = min(u, n * m - u)
    z = (u_lo - mean + 0.5) / math.sqrt(variance)
    if z > 0.0:
        z = 0.0
    return min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))


def mann_whitney_u(a, b) -> float:
    """Two-sided Mann-Whitney U test p-value."""
    u1, n, m, tie_sizes = _u_statistic(a, b)
    if n <= EXACT_LIMIT and m <= EXACT_LIMIT:
        return _exact_two_sided(u1, n, m)
    return _approx_two_sided(u1, n, m, tie_sizes)
