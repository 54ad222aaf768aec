"""Per-target archive of candidate tests.

The archive keeps one bounded population per coverage target. Tests enter a
population only when they have a non-zero heuristic for that target; once a
target is covered its population collapses to the single best covering test
and never grows again. Sampling is feedback-directed: each target carries a
counter of samples since its last improvement, and the least-recently
improved target is preferred, which starves stagnant (e.g. infeasible)
targets of search effort.
"""

from __future__ import annotations

from .core import EmptyArchiveError, TestCase, randbelow


class ScoredTest:
    """A stored test with its heuristic for the owning target.

    ``coverage_sum`` is the sum of heuristic values over all targets at
    evaluation time, the comparison key between two covering tests.
    ``seq`` is a monotonically increasing insertion stamp; older entries
    lose ties.
    """

    __slots__ = ("test", "h", "coverage_sum", "seq")

    def __init__(self, test: TestCase, h: float, coverage_sum: float, seq: int):
        self.test = test
        self.h = h
        self.coverage_sum = coverage_sum
        self.seq = seq

    def __repr__(self):
        return f"ScoredTest(h={self.h}, seq={self.seq})"


def _worst_key(entry: ScoredTest):
    # Worst first: lowest h, then oldest.
    return (entry.h, entry.seq)


def _worst_index(entries: list) -> int:
    """Position of ``min(entries, key=_worst_key)``, compared field by field."""
    worst_i = 0
    worst = entries[0]
    for i in range(1, len(entries)):
        e = entries[i]
        if e.h < worst.h or e.h == worst.h and e.seq < worst.seq:
            worst_i = i
            worst = e
    return worst_i


class TargetPopulation:
    """Bounded set of candidate tests for one target, plus its sampling counter.

    ``worst`` caches the position of the worst entry for saves into a full
    population; it is None whenever ``entries`` changed since it was last
    computed. Covered populations never consult it.
    """

    __slots__ = ("entries", "covered", "counter", "worst")

    def __init__(self):
        self.entries: list[ScoredTest] = []
        self.covered = False
        self.counter = 0
        self.worst: int | None = None


class Archive:
    """One :class:`TargetPopulation` per target, with shared bookkeeping."""

    def __init__(self, target_count: int):
        if target_count < 1:
            raise ValueError("archive needs at least one target")
        self.populations = [TargetPopulation() for _ in range(target_count)]
        self._seq = 0
        # Uncovered, non-empty targets, with positions for O(1) swap-removal.
        self._eligible: list[int] = []
        self._eligible_pos: dict[int, int] = {}
        self._covered_ids: list[int] = []
        # len(_covered_ids), kept as an attribute because every evaluation reads it.
        self.covered_count = 0

    # -- bookkeeping ------------------------------------------------------

    def is_empty(self) -> bool:
        # Populations never empty once filled: shrink_to keeps at least one.
        return not self._eligible and not self._covered_ids

    def coverage_sum(self) -> float:
        """Sum over targets of the best heuristic stored (1 when covered)."""
        total = 0.0
        for pop in self.populations:
            if pop.covered:
                total += 1.0
            elif pop.entries:
                total += max(e.h for e in pop.entries)
        return total

    def covered_targets(self) -> list[int]:
        return list(self._covered_ids)

    def _add_eligible(self, k: int):
        self._eligible_pos[k] = len(self._eligible)
        self._eligible.append(k)

    def _remove_eligible(self, k: int):
        pos = self._eligible_pos.pop(k)
        last = self._eligible.pop()
        if last != k:
            self._eligible[pos] = last
            self._eligible_pos[last] = pos

    # -- save -------------------------------------------------------------

    def save(self, test: TestCase, h: dict, capacity: int):
        """Offer an evaluated test to every population, per the save rules.

        ``h`` maps each target with a non-zero heuristic to its value, in
        ascending target order; an absent target scores 0 and is skipped.
        For each target: a covering test (h=1) marks the target covered and
        shrinks its population to the single best covering test, replacing
        the incumbent only with a strictly larger coverage sum; a partial
        heuristic joins a non-covered population when below ``capacity``,
        else replaces the worst entry when not worse than it.

        The per-target counter resets when the population was empty or when
        the candidate strictly improves on the entry it displaced.
        """
        cov_sum = None
        pops = self.populations
        for k, hk in h.items():
            pop = pops[k]
            if hk >= 1.0:
                if cov_sum is None:
                    cov_sum = sum(h.values())
                if pop.covered:
                    if cov_sum > pop.entries[0].coverage_sum:
                        self._seq += 1
                        pop.entries[0] = ScoredTest(test, hk, cov_sum, self._seq)
                        pop.counter = 0
                else:
                    self._seq += 1
                    if pop.entries:
                        self._remove_eligible(k)
                    pop.entries = [ScoredTest(test, hk, cov_sum, self._seq)]
                    pop.covered = True
                    pop.counter = 0
                    self._covered_ids.append(k)
                    self.covered_count += 1
            else:
                if pop.covered:
                    continue
                entries = pop.entries
                if len(entries) < capacity:
                    if cov_sum is None:
                        cov_sum = sum(h.values())
                    self._seq += 1
                    if not entries:
                        pop.counter = 0
                        self._add_eligible(k)
                    entries.append(ScoredTest(test, hk, cov_sum, self._seq))
                    pop.worst = None
                else:
                    worst_i = pop.worst
                    if worst_i is None:
                        worst_i = pop.worst = _worst_index(entries)
                    worst = entries[worst_i]
                    if hk >= worst.h:
                        if cov_sum is None:
                            cov_sum = sum(h.values())
                        self._seq += 1
                        entries[worst_i] = ScoredTest(test, hk, cov_sum, self._seq)
                        pop.worst = None
                        if hk > worst.h:
                            pop.counter = 0

    # -- sampling ---------------------------------------------------------

    def sample_with_target(self, rng, fds: bool = True):
        """Draw one stored test to serve as a mutation parent.

        Picks an uncovered, non-empty target (lowest counter under
        feedback-directed sampling, uniform otherwise), then a uniformly
        random test from its population. When only covered populations
        remain, picks uniformly among those without touching any counter.
        Returns (target id, test, coverage sum of the test).
        """
        eligible = self._eligible
        if not eligible:
            if not self._covered_ids:
                raise EmptyArchiveError("no tests stored in any population")
            k = self._covered_ids[randbelow(rng, len(self._covered_ids))]
            entry = self.populations[k].entries[0]
            return k, entry.test, entry.coverage_sum
        if fds:
            pops = self.populations
            best_c = None
            ties: list[int] = []
            for k in eligible:
                c = pops[k].counter
                if best_c is None or c < best_c:
                    best_c = c
                    ties = [k]
                elif c == best_c:
                    ties.append(k)
            k = ties[0] if len(ties) == 1 else ties[randbelow(rng, len(ties))]
            pops[k].counter += 1
        else:
            k = eligible[randbelow(rng, len(eligible))]
        entries = self.populations[k].entries
        entry = entries[randbelow(rng, len(entries))]
        return k, entry.test, entry.coverage_sum

    # -- maintenance ------------------------------------------------------

    def shrink_to(self, n: int):
        """Trim every non-covered population to at most ``n`` entries.

        Drops worst entries first (lowest h, then oldest).
        Covered populations hold a single test and are never touched.
        """
        if n < 1:
            raise ValueError("capacity must be >= 1")
        for k in list(self._eligible):
            pop = self.populations[k]
            excess = len(pop.entries) - n
            if excess > 0:
                pop.entries.sort(key=_worst_key)
                del pop.entries[:excess]
                pop.worst = None

    def extract_suite(self) -> list[TestCase]:
        """The best test of every covered target, deduplicated, in target order."""
        seen: dict[TestCase, None] = {}
        for k in sorted(self._covered_ids):
            seen.setdefault(self.populations[k].entries[0].test, None)
        return list(seen)
