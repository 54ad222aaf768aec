"""The four search algorithms under comparison.

All of them share the same random test sampling, the same mutation operator
and the same archive of best tests, so any performance difference comes
from the search strategy itself:

* ``run_mio``: per-target archive populations with scheduled random
  sampling, scheduled capacities, a scheduled number of hill-climbing
  mutations per sampled parent, and feedback-directed target selection.
* ``run_mosa``: many-objective GA over single tests with preference
  sorting ahead of non-dominated ranking.
* ``run_wts``: GA whose individuals are whole test suites, with suite
  fitness summed over every target.
* ``run_random``: uniform random sampling.

Every test execution consumes exactly one unit of budget, including
population initialization and the evaluation of fresh tests inside newly
created suites. A run terminates when the budget is spent or every target
is covered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .archive import Archive
from .core import Budget, ParameterSchedule, TestCase

# Probability of the disruptive mutation that re-randomizes the whole test.
DISRUPTIVE_MUTATION_P = 0.01
# Largest exponent of the +/- 2**i input perturbation.
MAX_STEP_EXPONENT = 10
# Per-target population capacity used by the algorithms that do not
# schedule it (MOSA, WTS, random search share the archive machinery).
FIXED_ARCHIVE_CAPACITY = 10


@dataclass(frozen=True)
class MioConfig:
    """MIO's parameter schedule (validated when it is built) and the FDS switch."""

    schedule: ParameterSchedule = ParameterSchedule()
    fds_enabled: bool = True

    def __post_init__(self):
        if not isinstance(self.schedule, ParameterSchedule):
            raise TypeError(f"schedule must be a ParameterSchedule, got {self.schedule!r}")


@dataclass(frozen=True)
class MosaConfig:
    population_size: int = 50
    tournament_size: int = 10
    crossover_enabled: bool = False
    crossover_probability: float = 0.75

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be in [0, 1]")


@dataclass(frozen=True)
class WtsConfig:
    population_size: int = 50
    max_suite_size: int = 50
    crossover_probability: float = 0.7
    add_weight: float = 1.0 / 3.0
    remove_weight: float = 1.0 / 3.0
    modify_weight: float = 1.0 / 3.0
    tournament_size: int = 10

    def __post_init__(self):
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ValueError("crossover_probability must be in [0, 1]")
        total = self.add_weight + self.remove_weight + self.modify_weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError("suite mutation weights must sum to 1")


@dataclass
class SearchResult:
    """Outcome of one run: the extracted suite and coverage bookkeeping."""

    suite: list = field(default_factory=list)
    covered_trace: list = field(default_factory=list)
    covered_count: int = 0
    covered_targets: tuple = ()
    coverage_sum: float = 0.0
    evaluations: int = 0


def mutate(test: TestCase, problem, rng) -> TestCase:
    """One mutation step shared by every algorithm.

    With low probability the change is disruptive and the whole test is
    re-randomized (id included). Otherwise one uniformly chosen numeric
    input moves by +/- 2**i for a uniform i in [0, 10], clamped to its
    valid range.
    """
    if rng.random() < DISRUPTIVE_MUTATION_P:
        return problem.random_test(rng)
    inputs = test.inputs
    idx = rng.randrange(len(inputs)) if len(inputs) > 1 else 0
    step = 1 << rng.randint(0, MAX_STEP_EXPONENT)
    if rng.random() < 0.5:
        step = -step
    new_inputs = list(inputs)
    new_inputs[idx] = problem.input_specs[idx].clamp(inputs[idx] + step)
    return TestCase(test.id, tuple(new_inputs), test.size)


def _finish(archive: Archive, trace: list, budget: Budget) -> SearchResult:
    return SearchResult(
        suite=archive.extract_suite(),
        covered_trace=trace,
        covered_count=archive.covered_count,
        covered_targets=tuple(sorted(archive.covered_targets())),
        coverage_sum=archive.coverage_sum(),
        evaluations=budget.used_evaluations,
    )


# ---------------------------------------------------------------------------
# MIO
# ---------------------------------------------------------------------------


def run_mio(problem, config: MioConfig, budget: Budget, rng) -> SearchResult:
    schedule = config.schedule
    z = problem.target_count
    archive = Archive(z)
    trace: list = []
    last_n = schedule.n_start

    while budget.has_remaining() and archive.covered_count < z:
        t = budget.elapsed_fraction()
        if archive.is_empty() or rng.random() < schedule.pr(t):
            test = problem.random_test(rng)
            last_n = _mio_evaluate(problem, test, archive, budget, schedule, last_n, trace)[1]
        else:
            # Up to m successive mutate-evaluate-save steps from the sampled
            # parent, hill-climbing total heuristic mass: a mutant no worse
            # than the current test becomes the next parent, so the focused
            # phase behaves like parallel (1+1) EAs.
            _, current, current_sum = archive.sample_with_target(rng, fds=config.fds_enabled)
            for _ in range(schedule.m(t)):
                if not budget.has_remaining() or archive.covered_count >= z:
                    break
                mutant = mutate(current, problem, rng)
                h, last_n = _mio_evaluate(
                    problem, mutant, archive, budget, schedule, last_n, trace
                )
                mutant_sum = h.sum()
                if mutant_sum >= current_sum:
                    current = mutant
                    current_sum = mutant_sum
    return _finish(archive, trace, budget)


def _mio_evaluate(problem, test, archive, budget, schedule, last_n, trace):
    budget.consume()
    h = problem.evaluate(test)
    n_now = schedule.n(budget.elapsed_fraction())
    archive.save(test, h, n_now)
    if n_now != last_n:
        archive.shrink_to(n_now)
    trace.append(archive.covered_count)
    return h, n_now


# ---------------------------------------------------------------------------
# Random search
# ---------------------------------------------------------------------------


def run_random(problem, budget: Budget, rng) -> SearchResult:
    z = problem.target_count
    archive = Archive(z)
    trace: list = []
    while budget.has_remaining() and archive.covered_count < z:
        test = problem.random_test(rng)
        budget.consume()
        archive.save(test, problem.evaluate(test), FIXED_ARCHIVE_CAPACITY)
        trace.append(archive.covered_count)
    return _finish(archive, trace, budget)


# ---------------------------------------------------------------------------
# MOSA
# ---------------------------------------------------------------------------


def run_mosa(problem, config: MosaConfig, budget: Budget, rng) -> SearchResult:
    z = problem.target_count
    archive = Archive(z)
    trace: list = []

    population: list = []  # (test, dense heuristic row) pairs
    while len(population) < config.population_size:
        if not budget.has_remaining() or archive.covered_count >= z:
            return _finish(archive, trace, budget)
        test = problem.random_test(rng)
        budget.consume()
        h = problem.evaluate(test)
        archive.save(test, h, FIXED_ARCHIVE_CAPACITY)
        trace.append(archive.covered_count)
        population.append((test, h.dense()))

    ranks = _mosa_sort(population, _uncovered_ids(archive, z))[1]

    while budget.has_remaining() and archive.covered_count < z:
        offspring: list = []
        while len(offspring) < config.population_size:
            if not budget.has_remaining() or archive.covered_count >= z:
                break
            rank_key = lambda i: ranks[i]
            first = population[
                _tournament_min(rng, len(population), config.tournament_size, rank_key)
            ][0]
            second = population[
                _tournament_min(rng, len(population), config.tournament_size, rank_key)
            ][0]
            if config.crossover_enabled and rng.random() < config.crossover_probability:
                children = _test_crossover(first, second, rng)
            else:
                children = (first, second)
            for child in children:
                if len(offspring) >= config.population_size:
                    break
                if not budget.has_remaining() or archive.covered_count >= z:
                    break
                child = mutate(child, problem, rng)
                budget.consume()
                h = problem.evaluate(child)
                archive.save(child, h, FIXED_ARCHIVE_CAPACITY)
                trace.append(archive.covered_count)
                offspring.append((child, h.dense()))
        combined = population + offspring
        uncovered = _uncovered_ids(archive, z)
        order, ranks_all = _mosa_sort(combined, uncovered)
        keep = order[: config.population_size]
        population = [combined[i] for i in keep]
        ranks = [ranks_all[i] for i in keep]
    return _finish(archive, trace, budget)


def _uncovered_ids(archive: Archive, z: int) -> list:
    covered = set(archive.covered_targets())
    return [k for k in range(z) if k not in covered]


def _tournament_min(rng, pool_size: int, k: int, key) -> int:
    best = rng.randrange(pool_size)
    best_key = key(best)
    for _ in range(min(k, pool_size) - 1):
        i = rng.randrange(pool_size)
        key_i = key(i)
        if key_i < best_key:
            best, best_key = i, key_i
    return best


def _test_crossover(t1: TestCase, t2: TestCase, rng):
    """Single-point crossover over the (id, inputs...) genome."""
    g1 = (t1.id,) + t1.inputs
    g2 = (t2.id,) + t2.inputs
    cut = rng.randint(1, len(g1) - 1)
    c1 = g1[:cut] + g2[cut:]
    c2 = g2[:cut] + g1[cut:]
    return (
        TestCase(c1[0], c1[1:], t1.size),
        TestCase(c2[0], c2[1:], t2.size),
    )


def _mosa_sort(population, uncovered):
    """Preference-then-Pareto ranking of (test, dense row) pairs.

    Front 0 holds, per uncovered target, every individual attaining the
    population-wide best non-zero heuristic for it, ties included. The
    remainder is ranked by non-dominated sorting over the uncovered
    objectives; crowding distance breaks ties within a front, and equal
    distances keep population order. Rows are float32 (see
    :meth:`HeuristicVector.dense`). Returns (selection order, rank per
    individual).
    """
    p = len(population)
    matrix = np.stack([row for _, row in population])[:, uncovered]
    # Drop objectives nobody reaches; they cannot order anything. Each one
    # left has a positive best value, so every column has a preferred row.
    matrix = matrix[:, matrix.any(axis=0)]
    if not matrix.shape[1]:
        return list(range(p)), [0] * p
    rank = np.zeros(p, dtype=np.intp)
    rest = np.flatnonzero(~(matrix == matrix.max(axis=0)).any(axis=1))
    if len(rest):
        # Fast non-dominated sort (maximization) of the rest, fronts from 1.
        sub = matrix[rest]
        ge = (sub[:, None, :] >= sub[None, :, :]).all(axis=2)
        dominates = ge & ~ge.T
        dominated_count = dominates.sum(axis=0)
        remaining = np.ones(len(rest), dtype=bool)
        front = 1
        while remaining.any():
            current = remaining & (dominated_count == 0)
            rank[rest[current]] = front
            remaining &= ~current
            dominated_count -= dominates[current].sum(axis=0)
            front += 1
    return np.lexsort((-_crowding(matrix, rank), rank)).tolist(), rank.tolist()


def _crowding(matrix: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of every individual within its front.

    Per objective, a front's lowest and highest members (population order
    breaking ties) are infinitely far; an interior member gets the gap
    between its neighbours over the front's range, or nothing when the
    range is empty. Members of fronts of one or two are infinitely far.
    Gaps sum over objectives left to right.
    """
    vals = matrix.astype(np.float64)
    by_value = np.argsort(vals, axis=0, kind="stable")
    # Regroup each column by front, keeping value order inside a front.
    by_front = np.argsort(rank[by_value], axis=0, kind="stable")
    order = np.take_along_axis(by_value, by_front, axis=0)
    v = np.take_along_axis(vals, order, axis=0)
    sorted_rank = np.sort(rank)
    boundary = sorted_rank[1:] != sorted_rank[:-1]
    first = np.concatenate(([True], boundary))
    last = np.concatenate((boundary, [True]))
    segment = np.cumsum(first) - 1
    lo = v[first][segment]
    span = v[last][segment] - lo
    gaps = np.zeros_like(v)
    np.divide(v[2:] - v[:-2], span[1:-1], out=gaps[1:-1], where=span[1:-1] > 0)
    gaps[first | last] = np.inf
    per_member = np.empty_like(gaps)
    np.put_along_axis(per_member, order, gaps, axis=0)
    # cumsum adds strictly left to right; sum() would add pairwise and
    # round differently from the per-objective loop it replaces.
    return np.cumsum(per_member, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Whole-suite GA
# ---------------------------------------------------------------------------


def run_wts(problem, config: WtsConfig, budget: Budget, rng) -> SearchResult:
    """Whole-suite GA.

    A suite is a list of (test, dense heuristic row) members. A member keeps
    its row through crossover and unchanged copies; a new or mutated member
    carries None until ``execute_missing`` fills it in, so only those are
    looked up in ``dense``, the rows of every test executed so far, which
    keeps a structurally equal test from being executed twice.
    """
    z = problem.target_count
    archive = Archive(z)
    trace: list = []
    dense: dict = {}  # test -> dense heuristic row, filled once per executed test

    def execute_missing(suite: list) -> bool:
        """Evaluate any not-yet-run test; False when the budget dies first."""
        for i, (test, row) in enumerate(suite):
            if row is not None:
                continue
            row = dense.get(test)
            if row is None:
                if not budget.has_remaining():
                    return False
                budget.consume()
                h = problem.evaluate(test)
                archive.save(test, h, FIXED_ARCHIVE_CAPACITY)
                trace.append(archive.covered_count)
                row = dense[test] = h.dense()
            suite[i] = (test, row)
        return True

    def fitness(suite: list) -> float:
        best = suite[0][1]
        if len(suite) > 1:
            best = np.maximum.reduce([row for _, row in suite])
        return z - float(best.sum())

    population: list = []
    while len(population) < config.population_size:
        if not budget.has_remaining() or archive.covered_count >= z:
            return _finish(archive, trace, budget)
        suite = [
            (problem.random_test(rng), None)
            for _ in range(rng.randint(1, config.max_suite_size))
        ]
        if not execute_missing(suite):
            return _finish(archive, trace, budget)
        population.append(suite)

    fits = [fitness(s) for s in population]

    while budget.has_remaining() and archive.covered_count < z:
        elite = min(range(len(population)), key=lambda i: (fits[i], i))
        offspring: list = [list(population[elite])]
        while len(offspring) < config.population_size:
            i = _tournament_min(
                rng, len(population), config.tournament_size,
                key=lambda i: (fits[i], i),
            )
            j = _tournament_min(
                rng, len(population), config.tournament_size,
                key=lambda i: (fits[i], i),
            )
            if rng.random() < config.crossover_probability:
                c1, c2 = _suite_crossover(
                    population[i], population[j], config.max_suite_size, rng
                )
            else:
                c1, c2 = list(population[i]), list(population[j])
            for child in (c1, c2):
                _mutate_suite(child, problem, config, rng)
                if len(offspring) < config.population_size:
                    offspring.append(child)
        alive: list = []
        for suite in offspring:
            if not execute_missing(suite):
                break
            alive.append(suite)
        if len(alive) < len(offspring):
            break
        # Plus-selection: parents and offspring compete for the next round.
        pool = population + alive
        pool_fits = fits + [fitness(s) for s in alive]
        order = sorted(range(len(pool)), key=lambda i: (pool_fits[i], i))
        keep = order[: config.population_size]
        population = [pool[i] for i in keep]
        fits = [pool_fits[i] for i in keep]
    return _finish(archive, trace, budget)


def _suite_crossover(p1: list, p2: list, max_size: int, rng):
    alpha = rng.random()
    i = int(round(alpha * len(p1)))
    j = int(round(alpha * len(p2)))
    c1 = (p1[:i] + p2[j:])[:max_size]
    c2 = (p2[:j] + p1[i:])[:max_size]
    return (c1 or list(p1), c2 or list(p2))


def _mutate_suite(suite: list, problem, config: WtsConfig, rng):
    roll = rng.random()
    if roll < config.add_weight:
        if len(suite) < config.max_suite_size:
            suite.append((problem.random_test(rng), None))
    elif roll < config.add_weight + config.remove_weight:
        if len(suite) > 1:
            del suite[rng.randrange(len(suite))]
    else:
        i = rng.randrange(len(suite))
        suite[i] = (mutate(suite[i][0], problem, rng), None)
