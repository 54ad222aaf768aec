"""The four search algorithms under comparison.

All of them share the same random test sampling, the same mutation operator
and the same archive of best tests, so any performance difference comes
from the search strategy itself:

* ``run_mio``: per-target archive populations with scheduled random
  sampling, scheduled capacities, a scheduled number of hill-climbing
  mutations per sampled parent, and feedback-directed target selection.
  Only MIO schedules the capacity; the others keep one test per target.
* ``run_mosa``: many-objective GA over single tests with preference
  sorting ahead of non-dominated ranking; offspring come from rank
  tournaments and mutation, without crossover.
* ``run_wts``: GA whose individuals are whole test suites, with suite
  fitness summed over every target, suite crossover and elitism.
* ``run_random``: uniform random sampling.

Each algorithm runs at one fixed setting, the module constants below; MIO
alone has a switch, feedback-directed sampling (FDS), which ``mio-nofds``
turns off.

Every algorithm takes its budget as a plain int, the number of evaluations
the run may make, and the run counts its own. Every test execution,
population initialization and fresh tests in new suites included, is one
step, ``_Run.evaluate``: spend one evaluation, run the test, offer it to
the archive. A run ends when the budget is used up or every target is
covered, but WTS still executes the rest of the generation it is building
after the last target is covered. WTS runs each distinct test once, so it
also ends once it has run every test the problem can make.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import floor

import numpy as np

from .archive import Archive
from .core import BudgetExhaustedError, TestCase, randbelow

# Probability of the disruptive mutation that re-randomizes the whole test.
DISRUPTIVE_MUTATION_P = 0.01
# Largest exponent of the +/- 2**i input perturbation.
MAX_STEP_EXPONENT = 10
# The fixed setting of MIO, the paper's: each (start, end) parameter moves
# linearly with the elapsed fraction of the budget until the focus point F
# and keeps its end value after it. F = 0.5; the random-sampling
# probability Pr goes 0.5 -> 0, the per-target capacity n 10 -> 1 and the
# mutations per sampled parent m 1 -> 10.
FOCUS_POINT = 0.5
RANDOM_SAMPLING_P = (0.5, 0.0)
MIO_ARCHIVE_CAPACITY = (10, 1)
MUTATIONS_PER_PARENT = (1, 10)
# The fixed settings of MOSA and WTS.
POPULATION_SIZE = 50
TOURNAMENT_SIZE = 10
WTS_MAX_SUITE_SIZE = 50
WTS_CROSSOVER_P = 0.7
# WTS suite mutation: add a test, remove one, or (the remaining third)
# mutate one.
SUITE_ADD_P = 1.0 / 3.0
SUITE_REMOVE_P = 1.0 / 3.0


@dataclass
class SearchResult:
    """Outcome of one run: the extracted suite and coverage bookkeeping."""

    suite: list
    covered_targets: tuple
    coverage_sum: float
    evaluations: int


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
    idx = randbelow(rng, len(inputs)) if len(inputs) > 1 else 0
    step = 1 << randbelow(rng, MAX_STEP_EXPONENT + 1)
    if rng.random() < 0.5:
        step = -step
    new_inputs = list(inputs)
    new_inputs[idx] = problem.input_specs[idx].clamp(inputs[idx] + step)
    return TestCase(test.id, tuple(new_inputs))


class _Run:
    """One run's problem, archive and evaluation count, and the evaluation
    step every algorithm takes; ``used`` of ``cap`` evaluations are made,
    and ``over`` is true once all are or every target is covered.
    ``problem.evaluate`` and ``archive.save`` are looked up on every call, so
    wrappers on their classes or instances see each."""

    __slots__ = ("problem", "archive", "cap", "used", "z", "over")

    def __init__(self, problem, budget: int):
        if type(budget) is not int:
            raise TypeError(f"budget must be an int, got {budget!r}")
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.problem = problem
        self.z = problem.target_count
        self.archive = Archive(self.z)
        self.cap = budget
        self.used = 0
        self.over = budget == 0

    def evaluate(self, test: TestCase, capacity: int = 1):
        """Spend one evaluation on ``test``, save it at ``capacity``; return its
        heuristics, ``{target: h}`` over the non-zero targets. Only MIO passes
        a capacity: MOSA, WTS and random search keep one test per target. An
        overdraw raises :class:`BudgetExhaustedError`, which is how WTS stops."""
        used = self.used
        if used >= self.cap:
            raise BudgetExhaustedError(f"budget of {self.cap} evaluations exhausted")
        self.used = used = used + 1
        h = self.problem.evaluate(test)
        archive = self.archive
        archive.save(test, h, capacity)
        self.over = used >= self.cap or archive.covered_count >= self.z
        return h

    def finish(self) -> SearchResult:
        archive = self.archive
        return SearchResult(
            suite=archive.extract_suite(),
            covered_targets=tuple(sorted(archive.covered_targets())),
            coverage_sum=archive.coverage_sum(),
            evaluations=self.used,
        )


# ---------------------------------------------------------------------------
# MIO
# ---------------------------------------------------------------------------


def _scheduled(param, t: float):
    """The (start, end) ``param`` at elapsed fraction ``t``."""
    start, end = param
    if t >= FOCUS_POINT:
        return end
    return start + (end - start) * (t / FOCUS_POINT)


def _scheduled_count(param, t: float) -> int:
    """An integer ``param`` at ``t``, rounded half up. Rounding a value
    between two integers cannot leave them, so the count stays in range."""
    return floor(_scheduled(param, t) + 0.5)


def run_mio(problem, budget: int, rng, fds: bool = True) -> SearchResult:
    run = _Run(problem, budget)
    archive = run.archive
    cap = run.cap
    last_n = MIO_ARCHIVE_CAPACITY[0]

    while not run.over:
        # _Run.evaluate refuses an overdraw, so t stays in [0, 1].
        t = run.used / cap
        if archive.is_empty() or rng.random() < _scheduled(RANDOM_SAMPLING_P, t):
            current, steps = None, 1
        else:
            # Up to m successive mutate-evaluate-save steps from the sampled
            # parent, hill-climbing total heuristic mass: a mutant no worse
            # than the current test becomes the next parent, so the focused
            # phase behaves like parallel (1+1) EAs.
            current, current_sum = archive.sample_with_target(rng, fds=fds)
            steps = _scheduled_count(MUTATIONS_PER_PARENT, t)
        for _ in range(steps):
            test = (problem.random_test(rng) if current is None
                    else mutate(current, problem, rng))
            # The capacity at the elapsed fraction this evaluation reaches.
            n = _scheduled_count(MIO_ARCHIVE_CAPACITY, (run.used + 1) / cap)
            h = run.evaluate(test, n)
            if n != last_n:
                archive.shrink_to(n)
                last_n = n
            if current is not None:
                test_sum = sum(h.values())
                if test_sum >= current_sum:
                    current, current_sum = test, test_sum
            if run.over:
                break
    return run.finish()


# ---------------------------------------------------------------------------
# Random search
# ---------------------------------------------------------------------------


def run_random(problem, budget: int, rng) -> SearchResult:
    run = _Run(problem, budget)
    while not run.over:
        run.evaluate(problem.random_test(rng))
    return run.finish()


# ---------------------------------------------------------------------------
# MOSA
# ---------------------------------------------------------------------------


def _dense_row(h: dict, row: np.ndarray):
    """Write the heuristics ``h`` into the float32 ``row``, one entry per
    target, zero where ``h`` has no entry; MOSA reuses rows, so every entry
    is written.

    MOSA ranks and WTS scores suites on these rows, and the pinned outputs
    were produced by float32 comparisons: values closer than float32
    precision (about 6e-8 relative) tie. Widening the rows to float64
    breaks such ties differently and changes results (the subject outputs
    pinned in bench/pins.json no longer match).
    """
    row.fill(0.0)
    for k, v in h.items():
        row[k] = v


def run_mosa(problem, budget: int, rng) -> SearchResult:
    run = _Run(problem, budget)
    archive, z = run.archive, run.z

    # rows[i] is the dense heuristic row of tests[i]: the population fills
    # rows [0, P) and its offspring rows [P, 2P).
    tests: list = []
    rows = np.empty((2 * POPULATION_SIZE, z), dtype=np.float32)
    while len(tests) < POPULATION_SIZE:
        if run.over:
            return run.finish()
        test = problem.random_test(rng)
        _dense_row(run.evaluate(test), rows[len(tests)])
        tests.append(test)

    ranks = _mosa_ranks(rows[:POPULATION_SIZE], _uncovered_ids(archive))

    while not run.over:
        while len(tests) < 2 * POPULATION_SIZE and not run.over:
            first = tests[_tournament_min(rng, ranks, TOURNAMENT_SIZE)]
            second = tests[_tournament_min(rng, ranks, TOURNAMENT_SIZE)]
            for child in (first, second):
                if len(tests) >= 2 * POPULATION_SIZE or run.over:
                    break
                child = mutate(child, problem, rng)
                _dense_row(run.evaluate(child), rows[len(tests)])
                tests.append(child)
        if run.over:
            break  # the run is over, so nothing would read a last ranking
        keep, ranks = _mosa_sort(rows, _uncovered_ids(archive), POPULATION_SIZE)
        tests = [tests[i] for i in keep]
        rows[:POPULATION_SIZE] = rows[keep]
    return run.finish()


def _uncovered_ids(archive: Archive) -> list:
    return [k for k, pop in enumerate(archive.populations) if not pop.covered]


def _tournament_min(rng, keys: list, k: int) -> int:
    """Index of the least of ``min(k, len(keys))`` uniform draws from
    ``keys``; the earliest draw wins ties.

    The draws are :func:`randbelow`'s loop written out, because a call per
    draw costs more than the draw: the same values, the same generator
    state.
    """
    n = len(keys)
    if n < 1:
        raise ValueError("tournament over no keys")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    best = getrandbits(bits)
    while best >= n:
        best = getrandbits(bits)
    best_key = keys[best]
    for _ in range(min(k, n) - 1):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        key_i = keys[i]
        if key_i < best_key:
            best, best_key = i, key_i
    return best


def _mosa_ranks(rows: np.ndarray, uncovered) -> list:
    """Rank of every row, as :func:`_mosa_sort` ranks them, but with no
    truncation, crowding or order: the initial population's tournaments
    read the ranks alone."""
    matrix = _objectives(rows, uncovered)
    if not matrix.shape[1]:
        return [0] * len(rows)
    return _fronts(matrix, len(matrix)).tolist()


def _mosa_sort(rows: np.ndarray, uncovered, keep: int):
    """Preference-then-Pareto selection of ``keep`` of the float32 ``rows``
    (see :func:`_dense_row`).

    Front 0 holds, per uncovered target, every row attaining the best
    non-zero heuristic for it over all rows, ties included. The remainder
    is ranked by non-dominated sorting over the uncovered objectives, and
    peeling stops once ``keep`` rows are ranked. Within each front up to the
    one that straddles position ``keep``, crowding distance decides, and
    equal distances keep row order. Returns (the kept row indices in
    selection order, their ranks): the first ``keep`` entries of the full
    ranking's order, since no front after the straddling one reaches them.
    """
    matrix = _objectives(rows, uncovered)
    if not matrix.shape[1]:
        return list(range(keep)), [0] * keep
    rank = _fronts(matrix, keep)
    ranked = np.flatnonzero(rank < len(matrix))
    front = rank[ranked]
    order = np.lexsort((-_crowding(matrix[ranked], front), front))
    kept = ranked[order[:keep]]
    return kept.tolist(), rank[kept].tolist()


def _objectives(rows: np.ndarray, uncovered) -> np.ndarray:
    """The uncovered objectives that some row reaches; the others cannot
    order anything. Each column kept has a positive best value, so it has a
    preferred row."""
    matrix = rows[:, uncovered]
    return matrix[:, matrix.any(axis=0)]


def _fronts(matrix: np.ndarray, stop: int) -> np.ndarray:
    """Front of each row of ``matrix``, peeled until ``stop`` rows are ranked
    (``stop`` is at most ``len(matrix)``).

    Front 0 is the preference front. The rest are non-dominated fronts
    (maximization) numbered from 1. Rows left unranked get ``len(matrix)``,
    which sorts after every front.
    """
    p = len(matrix)
    preferred = (matrix == matrix.max(axis=0)).any(axis=1)
    rank = np.where(preferred, 0, p)
    ranked = int(np.count_nonzero(preferred))
    if ranked >= stop:
        return rank
    rest = np.flatnonzero(~preferred)
    sub = matrix[rest]
    # A column constant over the rest leaves every >= between them true.
    sub = sub[:, (sub != sub[0]).any(axis=0)]
    ge = (sub[:, None, :] >= sub[None, :, :]).all(axis=2)
    dominates = ge & ~ge.T
    dominated_count = dominates.sum(axis=0)
    remaining = np.ones(len(rest), dtype=bool)
    front = 1
    while ranked < stop:
        current = remaining & (dominated_count == 0)
        rank[rest[current]] = front
        ranked += int(np.count_nonzero(current))
        remaining &= ~current
        dominated_count -= dominates[current].sum(axis=0)
        front += 1
    return rank


def _crowding(matrix: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Crowding distance of every row of ``matrix`` within its front.

    ``rank`` gives each row's front; MOSA passes the rows of the fronts it
    keeps, up to the straddling one, and a front's distances depend on its
    own members only. Per objective, one stable sort orders the rows by front,
    then by value, row order breaking ties; a front's lowest and highest
    members are infinitely far, and an interior member gets the gap between
    its neighbours over the front's range, or nothing when the range is
    empty. Members of fronts of one or two are infinitely far. Gaps sum over
    objectives left to right.
    """
    vals = matrix.astype(np.float64)
    order = np.lexsort((vals, np.broadcast_to(rank[:, None], vals.shape)), axis=0)
    cols = np.arange(vals.shape[1])
    v = vals[order, cols]
    sorted_rank = np.sort(rank)
    first = np.ones(len(rank), dtype=bool)
    first[1:] = sorted_rank[1:] != sorted_rank[:-1]
    last = np.roll(first, -1)  # the next row starts a front, or none follows
    segment = np.cumsum(first) - 1
    lo = v[first][segment]
    span = v[last][segment] - lo
    gaps = np.zeros_like(v)
    np.divide(v[2:] - v[:-2], span[1:-1], out=gaps[1:-1], where=span[1:-1] > 0)
    gaps[first | last] = np.inf
    per_member = np.empty_like(gaps)
    per_member[order, cols] = gaps
    # cumsum adds strictly left to right; sum() would add pairwise and
    # round differently from the per-objective loop it replaces.
    return np.cumsum(per_member, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# Whole-suite GA
# ---------------------------------------------------------------------------


def run_wts(problem, budget: int, rng) -> SearchResult:
    """Whole-suite GA.

    Every executed test's dense heuristic row is written once into a
    run-wide float32 row table of one row per evaluation; ``dense`` maps
    each executed test to its row number, which keeps a structurally equal
    test from being executed twice. A suite is a list of row numbers,
    and each new test runs as soon as its suite is made. The initial
    population, and then each generation's offspring, are scored together
    by :func:`_suite_scores`. An exhausted budget ends the run; as no test
    runs twice, the budget is capped at ``problem.test_count``, so having
    run every test ends the run too.
    """
    run = _Run(problem, budget)
    run.cap = min(run.cap, problem.test_count)
    tests: list = []  # row number -> test
    dense: dict = {}  # test -> row number, filled once per executed test
    table = np.zeros((run.cap, run.z), dtype=np.float32)

    def row_of(test: TestCase) -> int:
        """Row number of ``test``, executing it first when it is new."""
        row = dense.get(test)
        if row is None:
            h = run.evaluate(test)
            row = dense[test] = len(tests)
            _dense_row(h, table[row])
            tests.append(test)
        return row

    try:
        population: list = []
        while len(population) < POPULATION_SIZE:
            if run.over:
                return run.finish()
            size = 1 + randbelow(rng, WTS_MAX_SUITE_SIZE)
            population.append([row_of(problem.random_test(rng)) for _ in range(size)])

        fits = _suite_scores(table, population)

        while not run.over:
            # (fitness, index) keys: the tournaments and the elite take the
            # lowest fitness, and the lowest index among equals.
            keys = list(zip(fits, range(len(fits))))
            offspring: list = [list(population[min(keys)[1]])]
            while len(offspring) < POPULATION_SIZE:
                i = _tournament_min(rng, keys, TOURNAMENT_SIZE)
                j = _tournament_min(rng, keys, TOURNAMENT_SIZE)
                if rng.random() < WTS_CROSSOVER_P:
                    c1, c2 = _suite_crossover(population[i], population[j], rng)
                else:
                    c1, c2 = list(population[i]), list(population[j])
                for child in (c1, c2):
                    # The second child of the last pair is still mutated,
                    # which draws from rng, but it is never kept or run.
                    member = _mutate_suite(child, tests, problem, rng)
                    if len(offspring) < POPULATION_SIZE:
                        if member is not None:
                            k, test = member
                            child[k] = row_of(test)
                        offspring.append(child)
            # Plus-selection: parents and offspring compete for the next round.
            pool = population + offspring
            pool_fits = fits + _suite_scores(table, offspring)
            # A stable sort: equal fitnesses keep their pool order.
            order = sorted(range(len(pool)), key=pool_fits.__getitem__)
            keep = order[:POPULATION_SIZE]
            population = [pool[i] for i in keep]
            fits = [pool_fits[i] for i in keep]
    except BudgetExhaustedError:
        pass
    return run.finish()


def _suite_scores(table: np.ndarray, suites: list) -> list:
    """WTS fitness of each suite of row numbers into ``table``: the row
    length z minus the float32 sum of the elementwise maximum of its member
    rows, lower being better.

    One gather of every member row and one ``maximum.reduceat`` at the suite
    boundaries give each suite's maximum row; a float32 maximum is exact, so
    it does not depend on how members are grouped. Each maximum row is
    summed by numpy along its axis, which the tests hold equal, bit for bit,
    to summing that row alone.
    """
    sizes = [len(suite) for suite in suites]
    members = np.fromiter(chain.from_iterable(suites), dtype=np.intp, count=sum(sizes))
    starts = np.cumsum(sizes) - sizes
    best = np.maximum.reduceat(table[members], starts, axis=0)
    z = table.shape[1]
    return [z - total for total in best.sum(axis=1).tolist()]


def _suite_crossover(p1: list, p2: list, rng):
    alpha = rng.random()
    i = int(round(alpha * len(p1)))
    j = int(round(alpha * len(p2)))
    c1 = (p1[:i] + p2[j:])[:WTS_MAX_SUITE_SIZE]
    c2 = (p2[:j] + p1[i:])[:WTS_MAX_SUITE_SIZE]
    return (c1 or list(p1), c2 or list(p2))


def _mutate_suite(suite: list, tests: list, problem, rng):
    """Add a test, remove one or mutate one, in place. Returns the member
    added or changed as (position, test), its slot left as None for the
    caller to fill with the test's row; None when no member is new."""
    roll = rng.random()
    if roll < SUITE_ADD_P:
        if len(suite) < WTS_MAX_SUITE_SIZE:
            suite.append(None)
            return len(suite) - 1, problem.random_test(rng)
    elif roll < SUITE_ADD_P + SUITE_REMOVE_P:
        if len(suite) > 1:
            del suite[randbelow(rng, len(suite))]
    else:
        i = randbelow(rng, len(suite))
        test = mutate(tests[suite[i]], problem, rng)
        suite[i] = None
        return i, test
    return None
