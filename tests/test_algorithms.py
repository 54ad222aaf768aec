import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suitesearch import algorithms
from suitesearch.algorithms import (
    TOURNAMENT_SIZE,
    _crowding,
    _dense_row,
    _fronts,
    _mosa_sort,
    _suite_scores,
    _tournament_min,
    mutate,
    run_mio,
    run_mosa,
    run_random,
    run_wts,
)
from suitesearch.archive import Archive
from suitesearch.core import TestCase
from suitesearch.problems import ARTIFICIAL_KINDS, SUT_NAMES, ArtificialProblem, SutProblem

ALGORITHMS = {
    "mio": run_mio,
    "mosa": run_mosa,
    "wts": run_wts,
    "random": run_random,
}
# sha256 of every evaluated test, covered_targets, coverage_sum.hex(), suite
# and evaluations of the WTS runs of
# TestWtsExecution.test_evaluation_sequence_pinned.
WTS_SEQUENCE_DIGEST = "a4924f70df06641fa91b62604001602be03834089fe59b67165bc229bae92a9a"


class ScriptedRandom:
    """Replays a fixed sequence of draws; order documents the operator."""

    def __init__(self, script):
        self.script = list(script)

    def _next(self, kind):
        which, value = self.script.pop(0)
        assert which == kind, f"expected a {which} draw, operator asked for {kind}"
        return value

    def random(self):
        return self._next("random")

    def getrandbits(self, k):
        return self._next("getrandbits")


class TestMutate:
    def setup_method(self):
        self.problem = ArtificialProblem("gradient", (500,), r=1000)

    # The step exponent is one 4-bit draw, accepted because it is below 11.
    def test_power_of_two_step(self):
        # No disruption, exponent 3, positive sign: 500 + 2**3 = 508.
        rng = ScriptedRandom([("random", 0.5), ("getrandbits", 3), ("random", 0.9)])
        out = mutate(TestCase(0, (500,)), self.problem, rng)
        assert out.inputs == (508,)
        assert out.id == 0

    def test_negative_step(self):
        rng = ScriptedRandom([("random", 0.5), ("getrandbits", 3), ("random", 0.1)])
        out = mutate(TestCase(0, (500,)), self.problem, rng)
        assert out.inputs == (492,)

    def test_step_clamped_to_range(self):
        rng = ScriptedRandom([("random", 0.5), ("getrandbits", 0), ("random", 0.9)])
        out = mutate(TestCase(0, (1000,)), self.problem, rng)
        assert out.inputs == (1000,)

    def test_disruptive_mutation_rerandomizes_everything(self):
        problem = ArtificialProblem("gradient", tuple([500] * 8), r=1000)
        seen_ids = set()
        for seed in range(200):
            rng = random.Random(seed)
            if rng.random() >= 0.01:
                continue
            out = mutate(TestCase(3, (must := 500,)), problem, random.Random(seed))
            assert 0 <= out.id < 8
            assert 0 <= out.inputs[0] <= 1000
            seen_ids.add(out.id)
        assert seen_ids  # the 1% branch fired for some seed

    def test_multi_input_mutation_changes_one_input(self):
        problem = SutProblem("triangle")
        base = problem.random_test(random.Random(1))
        for seed in range(2, 60):
            rng = random.Random(seed)
            if rng.random() < 0.01:
                continue
            out = mutate(base, problem, random.Random(seed))
            changed = sum(a != b for a, b in zip(base.inputs, out.inputs))
            assert changed <= 1

    def test_mutation_respects_sut_ranges(self):
        problem = SutProblem("expint")
        test = problem.random_test(random.Random(2))
        for seed in range(300):
            test = mutate(test, problem, random.Random(seed))
            for v, spec in zip(test.inputs, problem.input_specs):
                assert spec.low <= v <= spec.high


def _reference_tournament_min(rng, pool_size, k, key):
    """The tournament as it read with one ``randrange`` call per draw."""
    best = rng.randrange(pool_size)
    best_key = key(best)
    for _ in range(min(k, pool_size) - 1):
        i = rng.randrange(pool_size)
        key_i = key(i)
        if key_i < best_key:
            best, best_key = i, key_i
    return best


class TestTournament:
    @given(
        seed=st.integers(0, 2**32),
        keys=st.one_of(
            # MOSA's ranks, and WTS's (fitness, index) keys with repeated
            # fitness values so that ties are common.
            st.lists(st.integers(0, 5), min_size=1, max_size=130),
            st.lists(st.sampled_from([0.0, 0.5, 1.5, 2.0]), min_size=1, max_size=130).map(
                lambda fits: list(zip(fits, range(len(fits))))
            ),
        ),
        rounds=st.integers(1, 4),
    )
    def test_matches_randrange_tournament(self, seed, keys, rounds):
        # Up to 130 keys: pools both smaller and larger than the tournament.
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(rounds):
            got = _tournament_min(rng, keys)
            want = _reference_tournament_min(twin, len(keys), TOURNAMENT_SIZE, keys.__getitem__)
            assert got == want
        assert rng.getstate() == twin.getstate()

    def test_no_keys_rejected(self):
        with pytest.raises(ValueError):
            _tournament_min(random.Random(1), [])


def small_problem(seed=1, z=5):
    return ArtificialProblem.random_instance("gradient", random.Random(seed), z=z)


class TestBudgetDiscipline:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_zero_budget_runs_nothing(self, name):
        result = ALGORITHMS[name](small_problem(), 0, random.Random(1))
        assert result.evaluations == 0
        assert result.suite == []

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_single_evaluation_budget(self, name):
        result = ALGORITHMS[name](small_problem(), 1, random.Random(1))
        assert result.evaluations == 1

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_never_overdraws_and_every_evaluation_is_saved(self, name, monkeypatch):
        # Every execution of a test is one evaluation, offered once to the
        # archive: the calls to problem.evaluate and to Archive.save both
        # match the budget spent, one for one and in the same order.
        saved = []
        save = Archive.save

        def counting_save(archive, test, h, capacity):
            saved.append(test)
            return save(archive, test, h, capacity)

        monkeypatch.setattr(Archive, "save", counting_save)
        for seed in (1, 2, 3):
            problem = small_problem(seed)
            calls = []
            saved.clear()
            evaluate = problem.evaluate

            def counting_evaluate(test):
                calls.append(test)
                return evaluate(test)

            problem.evaluate = counting_evaluate
            result = ALGORITHMS[name](problem, 137, random.Random(seed))
            assert result.evaluations <= 137
            assert len(calls) == result.evaluations
            assert saved == calls

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_full_coverage_terminates_early(self, name):
        problem = ArtificialProblem("gradient", (3, 7), r=10)
        result = ALGORITHMS[name](problem, 5000, random.Random(3))
        assert len(result.covered_targets) == 2
        assert result.evaluations < 5000

    def test_population_larger_than_budget_still_yields_archive(self):
        # MOSA terminates during initialization but keeps what it saw.
        problem = ArtificialProblem("gradient", (5,), r=10)
        result = run_mosa(problem, 20, random.Random(0))
        assert result.evaluations == 20 or len(result.covered_targets) == 1

    def test_wts_at_low_budget_spends_everything_on_initialization(self):
        # Expected first-population cost is 50 * (50/2) = 1250 > 1000.
        problem = small_problem(9, z=20)
        for seed in range(5):
            result = run_wts(problem, 1000, random.Random(seed))
            assert result.evaluations == 1000


class TestReproducibility:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_same_seed_same_run(self, name):
        problem = small_problem(11, z=8)
        a = ALGORITHMS[name](problem, 600, random.Random(42))
        b = ALGORITHMS[name](problem, 600, random.Random(42))
        assert a.suite == b.suite
        assert a.evaluations == b.evaluations
        assert a.coverage_sum == b.coverage_sum
        assert a.covered_targets == b.covered_targets

    def test_different_seeds_usually_differ(self):
        problem = small_problem(11, z=8)
        a = run_mio(problem, 600, random.Random(1))
        b = run_mio(problem, 600, random.Random(2))
        # Both runs cover all 8 targets with the same suite; they differ in
        # how many evaluations that took.
        assert a.evaluations != b.evaluations


class TestArchiveCapacity:
    # Every family, with budgets that end some runs in initialization and
    # let others reach the search.
    CASES = [
        (kind, z, budget, seed)
        for kind in ARTIFICIAL_KINDS
        for z in (1, 5, 30)
        for budget in (60, 400)
        for seed in (0, 1)
    ] + [
        (name, None, budget, seed)
        for name in SUT_NAMES
        for budget in (60, 400)
        for seed in (0, 1)
    ]

    @staticmethod
    def _runs(monkeypatch):
        """A runner of one case at a forced capacity (None: the algorithm's
        own), returning the evaluated tests, the result and the populations
        of the run's archive."""
        save = Archive.save
        forced = saved_to = None

        def forcing_save(archive, test, h, capacity):
            nonlocal saved_to
            saved_to = archive
            return save(archive, test, h, capacity if forced is None else forced)

        monkeypatch.setattr(Archive, "save", forcing_save)

        def run(name, case, capacity=None):
            nonlocal forced
            family, z, budget, seed = case
            if z is None:
                problem = SutProblem(family)
            else:
                problem = ArtificialProblem.random_instance(family, random.Random(seed), z)
            executed = []
            evaluate = problem.evaluate

            def recording_evaluate(test):
                executed.append(test)
                return evaluate(test)

            problem.evaluate = recording_evaluate
            forced = capacity
            r = ALGORITHMS[name](problem, budget, random.Random(seed))
            result = (r.suite, r.covered_targets, r.coverage_sum.hex(), r.evaluations)
            return executed, result, saved_to.populations

        return run

    @pytest.mark.parametrize("name", ["mosa", "wts", "random"])
    def test_non_mio_results_do_not_depend_on_capacity(self, name, monkeypatch):
        # These never sample the archive, and a save never lowers the best h
        # an uncovered target stores, so one test per target gives the same
        # evaluations and results as ten.
        run = self._runs(monkeypatch)
        largest = 0
        for case in self.CASES:
            own = run(name, case)
            assert run(name, case, capacity=1)[:2] == own[:2]
            assert run(name, case, capacity=10)[:2] == own[:2]
            largest = max([largest] + [len(pop.entries) for pop in own[2]])
        # And they keep only that one test.
        assert largest == 1

    def test_mio_results_depend_on_capacity(self, monkeypatch):
        # MIO samples its parents from the populations, so the check above
        # would catch an algorithm that reads them.
        run = self._runs(monkeypatch)
        differ = [run("mio", case)[:2] != run("mio", case, capacity=10)[:2] for case in self.CASES]
        assert all(differ)


class TestMioBehaviour:
    def test_single_smooth_target_almost_always_covered(self):
        # 100 seeded runs on a one-target gradient instance: nearly all cover.
        covered = 0
        for seed in range(100):
            problem = ArtificialProblem.random_instance(
                "gradient", random.Random(1000 + seed), z=1
            )
            result = run_mio(problem, 1000, random.Random(seed))
            covered += len(result.covered_targets)
        assert covered >= 95

    def test_fds_toggle_changes_sampling(self):
        problem = ArtificialProblem.random_instance(
            "infeasible", random.Random(5), z=30
        )
        with_fds = run_mio(problem, 800, random.Random(3))
        without = run_mio(problem, 800, random.Random(3), fds=False)
        assert (with_fds.covered_targets, with_fds.coverage_sum) != (
            without.covered_targets, without.coverage_sum
        )

    def test_counters_of_covered_targets_are_never_read(self, monkeypatch):
        # FDS picks among uncovered targets only, and a covered target stays
        # covered. So scrambling every covered target's counter after each
        # save leaves the run unchanged, while scrambling the uncovered ones
        # changes some run.
        save = Archive.save
        scramble = None
        noise = random.Random(0)

        def scrambling_save(archive, test, h, capacity):
            save(archive, test, h, capacity)
            if scramble is not None:
                for pop in archive.populations:
                    if pop.covered == scramble:
                        pop.counter = noise.randrange(50)

        monkeypatch.setattr(Archive, "save", scrambling_save)

        def run(case, scrambled):
            nonlocal scramble
            family, z, budget, seed = case
            if z is None:
                problem = SutProblem(family)
            else:
                problem = ArtificialProblem.random_instance(family, random.Random(seed), z)
            executed = []
            evaluate = problem.evaluate

            def recording_evaluate(test):
                executed.append(test)
                return evaluate(test)

            problem.evaluate = recording_evaluate
            scramble = scrambled
            r = run_mio(problem, budget, random.Random(seed))
            return executed, (r.suite, r.covered_targets, r.coverage_sum.hex(), r.evaluations)

        cases = [
            (kind, z, budget, seed)
            for kind in ARTIFICIAL_KINDS
            for z in (1, 5, 30)
            for budget in (400, 2000)
            for seed in (0, 1)
        ] + [(name, None, 1500, seed) for name in SUT_NAMES for seed in (0, 1)]
        changed = 0
        for case in cases:
            own = run(case, None)
            assert run(case, True) == own, case
            changed += run(case, False) != own
        assert changed > 0

    def test_suite_contains_only_covering_tests(self):
        problem = small_problem(13, z=6)
        result = run_mio(problem, 800, random.Random(5))
        assert len(result.suite) <= len(result.covered_targets)
        for test in result.suite:
            h = problem.evaluate(test)
            assert any(v == 1.0 for _, v in h.items())


def _reference_mosa_sort(rows):
    """Loop form of ``_mosa_sort`` over dense float32-exact rows of the
    uncovered objectives: one front at a time, one objective at a time.
    Returns (order, ranks, reachable objectives' rows, crowding distances)."""
    p = len(rows)
    alive = [j for j in range(len(rows[0])) if any(r[j] > 0.0 for r in rows)]
    if not alive:
        return list(range(p)), [0] * p, [], []
    rows = [[r[j] for j in alive] for r in rows]
    best = [max(r[j] for r in rows) for j in range(len(alive))]
    fronts = [[i for i in range(p) if any(v == b for v, b in zip(rows[i], best))]]
    rest = [i for i in range(p) if i not in fronts[0]]

    def dominates(a, b):
        return rows[a] != rows[b] and all(x >= y for x, y in zip(rows[a], rows[b]))

    while rest:
        fronts.append([i for i in rest if not any(dominates(j, i) for j in rest)])
        rest = [i for i in rest if i not in fronts[-1]]
    order, ranks, dist = [], [0] * p, [0.0] * p
    for rank, front in enumerate(fronts):
        _reference_crowding(rows, front, dist)
        for i in front:
            ranks[i] = rank
        order.extend(sorted(front, key=lambda i: -dist[i]))
    return order, ranks, rows, dist


def _reference_crowding(rows, front, dist):
    """Adds the crowding distance of each front member to ``dist``."""
    for j in range(len(rows[0])):
        by_value = sorted(front, key=lambda i: rows[i][j])
        lo, hi = rows[by_value[0]][j], rows[by_value[-1]][j]
        for pos, i in enumerate(by_value):
            if pos == 0 or pos == len(by_value) - 1:
                dist[i] = math.inf
            elif hi > lo:
                gap = rows[by_value[pos + 1]][j] - rows[by_value[pos - 1]][j]
                dist[i] += gap / (hi - lo)


class TestDenseRow:
    def test_float32_row_round_trip(self):
        # A row of ones stands for a reused row: every entry is rewritten.
        row = np.ones(4, dtype=np.float32)
        _dense_row({2: 0.25}, row)
        assert row.dtype == np.float32
        assert row.tolist() == [0.0, 0.0, 0.25, 0.0]


class TestMosaRanking:
    def _rows(self, rows):
        return np.array(rows, dtype=np.float32)

    def _ranks(self, rows, uncovered):
        """Every row's rank under :func:`_mosa_sort` keeping all rows, in
        row order, as MOSA ranks its initial population."""
        kept, kept_ranks = _mosa_sort(rows, uncovered, len(rows))
        assert sorted(kept) == list(range(len(rows)))
        ranks = [None] * len(rows)
        for i, r in zip(kept, kept_ranks):
            ranks[i] = r
        return ranks

    def test_preference_front_holds_best_per_uncovered_target(self):
        rows = [
            [0.9, 0.0, 0.1],
            [0.2, 0.8, 0.0],
            [0.9, 0.1, 0.0],
            [0.1, 0.1, 0.3],
        ]
        ranks = self._ranks(self._rows(rows), [0, 1, 2])
        for target in range(3):
            best = max(r[target] for r in rows)
            assert any(
                ranks[i] == 0 and rows[i][target] == best for i in range(len(rows))
            )

    def test_preference_includes_ties(self):
        rows = [[0.5], [0.5], [0.2]]
        ranks = self._ranks(self._rows(rows), [0])
        assert ranks[0] == 0 and ranks[1] == 0
        assert ranks[2] > 0

    def test_dominated_zero_rows_rank_last(self):
        rows = self._rows([[0.4, 0.4], [0.0, 0.0]])
        assert self._ranks(rows, [0, 1]) == [0, 1]
        assert _mosa_sort(rows, [0, 1], 2) == ([0, 1], [0, 1])
        assert _mosa_sort(rows, [0, 1], 1) == ([0], [0])

    def test_no_uncovered_targets_degenerates(self):
        rows = self._rows([[0.1], [0.9]])
        assert self._ranks(rows, []) == [0, 0]
        assert _mosa_sort(rows, [], 2) == ([0, 1], [0, 0])
        assert _mosa_sort(rows, [], 1) == ([0], [0])

    def test_peeling_stops_once_enough_rows_ranked(self):
        # One objective: every row is its own front. Asked for three rows,
        # the peeling ranks fronts 0-2 and leaves the rest at len(matrix).
        matrix = self._rows([[0.9], [0.1], [0.5], [0.7], [0.3]])
        assert _fronts(matrix, 3).tolist() == [0, 5, 2, 1, 5]
        assert _fronts(matrix, 5).tolist() == [0, 4, 2, 1, 3]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_front_by_front_reference(self, data):
        # Up to 12 objectives, so a sum over them that is not left to right
        # rounds differently. Up to 40 rows and a drawn keep count, so the
        # peeling often stops with fronts left unranked.
        z = data.draw(st.integers(1, 12))
        value = st.one_of(
            st.sampled_from([0.0, 0.0, 0.25, 0.5]), st.floats(0.0, 0.875, width=32)
        )
        row = st.lists(value, min_size=z, max_size=z)
        rows = data.draw(st.lists(row, min_size=1, max_size=40))
        keep = data.draw(st.integers(1, len(rows)))
        uncovered = sorted(data.draw(st.sets(st.integers(0, z - 1))))
        matrix = self._rows(rows)
        order, ranks, objectives, dist = _reference_mosa_sort(
            [[row[k] for k in uncovered] for row in rows]
        )
        kept, kept_ranks = _mosa_sort(matrix, uncovered, keep)
        assert kept == order[:keep]
        assert kept_ranks == [ranks[i] for i in kept]
        assert self._ranks(matrix, uncovered) == ranks
        if objectives:
            matrix = np.array(objectives, dtype=np.float32)
            assert _crowding(matrix, np.array(ranks)).tolist() == dist

    def test_crowding_sums_many_objectives_left_to_right(self):
        # Rows 0 and 1 bound every objective, so the others are interior in
        # all 16 and their distances are long sums that rounding can tell apart.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            matrix = rng.uniform(0.05, 0.8, size=(6, 16)).astype(np.float32)
            matrix[0], matrix[1] = 0.0, 0.875
            dist = [0.0] * 6
            _reference_crowding(matrix.tolist(), list(range(6)), dist)
            assert _crowding(matrix, np.zeros(6, dtype=np.intp)).tolist() == dist

    def test_preference_invariant_holds_during_search(self, monkeypatch):
        # Checks every ranking of the live populations of a real run, the
        # initial one included: selection keeps first, at rank 0, as many of
        # the rows attaining some reachable uncovered target's best as fit.
        # Keeping every row, as the initial ranking does, rank 0 is exactly
        # those rows.
        ranked = []

        def preferred_rows(rows, uncovered):
            preferred = set()
            for k in uncovered:
                column = [float(v) for v in rows[:, k]]
                best = max(column)
                if best > 0.0:
                    preferred.update(i for i, v in enumerate(column) if v == best)
            return preferred

        def checked_sort(rows, uncovered, keep):
            kept, ranks = _mosa_sort(rows, uncovered, keep)
            preferred = preferred_rows(rows, uncovered)
            if preferred:
                front = min(len(preferred), keep)
                assert set(kept[:front]) <= preferred
                assert ranks[:front] == [0] * front
                assert all(r > 0 for r in ranks[front:])
            else:
                assert (kept, ranks) == (list(range(keep)), [0] * keep)
            ranked.append(len(preferred) < len(rows))
            return kept, ranks

        monkeypatch.setattr(algorithms, "_mosa_sort", checked_sort)
        problem = small_problem(17, z=10)
        result = run_mosa(problem, 500, random.Random(11))
        assert result.evaluations == 500 or len(result.covered_targets) == 10
        # The initial ranking plus one per generation, most with rows left
        # for the Pareto fronts.
        assert len(ranked) >= 5 and sum(ranked) >= 5


class TestWtsExecution:
    def test_structurally_equal_tests_execute_once(self):
        # 15 ids x 41 inputs: suites of up to 50 random tests collide often,
        # and the 5 infeasible targets keep the run going until the budget.
        problem = ArtificialProblem(
            "infeasible", tuple(range(0, 40, 4)), r=40, infeasible_count=5
        )
        executed = []
        evaluate = problem.evaluate

        def counting_evaluate(test):
            executed.append(test)
            return evaluate(test)

        problem.evaluate = counting_evaluate
        result = run_wts(problem, 400, random.Random(5))
        assert len(executed) == len(set(executed))
        assert result.evaluations == len(set(executed))

    def test_ends_once_every_test_has_run(self):
        # 11 targets x 4 inputs make 44 distinct tests, and target 10 is
        # infeasible: only having run every test can end the run before its
        # budget of 100. The bound on draws turns a hang into a failure.
        problem = ArtificialProblem(
            "infeasible", (0, 1, 2) + (0,) * 7, r=3, infeasible_count=1
        )
        draws = 0
        random_test = problem.random_test

        def bounded_random_test(rng):
            nonlocal draws
            draws += 1
            if draws > 10_000:
                raise RuntimeError("WTS still drawing tests after every test ran")
            return random_test(rng)

        problem.random_test = bounded_random_test
        result = run_wts(problem, 100, random.Random(1))
        assert result.evaluations == problem.test_count == 44
        assert len(result.covered_targets) == 10

    def test_evaluation_sequence_pinned(self):
        # The golden pins hash final CSV rows only; this pins the order in
        # which WTS runs its tests. Budgets 1 to 400 end a run inside the
        # first suite or the initial population, which draws about 1275
        # tests; budget 2000 reaches the generations, and three of those
        # runs end on full coverage partway through one.
        digest = hashlib.sha256()
        cases = [
            (ArtificialProblem.random_instance(kind, random.Random(seed), z), budget, seed)
            for kind in ARTIFICIAL_KINDS
            for z in (1, 5)
            for budget in (1, 7, 60, 400, 2000)
            for seed in (0, 1)
        ] + [(SutProblem(name), budget, 0) for name in SUT_NAMES for budget in (300, 2000)]
        for problem, budget, seed in cases:
            executed = []
            evaluate = problem.evaluate

            def recording_evaluate(test):
                executed.append(test)
                return evaluate(test)

            problem.evaluate = recording_evaluate
            result = run_wts(problem, budget, random.Random(seed))
            line = (
                f"{executed!r} {result.covered_targets!r} {result.coverage_sum.hex()} "
                f"{result.suite!r} {result.evaluations}\n"
            )
            digest.update(line.encode())
        assert len(cases) == 86
        assert digest.hexdigest() == WTS_SEQUENCE_DIGEST


@st.composite
def _row_tables(draw):
    """A float32 row table of z in [1, 300] columns, which crosses numpy's
    128-element pairwise-sum block, and 1-50 suites of 1-50 row numbers
    into it, repeats allowed. Half of the values come from a small pool, so
    rows tie, and the pool is mostly 1.0."""
    z = draw(st.integers(1, 300))
    n = draw(st.integers(1, 80))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate(([0.0] + [1.0] * 4, gen.random(3), 1.0 / (1.0 + gen.exponential(1e3, 3))))
    table = np.where(
        gen.random((n, z)) < 0.5, gen.choice(pool, size=(n, z)), gen.random((n, z))
    ).astype(np.float32)
    suites = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=50), min_size=1, max_size=50
    ))
    return table, suites


class TestWtsScores:
    @settings(max_examples=200, deadline=None)
    @given(_row_tables())
    def test_batched_scores_equal_per_suite_scores(self, case):
        table, suites = case
        z = table.shape[1]
        expected = [
            z - float(np.maximum.reduce([table[r] for r in suite]).sum()) for suite in suites
        ]
        assert _suite_scores(table, suites) == expected


class TestRandomSearch:
    def test_hit_probability_matches_uniform_sampling_oracle(self):
        # Exact per-run cover probability: 1 - (1 - 1/(r+1))**b.
        expected = 1.0 - (1.0 - 1.0 / 1001.0) ** 1000
        hits = 0
        runs = 1000
        for seed in range(runs):
            problem = ArtificialProblem.random_instance(
                "gradient", random.Random(20_000 + seed), z=1
            )
            result = run_random(problem, 1000, random.Random(seed))
            hits += len(result.covered_targets)
        assert abs(hits / runs - expected) < 0.05
