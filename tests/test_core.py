import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from suitesearch.algorithms import (
    FOCUS_POINT,
    MIO_ARCHIVE_CAPACITY,
    MUTATIONS_PER_PARENT,
    RANDOM_SAMPLING_P,
    _Run,
    _scheduled,
    _scheduled_count,
)
from suitesearch.core import Budget, BudgetExhaustedError, TestCase, randbelow
from suitesearch.problems import ArtificialProblem


def pr(t):
    return _scheduled(RANDOM_SAMPLING_P, t)


def n(t):
    return _scheduled_count(MIO_ARCHIVE_CAPACITY, t)


def m(t):
    return _scheduled_count(MUTATIONS_PER_PARENT, t)


# sha256 of "<pr(used/cap).hex()> <m(used/cap)> <n((used+1)/cap)>\n" for every
# used < cap at caps 1-50, 1000 and 5000: the values MIO reads at each
# evaluation, recorded from the configurable schedule these constants replaced.
SCHEDULE_DIGEST = "9058f49fa3d735b723aba59c35c81c3c1d6d36fa7b1dd5a9de0eb31c572abb45"


class TestScheduleValues:
    def test_pr_decays_to_published_midpoint_value(self):
        # At 30% of the budget with focus at 50%, Pr has moved 0.5 -> 0.2.
        assert pr(0.3) == pytest.approx(0.2, abs=1e-12)

    def test_pr_starts_at_start_value(self):
        assert pr(0.0) == 0.5

    def test_integer_rounding_half_away_from_zero(self):
        # n: 10 + (1 - 10) * 0.5 = 5.5, which rounds away from zero to 6.
        assert n(0.25) == 6

    def test_m_grows_toward_focus(self):
        assert m(0.0) == 1
        assert m(0.5) == 10
        assert m(1.0) == 10

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_linear_before_focus(self, u1, u2):
        t1, t2 = sorted((u1 * FOCUS_POINT, u2 * FOCUS_POINT))
        t3 = FOCUS_POINT
        v1, v2, v3 = pr(t1), pr(t2), pr(t3)
        # Collinearity of the three points, checked as a cross-difference.
        assert abs((t2 - t1) * (v3 - v1) - (t3 - t1) * (v2 - v1)) < 1e-12

    @given(st.floats(0.0, 1.0))
    def test_constant_after_focus(self, u):
        t = FOCUS_POINT + (1.0 - FOCUS_POINT) * u
        assert pr(t) == RANDOM_SAMPLING_P[1]
        assert n(t) == MIO_ARCHIVE_CAPACITY[1]
        assert m(t) == MUTATIONS_PER_PARENT[1]

    @given(st.floats(0.0, 1.0))
    def test_pr_stays_a_probability(self, t):
        assert 0.0 <= pr(t) <= 1.0

    @given(st.floats(0.0, 1.0))
    def test_integer_parameters_stay_clamped(self, t):
        # Nothing clamps them: rounding keeps them between start and end.
        assert 1 <= n(t) <= 10
        assert 1 <= m(t) <= 10

    def test_values_at_every_evaluation_pinned(self):
        digest = hashlib.sha256()
        for cap in (*range(1, 51), 1000, 5000):
            for used in range(cap):
                line = f"{pr(used / cap).hex()} {m(used / cap)} {n((used + 1) / cap)}\n"
                digest.update(line.encode())
        assert digest.hexdigest() == SCHEDULE_DIGEST


def _step_run(max_evaluations, used=0):
    """A run of the evaluation step on a one-target gradient landscape."""
    budget = Budget(max_evaluations)
    budget.used_evaluations = used
    return _Run(ArtificialProblem("gradient", (500,), r=1000), budget)


MISS = TestCase(0, (0,))  # far from the target at 500, so it never covers it


class TestBudget:
    def test_consume_counts_and_reports_remaining(self):
        run = _step_run(1000)
        run.evaluate(MISS, 10)
        assert run.budget.used_evaluations == 1
        assert not run.over

    def test_last_evaluation_reports_exhaustion(self):
        run = _step_run(1000, used=999)
        assert not run.over
        run.evaluate(MISS, 10)
        assert run.budget.used_evaluations == 1000
        assert run.over and run.spent()

    def test_overdraw_raises(self):
        run = _step_run(1000, used=1000)
        with pytest.raises(BudgetExhaustedError):
            run.evaluate(MISS, 10)
        # Refused before anything ran: nothing counted, nothing saved.
        assert run.budget.used_evaluations == 1000
        assert run.archive.is_empty()

    def test_zero_budget(self):
        run = _step_run(0)
        assert run.over
        with pytest.raises(BudgetExhaustedError):
            run.evaluate(MISS, 10)

    def test_covering_every_target_ends_the_run(self):
        run = _step_run(1000)
        run.evaluate(TestCase(0, (500,)), 10)
        assert run.over and not run.spent()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Budget(-1)

    @pytest.mark.parametrize("cap", [10.5, True])
    def test_non_int_budget_rejected(self, cap):
        with pytest.raises(TypeError):
            Budget(cap)


class TestTestCase:
    def test_identity_covers_id_and_inputs(self):
        assert TestCase(3, (7,)) != TestCase(4, (7,))
        assert TestCase(3, (7,)) != TestCase(3, (8,))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            TestCase(-1, (0,))


# Range sizes where rejection sampling is most likely to slip: 1 (one bit,
# redrawn half the time), powers of two (no redraw) and their neighbours
# (up to half the draws redrawn), up to widths of 70 bits.
EDGE_SIZES = sorted(
    {n for k in range(71) for n in (2**k - 1, 2**k, 2**k + 1) if n >= 1}
)


class TestRandbelow:
    @given(
        seed=st.integers(0, 2**64),
        sizes=st.lists(
            st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, 2**70)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_matches_randrange_value_and_state(self, seed, sizes):
        rng, twin = random.Random(seed), random.Random(seed)
        assert [randbelow(rng, n) for n in sizes] == [twin.randrange(n) for n in sizes]
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize("n", [0, -1, -(2**70)])
    def test_empty_range_rejected(self, n):
        with pytest.raises(ValueError):
            randbelow(random.Random(1), n)
        with pytest.raises(ValueError):
            random.Random(1).randrange(n)
