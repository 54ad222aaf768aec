import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from suitesearch.algorithms import _Run
from suitesearch.core import (
    Budget,
    BudgetExhaustedError,
    HeuristicVector,
    ParameterSchedule,
    TestCase,
    randbelow,
)
from suitesearch.problems import ArtificialProblem

DEFAULT = ParameterSchedule()  # F=0.5, Pr 0.5->0, n 10->1, m 1->10


class TestScheduleValues:
    def test_pr_decays_to_published_midpoint_value(self):
        # At 30% of the budget with focus at 50%, Pr has moved 0.5 -> 0.2.
        assert DEFAULT.pr(0.3) == pytest.approx(0.2, abs=1e-12)

    def test_pr_starts_at_start_value(self):
        assert DEFAULT.pr(0.0) == 0.5

    def test_integer_rounding_half_away_from_zero(self):
        # n: 10 + (1 - 10) * 0.5 = 5.5, which rounds away from zero to 6.
        assert DEFAULT.n(0.25) == 6

    def test_m_grows_toward_focus(self):
        assert DEFAULT.m(0.0) == 1
        assert DEFAULT.m(0.5) == 10
        assert DEFAULT.m(1.0) == 10

    def test_zero_focus_fraction_switches_immediately(self):
        sched = ParameterSchedule(focus_fraction=0.0)
        assert sched.pr(0.0) == 0.5
        assert sched.pr(1e-9) == 0.0
        assert sched.n(0.0) == 10
        assert sched.n(0.5) == 1

    def test_out_of_range_t_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT.pr(1.5)

    @given(st.floats(0.01, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_linear_before_focus(self, focus, u1, u2):
        sched = ParameterSchedule(focus_fraction=focus)
        t1, t2 = sorted((u1 * focus, u2 * focus))
        t3 = focus
        v1, v2, v3 = sched.pr(t1), sched.pr(t2), sched.pr(t3)
        # Collinearity of the three points, checked as a cross-difference.
        assert abs((t2 - t1) * (v3 - v1) - (t3 - t1) * (v2 - v1)) < 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_constant_after_focus(self, focus, u):
        sched = ParameterSchedule(focus_fraction=focus)
        t = focus + (1.0 - focus) * u
        if t == 0.0:  # the degenerate F=0, t=0 point keeps the start value
            return
        assert sched.pr(t) == sched.pr_end
        assert sched.n(t) == sched.n_end
        assert sched.m(t) == sched.m_end

    @given(st.floats(0.0, 1.0))
    def test_pr_stays_a_probability(self, t):
        assert 0.0 <= DEFAULT.pr(t) <= 1.0

    @given(st.floats(0.0, 1.0))
    def test_integer_parameters_stay_clamped(self, t):
        assert 1 <= DEFAULT.n(t) <= 10
        assert 1 <= DEFAULT.m(t) <= 10

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            ParameterSchedule(focus_fraction=1.5)
        with pytest.raises(ValueError):
            ParameterSchedule(pr_start=1.2)
        with pytest.raises(ValueError):
            ParameterSchedule(n_start=0)


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
    def test_identity_ignores_size(self):
        a = TestCase(3, (7,), size=1)
        b = TestCase(3, (7,), size=9)
        assert a == b
        assert hash(a) == hash(b)

    def test_identity_covers_id_and_inputs(self):
        assert TestCase(3, (7,)) != TestCase(4, (7,))
        assert TestCase(3, (7,)) != TestCase(3, (8,))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            TestCase(-1, (0,))
        with pytest.raises(ValueError):
            TestCase(0, (0,), size=0)


class TestHeuristicVector:
    def test_single_and_dense_round_trip(self):
        h = HeuristicVector(4, {2: 0.25})
        assert len(h) == 4
        assert h[2] == 0.25
        assert h[0] == 0.0
        assert h.dense().dtype == np.float32
        assert h.dense().tolist() == [0.0, 0.0, 0.25, 0.0]
        assert h.sum() == 0.25

    def test_index_bounds(self):
        h = HeuristicVector(3, {0: 0.5})
        with pytest.raises(IndexError):
            h[3]


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
