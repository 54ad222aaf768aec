import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from suitesearch.core import TestCase
from suitesearch.problems import (
    ArtificialProblem,
    SutFault,
    SutProblem,
    branch_distances,
    rho,
)
from suitesearch.problems.suts import INVALID, SCALENE, ISOSCELES, EQUILATERAL, Recorder


def make(kind, optima, **kw):
    return ArtificialProblem(kind, optima, **kw)


class TestArtificialLandscapes:
    def test_gradient_optimum_scores_one(self):
        p = make("gradient", (400,))
        assert p.evaluate(TestCase(0, (400,)))[0] == 1.0

    def test_gradient_uses_absolute_distance(self):
        p = make("gradient", (400,))
        assert p.evaluate(TestCase(0, (390,)))[0] == rho(10)
        assert p.evaluate(TestCase(0, (410,)))[0] == rho(10)

    def test_plateau_value_above_optimum(self):
        # Above g the heuristic is the constant rho(0.1 * r) = 1/101.
        p = make("plateau", (400,), r=1000)
        h = p.evaluate(TestCase(0, (401,)))[0]
        assert h == rho(100)
        assert h == pytest.approx(0.00990, abs=5e-6)
        assert p.evaluate(TestCase(0, (1000,)))[0] == h

    def test_deceptive_peak_at_far_end(self):
        # Substituting x = r into rho(1 + r - x) gives rho(1) = 0.5.
        p = make("deceptive", (400,), r=1000)
        assert p.evaluate(TestCase(0, (1000,)))[0] == 0.5

    def test_infeasible_targets_score_half_forever(self):
        p = make("infeasible", tuple(range(10)), infeasible_count=3)
        assert p.target_count == 13
        for x in (0, 17, 1000):
            assert p.evaluate(TestCase(11, (x,)))[11] == 0.5

    def test_other_targets_score_zero(self):
        p = make("gradient", (100, 200, 300))
        h = p.evaluate(TestCase(1, (200,)))
        assert h.dense().tolist() == [0.0, 1.0, 0.0]

    def test_gradient_strictly_decreases_with_distance(self):
        p = make("gradient", (20,), r=50)
        values = [(abs(x - 20), p.evaluate(TestCase(0, (x,)))[0]) for x in range(51)]
        for d1, h1 in values:
            for d2, h2 in values:
                if d1 < d2:
                    assert h1 > h2

    def test_plateau_and_deceptive_match_gradient_below_optimum(self):
        g = 700
        grad = make("gradient", (g,))
        plat = make("plateau", (g,))
        dec = make("deceptive", (g,))
        for x in range(0, g + 1, 13):
            t = TestCase(0, (x,))
            assert plat.evaluate(t)[0] == grad.evaluate(t)[0]
            assert dec.evaluate(t)[0] == grad.evaluate(t)[0]

    def test_deceptive_slope_rises_away_from_optimum(self):
        p = make("deceptive", (100,), r=1000)
        previous = None
        for x in range(101, 1001):
            h = p.evaluate(TestCase(0, (x,)))[0]
            if previous is not None:
                assert h > previous
            previous = h

    def test_infeasible_never_covered_exhaustively(self):
        p = make("infeasible", tuple(range(10)), infeasible_count=1)
        assert all(p.evaluate(TestCase(10, (x,)))[10] < 1.0 for x in range(1001))

    def test_evaluation_is_pure(self):
        p = ArtificialProblem.random_instance("plateau", random.Random(5), z=4)
        t = TestCase(2, (123,))
        assert dict(p.evaluate(t).items()) == dict(p.evaluate(t).items())

    def test_out_of_range_inputs_rejected(self):
        p = make("gradient", (10, 20))
        with pytest.raises(ValueError):
            p.evaluate(TestCase(2, (5,)))
        with pytest.raises(ValueError):
            p.evaluate(TestCase(0, (1001,)))

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            make("mystery", (1,))
        with pytest.raises(ValueError):
            make("gradient", (2000,))
        with pytest.raises(ValueError):
            make("gradient", ())
        with pytest.raises(ValueError):
            make("infeasible", (1, 2, 3), infeasible_count=5)
        with pytest.raises(ValueError):
            make("gradient", (1, 2), infeasible_count=5)

    def test_target_counts(self):
        rng = random.Random(0)
        assert ArtificialProblem.random_instance("infeasible", rng, infeasible_count=100).target_count == 110
        assert ArtificialProblem.random_instance("gradient", rng, z=1).target_count == 1

    def test_random_instance_optima_within_range(self):
        p = ArtificialProblem.random_instance("deceptive", random.Random(3), z=50, r=200)
        assert len(p.optima) == 50
        assert all(0 <= g <= 200 for g in p.optima)


class TestRandomTestGeneration:
    def test_inputs_uniform_by_chi_square(self):
        p = make("gradient", (0,), r=1000)
        rng = random.Random(42)
        counts = [0] * 1001
        n = 100_000
        for _ in range(n):
            counts[p.random_test(rng).inputs[0]] += 1
        assert sps.chisquare(counts).pvalue > 0.001

    def test_ids_uniform_by_chi_square(self):
        p = make("gradient", tuple(range(0, 70, 10)))
        rng = random.Random(43)
        counts = [0] * 7
        for _ in range(70_000):
            counts[p.random_test(rng).id] += 1
        assert sps.chisquare(counts).pvalue > 0.001

    def test_single_family_always_id_zero(self):
        p = make("gradient", (5,))
        rng = random.Random(44)
        assert all(p.random_test(rng).id == 0 for _ in range(100))

    def test_sut_tests_match_declared_ranges(self):
        for name in ("expint", "gammq", "triangle"):
            p = SutProblem(name)
            rng = random.Random(45)
            for _ in range(200):
                t = p.random_test(rng)
                assert t.id == 0
                assert len(t.inputs) == len(p.input_specs)
                for v, spec in zip(t.inputs, p.input_specs):
                    assert spec.low <= v <= spec.high
                    if spec.integer:
                        assert isinstance(v, int)


COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge")


def _holds(op, a, b):
    return {
        "eq": a == b, "ne": a != b, "lt": a < b,
        "le": a <= b, "gt": a > b, "ge": a >= b,
    }[op]


class TestBranchDistances:
    @given(st.sampled_from(COMPARISONS), st.integers(-50, 50), st.integers(-50, 50))
    def test_zero_distance_iff_branch_taken(self, op, a, b):
        outcome, d_true, d_false = branch_distances(op, a, b)
        assert outcome == _holds(op, a, b)
        assert d_true >= 0.0 and d_false >= 0.0
        assert (d_true == 0.0) == outcome
        assert (d_false == 0.0) == (not outcome)

    def test_equality_distance_is_operand_gap(self):
        # Predicate x == 5 evaluated with x = 3: distance 2, heuristic 1/3.
        outcome, d_true, _ = branch_distances("eq", 3, 5)
        assert not outcome
        assert d_true == 2.0
        assert rho(d_true) == pytest.approx(1 / 3)

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ValueError):
            branch_distances("xor", 1, 2)


class TestTriangle:
    def setup_method(self):
        self.p = SutProblem("triangle")
        self.names = self.p.target_names()

    def idx(self, name):
        return self.names.index(name)

    def run(self, a, b, c):
        rec, value, fault = self.p.execute(TestCase(0, (a, b, c)))
        return value

    def test_classification_semantics(self):
        assert self.run(5, 5, 5) == EQUILATERAL
        assert self.run(5, 5, 9) == ISOSCELES
        assert self.run(4, 5, 6) == SCALENE
        assert self.run(0, 5, 5) == INVALID
        assert self.run(1, 2, 9) == INVALID

    def test_equilateral_inputs_cover_equilateral_branch(self):
        h = self.p.evaluate(TestCase(0, (5, 5, 5)))
        assert h[self.idx("branch:b==c:true")] == 1.0
        assert h[self.idx("stmt:ret_equilateral")] == 1.0

    def test_near_equilateral_gets_distance_gradient(self):
        h = self.p.evaluate(TestCase(0, (5, 5, 8)))
        # b == c missed by 3: heuristic 1/(1+3).
        assert h[self.idx("branch:b==c:true")] == pytest.approx(0.25)

    def test_unreached_branch_scores_zero(self):
        h = self.p.evaluate(TestCase(0, (-1, 5, 5)))
        assert h[self.idx("branch:a==b:true")] == 0.0
        assert h[self.idx("branch:a==b:false")] == 0.0

    def test_target_count_is_stable_and_matches_manifest(self):
        assert self.p.target_count == 30
        assert int(self.p.manifest()["targets"]) == 30
        assert self.p.target_count == len(self.names)


class TestNumericalSubjects:
    def test_expint_matches_reference_values(self):
        from scipy.special import expn

        p = SutProblem("expint")
        for n, x in ((1, 1.0), (2, 1.5), (3, 0.5), (0, 2.0)):
            rec, value, fault = p.execute(TestCase(0, (n, x)))
            assert fault is None
            assert value == pytest.approx(float(expn(n, x)), rel=1e-6)

    def test_expint_rejects_bad_arguments(self):
        p = SutProblem("expint")
        for n, x in ((-1, 1.0), (2, -3.0), (0, 0.0), (1, 0.0)):
            rec, value, fault = p.execute(TestCase(0, (n, x)))
            assert isinstance(fault, SutFault)

    def test_expint_pole_at_zero(self):
        p = SutProblem("expint")
        rec, value, fault = p.execute(TestCase(0, (4, 0.0)))
        assert fault is None
        assert value == pytest.approx(1 / 3)

    def test_gammq_matches_reference_values(self):
        from scipy.special import gammaincc

        p = SutProblem("gammq")
        for a, x in ((1.0, 2.0), (3.5, 1.0), (10.0, 12.0), (2.0, 40.0)):
            rec, value, fault = p.execute(TestCase(0, (a, x)))
            assert fault is None
            assert value == pytest.approx(float(gammaincc(a, x)), rel=1e-5)

    def test_gammq_rejects_bad_arguments(self):
        p = SutProblem("gammq")
        for a, x in ((0.0, 1.0), (-2.0, 1.0), (1.0, -1.0)):
            rec, value, fault = p.execute(TestCase(0, (a, x)))
            assert isinstance(fault, SutFault)

    def test_fault_still_scores_executed_prefix(self):
        p = SutProblem("expint")
        h = p.evaluate(TestCase(0, (-1, 10)))
        names = p.target_names()
        assert h[names.index("stmt:raise_bad_args")] == 1.0
        assert h[names.index("branch:n<0:true")] == 1.0
        assert h[names.index("stmt:cf_iter")] == 0.0

    def test_most_recent_distance_wins(self):
        # The series loop re-evaluates i != nm1 every iteration; the stored
        # distance must be from the last evaluation before convergence.
        p = SutProblem("gammq")
        t = TestCase(0, (2, 1))
        rec, _, _ = p.execute(t)
        site = {b.name: j for j, b in enumerate(p._definition.branches)}["gser_conv"]
        h = p.evaluate(t)
        k_true = p.statement_count + 2 * site
        assert h[k_true] == 1.0  # converged, so the true outcome was taken

    def test_evaluate_validates_inputs(self):
        p = SutProblem("gammq")
        with pytest.raises(ValueError):
            p.evaluate(TestCase(1, (1, 1)))
        with pytest.raises(ValueError):
            p.evaluate(TestCase(0, (1,)))
        with pytest.raises(ValueError):
            p.evaluate(TestCase(0, (1, 10**9)))

    def test_unknown_subject_rejected(self):
        with pytest.raises(ValueError):
            SutProblem("ackermann")

    def test_heuristics_stay_in_unit_interval(self):
        rng = random.Random(9)
        for name in ("expint", "gammq", "triangle"):
            p = SutProblem(name)
            for _ in range(300):
                h = p.evaluate(p.random_test(rng))
                assert all(0.0 <= v <= 1.0 for _, v in h.items())
