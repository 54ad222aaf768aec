import ast
import hashlib
import itertools
import math
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from suitesearch.algorithms import mutate
from suitesearch.core import TestCase
from suitesearch.problems import (
    ARTIFICIAL_KINDS,
    SUT_NAMES,
    ArtificialProblem,
    SutFault,
    SutProblem,
    rho,
)
from suitesearch.problems import suts
from suitesearch.problems.suts import (
    EQUILATERAL,
    INVALID,
    ISOSCELES,
    KAPPA_INT,
    KAPPA_REAL,
    SCALENE,
    Recorder,
)


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
        assert p.evaluate(TestCase(1, (200,))) == {1: 1.0}

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

    @pytest.mark.parametrize("kind", ARTIFICIAL_KINDS)
    @pytest.mark.parametrize("r", [1, 2, 7, 60, 1000])
    def test_every_value_matches_the_docstring(self, kind, r):
        # The module docstring, read literally: a slope up to g for every
        # kind; above g gradient slopes back down, plateau is flat at
        # rho(0.1 * r) and deceptive rises toward r; infeasible targets sit
        # at rho(1) and the infeasible kind's feasible ones are gradient's.
        def reference(p, k, x):
            if k >= len(p.optima):
                return rho(1.0)
            g = p.optima[k]
            if kind in ("gradient", "infeasible"):
                return rho(abs(x - g))
            if x <= g:
                return rho(g - x)
            if kind == "plateau":
                return rho(0.1 * r)
            return rho(1 + r - x)

        rng = random.Random(r)
        for z in (1, 3, 6):
            p = ArtificialProblem.random_instance(kind, rng, z, r=r)
            for k in range(p.target_count):
                for x in range(r + 1):
                    assert p.evaluate(TestCase(k, (x,))) == {k: reference(p, k, x)}, (k, x)

    def test_evaluation_is_pure(self):
        p = ArtificialProblem.random_instance("plateau", random.Random(5), z=4)
        t = TestCase(2, (123,))
        assert p.evaluate(t) == p.evaluate(t)

    def test_out_of_range_inputs_rejected(self):
        p = make("gradient", (10, 20))
        with pytest.raises(ValueError):
            p.evaluate(TestCase(2, (5,)))
        with pytest.raises(ValueError):
            p.evaluate(TestCase(0, (1001,)))
        with pytest.raises(ValueError, match="1 input, got 0"):
            p.evaluate(TestCase(0, ()))
        with pytest.raises(ValueError, match="1 input, got 2"):
            p.evaluate(TestCase(0, (5, 7)))

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
        rng = random.Random(0)
        # random_instance leaves its count to the constructor's checks.
        with pytest.raises(ValueError, match="at least one feasible target"):
            ArtificialProblem.random_instance("gradient", rng, 0)
        with pytest.raises(ValueError, match="infeasible_count must be >= 0"):
            ArtificialProblem.random_instance("infeasible", rng, -1)

    def test_target_counts(self):
        rng = random.Random(0)
        assert ArtificialProblem.random_instance("infeasible", rng, z=100).target_count == 110
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
        # Every family's random tests and their mutants carry one int per
        # input spec, inside its range; a subject's tests all have id 0.
        rng = random.Random(45)
        for p in _every_family(rng):
            for _ in range(200):
                t = p.random_test(rng)
                for _ in range(5):  # the random test, then a chain of mutants
                    if isinstance(p, SutProblem):
                        assert t.id == 0
                    assert 0 <= t.id < p.target_count
                    assert len(t.inputs) == len(p.input_specs)
                    for v, spec in zip(t.inputs, p.input_specs):
                        assert type(v) is int
                        assert spec.low <= v <= spec.high
                    t = mutate(t, p, rng)


def _every_family(rng):
    """One problem per family: the three subjects and a small instance of
    each landscape kind, drawn from ``rng``."""
    return [SutProblem(name) for name in SUT_NAMES] + [
        ArtificialProblem.random_instance(kind, rng, z=5) for kind in ARTIFICIAL_KINDS
    ]


# Each comparison a subject makes -> (its Python operator, the recorder call
# that probes it). A ``>`` is ``lt`` with its operands swapped, as expint's
# ``x>1`` site probes it.
COMPARISONS = {
    "eq": (operator.eq, Recorder.eq),
    "ne": (operator.ne, Recorder.ne),
    "lt": (operator.lt, Recorder.lt),
    "le": (operator.le, Recorder.le),
    "gt": (operator.gt, lambda rec, k, lhs, rhs: rec.lt(k, rhs, lhs)),
}


def _reference_distances(op, lhs, rhs, kappa):
    """(outcome, d_true, d_false): the distance rules, written out once more."""
    if op == "eq":
        diff = lhs - rhs if lhs >= rhs else rhs - lhs
        if diff == 0.0:
            return True, 0.0, kappa
        return False, diff, 0.0
    if op == "ne":
        diff = lhs - rhs if lhs >= rhs else rhs - lhs
        if diff == 0.0:
            return False, kappa, 0.0
        return True, 0.0, diff
    if op == "lt":
        if lhs < rhs:
            return True, 0.0, rhs - lhs
        return False, lhs - rhs + kappa, 0.0
    if op == "le":
        if lhs <= rhs:
            return True, 0.0, rhs - lhs + kappa
        return False, lhs - rhs, 0.0
    if op == "gt":
        if lhs > rhs:
            return True, 0.0, lhs - rhs
        return False, rhs - lhs + kappa, 0.0
    raise AssertionError(op)


@st.composite
def _operands(draw):
    """Two integers or two finite reals, equal about half of the time."""
    value = draw(st.sampled_from((
        st.integers(-50, 50),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )))
    lhs = draw(value)
    return lhs, draw(st.one_of(st.just(lhs), value))


class TestBranchDistances:
    @given(st.sampled_from(sorted(COMPARISONS)), _operands(), st.sampled_from((KAPPA_INT, KAPPA_REAL)))
    def test_zero_distance_iff_branch_taken(self, op, operands, kappa):
        lhs, rhs = operands
        # Site 1 (slots 2 and 3) next to an untouched site 0.
        rec = Recorder((KAPPA_INT, KAPPA_INT, kappa, kappa))
        python_op, probe = COMPARISONS[op]
        outcome = probe(rec, 2, lhs, rhs)
        expected, d_true, d_false = _reference_distances(op, lhs, rhs, kappa)
        assert outcome == python_op(lhs, rhs) == expected
        assert rec.taken == [False, False, outcome, not outcome]
        taken, other = (2, 3) if outcome else (3, 2)
        assert rec.dist[:2] == [None, None] and rec.dist[taken] is None
        assert rec.dist[other] == (d_false if outcome else d_true)
        assert rec.dist[other] > 0.0
        assert (d_true if outcome else d_false) == 0.0

    def test_equality_distance_is_operand_gap(self):
        # Predicate x == 5 evaluated with x = 3: distance 2, heuristic 1/3.
        rec = Recorder((KAPPA_INT, KAPPA_INT))
        assert not rec.eq(0, 3, 5)
        assert rec.dist[0] == 2.0
        assert rho(rec.dist[0]) == pytest.approx(1 / 3)

    def test_latest_untaken_distance_kept(self):
        rec = Recorder((KAPPA_INT, KAPPA_INT))
        rec.lt(0, 9, 1)
        rec.lt(0, 4, 1)
        assert rec.dist[0] == 4.0 and not rec.taken[0]
        rec.lt(0, 0, 1)
        assert rec.taken[0] and rec.dist[1] == 1


_SUTS_TREE = ast.parse(Path(suts.__file__).read_text())


def _declared_slots():
    """Each slot constant of suts.py -> (``"stmt"`` or ``"site"``, the
    ``_Subject`` it was declared on, the declared name)."""
    slots = {}
    for node in _SUTS_TREE.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and isinstance(node.value.func.value, ast.Name)
            and node.value.func.attr in ("stmt", "site")
        ):
            func, name = node.value.func, node.value.args[0]
            slots[node.targets[0].id] = (func.attr, func.value.id, name.value)
    return slots


def _probed_names(subject):
    """Declared names each probe call of a subject's functions resolves to.

    Scans suts.py: every ``rec.<probe>(SLOT, ...)`` in the subject's run
    function and the functions it calls must name a module constant
    assigned ``<subject>.stmt(name)`` (for ``stmt``) or
    ``<subject>.site(name, ...)`` (for a comparison), where ``<subject>`` is
    the subject's own ``_Subject``. Returns the (statement names, branch-site
    names) probed.
    """
    functions = {
        node.name: node for node in _SUTS_TREE.body if isinstance(node, ast.FunctionDef)
    }
    slots = _declared_slots()
    definition = suts._DEFINITIONS[subject]
    recorder_comparisons = {probe for _op, probe in COMPARISONS.values()}
    statements, sites = set(), set()
    pending, seen = [definition.run.__name__], set()
    while pending:
        fn = pending.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for call in ast.walk(functions[fn]):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name) and call.func.id in functions:
                pending.append(call.func.id)
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "rec"
            ):
                continue
            probe, slot = func.attr, call.args[0]
            where = f"{fn} line {call.lineno}: rec.{probe}"
            assert isinstance(slot, ast.Name) and slot.id in slots, f"{where}: undeclared slot"
            kind, builder, name = slots[slot.id]
            assert getattr(suts, builder) is definition, f"{where}: {builder}"
            if probe == "stmt":
                assert kind == "stmt", f"{where}: {slot.id} is a branch slot"
                statements.add(name)
            else:
                assert getattr(Recorder, probe, None) in recorder_comparisons, (
                    f"{where}: not a comparison"
                )
                assert kind == "site", f"{where}: {slot.id} is a statement slot"
                sites.add(name)
    return statements, sites


# sha256 over repr(target_names()) and over repr of each subject's branch
# outcome offsets, the entries of its ``kappa`` after the statements. Every
# manifest.txt lists these names, in this order.
TARGET_DIGESTS = {
    "expint": (
        "4e9cfe31450454db0843dfb1cfb27ab911da01d67d07a928ad6d9bbe3361eb07",
        "eb426e41c04eefe25037ee4ce76bd7186a3fc6d1bc5b551bca915d5fb245270b",
    ),
    "gammq": (
        "f1807acec3fcf4063d2880bbc7e603466db698aa2c3676be6b5a94ea313fdfd3",
        "12a03344ecd21f767e223e2836154cfdb5ed9f04b62501e4527f5a4997ade035",
    ),
    "triangle": (
        "d91e5392938919c3bfa5eed8251d15e210ed478e1ecbd24b5f65bb1da371c205",
        "211b0246863c4efc544b0125b95dce7af0842f52a74949cf2ab26e9dfc912892",
    ),
}


class TestProbeSlots:
    @pytest.mark.parametrize("subject", suts.SUT_NAMES)
    def test_every_declared_target_probed_by_its_slot(self, subject):
        definition = suts._DEFINITIONS[subject]
        statements, sites = _probed_names(subject)
        assert statements == set(definition.statements)
        assert sites == set(definition.branches)

    @pytest.mark.parametrize("subject", suts.SUT_NAMES)
    def test_slots_are_target_ids(self, subject):
        definition = suts._DEFINITIONS[subject]
        names = SutProblem(subject).target_names()
        declared = 0
        for constant, (kind, builder, name) in _declared_slots().items():
            if getattr(suts, builder) is not definition:
                continue
            declared += 1
            slot = getattr(suts, constant)
            if kind == "stmt":
                assert names[slot] == f"stmt:{name}", constant
            else:
                assert names[slot:slot + 2] == [f"branch:{name}:true", f"branch:{name}:false"], constant
        assert declared == len(definition.statements) + len(definition.branches)

    def test_statement_after_site_rejected(self):
        subject = suts._Subject(None, (), ())
        subject.stmt("entry")
        subject.site("x==0")
        with pytest.raises(ValueError, match="after a branch site"):
            subject.stmt("late")

    @pytest.mark.parametrize("subject", sorted(TARGET_DIGESTS))
    def test_target_names_distinct_and_pinned(self, subject):
        # A repeated declaration would add a second target of the same name,
        # which the set comparison above cannot see.
        p = SutProblem(subject)
        names = p.target_names()
        assert len(set(names)) == len(names)
        offsets = p._definition.kappa[p.statement_count:]
        digests = tuple(hashlib.sha256(repr(v).encode()).hexdigest() for v in (names, offsets))
        assert digests == TARGET_DIGESTS[subject]

    @pytest.mark.parametrize("subject", suts.SUT_NAMES)
    def test_kappa_has_one_offset_per_target(self, subject):
        # None at exactly the statement slots; both outcomes of a site share
        # the site's offset.
        p = SutProblem(subject)
        kappa = p._definition.kappa
        assert len(kappa) == p.target_count
        names = p.target_names()
        assert [k for k, v in enumerate(kappa) if v is None] == [
            k for k, name in enumerate(names) if name.startswith("stmt:")
        ]
        for k in range(p.statement_count, p.target_count, 2):
            assert kappa[k] in (suts.KAPPA_INT, suts.KAPPA_REAL)
            assert kappa[k + 1] == kappa[k]


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
        assert h.get(self.idx("branch:a==b:true"), 0.0) == 0.0
        assert h.get(self.idx("branch:a==b:false"), 0.0) == 0.0

    def test_target_count_is_stable_and_matches_manifest(self):
        assert self.p.target_count == 30
        assert int(self.p.manifest()["targets"]) == 30
        assert self.p.target_count == len(self.names)


def _pinned_inputs(p):
    """Seeded random tests, chains of mutated tests and the boundary inputs."""
    rng = random.Random(1901)
    tests = [p.random_test(rng) for _ in range(300)]
    for _ in range(10):
        t = p.random_test(rng)
        for _ in range(30):
            t = mutate(t, p, rng)
            tests.append(t)
    per_input = [
        sorted(v for v in {-1, 0, 1, 50000, spec.low, spec.high} if spec.low <= v <= spec.high)
        for spec in p.input_specs
    ]
    tests.extend(TestCase(0, inputs) for inputs in itertools.product(*per_input))
    return tests


# sha256 over repr(list(h.items())) of every test from _pinned_inputs.
HEURISTIC_DIGESTS = {
    "expint": "d693bd2a85fec31d26667ad0bcfc2b47908293272cacde708d23d1079722e1fe",
    "gammq": "6afa2b2b25db298163b4da24b8b685e037a5561025cff3346281a9468a7481ee",
    "triangle": "edcfd0fe752ced49f2dde5bbf2e8997f7c308f66bd77bd1a2daa36c605f5a13e",
}


def _loop_inputs(name):
    """Tests that run the subjects' loops long or through their rare exits:
    expint's series (with its psi loop for n >= 2 at x = 1) and continued
    fraction over n at x = 1 and 2, and gammq's series and continued
    fraction around x = a + 1, where both converge slowly for large a."""
    if name == "expint":
        return [TestCase(0, (n, x)) for x in (1, 2) for n in range(101)]
    return [
        TestCase(0, (a, x))
        for a in (1, 10, 100, 1000, 10000, 49999)
        for x in range(a - 2, min(a + 4, 50000) + 1)
    ]


# sha256 over repr(list(h.items())) of every test from _loop_inputs.
LOOP_DIGESTS = {
    "expint": "a2594d0d25f71368ba61b8fcdc1a882e7ff3679328f4b95cf4308169fb94756c",
    "gammq": "d69dd876968ee73255d444b9d1ca6d2b2cb97cfcf58ae3f27a5d6a9a47af7f2f",
}


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
        assert h.get(names.index("stmt:cf_iter"), 0.0) == 0.0

    def test_most_recent_distance_wins(self):
        # The series loop re-evaluates i != nm1 every iteration; the stored
        # distance must be from the last evaluation before convergence.
        p = SutProblem("gammq")
        t = TestCase(0, (2, 1))
        rec, _, _ = p.execute(t)
        site = p._definition.branches.index("gser_conv")
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

    @pytest.mark.parametrize("name", sorted(HEURISTIC_DIGESTS))
    def test_heuristic_vectors_pinned(self, name):
        # Every value and its key order: Archive.save walks h.items() in
        # order and sums h.values() in that order.
        p = SutProblem(name)
        sha = hashlib.sha256()
        for t in _pinned_inputs(p):
            sha.update(repr(list(p.evaluate(t).items())).encode())
        assert sha.hexdigest() == HEURISTIC_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(LOOP_DIGESTS))
    def test_loop_heuristics_pinned(self, name):
        # Each loop runs its statement probe once, before its first
        # iteration; these tests reach every loop, the psi loop included.
        p = SutProblem(name)
        sha = hashlib.sha256()
        for t in _loop_inputs(name):
            sha.update(repr(list(p.evaluate(t).items())).encode())
        assert sha.hexdigest() == LOOP_DIGESTS[name]

    def test_heuristics_stay_in_unit_interval(self):
        # Every problem's evaluate returns {target: h} with strictly
        # ascending keys and each value in (0, 1]: the archive never stores
        # a zero only because a zero is never an entry.
        rng = random.Random(9)
        for p in _every_family(rng):
            for _ in range(300):
                test = p.random_test(rng)
                for _ in range(5):  # the random test, then a chain of mutants
                    h = p.evaluate(test)
                    keys = list(h)
                    assert keys == sorted(keys)  # dict keys are distinct, so strictly
                    assert all(0 <= k < p.target_count for k in keys)
                    assert all(0.0 < v <= 1.0 for v in h.values()), test
                    test = mutate(test, p, rng)
