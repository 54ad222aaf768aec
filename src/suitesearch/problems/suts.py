"""Instrumented numerical functions for unit-level coverage experiments.

Three classic subjects are re-implemented with explicit statement and
branch probes: the exponential integral ``expint(n, x)``, the regularized
incomplete gamma complement ``gammq(a, x)`` and the three-integer triangle
classifier. Every comparison in a predicate is its own branch site with two
outcome targets (true/false); the recorder tracks, per site, whether each
outcome was ever taken and the branch distance at the most recent
evaluation. A statement target scores 1 when executed and 0 otherwise; a
branch outcome scores 1 when taken, ``1 / (1 + d)`` when its predicate was
reached but the outcome not taken, and 0 when the predicate was never
reached.

Numeric faults raised mid-execution (bad arguments, overflow, failed
convergence) are part of the subjects' behaviour: the test simply scores
whatever executed before the fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base import InputSpec
from ..core import HeuristicVector, TestCase

# Distance offset for strict comparisons: how far past the boundary the
# left operand must move. Exact for integers, a nominal epsilon for reals.
KAPPA_INT = 1.0
KAPPA_REAL = 1e-6


class SutFault(Exception):
    """Raised by a subject for invalid arguments or failed convergence."""


def branch_distances(op: str, lhs: float, rhs: float, kappa: float = KAPPA_INT):
    """Distances to make the comparison true and false: (outcome, d_true, d_false).

    Each distance is 0 exactly when the corresponding outcome holds.
    """
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
    if op == "ge":
        if lhs >= rhs:
            return True, 0.0, lhs - rhs + kappa
        return False, rhs - lhs, 0.0
    raise ValueError(f"unknown comparison kind: {op!r}")


@dataclass(frozen=True)
class BranchSite:
    name: str
    op: str
    kappa: float = KAPPA_INT


class Recorder:
    """Per-execution coverage state for one subject run."""

    __slots__ = ("_stmt_index", "_site_index", "_sites", "stmt_hits", "taken", "last_d")

    def __init__(self, stmt_index, site_index, sites):
        self._stmt_index = stmt_index
        self._site_index = site_index
        self._sites = sites
        self.stmt_hits = [False] * len(stmt_index)
        # Per site: [true_taken, false_taken], [last d_true, last d_false].
        self.taken = [[False, False] for _ in sites]
        self.last_d = [[None, None] for _ in sites]

    def stmt(self, name: str):
        self.stmt_hits[self._stmt_index[name]] = True

    def branch(self, name: str, lhs, rhs) -> bool:
        j = self._site_index[name]
        site = self._sites[j]
        outcome, d_true, d_false = branch_distances(site.op, lhs, rhs, site.kappa)
        self.taken[j][0 if outcome else 1] = True
        d = self.last_d[j]
        d[0] = d_true
        d[1] = d_false
        return outcome


# ---------------------------------------------------------------------------
# Subjects
# ---------------------------------------------------------------------------

_MAXIT = 2000
_EULER = 0.5772156649015329
_EPS_EXPINT = 1.0e-7
_EPS_GAMMA = 3.0e-7
_FPMIN = 1.0e-30

INVALID, SCALENE, ISOSCELES, EQUILATERAL = 0, 1, 2, 3


def _triangle(rec: Recorder, a: int, b: int, c: int) -> int:
    rec.stmt("entry")
    if rec.branch("a<=0", a, 0) or rec.branch("b<=0", b, 0) or rec.branch("c<=0", c, 0):
        rec.stmt("ret_nonpositive")
        return INVALID
    rec.stmt("check_sides")
    if (
        rec.branch("a+b<=c", a + b, c)
        or rec.branch("a+c<=b", a + c, b)
        or rec.branch("b+c<=a", b + c, a)
    ):
        rec.stmt("ret_not_triangle")
        return INVALID
    rec.stmt("classify")
    if rec.branch("a==b", a, b) and rec.branch("b==c", b, c):
        rec.stmt("ret_equilateral")
        return EQUILATERAL
    if rec.branch("iso_a==b", a, b) or rec.branch("iso_b==c", b, c) or rec.branch("iso_a==c", a, c):
        rec.stmt("ret_isosceles")
        return ISOSCELES
    rec.stmt("ret_scalene")
    return SCALENE


_TRIANGLE_STATEMENTS = (
    "entry",
    "ret_nonpositive",
    "check_sides",
    "ret_not_triangle",
    "classify",
    "ret_equilateral",
    "ret_isosceles",
    "ret_scalene",
)

_TRIANGLE_BRANCHES = (
    BranchSite("a<=0", "le"),
    BranchSite("b<=0", "le"),
    BranchSite("c<=0", "le"),
    BranchSite("a+b<=c", "le"),
    BranchSite("a+c<=b", "le"),
    BranchSite("b+c<=a", "le"),
    BranchSite("a==b", "eq"),
    BranchSite("b==c", "eq"),
    BranchSite("iso_a==b", "eq"),
    BranchSite("iso_b==c", "eq"),
    BranchSite("iso_a==c", "eq"),
)


def _expint(rec: Recorder, n: int, x: float) -> float:
    rec.stmt("entry")
    if (
        rec.branch("n<0", n, 0)
        or rec.branch("x<0", x, 0.0)
        or (
            rec.branch("x==0", x, 0.0)
            and (rec.branch("arg_n==0", n, 0) or rec.branch("arg_n==1", n, 1))
        )
    ):
        rec.stmt("raise_bad_args")
        raise SutFault("bad arguments")
    if rec.branch("n==0", n, 0):
        rec.stmt("direct")
        ans = math.exp(-x) / x
    else:
        rec.stmt("setup")
        nm1 = n - 1
        if rec.branch("inner_x==0", x, 0.0):
            rec.stmt("pole_at_zero")
            ans = 1.0 / nm1
        elif rec.branch("x>1", x, 1.0):
            rec.stmt("cf_init")
            b = x + n
            c = 1.0 / _FPMIN
            d = 1.0 / b
            h = d
            for i in range(1, _MAXIT + 1):
                rec.stmt("cf_iter")
                a = -i * (nm1 + i)
                b += 2.0
                d = 1.0 / (a * d + b)
                c = b + a / c
                delta = c * d
                h *= delta
                if rec.branch("cf_conv", abs(delta - 1.0), _EPS_EXPINT):
                    rec.stmt("cf_return")
                    return h * math.exp(-x)
            rec.stmt("raise_cf_fail")
            raise SutFault("continued fraction failed")
        else:
            rec.stmt("series_init")
            if rec.branch("nm1!=0", nm1, 0):
                rec.stmt("series_pole")
                ans = 1.0 / nm1
            else:
                rec.stmt("series_log")
                ans = -math.log(x) - _EULER
            fact = 1.0
            for i in range(1, _MAXIT + 1):
                rec.stmt("series_iter")
                fact *= -x / i
                if rec.branch("i!=nm1", i, nm1):
                    rec.stmt("series_term")
                    delta = -fact / (i - nm1)
                else:
                    rec.stmt("psi_init")
                    psi = -_EULER
                    for ii in range(1, nm1 + 1):
                        rec.stmt("psi_iter")
                        psi += 1.0 / ii
                    delta = fact * (-math.log(x) + psi)
                ans += delta
                if rec.branch("series_conv", abs(delta), abs(ans) * _EPS_EXPINT):
                    rec.stmt("series_return")
                    return ans
            rec.stmt("raise_series_fail")
            raise SutFault("series failed")
    rec.stmt("return_direct")
    return ans


_EXPINT_STATEMENTS = (
    "entry",
    "raise_bad_args",
    "direct",
    "setup",
    "pole_at_zero",
    "cf_init",
    "cf_iter",
    "cf_return",
    "raise_cf_fail",
    "series_init",
    "series_pole",
    "series_log",
    "series_iter",
    "series_term",
    "psi_init",
    "psi_iter",
    "series_return",
    "raise_series_fail",
    "return_direct",
)

_EXPINT_BRANCHES = (
    BranchSite("n<0", "lt"),
    BranchSite("x<0", "lt", KAPPA_REAL),
    BranchSite("x==0", "eq", KAPPA_REAL),
    BranchSite("arg_n==0", "eq"),
    BranchSite("arg_n==1", "eq"),
    BranchSite("n==0", "eq"),
    BranchSite("inner_x==0", "eq", KAPPA_REAL),
    BranchSite("x>1", "gt", KAPPA_REAL),
    BranchSite("cf_conv", "lt", KAPPA_REAL),
    BranchSite("nm1!=0", "ne"),
    BranchSite("i!=nm1", "ne"),
    BranchSite("series_conv", "lt", KAPPA_REAL),
)


def _gammln(rec: Recorder, a: float) -> float:
    rec.stmt("gammln_init")
    coefficients = (
        76.18009172947146,
        -86.50532032941677,
        24.01409824083091,
        -1.231739572450155,
        0.1208650973866179e-2,
        -0.5395239384953e-5,
    )
    y = a
    tmp = a + 5.5
    tmp -= (a + 0.5) * math.log(tmp)
    ser = 1.000000000190015
    for coefficient in coefficients:
        rec.stmt("gammln_iter")
        y += 1.0
        ser += coefficient / y
    return -tmp + math.log(2.5066282746310005 * ser / a)


def _gser(rec: Recorder, a: float, x: float) -> float:
    rec.stmt("gser_init")
    gln = _gammln(rec, a)
    if rec.branch("gser_x<=0", x, 0.0):
        rec.stmt("gser_zero")
        return 0.0
    rec.stmt("gser_loop_init")
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(1, _MAXIT + 1):
        rec.stmt("gser_iter")
        ap += 1.0
        delta *= x / ap
        total += delta
        if rec.branch("gser_conv", abs(delta), abs(total) * _EPS_GAMMA):
            rec.stmt("gser_return")
            return total * math.exp(-x + a * math.log(x) - gln)
    rec.stmt("raise_gser_fail")
    raise SutFault("a too large for series")


def _gcf(rec: Recorder, a: float, x: float) -> float:
    rec.stmt("gcf_init")
    gln = _gammln(rec, a)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAXIT + 1):
        rec.stmt("gcf_iter")
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if rec.branch("gcf_d_small", abs(d), _FPMIN):
            rec.stmt("gcf_d_rescue")
            d = _FPMIN
        c = b + an / c
        if rec.branch("gcf_c_small", abs(c), _FPMIN):
            rec.stmt("gcf_c_rescue")
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if rec.branch("gcf_conv", abs(delta - 1.0), _EPS_GAMMA):
            rec.stmt("gcf_return")
            return math.exp(-x + a * math.log(x) - gln) * h
    rec.stmt("raise_gcf_fail")
    raise SutFault("a too large for continued fraction")


def _gammq(rec: Recorder, a: float, x: float) -> float:
    rec.stmt("entry")
    if rec.branch("x<0", x, 0.0) or rec.branch("a<=0", a, 0.0):
        rec.stmt("raise_bad_args")
        raise SutFault("invalid arguments")
    if rec.branch("x<a+1", x, a + 1.0):
        rec.stmt("use_series")
        return 1.0 - _gser(rec, a, x)
    rec.stmt("use_cf")
    return _gcf(rec, a, x)


_GAMMQ_STATEMENTS = (
    "entry",
    "raise_bad_args",
    "use_series",
    "use_cf",
    "gser_init",
    "gser_zero",
    "gser_loop_init",
    "gser_iter",
    "gser_return",
    "raise_gser_fail",
    "gcf_init",
    "gcf_iter",
    "gcf_d_rescue",
    "gcf_c_rescue",
    "gcf_return",
    "raise_gcf_fail",
    "gammln_init",
    "gammln_iter",
)

_GAMMQ_BRANCHES = (
    BranchSite("x<0", "lt", KAPPA_REAL),
    BranchSite("a<=0", "le", KAPPA_REAL),
    BranchSite("x<a+1", "lt", KAPPA_REAL),
    BranchSite("gser_x<=0", "le", KAPPA_REAL),
    BranchSite("gser_conv", "lt", KAPPA_REAL),
    BranchSite("gcf_d_small", "lt", KAPPA_REAL),
    BranchSite("gcf_c_small", "lt", KAPPA_REAL),
    BranchSite("gcf_conv", "lt", KAPPA_REAL),
)


@dataclass(frozen=True)
class _SutDefinition:
    name: str
    run: callable
    statements: tuple
    branches: tuple
    input_specs: tuple
    input_names: tuple


_DEFINITIONS = {
    "triangle": _SutDefinition(
        "triangle",
        _triangle,
        _TRIANGLE_STATEMENTS,
        _TRIANGLE_BRANCHES,
        (
            InputSpec(-10000, 10000, integer=True),
            InputSpec(-10000, 10000, integer=True),
            InputSpec(-10000, 10000, integer=True),
        ),
        ("a", "b", "c"),
    ),
    "expint": _SutDefinition(
        "expint",
        _expint,
        _EXPINT_STATEMENTS,
        _EXPINT_BRANCHES,
        (
            InputSpec(-1, 50000, integer=True),
            InputSpec(-1, 50000, integer=True),
        ),
        ("n", "x"),
    ),
    "gammq": _SutDefinition(
        "gammq",
        _gammq,
        _GAMMQ_STATEMENTS,
        _GAMMQ_BRANCHES,
        (
            InputSpec(-1, 50000, integer=True),
            InputSpec(-1, 50000, integer=True),
        ),
        ("a", "x"),
    ),
}

SUT_NAMES = tuple(sorted(_DEFINITIONS))

# Faults a subject may legitimately raise mid-run; coverage up to the fault
# still counts.
_CAUGHT = (SutFault, OverflowError, ZeroDivisionError, ValueError)


class SutProblem:
    """Coverage targets and heuristics for one instrumented subject.

    Targets are ordered statements first, then (true, false) outcome pairs
    per branch site. All tests call the single subject, so ``id`` is
    always 0.
    """

    def __init__(self, name: str):
        if name not in _DEFINITIONS:
            raise ValueError(f"unknown subject {name!r}; pick one of {SUT_NAMES}")
        d = _DEFINITIONS[name]
        self.name = name
        self._definition = d
        self._stmt_index = {s: i for i, s in enumerate(d.statements)}
        self._site_index = {b.name: j for j, b in enumerate(d.branches)}
        self.statement_count = len(d.statements)
        self.branch_site_count = len(d.branches)
        self.target_count = self.statement_count + 2 * self.branch_site_count
        self.input_specs = d.input_specs

    def target_names(self) -> list:
        names = [f"stmt:{s}" for s in self._definition.statements]
        for site in self._definition.branches:
            names.append(f"branch:{site.name}:true")
            names.append(f"branch:{site.name}:false")
        return names

    def feasible_targets(self) -> range:
        # Feasibility is undecidable in general; every declared target counts.
        return range(self.target_count)

    def random_test(self, rng) -> TestCase:
        return TestCase(0, tuple(spec.draw(rng) for spec in self.input_specs))

    def execute(self, test: TestCase):
        """Run the subject, returning (recorder, result-or-None, fault-or-None)."""
        rec = Recorder(self._stmt_index, self._site_index, self._definition.branches)
        try:
            value = self._definition.run(rec, *test.inputs)
            return rec, value, None
        except _CAUGHT as fault:
            return rec, None, fault

    def evaluate(self, test: TestCase) -> HeuristicVector:
        if test.id != 0:
            raise ValueError("subject tests must have id 0")
        if len(test.inputs) != len(self.input_specs):
            raise ValueError(
                f"{self.name} takes {len(self.input_specs)} inputs, got {len(test.inputs)}"
            )
        for v, spec in zip(test.inputs, self.input_specs):
            if not spec.low <= v <= spec.high:
                raise ValueError(f"input {v} outside [{spec.low}, {spec.high}]")
        rec, _, _ = self.execute(test)
        nonzero = {}
        for i, hit in enumerate(rec.stmt_hits):
            if hit:
                nonzero[i] = 1.0
        base = self.statement_count
        for j in range(self.branch_site_count):
            taken = rec.taken[j]
            last_d = rec.last_d[j]
            for side in (0, 1):
                k = base + 2 * j + side
                if taken[side]:
                    nonzero[k] = 1.0
                elif last_d[side] is not None:
                    nonzero[k] = 1.0 / (1.0 + last_d[side])
        return HeuristicVector(self.target_count, nonzero)

    def manifest(self) -> dict:
        ranges = ",".join(
            f"{name}:{'int' if spec.integer else 'real'}[{spec.low},{spec.high}]"
            for name, spec in zip(self._definition.input_names, self.input_specs)
        )
        return {
            "family": self.name,
            "targets": str(self.target_count),
            "statements": str(self.statement_count),
            "branch_sites": str(self.branch_site_count),
            "inputs": ranges,
        }
