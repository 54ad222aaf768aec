"""Instrumented numerical functions for unit-level coverage experiments.

Three classic subjects are re-implemented with explicit statement and
branch probes: the exponential integral ``expint(n, x)``, the regularized
incomplete gamma complement ``gammq(a, x)`` and the three-integer triangle
classifier. Every comparison in a predicate is its own branch site with two
outcome targets (true/false). A statement target scores 1 when executed
and 0 otherwise; a branch outcome scores 1 when taken, ``1 / (1 + d)`` when
its predicate was reached but the outcome never taken, where ``d`` is the
branch distance of that outcome at the latest evaluation of the predicate,
and 0 when the predicate was never reached.

Probes name their target by an integer slot constant. Each constant
declares its own target at import, so the order in which a subject's slot
constants are declared is its target order: statement ``i`` is slot ``i``
of the recorder's statement list, and branch site ``j`` owns slots ``2j``
(true) and ``2j + 1`` (false). These declarations are the one source of
the target names and their order.

A loop's statement probe runs once, before its first iteration: a hit flag
is all a statement records, and every loop body here runs at least once.
Comparisons inside a loop still call their recorder method on every
iteration.

Numeric faults raised mid-execution (bad arguments, overflow, failed
convergence) are part of the subjects' behaviour: the test simply scores
whatever executed before the fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from .base import InputSpec
from ..core import TestCase

# Distance offset for strict comparisons: how far past the boundary the
# left operand must move. Exact for integers, a nominal epsilon for reals.
KAPPA_INT = 1.0
KAPPA_REAL = 1e-6


class SutFault(Exception):
    """Raised by a subject for invalid arguments or failed convergence."""


@dataclass(frozen=True)
class BranchSite:
    name: str
    kappa: float = KAPPA_INT


class _Targets:
    """One subject's statements and branch sites, in declaration order.

    Each call declares one target and returns its slot.
    """

    def __init__(self):
        self.statements = ()
        self.branches = ()

    def stmt(self, name: str) -> int:
        """Slot ``i`` of new statement ``i``."""
        self.statements += (name,)
        return len(self.statements) - 1

    def site(self, name: str, kappa: float = KAPPA_INT) -> int:
        """Slot ``2j`` of new branch site ``j``; its false outcome is ``2j + 1``."""
        self.branches += (BranchSite(name, kappa),)
        return 2 * len(self.branches) - 2


class Recorder:
    """Per-execution coverage state for one subject run.

    ``stmt_hits[i]`` is set when statement ``i`` runs. For the outcome in
    slot ``k`` (``2j + side`` of branch site ``j``), ``taken[k]`` is set
    once it is taken, and ``dist[k]`` holds its branch distance from the
    latest evaluation that did not take it (None until there is one).

    Each comparison method takes the site's slot ``2j`` and its two
    operands, returns the Python comparison, flags the side taken and
    stores the other side's distance, which is positive; the taken side's
    distance is 0 and is not stored. These methods are the one statement
    of the distance rules. ``kappa[k]`` is the site's offset for strict
    comparisons, the same for both of its slots.
    """

    __slots__ = ("stmt_hits", "taken", "dist", "kappa")

    def __init__(self, statement_count: int, kappa: tuple):
        self.stmt_hits = [False] * statement_count
        self.taken = [False] * len(kappa)
        self.dist = [None] * len(kappa)
        self.kappa = kappa

    def stmt(self, i: int):
        self.stmt_hits[i] = True

    def eq(self, k: int, lhs, rhs) -> bool:
        if lhs == rhs:
            self.taken[k] = True
            self.dist[k + 1] = self.kappa[k]
            return True
        self.taken[k + 1] = True
        self.dist[k] = lhs - rhs if lhs >= rhs else rhs - lhs
        return False

    def ne(self, k: int, lhs, rhs) -> bool:
        if lhs != rhs:
            self.taken[k] = True
            self.dist[k + 1] = lhs - rhs if lhs >= rhs else rhs - lhs
            return True
        self.taken[k + 1] = True
        self.dist[k] = self.kappa[k]
        return False

    def lt(self, k: int, lhs, rhs) -> bool:
        if lhs < rhs:
            self.taken[k] = True
            self.dist[k + 1] = rhs - lhs
            return True
        self.taken[k + 1] = True
        self.dist[k] = lhs - rhs + self.kappa[k]
        return False

    def le(self, k: int, lhs, rhs) -> bool:
        if lhs <= rhs:
            self.taken[k] = True
            self.dist[k + 1] = rhs - lhs + self.kappa[k]
            return True
        self.taken[k + 1] = True
        self.dist[k] = lhs - rhs
        return False

    def gt(self, k: int, lhs, rhs) -> bool:
        if lhs > rhs:
            self.taken[k] = True
            self.dist[k + 1] = lhs - rhs
            return True
        self.taken[k + 1] = True
        self.dist[k] = rhs - lhs + self.kappa[k]
        return False


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
    rec.stmt(_T_ENTRY)
    if rec.le(_T_A_LE_0, a, 0) or rec.le(_T_B_LE_0, b, 0) or rec.le(_T_C_LE_0, c, 0):
        rec.stmt(_T_RET_NONPOSITIVE)
        return INVALID
    rec.stmt(_T_CHECK_SIDES)
    if (
        rec.le(_T_AB_LE_C, a + b, c)
        or rec.le(_T_AC_LE_B, a + c, b)
        or rec.le(_T_BC_LE_A, b + c, a)
    ):
        rec.stmt(_T_RET_NOT_TRIANGLE)
        return INVALID
    rec.stmt(_T_CLASSIFY)
    if rec.eq(_T_A_EQ_B, a, b) and rec.eq(_T_B_EQ_C, b, c):
        rec.stmt(_T_RET_EQUILATERAL)
        return EQUILATERAL
    if (
        rec.eq(_T_ISO_A_EQ_B, a, b)
        or rec.eq(_T_ISO_B_EQ_C, b, c)
        or rec.eq(_T_ISO_A_EQ_C, a, c)
    ):
        rec.stmt(_T_RET_ISOSCELES)
        return ISOSCELES
    rec.stmt(_T_RET_SCALENE)
    return SCALENE


_TRIANGLE = _Targets()
_T_ENTRY = _TRIANGLE.stmt("entry")
_T_RET_NONPOSITIVE = _TRIANGLE.stmt("ret_nonpositive")
_T_CHECK_SIDES = _TRIANGLE.stmt("check_sides")
_T_RET_NOT_TRIANGLE = _TRIANGLE.stmt("ret_not_triangle")
_T_CLASSIFY = _TRIANGLE.stmt("classify")
_T_RET_EQUILATERAL = _TRIANGLE.stmt("ret_equilateral")
_T_RET_ISOSCELES = _TRIANGLE.stmt("ret_isosceles")
_T_RET_SCALENE = _TRIANGLE.stmt("ret_scalene")

_T_A_LE_0 = _TRIANGLE.site("a<=0")
_T_B_LE_0 = _TRIANGLE.site("b<=0")
_T_C_LE_0 = _TRIANGLE.site("c<=0")
_T_AB_LE_C = _TRIANGLE.site("a+b<=c")
_T_AC_LE_B = _TRIANGLE.site("a+c<=b")
_T_BC_LE_A = _TRIANGLE.site("b+c<=a")
_T_A_EQ_B = _TRIANGLE.site("a==b")
_T_B_EQ_C = _TRIANGLE.site("b==c")
_T_ISO_A_EQ_B = _TRIANGLE.site("iso_a==b")
_T_ISO_B_EQ_C = _TRIANGLE.site("iso_b==c")
_T_ISO_A_EQ_C = _TRIANGLE.site("iso_a==c")


def _expint(rec: Recorder, n: int, x: float) -> float:
    rec.stmt(_E_ENTRY)
    if (
        rec.lt(_E_N_LT_0, n, 0)
        or rec.lt(_E_X_LT_0, x, 0.0)
        or (
            rec.eq(_E_X_EQ_0, x, 0.0)
            and (rec.eq(_E_ARG_N_EQ_0, n, 0) or rec.eq(_E_ARG_N_EQ_1, n, 1))
        )
    ):
        rec.stmt(_E_RAISE_BAD_ARGS)
        raise SutFault("bad arguments")
    if rec.eq(_E_N_EQ_0, n, 0):
        rec.stmt(_E_DIRECT)
        ans = math.exp(-x) / x
    else:
        rec.stmt(_E_SETUP)
        nm1 = n - 1
        if rec.eq(_E_INNER_X_EQ_0, x, 0.0):
            rec.stmt(_E_POLE_AT_ZERO)
            ans = 1.0 / nm1
        elif rec.gt(_E_X_GT_1, x, 1.0):
            rec.stmt(_E_CF_INIT)
            b = x + n
            c = 1.0 / _FPMIN
            d = 1.0 / b
            h = d
            rec.stmt(_E_CF_ITER)
            for i in range(1, _MAXIT + 1):
                a = -i * (nm1 + i)
                b += 2.0
                d = 1.0 / (a * d + b)
                c = b + a / c
                delta = c * d
                h *= delta
                if rec.lt(_E_CF_CONV, abs(delta - 1.0), _EPS_EXPINT):
                    rec.stmt(_E_CF_RETURN)
                    return h * math.exp(-x)
            rec.stmt(_E_RAISE_CF_FAIL)
            raise SutFault("continued fraction failed")
        else:
            rec.stmt(_E_SERIES_INIT)
            if rec.ne(_E_NM1_NE_0, nm1, 0):
                rec.stmt(_E_SERIES_POLE)
                ans = 1.0 / nm1
            else:
                rec.stmt(_E_SERIES_LOG)
                ans = -math.log(x) - _EULER
            fact = 1.0
            rec.stmt(_E_SERIES_ITER)
            for i in range(1, _MAXIT + 1):
                fact *= -x / i
                if rec.ne(_E_I_NE_NM1, i, nm1):
                    rec.stmt(_E_SERIES_TERM)
                    delta = -fact / (i - nm1)
                else:
                    rec.stmt(_E_PSI_INIT)
                    psi = -_EULER
                    rec.stmt(_E_PSI_ITER)
                    for ii in range(1, nm1 + 1):
                        psi += 1.0 / ii
                    delta = fact * (-math.log(x) + psi)
                ans += delta
                if rec.lt(_E_SERIES_CONV, abs(delta), abs(ans) * _EPS_EXPINT):
                    rec.stmt(_E_SERIES_RETURN)
                    return ans
            rec.stmt(_E_RAISE_SERIES_FAIL)
            raise SutFault("series failed")
    rec.stmt(_E_RETURN_DIRECT)
    return ans


_EXPINT = _Targets()
_E_ENTRY = _EXPINT.stmt("entry")
_E_RAISE_BAD_ARGS = _EXPINT.stmt("raise_bad_args")
_E_DIRECT = _EXPINT.stmt("direct")
_E_SETUP = _EXPINT.stmt("setup")
_E_POLE_AT_ZERO = _EXPINT.stmt("pole_at_zero")
_E_CF_INIT = _EXPINT.stmt("cf_init")
_E_CF_ITER = _EXPINT.stmt("cf_iter")
_E_CF_RETURN = _EXPINT.stmt("cf_return")
_E_RAISE_CF_FAIL = _EXPINT.stmt("raise_cf_fail")
_E_SERIES_INIT = _EXPINT.stmt("series_init")
_E_SERIES_POLE = _EXPINT.stmt("series_pole")
_E_SERIES_LOG = _EXPINT.stmt("series_log")
_E_SERIES_ITER = _EXPINT.stmt("series_iter")
_E_SERIES_TERM = _EXPINT.stmt("series_term")
_E_PSI_INIT = _EXPINT.stmt("psi_init")
_E_PSI_ITER = _EXPINT.stmt("psi_iter")
_E_SERIES_RETURN = _EXPINT.stmt("series_return")
_E_RAISE_SERIES_FAIL = _EXPINT.stmt("raise_series_fail")
_E_RETURN_DIRECT = _EXPINT.stmt("return_direct")

_E_N_LT_0 = _EXPINT.site("n<0")
_E_X_LT_0 = _EXPINT.site("x<0", KAPPA_REAL)
_E_X_EQ_0 = _EXPINT.site("x==0", KAPPA_REAL)
_E_ARG_N_EQ_0 = _EXPINT.site("arg_n==0")
_E_ARG_N_EQ_1 = _EXPINT.site("arg_n==1")
_E_N_EQ_0 = _EXPINT.site("n==0")
_E_INNER_X_EQ_0 = _EXPINT.site("inner_x==0", KAPPA_REAL)
_E_X_GT_1 = _EXPINT.site("x>1", KAPPA_REAL)
_E_CF_CONV = _EXPINT.site("cf_conv", KAPPA_REAL)
_E_NM1_NE_0 = _EXPINT.site("nm1!=0")
_E_I_NE_NM1 = _EXPINT.site("i!=nm1")
_E_SERIES_CONV = _EXPINT.site("series_conv", KAPPA_REAL)


def _gammln(rec: Recorder, a: float) -> float:
    rec.stmt(_G_GAMMLN_INIT)
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
    rec.stmt(_G_GAMMLN_ITER)
    for coefficient in coefficients:
        y += 1.0
        ser += coefficient / y
    return -tmp + math.log(2.5066282746310005 * ser / a)


def _gser(rec: Recorder, a: float, x: float) -> float:
    rec.stmt(_G_GSER_INIT)
    gln = _gammln(rec, a)
    if rec.le(_G_GSER_X_LE_0, x, 0.0):
        rec.stmt(_G_GSER_ZERO)
        return 0.0
    rec.stmt(_G_GSER_LOOP_INIT)
    ap = a
    total = 1.0 / a
    delta = total
    rec.stmt(_G_GSER_ITER)
    for _ in range(1, _MAXIT + 1):
        ap += 1.0
        delta *= x / ap
        total += delta
        if rec.lt(_G_GSER_CONV, abs(delta), abs(total) * _EPS_GAMMA):
            rec.stmt(_G_GSER_RETURN)
            return total * math.exp(-x + a * math.log(x) - gln)
    rec.stmt(_G_RAISE_GSER_FAIL)
    raise SutFault("a too large for series")


def _gcf(rec: Recorder, a: float, x: float) -> float:
    rec.stmt(_G_GCF_INIT)
    gln = _gammln(rec, a)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    rec.stmt(_G_GCF_ITER)
    for i in range(1, _MAXIT + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if rec.lt(_G_GCF_D_SMALL, abs(d), _FPMIN):
            rec.stmt(_G_GCF_D_RESCUE)
            d = _FPMIN
        c = b + an / c
        if rec.lt(_G_GCF_C_SMALL, abs(c), _FPMIN):
            rec.stmt(_G_GCF_C_RESCUE)
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if rec.lt(_G_GCF_CONV, abs(delta - 1.0), _EPS_GAMMA):
            rec.stmt(_G_GCF_RETURN)
            return math.exp(-x + a * math.log(x) - gln) * h
    rec.stmt(_G_RAISE_GCF_FAIL)
    raise SutFault("a too large for continued fraction")


def _gammq(rec: Recorder, a: float, x: float) -> float:
    rec.stmt(_G_ENTRY)
    if rec.lt(_G_X_LT_0, x, 0.0) or rec.le(_G_A_LE_0, a, 0.0):
        rec.stmt(_G_RAISE_BAD_ARGS)
        raise SutFault("invalid arguments")
    if rec.lt(_G_X_LT_A1, x, a + 1.0):
        rec.stmt(_G_USE_SERIES)
        return 1.0 - _gser(rec, a, x)
    rec.stmt(_G_USE_CF)
    return _gcf(rec, a, x)


_GAMMQ = _Targets()
_G_ENTRY = _GAMMQ.stmt("entry")
_G_RAISE_BAD_ARGS = _GAMMQ.stmt("raise_bad_args")
_G_USE_SERIES = _GAMMQ.stmt("use_series")
_G_USE_CF = _GAMMQ.stmt("use_cf")
_G_GSER_INIT = _GAMMQ.stmt("gser_init")
_G_GSER_ZERO = _GAMMQ.stmt("gser_zero")
_G_GSER_LOOP_INIT = _GAMMQ.stmt("gser_loop_init")
_G_GSER_ITER = _GAMMQ.stmt("gser_iter")
_G_GSER_RETURN = _GAMMQ.stmt("gser_return")
_G_RAISE_GSER_FAIL = _GAMMQ.stmt("raise_gser_fail")
_G_GCF_INIT = _GAMMQ.stmt("gcf_init")
_G_GCF_ITER = _GAMMQ.stmt("gcf_iter")
_G_GCF_D_RESCUE = _GAMMQ.stmt("gcf_d_rescue")
_G_GCF_C_RESCUE = _GAMMQ.stmt("gcf_c_rescue")
_G_GCF_RETURN = _GAMMQ.stmt("gcf_return")
_G_RAISE_GCF_FAIL = _GAMMQ.stmt("raise_gcf_fail")
_G_GAMMLN_INIT = _GAMMQ.stmt("gammln_init")
_G_GAMMLN_ITER = _GAMMQ.stmt("gammln_iter")

_G_X_LT_0 = _GAMMQ.site("x<0", KAPPA_REAL)
_G_A_LE_0 = _GAMMQ.site("a<=0", KAPPA_REAL)
_G_X_LT_A1 = _GAMMQ.site("x<a+1", KAPPA_REAL)
_G_GSER_X_LE_0 = _GAMMQ.site("gser_x<=0", KAPPA_REAL)
_G_GSER_CONV = _GAMMQ.site("gser_conv", KAPPA_REAL)
_G_GCF_D_SMALL = _GAMMQ.site("gcf_d_small", KAPPA_REAL)
_G_GCF_C_SMALL = _GAMMQ.site("gcf_c_small", KAPPA_REAL)
_G_GCF_CONV = _GAMMQ.site("gcf_conv", KAPPA_REAL)


@dataclass(frozen=True)
class _SutDefinition:
    run: callable
    statements: tuple
    branches: tuple
    input_specs: tuple
    input_names: tuple


_DEFINITIONS = {
    "triangle": _SutDefinition(
        _triangle,
        _TRIANGLE.statements,
        _TRIANGLE.branches,
        (
            InputSpec(-10000, 10000, integer=True),
            InputSpec(-10000, 10000, integer=True),
            InputSpec(-10000, 10000, integer=True),
        ),
        ("a", "b", "c"),
    ),
    "expint": _SutDefinition(
        _expint,
        _EXPINT.statements,
        _EXPINT.branches,
        (
            InputSpec(-1, 50000, integer=True),
            InputSpec(-1, 50000, integer=True),
        ),
        ("n", "x"),
    ),
    "gammq": _SutDefinition(
        _gammq,
        _GAMMQ.statements,
        _GAMMQ.branches,
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
        self._kappa = tuple(site.kappa for site in d.branches for _side in (0, 1))
        self.statement_count = len(d.statements)
        self.branch_site_count = len(d.branches)
        self.target_count = self.statement_count + 2 * self.branch_site_count
        self.input_specs = d.input_specs
        self._bounds = tuple((spec.low, spec.high) for spec in d.input_specs)

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
        rec = Recorder(self.statement_count, self._kappa)
        try:
            value = self._definition.run(rec, *test.inputs)
            return rec, value, None
        except _CAUGHT as fault:
            return rec, None, fault

    def evaluate(self, test: TestCase) -> dict:
        if test.id != 0:
            raise ValueError("subject tests must have id 0")
        inputs = test.inputs
        if len(inputs) != len(self._bounds):
            raise ValueError(f"{self.name} takes {len(self._bounds)} inputs, got {len(inputs)}")
        for v, (low, high) in zip(inputs, self._bounds):
            if not low <= v <= high:
                raise ValueError(f"input {v} outside [{low}, {high}]")
        rec, _, _ = self.execute(test)
        # Keys in ascending target id (statements, then each site's true and
        # false outcome): Archive.save stamps and sums the values in this
        # order.
        k = self.statement_count
        h = dict.fromkeys(compress(range(k), rec.stmt_hits), 1.0)
        for taken, d in zip(rec.taken, rec.dist):
            if taken:
                h[k] = 1.0
            elif d is not None:
                h[k] = 1.0 / (1.0 + d)
            k += 1
        return h

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
