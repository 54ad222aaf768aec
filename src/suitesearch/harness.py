"""Experiment orchestration: plans, deterministic seeding, aggregation, CSV.

A plan is a grid of problem instances crossed with algorithms and
repetitions. Every (instance parameter, repetition) pair derives its seed
from the base seed by hashing, all algorithms within that cell observe the
identical problem instance, and per-algorithm run seeds are tagged with the
algorithm name so adding an algorithm never perturbs the others' random
streams. Results are keyed, not appended, so parallel execution cannot
change any emitted byte; timestamps live only in the sidecar manifest.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import random
import statistics
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from multiprocessing import get_context
from pathlib import Path
from typing import get_type_hints

from .algorithms import run_mio, run_mosa, run_random, run_wts
from .problems import ARTIFICIAL_KINDS, INFEASIBLE, SUT_NAMES, ArtificialProblem, SutProblem
from .problems.artificial import DEFAULT_RANGE
from .stats import mann_whitney_u, vargha_delaney_a12

SCHEMA_VERSION = 1

# Each algorithm's runner and its name in summary.csv's better_than column.
_ALGORITHMS = {
    "mio": (run_mio, "MIO"),
    "mio-nofds": (functools.partial(run_mio, fds=False), "MIO-NOFDS"),
    "mosa": (run_mosa, "MOSA"),
    "wts": (run_wts, "WTS"),
    "random": (run_random, "RAND"),
}

ALGORITHMS = tuple(_ALGORITHMS)

# The landscapes' default instance parameters, which ExperimentPlan fills in.
Z_GRID = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
INFEASIBLE_GRID = (0, 1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)

SUMMARY_COLUMNS = (
    "schema_version",
    "family",
    "param",
    "algorithm",
    "runs",
    "mean_covered",
    "median_covered",
    "mean_feasible_fraction",
    "median_feasible_fraction",
    "mean_coverage_sum",
    "mean_suite_size",
    "mean_evaluations",
    "better_than",
)


@dataclass(frozen=True)
class ExperimentPlan:
    """A family of instances crossed with algorithms, seeds and a budget.

    ``params`` defaults to the family's grid: ``Z_GRID`` for the gradient,
    plateau and deceptive landscapes, ``INFEASIBLE_GRID`` for the infeasible
    one, and ``(0,)`` for a subject. Each parameter makes one instance: a
    subject, or a landscape whose inputs range over ``[0, DEFAULT_RANGE]``.
    ``params`` and ``algorithms`` are stored as tuples, whatever iterable
    was given; a string or bytes is refused, not split. Every value's type
    and range are checked when the plan is built, each instance parameter by
    :meth:`cell_is_valid`, so a plan that exists can run every cell and
    writes what it was given. Each error message starts with the field at
    fault, as in ``budget: must be >= 0``.
    """

    family: str
    params: tuple | None = None
    algorithms: tuple = ("mio", "mosa", "wts", "random")
    repetitions: int = 100
    budget: int = 1000
    base_seed: int = 1

    def __post_init__(self):
        if self.family not in ARTIFICIAL_KINDS and self.family not in SUT_NAMES:
            raise ValueError(
                f"family: unknown family {self.family!r}; pick from "
                f"{', '.join(ARTIFICIAL_KINDS + SUT_NAMES)}"
            )
        if self.params is None:
            if self.family in SUT_NAMES:
                grid = (0,)
            else:
                grid = INFEASIBLE_GRID if self.family == INFEASIBLE else Z_GRID
            object.__setattr__(self, "params", grid)
        for name in ("algorithms", "params"):
            values = getattr(self, name)
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise TypeError(f"{name}: must be a list of values, got {values!r}")
            values = tuple(values)
            object.__setattr__(self, name, values)
            if not values:
                raise ValueError(f"{name}: empty list")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name}: {value!r} given twice")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(
                    f"algorithms: unknown algorithm {name!r}; pick from {ALGORITHMS}"
                )
        for param in self.params:
            reason = self.cell_is_valid(param)
            if reason is not None:
                raise ValueError(f"params: {reason}")
        for name in ("repetitions", "budget", "base_seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name}: must be an int, got {value!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions: must be >= 1")
        if self.budget < 0:
            raise ValueError("budget: must be >= 0")

    def cell_is_valid(self, param) -> str | None:
        """Reason ``param`` cannot be an instance of the plan's family, or
        None when it can. A subject is one fixed instance, parameter 0;
        landscapes need an integer target count >= 1, or an infeasible
        count >= 0."""
        if self.family in SUT_NAMES:
            if type(param) is not int or param != 0:
                return f"subject {self.family} takes parameter 0 only, got {param!r}"
            return None
        if type(param) is not int:
            return f"parameter {param!r} is not an integer"
        if self.family == INFEASIBLE:
            if param < 0:
                return f"infeasible count {param} is negative"
        elif param < 1:
            return f"target count {param} must be >= 1"
        return None


@dataclass(frozen=True)
class RawRun:
    family: str
    param: int
    algorithm: str
    rep: int
    seed: int
    covered: int
    feasible_covered: int
    feasible_total: int
    target_count: int
    coverage_sum: float
    suite_size: int
    evaluations: int

    def check(self, budget: float = float("inf")):
        """Raise ValueError unless one run within ``budget`` evaluations
        could have made this row."""
        rules = {
            "0 <= feasible_covered <= covered <= target_count":
                0 <= self.feasible_covered <= self.covered <= self.target_count,
            # The summary divides by feasible_total.
            "1 <= feasible_total <= target_count": 1 <= self.feasible_total <= self.target_count,
            "feasible_covered <= feasible_total": self.feasible_covered <= self.feasible_total,
            "0 <= suite_size <= covered": 0 <= self.suite_size <= self.covered,
            "covered <= coverage_sum <= target_count":
                self.covered <= self.coverage_sum <= self.target_count,
            "0 <= evaluations <= budget": 0 <= self.evaluations <= budget,
        }
        values = {**{f.name: getattr(self, f.name) for f in fields(self)}, "budget": budget}
        for rule, holds in rules.items():
            if not holds:
                shown = ", ".join(f"{w}={values[w]}" for w in rule.split() if w in values)
                raise ValueError(f"{rule} does not hold: {shown}")


# raw.csv holds one RawRun per line, after the schema version.
_RAW_FIELDS = tuple(f.name for f in fields(RawRun))
RAW_COLUMNS = ("schema_version",) + _RAW_FIELDS


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    rows: list
    instance_notes: list = field(default_factory=list)


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def build_problem(family: str, param: int, rng):
    if family in SUT_NAMES:
        return SutProblem(family)
    return ArtificialProblem.random_instance(family, rng, param)


def run_algorithm(name: str, problem, budget: int, rng, plan: ExperimentPlan):
    # No algorithm reads ``plan``; it stays a parameter because the benchmark's
    # tracer wraps this function with these five positional parameters.
    if name not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    run, _ = _ALGORITHMS[name]
    return run(problem, budget, rng)


def _run_cell(args):
    """One (instance parameter, repetition): all algorithms on one instance.

    Returns the cell's raw rows and its manifest ``instance`` note: the cell,
    the instance seed and, for a landscape, the drawn optima. A failure is
    re-raised as a RuntimeError that names the cell and, for a failed run or
    a row that fails ``RawRun.check``, the algorithm and its run seed.
    """
    plan, param, rep = args
    cell = f"family={plan.family} param={param} rep={rep}"
    # The landscape range stays in the hash, fixed though it is, so that the
    # instance seeds, and every result drawn from them, match earlier runs.
    instance_seed = derive_seed(plan.base_seed, plan.family, param, DEFAULT_RANGE, rep)
    try:
        problem = build_problem(plan.family, param, random.Random(instance_seed))
    except Exception as exc:
        raise RuntimeError(f"cell {cell} instance_seed={instance_seed}: {exc!r}") from exc
    feasible = problem.feasible_targets()
    rows = []
    for name in plan.algorithms:
        run_seed = derive_seed(instance_seed, name)
        try:
            result = run_algorithm(name, problem, plan.budget, random.Random(run_seed), plan)
            row = RawRun(
                family=plan.family,
                param=param,
                algorithm=name,
                rep=rep,
                seed=run_seed,
                covered=len(result.covered_targets),
                feasible_covered=sum(1 for k in result.covered_targets if k in feasible),
                feasible_total=len(feasible),
                target_count=problem.target_count,
                coverage_sum=result.coverage_sum,
                suite_size=len(result.suite),
                evaluations=result.evaluations,
            )
            row.check(plan.budget)
        except Exception as exc:
            raise RuntimeError(
                f"cell {cell} algorithm={name} seed={run_seed}: {exc!r}"
            ) from exc
        rows.append(row)
    note = f"{cell} seed={instance_seed}"
    if plan.family in ARTIFICIAL_KINDS:
        note += f" optima={','.join(str(g) for g in problem.optima)}"
    return param, rep, rows, note


def run_plan(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """Execute every cell of the plan, optionally in parallel.

    The plan checked its parameters when it was built, so every cell runs.
    The outcome is bit-identical for any worker count.
    """
    if workers < 1:
        raise ValueError("workers: must be >= 1")
    work = [(plan, param, rep) for param in plan.params for rep in range(plan.repetitions)]
    workers = min(workers, len(work))
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            outputs = pool.map(_run_cell, work, chunksize=max(1, len(work) // (workers * 8)))
    else:
        outputs = [_run_cell(item) for item in work]
    param_order = {p: i for i, p in enumerate(plan.params)}
    outputs.sort(key=lambda out: (param_order[out[0]], out[1]))
    rows = []
    notes = []
    for _, _, cell_rows, note in outputs:
        rows.extend(cell_rows)
        notes.append(note)
    return ExperimentResult(plan=plan, rows=rows, instance_notes=notes)


# ---------------------------------------------------------------------------
# Aggregation and CSV emission
# ---------------------------------------------------------------------------


def summarize_rows(rows) -> list:
    """Summary rows (as dicts) recomputable from raw rows alone.

    Groups by (family, param); algorithm order and parameter order follow
    first appearance in the raw rows. The better-than column lists every
    algorithm this one beats with effect size above 0.5 and p below 0.05,
    formatted like ``RAND(1.00) WTS(0.82)``.
    """
    groups: dict = {}
    algo_order: dict = {}
    for row in rows:
        groups.setdefault((row.family, row.param), {}).setdefault(
            row.algorithm, []
        ).append(row)
        algo_order.setdefault(row.algorithm, len(algo_order))
    out = []
    for (family, param), per_algo in groups.items():
        names = sorted(per_algo, key=algo_order.get)
        covered = {a: [r.covered for r in per_algo[a]] for a in names}
        for a in names:
            rows_a = per_algo[a]
            better = []
            for b in names:
                if b == a:
                    continue
                effect = vargha_delaney_a12(covered[a], covered[b])
                if effect > 0.5 and mann_whitney_u(covered[a], covered[b]) < 0.05:
                    better.append(f"{_ALGORITHMS[b][1]}({effect:.2f})")
            frac = [r.feasible_covered / r.feasible_total for r in rows_a]
            out.append(
                {
                    "schema_version": SCHEMA_VERSION,
                    "family": family,
                    "param": param,
                    "algorithm": a,
                    "runs": len(rows_a),
                    "mean_covered": statistics.fmean(covered[a]),
                    "median_covered": float(statistics.median(covered[a])),
                    "mean_feasible_fraction": statistics.fmean(frac),
                    "median_feasible_fraction": float(statistics.median(frac)),
                    "mean_coverage_sum": statistics.fmean(
                        r.coverage_sum for r in rows_a
                    ),
                    "mean_suite_size": statistics.fmean(r.suite_size for r in rows_a),
                    "mean_evaluations": statistics.fmean(r.evaluations for r in rows_a),
                    "better_than": " ".join(better),
                }
            )
    return out


def emit_csv(result: ExperimentResult, out_dir) -> dict:
    """Write raw.csv, summary.csv and manifest.txt; returns the paths.

    manifest.txt holds the write time, the schema version and every plan
    field as ``name = value`` in declaration order, a tuple joined with
    commas. A subject adds its ``sut_`` manifest and target names; then
    comes one ``instance`` line per cell.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    raw_path = out / "raw.csv"
    with raw_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        for r in result.rows:
            writer.writerow([SCHEMA_VERSION, *(getattr(r, name) for name in _RAW_FIELDS)])
    summary_path = out / "summary.csv"
    write_summary(summarize_rows(result.rows), summary_path)
    manifest_path = out / "manifest.txt"
    with manifest_path.open("w") as fh:
        fh.write(f"written_at = {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        fh.write(f"schema_version = {SCHEMA_VERSION}\n")
        for f in fields(result.plan):
            value = getattr(result.plan, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            fh.write(f"{f.name} = {value}\n")
        if result.plan.family in SUT_NAMES:
            problem = SutProblem(result.plan.family)
            for key, value in problem.manifest().items():
                fh.write(f"sut_{key} = {value}\n")
            for i, name in enumerate(problem.target_names()):
                fh.write(f"target_{i} = {name}\n")
        for note in result.instance_notes:
            fh.write(f"instance = {note}\n")
    return {"raw": raw_path, "summary": summary_path, "manifest": manifest_path}


def write_summary(summary_rows, path):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for row in summary_rows:
            writer.writerow([row[c] for c in SUMMARY_COLUMNS])


def read_raw_csv(path) -> list:
    """Raw rows back from disk, each passing ``RawRun.check``, for recomputing summaries."""
    parse = get_type_hints(RawRun)  # field name -> str, int or float
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            try:
                # DictReader files a long row's extra fields under None and
                # fills a short row's missing fields with None.
                if None in rec or None in rec.values():
                    raise ValueError(f"expected {len(reader.fieldnames)} fields")
                if int(rec["schema_version"]) != SCHEMA_VERSION:
                    raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
                row = RawRun(**{name: parse[name](rec[name]) for name in _RAW_FIELDS})
                if row.algorithm not in _ALGORITHMS:
                    raise ValueError(
                        f"unknown algorithm {row.algorithm!r}; pick from {ALGORITHMS}"
                    )
                row.check()
                rows.append(row)
            except KeyError as exc:
                raise ValueError(f"{path}: no column {exc.args[0]!r}") from None
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# Built-in plans
# ---------------------------------------------------------------------------


def figure_plans(base_seed: int = 1, repetitions: int = 100) -> dict:
    """The four landscape sweeps: one plan per family, keyed by family."""
    common = dict(repetitions=repetitions, budget=1000, base_seed=base_seed)
    plans = {
        kind: ExperimentPlan(family=kind, **common)
        for kind in ("gradient", "plateau", "deceptive")
    }
    plans[INFEASIBLE] = ExperimentPlan(family=INFEASIBLE, algorithms=ALGORITHMS, **common)
    return plans


def sut_plans(base_seed: int = 1, repetitions: int = 100) -> dict:
    """Unit-testing comparison on the three subjects at budget 5000."""
    common = dict(repetitions=repetitions, budget=5000, base_seed=base_seed)
    return {name: ExperimentPlan(family=name, **common) for name in SUT_NAMES}
