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
import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field, fields
from multiprocessing import get_context
from pathlib import Path
from typing import get_type_hints

from .algorithms import run_mio, run_mosa, run_random, run_wts
from .core import Budget
from .problems import ARTIFICIAL_KINDS, INFEASIBLE, SUT_NAMES, ArtificialProblem, SutProblem
from .stats import mann_whitney_u, vargha_delaney_a12

SCHEMA_VERSION = 1

DISPLAY_NAMES = {
    "mio": "MIO",
    "mio-nofds": "MIO-NOFDS",
    "mosa": "MOSA",
    "wts": "WTS",
    "random": "RAND",
}

ALGORITHMS = tuple(DISPLAY_NAMES)

# Parameter grids used throughout the figure replications.
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

    Every value's type and range are checked when the plan is built, each
    instance parameter by :meth:`cell_is_valid`, so a plan that exists can
    run every cell and writes what it was given.
    """

    family: str
    params: tuple = (0,)
    algorithms: tuple = ("mio", "mosa", "wts", "random")
    repetitions: int = 100
    budget: int = 1000
    base_seed: int = 1
    r: int = 1000

    def __post_init__(self):
        if self.family not in ARTIFICIAL_KINDS and self.family not in SUT_NAMES:
            raise ValueError(f"unknown problem family {self.family!r}")
        if not self.algorithms:
            raise ValueError("plan needs at least one algorithm")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}; pick from {ALGORITHMS}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithm in plan")
        if not self.params:
            raise ValueError("plan needs at least one parameter")
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter in plan")
        for param in self.params:
            reason = self.cell_is_valid(param)
            if reason is not None:
                raise ValueError(reason)
        for name in ("repetitions", "budget", "base_seed", "r"):
            value = getattr(self, name)
            if type(value) is not int:
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.r < 1:
            raise ValueError("r must be >= 1")

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


# raw.csv holds one RawRun per line, after the schema version.
_RAW_FIELDS = tuple(f.name for f in fields(RawRun))
RAW_COLUMNS = ("schema_version",) + _RAW_FIELDS


@dataclass
class ExperimentResult:
    plan: ExperimentPlan
    rows: list
    instance_notes: list = field(default_factory=list)

    def rows_for(self, param, algorithm) -> list:
        return [
            r for r in self.rows if r.param == param and r.algorithm == algorithm
        ]

    def covered_values(self, param, algorithm) -> list:
        return [r.covered for r in self.rows_for(param, algorithm)]

    def mean_feasible_fraction(self, param, algorithm) -> float:
        rows = self.rows_for(param, algorithm)
        return sum(r.feasible_covered / r.feasible_total for r in rows) / len(rows)


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def build_problem(family: str, param: int, rng, r: int = 1000):
    if family in SUT_NAMES:
        return SutProblem(family)
    if family == INFEASIBLE:
        return ArtificialProblem.random_instance(family, rng, infeasible_count=param, r=r)
    return ArtificialProblem.random_instance(family, rng, z=param, r=r)


def run_algorithm(name: str, problem, budget: Budget, rng, plan: ExperimentPlan):
    # No algorithm reads ``plan``; it stays a parameter because the benchmark's
    # tracer wraps this function with these five positional parameters.
    if name == "mio":
        return run_mio(problem, budget, rng)
    if name == "mio-nofds":
        return run_mio(problem, budget, rng, fds=False)
    if name == "mosa":
        return run_mosa(problem, budget, rng)
    if name == "wts":
        return run_wts(problem, budget, rng)
    if name == "random":
        return run_random(problem, budget, rng)
    raise ValueError(f"unknown algorithm {name!r}")


def _run_cell(args):
    """One (instance parameter, repetition): all algorithms on one instance.

    A failure is re-raised as a RuntimeError that names the cell and, for a
    failed run, the algorithm and its run seed.
    """
    plan, param, rep = args
    cell = f"family={plan.family} param={param} rep={rep}"
    instance_seed = derive_seed(plan.base_seed, plan.family, param, plan.r, rep)
    instance_rng = random.Random(instance_seed)
    try:
        problem = build_problem(plan.family, param, instance_rng, plan.r)
    except Exception as exc:
        raise RuntimeError(f"cell {cell} instance_seed={instance_seed}: {exc!r}") from exc
    feasible = list(problem.feasible_targets())
    feasible_total = len(feasible)
    feasible_set = set(feasible)
    rows = []
    for name in plan.algorithms:
        run_seed = derive_seed(instance_seed, name)
        try:
            result = run_algorithm(
                name, problem, Budget(plan.budget), random.Random(run_seed), plan
            )
        except Exception as exc:
            raise RuntimeError(
                f"cell {cell} algorithm={name} seed={run_seed}: {exc!r}"
            ) from exc
        feasible_covered = sum(1 for k in result.covered_targets if k in feasible_set)
        rows.append(
            RawRun(
                family=plan.family,
                param=param,
                algorithm=name,
                rep=rep,
                seed=run_seed,
                covered=result.covered_count,
                feasible_covered=feasible_covered,
                feasible_total=feasible_total,
                target_count=problem.target_count,
                coverage_sum=result.coverage_sum,
                suite_size=len(result.suite),
                evaluations=result.evaluations,
            )
        )
    note = f"{cell} seed={instance_seed}"
    manifest = problem.manifest()
    if "optima" in manifest:
        note += f" optima={manifest['optima']}"
    return param, rep, rows, note


def run_plan(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """Execute every cell of the plan, optionally in parallel.

    The plan checked its parameters when it was built, so every cell runs.
    The outcome is bit-identical for any worker count.
    """
    work = [(plan, param, rep) for param in plan.params for rep in range(plan.repetitions)]
    if workers > 1 and len(work) > 1:
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
                    better.append(f"{DISPLAY_NAMES[b]}({effect:.2f})")
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
    """Write raw.csv, summary.csv and manifest.txt; returns the paths."""
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
        fh.write(f"family = {result.plan.family}\n")
        fh.write(f"params = {','.join(str(p) for p in result.plan.params)}\n")
        fh.write(f"algorithms = {','.join(result.plan.algorithms)}\n")
        fh.write(f"repetitions = {result.plan.repetitions}\n")
        fh.write(f"budget = {result.plan.budget}\n")
        fh.write(f"base_seed = {result.plan.base_seed}\n")
        fh.write(f"r = {result.plan.r}\n")
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
    """Raw rows back from disk, for recomputing summaries."""
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
                row = RawRun(**{name: parse[name](rec[name]) for name in _RAW_FIELDS})
                # The summary divides by it.
                if row.feasible_total < 1:
                    raise ValueError(f"feasible_total must be >= 1, got {row.feasible_total}")
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
        kind: ExperimentPlan(family=kind, params=Z_GRID, **common)
        for kind in ("gradient", "plateau", "deceptive")
    }
    plans[INFEASIBLE] = ExperimentPlan(
        family=INFEASIBLE,
        params=INFEASIBLE_GRID,
        algorithms=("mio", "mio-nofds", "mosa", "wts", "random"),
        **common,
    )
    return plans


def sut_plans(base_seed: int = 1, repetitions: int = 100) -> dict:
    """Unit-testing comparison on the three subjects at budget 5000."""
    return {
        name: ExperimentPlan(
            family=name,
            params=(0,),
            repetitions=repetitions,
            budget=5000,
            base_seed=base_seed,
        )
        for name in SUT_NAMES
    }


# ---------------------------------------------------------------------------
# Flat key = value config files
# ---------------------------------------------------------------------------


def read_config(path) -> dict:
    """Parse a flat ``key = value`` config file.

    Blank lines and lines starting with ``#`` are ignored; values keep
    internal whitespace; list values are comma-separated. A key may appear
    once: a repeated key is rejected like a malformed line.
    """
    options = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in options:
            raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
        options[key] = value.strip()
    return options
