"""Runs the benchmark's workloads through the harness's public API and checks
their outputs.

An untraced run (``--trace 0``) repeats the workload's full sweep -- every
plan through ``run_plan`` at two fork-pool workers, then ``emit_csv`` -- until
``--seconds`` are used, and reports medians over the sweeps. A traced run
(``--trace 1``) makes one pool sweep for the harness metrics, then two
single-process sweeps of the same plans, one with a timer per algorithm run
only and one with every layer boundary spanned (see spans.py).

Every sweep's outputs are checked per family: the run must not raise,
``raw.csv`` rows must be internally consistent, ``summary.csv`` must equal
the summary recomputed from ``raw.csv`` (the ``stats`` command's contract),
and both files must match the sha256 pinned in pins.json for the seed, or
for an unpinned seed the first sweep of this run. A run at an unpinned seed
also sweeps one pinned seed, chosen by the seed's parity. A family that
fails any check counts all its runs as failed; the other families still run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads
from suitesearch import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"

# ROADMAP's end-to-end target, replicate-figures and replicate-table1, runs at
# --workers 2 (= nproc on the reference machine); fixed so results compare
# across machines.
WORKERS = 2
# The plans' default base seed, and one seed held out from tuning.
PINNED_SEEDS = (1, 1901)
MIN_SWEEPS = 3
# Fresh interpreters timed per run for setup_s, at least: one after each sweep.
SETUP_PROBES = 7


# ---------------------------------------------------------------------------
# One family, one sweep
# ---------------------------------------------------------------------------


@dataclass
class FamilyRun:
    family: str
    runs: int  # algorithm runs the plan attempts
    evaluations: int = 0
    run_plan_s: float = 0.0
    emit_csv_s: float = 0.0
    child_cpu_s: float = 0.0
    parent_cpu_s: float = 0.0
    hashes: dict | None = None
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _expected_runs(plan) -> int:
    cells = sum(1 for p in plan.params if plan.cell_is_valid(p) is None)
    return cells * plan.repetitions * len(plan.algorithms)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_family(plan, workers: int, out_dir: Path) -> FamilyRun:
    """Time run_plan + emit_csv for one plan, then check the files written."""
    fam = FamilyRun(plan.family, _expected_runs(plan))
    try:
        children, parent = _cpu(resource.RUSAGE_CHILDREN), _cpu(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = harness.run_plan(plan, workers=workers)
        t1 = time.perf_counter()
        paths = harness.emit_csv(result, out_dir)
        t2 = time.perf_counter()
        fam.child_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - children
        fam.parent_cpu_s = _cpu(resource.RUSAGE_SELF) - parent
    except Exception:
        fam.problems.append(f"{plan.family}: raised\n{traceback.format_exc()}")
        return fam
    fam.run_plan_s, fam.emit_csv_s = t1 - t0, t2 - t1
    fam.evaluations = sum(r.evaluations for r in result.rows)
    fam.hashes = {name: _sha256(paths[name[:-4]]) for name in ("raw.csv", "summary.csv")}
    fam.problems.extend(_validate(plan, result.rows, fam.runs, paths))
    return fam


def _validate(plan, rows, runs: int, paths) -> list:
    """Consistency of the rows, and summary.csv against a recomputation."""
    problems = []
    if len(rows) != runs:
        problems.append(f"{plan.family}: {len(rows)} rows for {runs} runs")
    for r in rows:
        if not (
            1 <= r.evaluations <= plan.budget
            and 0 <= r.feasible_covered <= min(r.covered, r.feasible_total)
            and r.covered <= r.target_count
            and r.covered <= r.coverage_sum <= r.target_count
            and r.suite_size <= r.covered
        ):
            problems.append(f"{plan.family}: inconsistent row {r}")
            break
    recomputed = paths["summary"].with_name("summary.recomputed.csv")
    harness.write_summary(harness.summarize_rows(harness.read_raw_csv(paths["raw"])), recomputed)
    if recomputed.read_bytes() != paths["summary"].read_bytes():
        problems.append(f"{plan.family}: summary.csv differs from the one recomputed from raw.csv")
    return problems


class Tally:
    """Runs attempted and failed over every sweep of this benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def note(self, problem: str):
        self.problems.append(problem)
        print(f"bench: FAILED {problem}", file=sys.stderr)


def run_sweep(plans: dict, workers: int, out_dir: Path, reference, tally: Tally) -> list:
    """Every plan once; families that raise or mismatch count all their runs as failed."""
    sweep = []
    for family, plan in plans.items():
        fam = run_family(plan, workers, out_dir / family)
        expected = (reference or {}).get(family)
        if fam.hashes is not None and expected is not None and fam.hashes != expected:
            fam.problems.append(f"{family}: outputs {fam.hashes} differ from reference {expected}")
        tally.attempted += fam.runs
        if not fam.ok:
            tally.failed += fam.runs
            for problem in fam.problems:
                tally.note(f"[{out_dir.name} seed {plan.base_seed}] {problem}")
        sweep.append(fam)
    return sweep


def _hashes(sweep) -> dict:
    return {fam.family: fam.hashes for fam in sweep if fam.ok}


# ---------------------------------------------------------------------------
# Pins
# ---------------------------------------------------------------------------


def load_pins() -> dict:
    pins = json.loads(PINS.read_text())
    if pins["repetitions"] != workloads.REPETITIONS or pins["workers"] != WORKERS:
        sys.exit("bench: pins.json was recorded for other workload sizes; re-pin (see README)")
    return pins


def pinned(pins: dict, workload: str, seed: int):
    """Pinned hashes per family for a pinned seed, else None."""
    return pins[workload][str(seed)] if seed in PINNED_SEEDS else None


def check_pin(pins: dict, workload: str, seed: int, tally: Tally):
    """Sweep one pinned seed, alternating with the run's seed, unless that is pinned."""
    if seed in PINNED_SEEDS:
        return  # the run's own sweeps were compared with the pins
    pin = PINNED_SEEDS[seed % len(PINNED_SEEDS)]
    run_sweep(workloads.plans(workload, pin), WORKERS, OUT / workload / f"pin-{pin}",
              pinned(pins, workload, pin), tally)


def repin() -> int:
    """Record the sha256 of raw.csv and summary.csv per family at the pinned seeds."""
    pins = {"repetitions": workloads.REPETITIONS, "workers": WORKERS}
    tally = Tally()
    for workload in workloads.REPETITIONS:
        pins[workload] = {}
        for seed in PINNED_SEEDS:
            sweep = run_sweep(workloads.plans(workload, seed), WORKERS,
                              OUT / workload / f"repin-{seed}", None, tally)
            pins[workload][str(seed)] = _hashes(sweep)
    if tally.failed:
        print("bench: outputs failed their checks; pins.json left unchanged", file=sys.stderr)
        return 1
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"bench: wrote {PINS}")
    return 0


# ---------------------------------------------------------------------------
# Machine context
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def _setup_probe(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until its plans are built."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + inherited if inherited else ""))
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = probe.stdout.read()
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed ({probe.returncode}): {line}{rest}")
    return elapsed


def measure_untraced(workload: str, seed: int, seconds: int, pins: dict, tally: Tally):
    plans = workloads.plans(workload, seed)
    reference = pinned(pins, workload, seed)
    _setup_probe(workload, seed)  # warms the bytecode cache; not counted
    sweeps, setup = [], []
    start = time.perf_counter()
    while True:
        sweep = run_sweep(plans, WORKERS, OUT / workload / "sweep", reference, tally)
        sweeps.append(sweep)
        if reference is None:
            reference = _hashes(sweep)
        # Probes between sweeps sample the machine over the whole run.
        setup.append(_setup_probe(workload, seed))
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(f.run_plan_s + f.emit_csv_s for f in s) for s in sweeps)
        if len(sweeps) >= MIN_SWEEPS and elapsed + typical > seconds:
            break
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    check_pin(pins, workload, seed, tally)
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe(workload, seed))

    sweep_s = [sum(f.run_plan_s + f.emit_csv_s for f in s) for s in sweeps]
    evals = [sum(f.evaluations for f in s) for s in sweeps]
    wall = [sum(f.run_plan_s for f in s) for s in sweeps]
    child = [sum(f.child_cpu_s for f in s) for s in sweeps]
    metrics = {
        "sweep_s": (statistics.median(sweep_s), "s"),
        "evals_per_s": (statistics.median(e / t for e, t in zip(evals, sweep_s)), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }
    extra = {
        "sweeps": (len(sweeps), "count"),
        "sweep_s.min": (min(sweep_s), "s"),
        "sweep_s.max": (max(sweep_s), "s"),
        "evaluations_per_sweep": (evals[0], "count"),
        "setup_s.min": (min(setup), "s"),
        "setup_s.max": (max(setup), "s"),
        "harness.pool_idle_share": (
            statistics.median(1 - c / (WORKERS * w) for c, w in zip(child, wall)), "share"),
    }
    for i, family in enumerate(plans):
        extra[f"harness.run_plan_s.{family}"] = (
            statistics.median(s[i].run_plan_s for s in sweeps), "s")
    return metrics, extra


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _counts_check(workload: str, seed: int, counts: dict, tally: Tally) -> bool:
    """Counts must repeat exactly between runs of one program at one seed."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    key = f"{digest.hexdigest()[:16]}/{workload}/reps{workloads.REPETITIONS[workload]}/seed{seed}"
    store = OUT / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != counts:
        tally.note(f"determinism: counts {counts} differ from an earlier run's {known[key]}")
        return False
    known[key] = counts
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_traced(workload: str, seed: int, pins: dict, tally: Tally):
    plans = workloads.plans(workload, seed)
    reference = pinned(pins, workload, seed)
    pool = run_sweep(plans, WORKERS, OUT / workload / "pool", reference, tally)
    reference = reference or _hashes(pool)

    durations: dict = {}
    with spans.run_timer(durations):
        untraced = run_sweep(plans, 1, OUT / workload / "single", reference, tally)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = run_sweep(plans, 1, OUT / workload / "traced", reference, tally)
    check_pin(pins, workload, seed, tally)

    own = tracer.self_times()
    evaluations = sum(f.evaluations for f in traced)
    counts = {
        "evaluations": evaluations,
        "problems.evaluate.calls": own["problems.evaluate"][0],
        "archive.save.calls": own["archive.save"][0],
        "core.TestCase.hash_calls": tracer.hash_calls,
    }
    deterministic = _counts_check(workload, seed, counts, tally)

    traced_wall = sum(f.run_plan_s for f in traced)
    untraced_wall = sum(f.run_plan_s for f in untraced)
    pool_wall = sum(f.run_plan_s for f in pool)
    metrics = {}

    def layer(name, with_rate=False):
        calls, self_s = own.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if with_rate:
            metrics[f"{name}.us_per_call"] = (self_s / calls * 1e6, "us")

    layer("problems.evaluate", with_rate=True)
    layer("problems.random_test")
    layer("archive.save", with_rate=True)
    metrics["archive.save.admitted_share"] = (
        tracer.saves_admitted / own["archive.save"][0], "share")
    layer("archive.sample_with_target")
    layer("archive.shrink_to")
    layer("algorithms.mutate")
    extra = {}
    for name in harness.ALGORITHMS:
        if name not in durations:
            continue
        ms = sorted(d * 1e3 for d in durations[name])
        # mio-nofds runs on figures only, so its metrics are report lines.
        target = extra if name == "mio-nofds" else metrics
        target[f"algorithms.{name}.self_s"] = (own[f"algorithms.{name}"][1], "s")
        target[f"algorithms.{name}.ms_per_run.p50"] = (statistics.median(ms), "ms")
        target[f"algorithms.{name}.ms_per_run.p90"] = (_quantile(ms, 90), "ms")
        extra[f"algorithms.{name}.runs"] = (len(ms), "count")
        evals, hashes = tracer.per_algorithm[name]
        (metrics if name == "wts" else extra)[f"core.TestCase.hash_calls_per_eval.{name}"] = (
            hashes / evals, "calls/eval")
    metrics["core.TestCase.hash_calls_per_eval"] = (tracer.hash_calls / evaluations, "calls/eval")
    metrics["harness.run_plan_s"] = (pool_wall, "s")
    metrics["harness.pool_idle_share"] = (
        1 - sum(f.child_cpu_s for f in pool) / (WORKERS * pool_wall), "share")
    metrics["harness.parent_cpu_s"] = (sum(f.parent_cpu_s for f in pool), "s")
    metrics["harness.emit_csv_s"] = (sum(f.emit_csv_s for f in pool), "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / traced_wall, "share")
    metrics["trace.spans"] = (len(tracer.start), "count")

    for fam in pool:
        extra[f"harness.run_plan_s.{fam.family}"] = (fam.run_plan_s, "s")
    extra["trace.traced_wall_s"] = (traced_wall, "s")
    extra["trace.untraced_wall_s"] = (untraced_wall, "s")
    for name, (_, self_s) in sorted(own.items()):
        extra[f"share.{name}"] = (self_s / traced_wall, "share")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.npz")
    return metrics, extra, deterministic


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------


def _print_metrics(workload: str, metrics: dict, label: str):
    for name, (value, unit) in metrics.items():
        print(f"{workload:8s} {label:9s} {name:44s} {value:>16.6g} {unit}")


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    pins = load_pins()
    machine = machine_context()
    tally = Tally()
    deterministic = True
    if trace:
        metrics, extra, deterministic = measure_traced(workload, seed, pins, tally)
    else:
        metrics, extra = measure_untraced(workload, seed, seconds, pins, tally)
    machine["loadavg_1m_end"] = os.getloadavg()[0]
    extra["failed_runs_share"] = (tally.failed / tally.attempted, "share")
    correct = tally.failed == 0 and deterministic

    for key, value in machine.items():
        print(f"machine  {key:18s} {value}")
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{WORKERS} workers, repetitions {workloads.REPETITIONS[workload]}")
    _print_metrics(workload, metrics, "metric")
    _print_metrics(workload, extra, "report")
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "machine": machine,
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
