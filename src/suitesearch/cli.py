"""Command-line front end for running experiment plans.

Subcommands:

* ``run``: one plan from flags and/or a flat key = value config file.
* ``replicate-figures``: the four built-in landscape sweeps.
* ``replicate-table1``: the three-subject unit-testing comparison.
* ``stats``: recompute effect sizes and p-values from an existing raw.csv.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ALGORITHMS,
    ExperimentPlan,
    INFEASIBLE_GRID,
    Z_GRID,
    emit_csv,
    figure_plans,
    read_config,
    read_raw_csv,
    run_plan,
    summarize_rows,
    sut_plans,
    write_summary,
)
from .problems import ARTIFICIAL_KINDS, INFEASIBLE, SUT_NAMES


# The keys a ``run --config`` file may set, one per ``run`` flag.
CONFIG_KEYS = (
    "family", "z_list", "budget", "reps", "seed", "r", "algorithms", "out_dir", "workers",
)


class CliError(Exception):
    """A user-facing problem with flags or config values."""


def _parse_int_list(text: str, flag: str) -> tuple:
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(int(piece))
        except ValueError:
            raise CliError(f"{flag}: {piece!r} is not an integer") from None
    return _distinct(tuple(values), flag)


def _distinct(values: tuple, flag: str) -> tuple:
    """``values``, unless the list is empty or repeats a value."""
    if not values:
        raise CliError(f"{flag}: empty list")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise CliError(f"{flag}: {value!r} given twice")
    return values


def _check_reps_workers(reps: int, workers: int):
    """The flag checks every plan-running subcommand shares."""
    if reps < 1:
        raise CliError("--reps: must be >= 1")
    if workers < 1:
        raise CliError("--workers: must be >= 1")


def _build_run_plan(args) -> tuple:
    options = {}
    if args.config:
        try:
            options = read_config(args.config)
        except ValueError as exc:  # a malformed line or a repeated key
            raise CliError(str(exc)) from None
        for key in options:
            if key not in CONFIG_KEYS:
                raise CliError(
                    f"{args.config}: unknown key {key!r}; pick from {', '.join(CONFIG_KEYS)}"
                )

    def pick(flag_value, key, default=None):
        if flag_value is not None:
            return flag_value
        return options.get(key, default)

    family = pick(args.family, "family")
    if family is None:
        raise CliError("--family is required (or 'family' in the config file)")
    if family not in ARTIFICIAL_KINDS and family not in SUT_NAMES:
        raise CliError(
            f"--family: unknown family {family!r}; pick from "
            f"{', '.join(ARTIFICIAL_KINDS + SUT_NAMES)}"
        )
    if family in SUT_NAMES:
        params = (0,)
    else:
        z_text = pick(args.z_list, "z_list")
        if z_text is None:
            params = INFEASIBLE_GRID if family == INFEASIBLE else Z_GRID
        else:
            params = _parse_int_list(str(z_text), "--z-list")
    algorithms = pick(args.algorithms, "algorithms", "mio,mosa,wts,random")
    algorithms = _distinct(
        tuple(a.strip() for a in str(algorithms).split(",") if a.strip()), "--algorithms"
    )
    for a in algorithms:
        if a not in ALGORITHMS:
            raise CliError(f"--algorithms: unknown algorithm {a!r}; pick from {ALGORITHMS}")
    try:
        budget = int(pick(args.budget, "budget", 1000))
        reps = int(pick(args.reps, "reps", 100))
        seed = int(pick(args.seed, "seed", 1))
        r = int(pick(args.r, "r", 1000))
        workers = int(pick(args.workers, "workers", 1))
    except ValueError as exc:
        raise CliError(f"bad numeric option: {exc}") from None
    if budget < 0:
        raise CliError("--budget: must be >= 0")
    if r < 1:
        raise CliError("--r: must be >= 1")
    _check_reps_workers(reps, workers)
    out_dir = pick(args.out_dir, "out_dir", "results")
    try:
        plan = ExperimentPlan(
            family=family,
            params=params,
            algorithms=algorithms,
            repetitions=reps,
            budget=budget,
            base_seed=seed,
            r=r,
        )
    except ValueError as exc:
        # Every other value was checked above as its own flag, so the plan
        # can only reject a parameter it has no instance for.
        raise CliError(f"--z-list: {exc}") from None
    return plan, Path(out_dir), workers


def _cmd_run(args) -> int:
    plan, out_dir, workers = _build_run_plan(args)
    result = run_plan(plan, workers=workers)
    paths = emit_csv(result, out_dir)
    print(f"{len(result.rows)} runs -> {paths['raw']} and {paths['summary']}")
    return 0


def _replicate(args, make_plans, prefix: str) -> int:
    _check_reps_workers(args.reps, args.workers)
    for name, plan in make_plans(args.seed, args.reps).items():
        result = run_plan(plan, workers=args.workers)
        paths = emit_csv(result, Path(args.out_dir) / f"{prefix}-{name}")
        print(f"{name}: {len(result.rows)} runs -> {paths['summary']}")
    return 0


def _cmd_stats(args) -> int:
    rows = read_raw_csv(args.raw_csv)
    if not rows:
        raise CliError(f"{args.raw_csv}: no data rows")
    summary = summarize_rows(rows)
    out = Path(args.out) if args.out else Path(args.raw_csv).with_name("summary.csv")
    write_summary(summary, out)
    print(f"{len(summary)} summary rows -> {out}")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suitesearch",
        description="Run test-suite generation experiments and statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment plan")
    run_p.add_argument("--config", help="flat key = value config file")
    run_p.add_argument("--family", help="problem family (landscape kind or subject name)")
    run_p.add_argument("--z-list", dest="z_list", help="comma-separated instance parameters")
    run_p.add_argument("--budget", type=int, help="fitness evaluations per run")
    run_p.add_argument("--reps", type=int, help="repetitions per cell")
    run_p.add_argument("--seed", type=int, help="base seed")
    run_p.add_argument("--r", type=int, help="input range bound for landscapes")
    run_p.add_argument("--algorithms", help="comma-separated algorithm names")
    run_p.add_argument("--out-dir", dest="out_dir", help="output directory")
    run_p.add_argument("--workers", type=int, help="parallel worker processes")
    run_p.set_defaults(func=_cmd_run)

    fig_p = sub.add_parser("replicate-figures", help="run the four landscape sweeps")
    fig_p.add_argument("--out-dir", dest="out_dir", default="figures")
    fig_p.add_argument("--reps", type=int, default=100)
    fig_p.add_argument("--seed", type=int, default=1)
    fig_p.add_argument("--workers", type=int, default=1)
    fig_p.set_defaults(func=lambda args: _replicate(args, figure_plans, "fig"))

    tab_p = sub.add_parser("replicate-table1", help="run the three-subject comparison")
    tab_p.add_argument("--out-dir", dest="out_dir", default="table1")
    tab_p.add_argument("--reps", type=int, default=100)
    tab_p.add_argument("--seed", type=int, default=1)
    tab_p.add_argument("--workers", type=int, default=1)
    tab_p.set_defaults(func=lambda args: _replicate(args, sut_plans, "table1"))

    st_p = sub.add_parser("stats", help="recompute a summary from a raw.csv")
    st_p.add_argument("raw_csv")
    st_p.add_argument("--out", help="summary output path")
    st_p.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
