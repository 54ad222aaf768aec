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
    ExperimentPlan,
    emit_csv,
    figure_plans,
    read_raw_csv,
    run_plan,
    summarize_rows,
    sut_plans,
    write_summary,
)


# The keys a ``run --config`` file may set, one per ``run`` flag.
CONFIG_KEYS = (
    "family", "z_list", "budget", "reps", "seed", "r", "algorithms", "out_dir", "workers",
)

# The flag that sets each ExperimentPlan field, and run_plan's workers. Their
# errors start with the field; the CLI reports them against the flag.
FLAGS = {
    "family": "--family",
    "params": "--z-list",
    "algorithms": "--algorithms",
    "repetitions": "--reps",
    "budget": "--budget",
    "base_seed": "--seed",
    "r": "--r",
    "workers": "--workers",
}


class CliError(Exception):
    """A user-facing problem with flags or config values."""


def _parse_int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{flag}: {text!r} is not an integer") from None


def _parse_int_list(text: str, flag: str) -> tuple:
    pieces = (piece.strip() for piece in text.split(","))
    return tuple(_parse_int(piece, flag) for piece in pieces if piece)


def _flagged(call, *args, **kwargs):
    """``call(*args, **kwargs)``, an error of a plan or run value reported
    against the flag that set the value."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        field, _, reason = str(exc).partition(": ")
        if field not in FLAGS:
            raise
        raise CliError(f"{FLAGS[field]}: {reason}") from None


def _build_run_plan(args) -> tuple:
    """The plan, output directory and worker count that ``run``'s flags and
    config file give. ExperimentPlan checks and defaults every plan value
    neither sets."""
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

    def pick(key):
        """The flag's value for ``key``, else the config file's, else None."""
        value = getattr(args, key)
        return options.get(key) if value is None else value

    family = pick("family")
    if family is None:
        raise CliError("--family is required (or 'family' in the config file)")
    values = {"family": family}
    z_text = pick("z_list")
    if z_text is not None:
        values["params"] = _parse_int_list(z_text, "--z-list")
    names = pick("algorithms")
    if names is not None:
        values["algorithms"] = tuple(a.strip() for a in names.split(",") if a.strip())
    for field in ("repetitions", "budget", "base_seed", "r"):
        text = pick(FLAGS[field][2:])  # the key is the flag's name
        if text is not None:
            values[field] = _parse_int(text, FLAGS[field])
    workers = pick("workers")
    workers = 1 if workers is None else _parse_int(workers, "--workers")
    out_dir = pick("out_dir")
    plan = _flagged(ExperimentPlan, **values)
    return plan, Path("results" if out_dir is None else out_dir), workers


def _cmd_run(args) -> int:
    plan, out_dir, workers = _build_run_plan(args)
    result = _flagged(run_plan, plan, workers=workers)
    paths = emit_csv(result, out_dir)
    print(f"{len(result.rows)} runs -> {paths['raw']} and {paths['summary']}")
    return 0


def _replicate(args, make_plans, prefix: str) -> int:
    seed = _parse_int(args.seed, "--seed")
    reps = _parse_int(args.reps, "--reps")
    workers = _parse_int(args.workers, "--workers")
    for name, plan in _flagged(make_plans, seed, reps).items():
        result = _flagged(run_plan, plan, workers=workers)
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
    run_p.add_argument("--budget", help="fitness evaluations per run")
    run_p.add_argument("--reps", help="repetitions per cell")
    run_p.add_argument("--seed", help="base seed")
    run_p.add_argument("--r", help="input range bound for landscapes")
    run_p.add_argument("--algorithms", help="comma-separated algorithm names")
    run_p.add_argument("--out-dir", dest="out_dir", help="output directory")
    run_p.add_argument("--workers", help="parallel worker processes")
    run_p.set_defaults(func=_cmd_run)

    fig_p = sub.add_parser("replicate-figures", help="run the four landscape sweeps")
    fig_p.add_argument("--out-dir", dest="out_dir", default="figures")
    fig_p.add_argument("--reps", default="100")
    fig_p.add_argument("--seed", default="1")
    fig_p.add_argument("--workers", default="1")
    fig_p.set_defaults(func=lambda args: _replicate(args, figure_plans, "fig"))

    tab_p = sub.add_parser("replicate-table1", help="run the three-subject comparison")
    tab_p.add_argument("--out-dir", dest="out_dir", default="table1")
    tab_p.add_argument("--reps", default="100")
    tab_p.add_argument("--seed", default="1")
    tab_p.add_argument("--workers", default="1")
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


if __name__ == "__main__":
    sys.exit(main())
