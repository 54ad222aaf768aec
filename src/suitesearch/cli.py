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


def _parse_names(text: str, flag: str) -> tuple:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _parse_text(text: str, flag: str) -> str:
    return text


# Each ``run`` option, in ``--help`` order: its config key (the flag is ``--``
# plus the key, with ``-`` for ``_``), the ExperimentPlan field it sets (or
# run_plan's ``workers``, or the output directory), its parser and its help.
RUN_OPTIONS = (
    ("family", "family", _parse_text, "problem family (landscape kind or subject name)"),
    ("z_list", "params", _parse_int_list, "comma-separated instance parameters"),
    ("budget", "budget", _parse_int, "fitness evaluations per run"),
    ("reps", "repetitions", _parse_int, "repetitions per cell"),
    ("seed", "base_seed", _parse_int, "base seed"),
    ("algorithms", "algorithms", _parse_names, "comma-separated algorithm names"),
    ("out_dir", "out_dir", _parse_text, "output directory"),
    ("workers", "workers", _parse_int, "parallel worker processes"),
)

# The flag that sets each field. Plan and run errors start with the field;
# the CLI reports them against the flag.
FLAGS = {field: "--" + key.replace("_", "-") for key, field, _, _ in RUN_OPTIONS}


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
    keys = [key for key, _, _, _ in RUN_OPTIONS]
    given = {}
    if args.config:
        try:
            given = read_config(args.config)
        except ValueError as exc:  # a malformed line or a repeated key
            raise CliError(str(exc)) from None
        for key in given:
            if key not in keys:
                raise CliError(f"{args.config}: unknown key {key!r}; pick from {', '.join(keys)}")
    # A flag overrides the config file.
    given.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    if "family" not in given:
        raise CliError("--family is required (or 'family' in the config file)")
    values = {
        field: parse(given[key], FLAGS[field])
        for key, field, parse, _ in RUN_OPTIONS
        if key in given
    }
    out_dir = Path(values.pop("out_dir", "results"))
    workers = values.pop("workers", 1)
    plan = _flagged(ExperimentPlan, **values)
    return plan, out_dir, workers


def _cmd_run(args) -> int:
    plan, out_dir, workers = _build_run_plan(args)
    result = _flagged(run_plan, plan, workers=workers)
    paths = emit_csv(result, out_dir)
    print(f"{len(result.rows)} runs -> {paths['raw']} and {paths['summary']}")
    return 0


# Each ``replicate-*`` command: its name, plan builder, output prefix,
# default output directory and help.
REPLICATIONS = (
    ("replicate-figures", figure_plans, "fig", "figures", "run the four landscape sweeps"),
    ("replicate-table1", sut_plans, "table1", "table1", "run the three-subject comparison"),
)


def _replicate(args) -> int:
    seed = _parse_int(args.seed, "--seed")
    reps = _parse_int(args.reps, "--reps")
    workers = _parse_int(args.workers, "--workers")
    for name, plan in _flagged(args.make_plans, seed, reps).items():
        result = _flagged(run_plan, plan, workers=workers)
        paths = emit_csv(result, Path(args.out_dir) / f"{args.prefix}-{name}")
        print(f"{name}: {len(result.rows)} runs -> {paths['summary']}")
    return 0


def _cmd_stats(args) -> int:
    out = Path(args.out) if args.out else Path(args.raw_csv).with_name("summary.csv")
    if out.exists() and out.samefile(args.raw_csv):
        raise CliError(f"{args.raw_csv}: the summary would overwrite its input; pick another --out")
    rows = read_raw_csv(args.raw_csv)
    if not rows:
        raise CliError(f"{args.raw_csv}: no data rows")
    summary = summarize_rows(rows)
    write_summary(summary, out)
    print(f"{len(summary)} summary rows -> {out}")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    # No parser takes a flag's prefix for the flag: ``--r`` must not mean ``--reps``.
    parser = argparse.ArgumentParser(
        prog="suitesearch",
        description="Run test-suite generation experiments and statistics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment plan", allow_abbrev=False)
    run_p.add_argument("--config", help="flat key = value config file")
    for key, field, _, help_text in RUN_OPTIONS:
        run_p.add_argument(FLAGS[field], dest=key, help=help_text)
    run_p.set_defaults(func=_cmd_run)

    for name, make_plans, prefix, out_dir, help_text in REPLICATIONS:
        rep_p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        rep_p.add_argument("--out-dir", dest="out_dir", default=out_dir)
        rep_p.add_argument("--reps", default="100")
        rep_p.add_argument("--seed", default="1")
        rep_p.add_argument("--workers", default="1")
        rep_p.set_defaults(func=_replicate, make_plans=make_plans, prefix=prefix)

    st_p = sub.add_parser("stats", help="recompute a summary from a raw.csv", allow_abbrev=False)
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
