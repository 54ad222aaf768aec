"""Benchmark entry point for the suitesearch experiment harness.

Usage, from the repository root::

    python3 bench/run.py --workload figures --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload table1 --seed 1 --trace 1
    python3 bench/run.py --repin

The program is imported from ``src/`` next to this directory, never from an
installed copy. Without it the benchmark exits with an error and prints no
result. See bench/README.md for the workloads, metrics and output checks.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figures", "table1"))
    parser.add_argument("--seed", type=int, default=1, help="base seed of every plan")
    parser.add_argument("--seconds", type=int, default=40, help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced single-process pass")
    parser.add_argument("--repin", action="store_true",
                        help="re-record bench/pins.json from the current program")
    args = parser.parse_args(argv)
    if not args.repin and args.workload is None:
        parser.error("--workload is required unless --repin is given")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def require_program():
    """Put this checkout's src/ first on sys.path and import the program from it."""
    package = SRC / "suitesearch"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no program at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import suitesearch

    if Path(suitesearch.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported suitesearch from {suitesearch.__file__}, not {package}")


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    import measure

    if args.repin:
        return measure.repin()
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
