"""Command-line entry point: ``python -m repro.bench [experiment ...]``.

Runs the named experiments (default: all) at the requested scale and
prints their tables.  Example::

    python -m repro.bench fig1 fig2d --scale tiny
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .experiments import EXPERIMENTS, run_experiment
from .reporting import print_table


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=sorted(EXPERIMENTS) + [[]],
        help="experiment ids (default: all)",
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "bench"),
        default="tiny",
        help="workload scale (tiny: seconds; bench: larger workloads, minutes)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    names = args.experiments or sorted(EXPERIMENTS)
    for name in names:
        table = run_experiment(name, scale=args.scale)
        print_table(table)
    return 0
