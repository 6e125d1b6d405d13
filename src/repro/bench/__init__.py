"""Benchmark harness regenerating the paper's tables and figures.

* :mod:`repro.bench.harness` — timing helpers and tabular result types.
* :mod:`repro.bench.experiments` — one function per paper artifact
  (``fig1`` … ``fig4``); each returns a :class:`~repro.bench.harness.Table`.
* :mod:`repro.bench.reporting` — ASCII rendering of tables.
* :mod:`repro.bench.cli` — ``python -m repro.bench <experiment>``.

Every experiment accepts ``scale`` (``"tiny"`` for CI-speed runs,
``"bench"`` for the larger workloads of the README's "Paper figures"
section).
"""

from .harness import Table, timed
from .experiments import EXPERIMENTS, run_experiment

__all__ = ["Table", "timed", "EXPERIMENTS", "run_experiment"]
