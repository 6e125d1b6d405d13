"""Shared fixtures for the benchmark suite.

Benchmarks run the per-figure experiment harness at ``tiny`` scale by
default so ``pytest benchmarks/ --benchmark-only`` finishes in minutes.
Set ``REPRO_BENCH_SCALE=bench`` for the larger workloads of the
README's "Paper figures" section.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def scale() -> str:
    """Workload scale for the experiment harness."""
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): benchmark regenerating a paper figure"
    )
