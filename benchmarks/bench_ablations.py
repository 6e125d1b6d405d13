"""Ablation benchmarks: the knobs beyond the paper's figures."""

import numpy as np
import pytest

from repro.bench.ablations import (
    ablation_consolidation,
    ablation_iterations,
    ablation_tolerance,
    ablation_update_order,
)
from repro.bench.reporting import format_table


@pytest.mark.figure("ablation")
def test_ablation_tolerance(benchmark, scale):
    """Pruning-tolerance sweep: error grows smoothly, area shrinks."""
    table = benchmark.pedantic(
        ablation_tolerance, args=(scale,), rounds=1, iterations=1
    )
    print()
    print(format_table(table))
    errors = np.asarray(table.column("max error vs lossless"), dtype=float)
    assert errors[0] == 0.0  # tolerance 0.0 is lossless
    assert np.all(np.diff(errors) >= -1e-12)  # monotone in tolerance


@pytest.mark.figure("ablation")
def test_ablation_update_order(benchmark, scale):
    """Batch ordering must not change the result."""
    table = benchmark.pedantic(
        ablation_update_order, args=(scale,), rounds=1, iterations=1
    )
    print()
    print(format_table(table))
    gaps = np.asarray(table.column("max gap vs deletes-first"), dtype=float)
    assert np.all(gaps < 1e-10)


@pytest.mark.figure("ablation")
def test_ablation_iterations(benchmark, scale):
    """Measured truncation error stays below the analytic bound."""
    table = benchmark.pedantic(
        ablation_iterations, args=(scale,), rounds=1, iterations=1
    )
    print()
    print(format_table(table))
    errors = np.asarray(table.column("max error vs exact"), dtype=float)
    bounds = np.asarray(table.column("bound C^(K+1)/(1-C)"), dtype=float)
    assert np.all(errors <= bounds + 1e-12)


@pytest.mark.figure("ablation")
def test_ablation_consolidation(benchmark, scale):
    """Consolidated row updates: same fixed point, fewer series runs."""
    table = benchmark.pedantic(
        ablation_consolidation, args=(scale,), rounds=1, iterations=1
    )
    print()
    print(format_table(table))
    gaps = np.asarray(table.column("max score gap"), dtype=float)
    assert np.all(gaps < 1e-6)
