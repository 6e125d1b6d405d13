"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import json
import os

import numpy as np
import pytest

from repro import SimRankConfig
from repro.graph.digraph import DynamicDiGraph
from repro.graph.generators import (
    erdos_renyi_digraph,
    linkage_model_digraph,
    preferential_attachment_digraph,
)


def _reaper_manifests(base_temp: str) -> set:
    """Names of the reaper manifests this test session owns.

    The manifest directory is shared by every process on the machine,
    so only manifests this process wrote, or whose data dir lies under
    the session's base temp dir (a child process serving one of the
    suite's own data dirs), count.
    """
    from repro.durability.reaper import MANIFEST_DIR

    try:
        names = os.listdir(MANIFEST_DIR)
    except OSError:
        return set()
    owned = set()
    for name in names:
        try:
            with open(os.path.join(MANIFEST_DIR, name), encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue  # removed meanwhile, or a half-written temp file
        data_dir = os.path.realpath(str(payload.get("data_dir", "")))
        if payload.get("pid") == os.getpid() or (
            os.path.commonpath([data_dir, base_temp]) == base_temp
        ):
            owned.add(name)
    return owned


@pytest.fixture
def manifest_guard(tmp_path_factory):
    """Leak guard: the test must not leave reaper manifests behind.

    Every durability session registers a manifest with the orphan
    reaper and removes it at close, so a before/after diff of this
    session's manifests catches any data dir a test opened but never
    closed.
    """
    base_temp = os.path.realpath(str(tmp_path_factory.getbasetemp()))
    before = _reaper_manifests(base_temp)
    yield
    gc.collect()
    leaked = _reaper_manifests(base_temp) - before
    assert not leaked, f"leaked reaper manifests: {sorted(leaked)}"


@pytest.fixture
def config() -> SimRankConfig:
    """The paper's evaluation configuration (C=0.6, K=15)."""
    return SimRankConfig(damping=0.6, iterations=15)


@pytest.fixture
def tight_config() -> SimRankConfig:
    """Higher-iteration config where truncation error is ~1e-6."""
    return SimRankConfig(damping=0.6, iterations=30)


@pytest.fixture
def diamond_graph() -> DynamicDiGraph:
    """The classic 4-node diamond: 0->1, 0->2, 1->3, 2->3."""
    return DynamicDiGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def cyclic_graph() -> DynamicDiGraph:
    """A small graph with a directed cycle (exercises non-nilpotent Q)."""
    return DynamicDiGraph.from_edges(
        5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (0, 4)]
    )


@pytest.fixture
def citation_graph() -> DynamicDiGraph:
    """A 60-node scale-free citation-style DAG."""
    return preferential_attachment_digraph(60, out_degree=3, seed=11)


@pytest.fixture
def random_graph() -> DynamicDiGraph:
    """A 40-node Erdős–Rényi digraph with cycles."""
    return erdos_renyi_digraph(40, 0.08, seed=5)


@pytest.fixture
def linkage_graph() -> DynamicDiGraph:
    """A 50-node linkage-model graph (the synthetic bench generator)."""
    return linkage_model_digraph(50, out_degree=3, locality=0.5, seed=13)


def assert_symmetric(matrix: np.ndarray, atol: float = 1e-10) -> None:
    """Assert a matrix equals its transpose within tolerance."""
    np.testing.assert_allclose(matrix, matrix.T, atol=atol)
