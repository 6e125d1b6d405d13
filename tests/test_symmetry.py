"""Bitwise-symmetric pair reads on every read path.

The stored ``S`` is symmetric only up to round-off (``matrix_simrank``'s
output already is not bitwise symmetric), so every ``similarity(a, b)``
path reads the canonical ``(min(a, b), max(a, b))`` entry.  The property
is checked over seeded insert/delete streams through the live engine, a
pinned snapshot, the front door's batched gather, WAL recovery and
``view_at`` time travel.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimRankConfig
from repro.frontdoor.admission import execute_batch
from repro.graph.generators import erdos_renyi_digraph
from repro.incremental.engine import DynamicSimRank
from repro.serving import (
    DurabilityConfig,
    QueryRequest,
    SimRankService,
)

from _streams import random_update_stream

CFG = SimRankConfig(damping=0.6, iterations=7)


def _pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _assert_symmetric(read, n):
    for a, b in _pairs(n):
        assert read(a, b) == read(b, a), (a, b)


def _assert_batch_symmetric(view):
    """The wire's batched gather: ``(a, b)`` and ``(b, a)`` in one batch."""
    pairs = _pairs(view.num_nodes)
    requests = [
        QueryRequest(kind="similarity", node_a=x, node_b=y)
        for a, b in pairs
        for x, y in ((a, b), (b, a))
    ]
    results = execute_batch(view, requests)
    for index, (a, b) in enumerate(pairs):
        forward, backward = results[2 * index], results[2 * index + 1]
        assert forward.value == backward.value == view.similarity(a, b)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(3, 16),
    num_updates=st.integers(1, 18),
)
def test_similarity_is_bitwise_symmetric_on_every_path(
    tmp_path_factory, seed, num_nodes, num_updates
):
    graph = erdos_renyi_digraph(num_nodes, 0.2, seed=seed)
    stream = random_update_stream(graph, num_updates, seed=seed + 1)

    engine = DynamicSimRank(graph.copy(), CFG)
    for update in stream:
        engine.apply(update)
    _assert_symmetric(engine.similarity, num_nodes)

    config = DurabilityConfig(
        data_dir=str(tmp_path_factory.mktemp("symmetry")),
        fsync="off",
        checkpoint_interval=2,
        retain_checkpoints=4,
    )
    service = SimRankService(graph.copy(), CFG, durability=config)
    versions = []
    for begin in range(0, len(stream), 3):
        service.submit_many(stream[begin:begin + 3])
        service.flush()
        versions.append(service.version)
    _assert_symmetric(service.similarity, num_nodes)
    view = service.snapshot()
    _assert_symmetric(view.similarity, num_nodes)
    _assert_batch_symmetric(view)
    horizon = min(service.durability.retained_versions())
    for version in versions:
        if version >= horizon:
            past = service.view_at(version)
            _assert_symmetric(past.similarity, num_nodes)
            _assert_symmetric(
                lambda a, b, v=version: service.score_at(a, b, v), num_nodes
            )
    live = {pair: view.similarity(*pair) for pair in _pairs(num_nodes)}
    service.close()

    restarted = SimRankService(
        erdos_renyi_digraph(2, 0.5, seed=1), durability=config
    )
    try:
        _assert_symmetric(restarted.similarity, num_nodes)
        for (a, b), score in live.items():
            assert restarted.similarity(b, a) == score
    finally:
        restarted.close()
