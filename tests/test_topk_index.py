"""Tests for repro.executor.topk_index (shard-local incremental top-k).

The central property: after *arbitrary* update sequences, the
incrementally patched shard-local ranking is bit-identical — same pairs,
same scores, same deterministic tie order — to the brute-force
:func:`repro.metrics.topk.top_k_pairs` pass over the dense matrix.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DynamicSimRank, SimRankConfig
from repro.exceptions import DimensionError
from repro.executor import ScoreStore, ShardTopK, top_k_from_blocks
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate
from repro.incremental.plan import UpdatePlan
from repro.metrics.topk import top_k_pairs
from repro.metrics.topk_tracker import TopKTracker
from repro.serving import SimRankService
from repro.telemetry import Telemetry

from _streams import random_update_stream as _random_stream


@pytest.fixture
def config():
    return SimRankConfig(damping=0.6, iterations=12)


class TestBlockMerge:
    """The scan-free shard merge used by frozen snapshots."""

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for n, shard_rows in ((1, 1), (7, 3), (24, 8), (40, 16)):
            scores = rng.random((n, n))
            scores = (scores + scores.T) / 2
            store = ScoreStore(scores, shard_rows=shard_rows)
            for k in (0, 1, 5, n, n * n):
                got = top_k_from_blocks(store.iter_shard_blocks(), k)
                assert got == top_k_pairs(store.to_array(), k)

    def test_deterministic_tie_order(self):
        # Massive ties (all-equal scores) must come out in (a, b) order,
        # exactly like the lexsort-based brute force.
        scores = np.full((20, 20), 0.25)
        store = ScoreStore(scores, shard_rows=4)
        got = top_k_from_blocks(store.iter_shard_blocks(), 7)
        assert got == top_k_pairs(scores, 7)
        assert [pair[:2] for pair in got] == [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
        ]

    def test_include_self_and_validation(self):
        rng = np.random.default_rng(6)
        scores = rng.random((10, 10))
        scores = (scores + scores.T) / 2
        store = ScoreStore(scores, shard_rows=4)
        got = top_k_from_blocks(store.iter_shard_blocks(), 6, include_self=True)
        assert got == top_k_pairs(scores, 6, include_self=True)
        with pytest.raises(DimensionError):
            top_k_from_blocks(store.iter_shard_blocks(), -1)


class TestIncrementalProperty:
    def test_matches_brute_force_after_arbitrary_updates(self, config):
        """The required property test: unit-update streams, many checks."""
        graph = erdos_renyi_digraph(60, 0.06, seed=7)
        engine = DynamicSimRank(
            graph, config, shard_rows=16, telemetry=Telemetry()
        )
        assert engine.top_k(8) == top_k_pairs(engine.similarities(), 8)
        for i, update in enumerate(_random_stream(engine.graph, 90, seed=8)):
            engine.apply(update)
            if i % 5 == 0:
                assert engine.top_k(8) == top_k_pairs(
                    engine.similarities(), 8
                )
        # After the stream the index must still agree, and must have
        # been exercised incrementally (not rebuilt per query).
        assert engine.top_k(8) == top_k_pairs(engine.similarities(), 8)
        report = engine.topk_index.report()
        assert report["queries"] >= 19
        assert report["patched_entries"] > 0

    def test_matches_brute_force_through_consolidated_drains(self, config):
        graph = erdos_renyi_digraph(50, 0.07, seed=17)
        service = SimRankService(graph, config, shard_rows=8)
        assert service.top_k(10) == top_k_pairs(
            service.engine.similarities(), 10
        )
        for seed in (18, 19, 20):
            service.submit_many(_random_stream(service.engine.graph, 25, seed))
            service.drain()
            assert service.top_k(10) == top_k_pairs(
                service.engine.similarities(), 10
            )

    def test_deletion_heavy_stream_untracks_sunk_pairs(self, config):
        """Sunk pairs are untracked, answers stay exact."""
        rng = np.random.default_rng(27)
        graph = erdos_renyi_digraph(40, 0.15, seed=27)
        engine = DynamicSimRank(
            graph, config, shard_rows=8, telemetry=Telemetry()
        )
        engine.top_k(5)
        edges = list(engine.graph.edges())
        rng.shuffle(edges)
        for source, target in edges[:30]:
            engine.apply(EdgeUpdate.delete(source, target))
            assert engine.top_k(5) == top_k_pairs(engine.similarities(), 5)
        assert engine.topk_index.report()["floor_invalidations"] > 0

    def test_k_growth_rebuilds_index(self, config):
        graph = erdos_renyi_digraph(30, 0.1, seed=37)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        assert engine.top_k(3) == top_k_pairs(engine.similarities(), 3)
        first = engine.topk_index
        # Within capacity: same index serves a larger k.
        assert engine.top_k(5) == top_k_pairs(engine.similarities(), 5)
        assert engine.topk_index is first
        # Beyond capacity: a larger index replaces it, still exact.
        big_k = first.capacity + 10
        assert engine.top_k(big_k) == top_k_pairs(
            engine.similarities(), big_k
        )
        assert engine.topk_index is not first

    def test_replacement_stays_exact_after_drains(self, config):
        """A larger index that replaces a patched one tracks drains."""
        graph = erdos_renyi_digraph(40, 0.1, seed=107)
        service = SimRankService(graph, config, shard_rows=8)
        try:
            primed = service.top_k(3)
            first = service.engine.topk_index
            stream = _random_stream(service.engine.graph, 200, seed=108)
            for position, update in enumerate(stream):
                service.submit_many([update])
                service.drain()
                if top_k_pairs(service.engine.similarities(), 3) != primed:
                    break
            else:
                pytest.fail("the stream never moved the top-3")
            big_k = first.capacity + 1
            service.top_k(big_k)  # replaces the index
            assert service.engine.topk_index is not first
            for update in stream[position + 1 : position + 21]:
                service.submit_many([update])
                service.drain()
                scores = service.engine.similarities()
                assert service.top_k(3) == top_k_pairs(scores, 3)
                assert service.top_k(big_k) == top_k_pairs(scores, big_k)
        finally:
            service.close()

    def test_add_node_invalidates_then_agrees(self, config):
        graph = erdos_renyi_digraph(20, 0.15, seed=47)
        engine = DynamicSimRank(graph, config, shard_rows=4)
        engine.top_k(6)
        node = engine.add_node()
        assert engine.top_k(6) == top_k_pairs(engine.similarities(), 6)
        engine.apply(EdgeUpdate.insert(0, node))
        assert engine.top_k(6) == top_k_pairs(engine.similarities(), 6)

    def test_include_self_fallback(self, config):
        graph = erdos_renyi_digraph(25, 0.1, seed=57)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        assert engine.top_k(5, include_self=True) == top_k_pairs(
            engine.similarities(), 5, include_self=True
        )

    def test_edge_k_values(self, config):
        graph = erdos_renyi_digraph(10, 0.2, seed=67)
        engine = DynamicSimRank(graph, config)
        assert engine.top_k(0) == []
        with pytest.raises(DimensionError):
            engine.top_k(-1)


PROPERTY_CONFIG = SimRankConfig(damping=0.6, iterations=8)
STEPS = (
    "insert", "delete", "delete", "add_node", "replace_dense", "entry", "plan",
)


def _assert_shard_invariant(index, store):
    """Tracked keys < floor <= every untracked key, scores current."""
    for shard_id, state in enumerate(index._shards):
        base, block = store.shard_block(shard_id)
        keys = {
            (-float(block[i, j]), base + i, j)
            for i in range(block.shape[0])
            for j in range(base + i + 1, block.shape[1])
        }
        tracked = {
            (-float(s), int(i), int(j))
            for i, j, s in zip(state.a, state.b, state.s)
        }
        assert len(tracked) == state.a.size <= index.capacity
        assert tracked <= keys  # every tracked score is current
        untracked = keys - tracked
        if state.floor is None:
            assert not untracked
            continue
        assert all(key < state.floor for key in tracked)
        assert state.floor <= min(untracked)


def _eighths_plan(rng, n):
    """A rank-one plan whose deltas are exact multiples of 1/8.

    On eighths-valued scores every sum stays exact, so plans land
    pairs exactly on a shard's floor score — the tie the promotion
    compare must catch.
    """
    # Half the supports are a few scattered nodes: the np.ix_ path.
    rows, cols = (
        np.unique(rng.integers(n, size=int(rng.integers(1, top))))
        for top in rng.choice([4, n + 1], size=2)
    )
    left = rng.integers(-2, 3, size=(rows.size, 1)) / 8.0
    right = np.ones((cols.size, 1))
    return UpdatePlan(0, rows, cols, left, right, affected=None)


@st.composite
def _index_streams(draw):
    return {
        "n": draw(st.integers(6, 30)),
        "density": draw(st.sampled_from([0.05, 0.12, 0.25, 0.5])),
        "shard_rows": draw(st.sampled_from([1, 3, 7, 64])),
        "dtype": draw(st.sampled_from(["float64", "float32"])),
        "k": draw(st.integers(1, 6)),
        "seed": draw(st.integers(0, 2**16)),
        "steps": draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=12)),
    }


class TestIndexProperty:
    """Random streams through the index against brute force."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_index_streams())
    def test_random_streams_match_brute_force(self, stream):
        rng = np.random.default_rng(stream["seed"])
        graph = erdos_renyi_digraph(
            stream["n"], stream["density"], seed=stream["seed"]
        )
        engine = DynamicSimRank(
            graph,
            PROPERTY_CONFIG,
            shard_rows=stream["shard_rows"],
            score_dtype=stream["dtype"],
        )
        store = engine.score_store
        engine.top_k(stream["k"])
        index = engine.topk_index
        assert index.top_k(index.capacity) == top_k_pairs(
            engine.similarities(), index.capacity
        )
        for step in stream["steps"]:
            n = engine.graph.num_nodes
            edges = list(engine.graph.edges())
            if step == "delete" and edges:
                source, target = edges[int(rng.integers(len(edges)))]
                engine.apply(EdgeUpdate.delete(source, target))
            elif step in ("insert", "delete"):
                source, target = (int(x) for x in rng.integers(n, size=2))
                if source != target and not engine.graph.has_edge(
                    source, target
                ):
                    engine.apply(EdgeUpdate.insert(source, target))
            elif step == "add_node":
                engine.add_node()
            elif step == "replace_dense":
                fresh = rng.integers(0, 8, size=(n, n)) / 8.0
                store.replace_dense(np.maximum(fresh, fresh.T))
            elif step == "plan":
                store.apply_plan(_eighths_plan(rng, n))
            else:
                row, col = (int(x) for x in rng.integers(n, size=2))
                store.set_entry(row, col, int(rng.integers(0, 8)) / 8.0)
            if index._shards is not None:
                _assert_shard_invariant(index, store)
            scores = engine.similarities()
            k = int(rng.integers(1, index.capacity + 1))
            assert index.top_k(k) == top_k_pairs(scores, k)
            _assert_shard_invariant(index, store)
            ranking = index.top_k(index.capacity)
            assert ranking == top_k_pairs(scores, index.capacity)


class TestShardTopKUnit:
    def test_validation(self, config):
        graph = erdos_renyi_digraph(10, 0.2, seed=77)
        engine = DynamicSimRank(graph, config)
        with pytest.raises(DimensionError):
            ShardTopK(engine.score_store, k=0)
        with pytest.raises(DimensionError):
            ShardTopK(engine.score_store, k=10, capacity=5)
        index = ShardTopK(engine.score_store, k=3)
        with pytest.raises(DimensionError):
            index.top_k(index.capacity + 1)

    def test_heap_hit_rate_counts_scanless_queries(self, config):
        graph = erdos_renyi_digraph(30, 0.1, seed=87)
        telemetry = Telemetry()
        engine = DynamicSimRank(
            graph, config, shard_rows=8, telemetry=telemetry
        )
        engine.top_k(5)  # build: miss
        engine.top_k(5)  # nothing changed: pure heap hit
        report = engine.topk_index.report()
        assert report["queries"] == 2
        assert report["clean_query_rate"] == 0.5
        # Shard-level: first query re-scanned every shard (build), the
        # second touched none — exactly half the shard visits hit.
        shards = engine.score_store.num_shards
        assert report["shard_rescans"] == shards
        assert report["heap_hit_rate"] == 0.5
        registry = telemetry.registry
        assert registry.get("repro_topk_clean_queries_total").value == 1
        assert registry.get("repro_topk_shard_reads_total").value == 2 * shards

    def test_scatter_landing_on_the_floor_score_promotes(self):
        """A pair raised exactly to the floor's score, ahead of the floor
        pair in tie order, must be promoted by the np.ix_ path too."""
        scores = np.zeros((12, 12))
        big = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)] + [
            (a, b) for a in range(7, 12) for b in range(a + 1, 12)
        ]
        for a, b in big:
            scores[a, b] = 1.0
        scores[5, 9] = scores[6, 10] = 0.5  # 16th tracked pair, floor
        scores[0, 11] = 0.25
        scores = np.maximum(scores, scores.T)
        store = ScoreStore(scores, shard_rows=64)
        index = ShardTopK(store, k=8)
        assert index.top_k(16) == top_k_pairs(scores, 16)
        assert index._shards[0].floor == (-0.5, 6, 10)
        rows, cols = np.array([0]), np.array([1, 11])  # sparse span
        plan = UpdatePlan(
            0, rows, cols, np.array([[0.25]]), np.ones((2, 1)), affected=None
        )
        store.apply_plan(plan)
        assert store.entry(0, 11) == 0.5
        assert index.top_k(16) == top_k_pairs(store.to_array(), 16)

    def test_dense_rewrite_invalidates(self, config):
        graph = erdos_renyi_digraph(20, 0.1, seed=97)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        engine.top_k(4)
        assert engine.topk_index.dirty_shards() == 0
        rng = np.random.default_rng(97)
        fresh = rng.random((20, 20))
        fresh = (fresh + fresh.T) / 2
        engine.score_store.replace_dense(fresh)
        assert engine.topk_index.dirty_shards() == engine.score_store.num_shards
        assert engine.top_k(4) == top_k_pairs(fresh, 4)


class TestSnapshotTopK:
    def test_snapshot_ranking_matches_dense(self, config):
        graph = erdos_renyi_digraph(40, 0.08, seed=3)
        service = SimRankService(graph, config, shard_rows=16)
        view = service.snapshot()
        frozen = view.similarities()
        assert view.top_k(10) == top_k_pairs(frozen, 10)
        service.submit_many(_random_stream(service.engine.graph, 30, seed=4))
        service.drain()
        # Frozen view still ranks the frozen version; a fresh one moved.
        assert view.top_k(10) == top_k_pairs(frozen, 10)
        fresh = service.snapshot()
        assert fresh.top_k(10) == top_k_pairs(fresh.similarities(), 10)


class TestTrackerIntegration:
    def test_tracker_rides_the_shard_index(self, config):
        graph = erdos_renyi_digraph(30, 0.1, seed=5)
        engine = DynamicSimRank(
            graph, config, shard_rows=8, telemetry=Telemetry()
        )
        tracker = TopKTracker(engine, k=5)
        assert engine.topk_index is not None  # built by the tracker
        queries_before = engine.topk_index.report()["queries"]
        for update in _random_stream(engine.graph, 15, seed=6):
            engine.apply(update)
            tracker.refresh()
        assert tracker.current() == top_k_pairs(engine.similarities(), 5)
        assert engine.topk_index.report()["queries"] > queries_before

    def test_tracker_falls_back_without_top_k(self):
        class DenseOnly:
            def __init__(self, scores):
                self._scores = scores

            def similarities(self):
                return self._scores

        rng = np.random.default_rng(8)
        scores = rng.random((12, 12))
        scores = (scores + scores.T) / 2
        tracker = TopKTracker(DenseOnly(scores), k=4)
        assert tracker.current() == top_k_pairs(scores, 4)
