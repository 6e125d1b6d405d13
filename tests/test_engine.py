"""Tests for repro.incremental.engine (DynamicSimRank)."""

import numpy as np
import pytest

from repro import DynamicSimRank, SimRankConfig
from repro.exceptions import ConfigError, GraphError
from repro.graph.generators import (
    erdos_renyi_digraph,
    preferential_attachment_digraph,
    random_deletions,
    random_insertions,
)
from repro.graph.transition import verify_transition_matrix
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.simrank.exact import exact_simrank, truncation_error_bound
from repro.simrank.matrix import matrix_simrank

from _streams import random_update_stream


class TestConstruction:
    def test_initial_scores_computed_by_batch(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        expected = matrix_simrank(cyclic_graph, config)
        np.testing.assert_allclose(engine.similarities(), expected)

    def test_initial_scores_injectable(self, cyclic_graph, config):
        scores = exact_simrank(cyclic_graph, config)
        engine = DynamicSimRank(cyclic_graph, config, initial_scores=scores)
        np.testing.assert_allclose(engine.similarities(), scores)

    def test_initial_scores_shape_checked(self, cyclic_graph, config):
        with pytest.raises(GraphError):
            DynamicSimRank(cyclic_graph, config, initial_scores=np.eye(3))

    def test_unknown_algorithm_rejected(self, cyclic_graph):
        with pytest.raises(ConfigError):
            DynamicSimRank(cyclic_graph, algorithm="magic")

    def test_caller_graph_never_mutated(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        engine.apply(EdgeUpdate.insert(4, 2))
        assert not cyclic_graph.has_edge(4, 2)
        assert engine.graph.has_edge(4, 2)


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("algorithm", ["inc-sr", "inc-usr"])
    def test_incremental_matches_batch_engine(self, random_graph, algorithm):
        config = SimRankConfig(damping=0.6, iterations=25)
        batch = UpdateBatch(
            list(random_deletions(random_graph, 3, seed=1))
            + list(random_insertions(random_graph, 4, seed=2))
        )
        incremental = DynamicSimRank(random_graph, config, algorithm=algorithm)
        incremental.apply(batch)
        truth = matrix_simrank(batch.applied(random_graph), config)
        np.testing.assert_allclose(
            incremental.similarities(),
            truth,
            atol=4 * truncation_error_bound(config),
        )

    def test_batch_algorithm_recomputes(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config, algorithm="batch")
        engine.apply(EdgeUpdate.insert(4, 2))
        new_graph = cyclic_graph.copy()
        new_graph.add_edge(4, 2)
        np.testing.assert_allclose(
            engine.similarities(), matrix_simrank(new_graph, config)
        )

    def test_inc_sr_equals_inc_usr_through_engine(self, random_graph, config):
        batch = random_insertions(random_graph, 5, seed=3)
        engine_a = DynamicSimRank(random_graph, config, algorithm="inc-sr")
        engine_b = DynamicSimRank(random_graph, config, algorithm="inc-usr")
        engine_a.apply(batch)
        engine_b.apply(batch)
        np.testing.assert_allclose(
            engine_a.similarities(), engine_b.similarities(), atol=1e-10
        )


class TestStateConsistency:
    def test_q_matrix_tracks_graph(self, random_graph, config):
        engine = DynamicSimRank(random_graph, config, algorithm="inc-sr")
        batch = UpdateBatch(
            list(random_deletions(random_graph, 4, seed=4))
            + list(random_insertions(random_graph, 4, seed=5))
        )
        engine.apply(batch)
        assert verify_transition_matrix(engine.transition_matrix, engine.graph) is None

    def test_paranoid_mode_passes_on_correct_updates(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config, paranoid=True)
        engine.apply(EdgeUpdate.insert(4, 2))
        engine.apply(EdgeUpdate.delete(4, 2))

    def test_invalid_update_raises_and_reports(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        with pytest.raises(GraphError):
            engine.apply(EdgeUpdate.insert(0, 1))  # already exists


class TestHistoryAndStats:
    def test_history_records_every_update(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        updates = [EdgeUpdate.insert(4, 2), EdgeUpdate.delete(4, 2)]
        stats = engine.apply(UpdateBatch(updates))
        assert len(stats) == 2
        assert [s.update for s in engine.history] == updates
        assert all(s.seconds >= 0 for s in stats)
        assert all(s.algorithm == "inc-sr" for s in stats)

    def test_total_update_seconds(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        engine.apply(EdgeUpdate.insert(4, 2))
        assert engine.total_update_seconds() == pytest.approx(
            sum(s.seconds for s in engine.history)
        )

    def test_drains_keep_no_per_update_record(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        for _ in range(4):
            engine.apply_consolidated(UpdateBatch([EdgeUpdate.insert(4, 2)]))
            engine.apply_consolidated(UpdateBatch([EdgeUpdate.delete(4, 2)]))
        assert engine.history == []
        drained = engine.total_update_seconds()
        assert drained > 0.0
        # The running sum covers unit updates too.
        engine.apply(EdgeUpdate.insert(4, 2))
        assert engine.total_update_seconds() == pytest.approx(
            drained + engine.history[0].seconds
        )

    def test_affected_stats_only_for_inc_sr(self, cyclic_graph, config):
        pruned = DynamicSimRank(cyclic_graph, config, algorithm="inc-sr")
        pruned.apply(EdgeUpdate.insert(4, 2))
        assert pruned.aggregate_affected() is not None
        unpruned = DynamicSimRank(cyclic_graph, config, algorithm="inc-usr")
        unpruned.apply(EdgeUpdate.insert(4, 2))
        assert unpruned.aggregate_affected() is None

    def test_similarity_accessors(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        scores = engine.similarities()
        assert engine.similarity(1, 2) == pytest.approx(scores[1, 2])
        top = engine.top_k(3)
        assert len(top) == 3
        assert top[0][2] >= top[1][2] >= top[2][2]

    def test_similarities_returns_copy(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        scores = engine.similarities()
        scores[0, 0] = 99.0
        assert engine.similarity(0, 0) != 99.0

    def test_intermediate_bytes_positive(self, cyclic_graph, config):
        engine = DynamicSimRank(cyclic_graph, config)
        assert engine.intermediate_bytes() > 0


class TestStorageDtype:
    @pytest.fixture(scope="class")
    def workload(self):
        graph = preferential_attachment_digraph(48, out_degree=3, seed=9)
        config = SimRankConfig(damping=0.6, iterations=8)
        scores = matrix_simrank(graph, config)
        return graph, config, scores, random_update_stream(graph, 12, seed=21)

    @staticmethod
    def _replay(workload, **engine_kwargs):
        graph, config, scores, updates = workload
        engine = DynamicSimRank(
            graph, config, initial_scores=scores.copy(), **engine_kwargs
        )
        engine.apply(UpdateBatch(list(updates)))
        return engine.similarities()

    def test_float64_default_is_bit_identical_to_explicit(self, workload):
        default = self._replay(workload)
        explicit = self._replay(workload, score_dtype="float64")
        assert default.dtype == np.float64
        assert np.array_equal(default, explicit)

    def test_float32_storage_tracks_float64_closely(self, workload):
        f64 = self._replay(workload)
        f32 = self._replay(workload, score_dtype="float32")
        assert f32.dtype == np.float32
        np.testing.assert_allclose(f32, f64, atol=1e-5)


class TestLongStream:
    def test_fifty_mixed_updates_stay_consistent(self):
        graph = erdos_renyi_digraph(30, 0.08, seed=9)
        config = SimRankConfig(damping=0.6, iterations=25)
        engine = DynamicSimRank(graph, config, algorithm="inc-sr")
        live = graph.copy()
        rng = np.random.default_rng(17)
        applied = 0
        while applied < 50:
            edges = sorted(live.edge_set())
            if edges and rng.random() < 0.4:
                source, target = edges[int(rng.integers(len(edges)))]
                update = EdgeUpdate.delete(source, target)
            else:
                source = int(rng.integers(30))
                target = int(rng.integers(30))
                if source == target or live.has_edge(source, target):
                    continue
                update = EdgeUpdate.insert(source, target)
            engine.apply(update)
            update.apply_to(live)
            applied += 1
        truth = matrix_simrank(live, config)
        np.testing.assert_allclose(
            engine.similarities(),
            truth,
            atol=10 * truncation_error_bound(config),
        )
        assert engine.graph == live
