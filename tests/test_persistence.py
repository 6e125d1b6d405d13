"""Tests for DynamicSimRank.save/load."""

import numpy as np
import pytest

from repro import DynamicSimRank, SimRankConfig
from repro.graph.updates import EdgeUpdate
from repro.simrank.matrix import matrix_simrank


class TestSaveLoad:
    def test_roundtrip_preserves_state(self, cyclic_graph, tmp_path):
        config = SimRankConfig(damping=0.7, iterations=12)
        engine = DynamicSimRank(cyclic_graph, config, algorithm="inc-sr")
        engine.apply(EdgeUpdate.insert(4, 2))
        # The named path is the path written, suffix or not.
        for name in ("session.npz", "session"):
            path = str(tmp_path / name)
            engine.save(path)

            restored = DynamicSimRank.load(path)
            assert restored.graph == engine.graph
            assert restored.config == config
            assert restored.algorithm == "inc-sr"
            np.testing.assert_allclose(
                restored.similarities(), engine.similarities()
            )

    def test_engine_save_load_round_trips_dtype(self, random_graph, tmp_path):
        config = SimRankConfig(damping=0.6, iterations=8)
        engine = DynamicSimRank(random_graph, config, score_dtype="float32")
        engine.apply(EdgeUpdate.insert(4, 2))
        path = str(tmp_path / "session.npz")
        engine.save(path)
        restored = DynamicSimRank.load(path)
        assert restored.score_dtype == np.float32
        assert np.array_equal(restored.similarities(), engine.similarities())

    def test_restored_session_keeps_updating(self, cyclic_graph, tmp_path):
        config = SimRankConfig(damping=0.6, iterations=25)
        engine = DynamicSimRank(cyclic_graph, config)
        path = str(tmp_path / "session.npz")
        engine.save(path)

        restored = DynamicSimRank.load(path)
        restored.apply(EdgeUpdate.insert(4, 2))
        live = cyclic_graph.copy()
        live.add_edge(4, 2)
        truth = matrix_simrank(live, config)
        np.testing.assert_allclose(
            restored.similarities(), truth, atol=1e-4
        )

    def test_q_matrix_rebuilt_consistently(self, random_graph, tmp_path):
        from repro.graph.transition import verify_transition_matrix

        engine = DynamicSimRank(random_graph, SimRankConfig(0.6, 5))
        path = str(tmp_path / "session.npz")
        engine.save(path)
        restored = DynamicSimRank.load(path)
        assert (
            verify_transition_matrix(restored.transition_matrix, restored.graph)
            is None
        )

    def test_consolidated_requires_inc_sr(self, cyclic_graph, config):
        from repro.exceptions import ConfigError
        from repro.graph.updates import UpdateBatch

        engine = DynamicSimRank(cyclic_graph, config, algorithm="inc-usr")
        with pytest.raises(ConfigError):
            engine.apply_consolidated(UpdateBatch([EdgeUpdate.insert(4, 2)]))

    def test_engine_consolidated_matches_unit(self, random_graph):
        from repro.graph.generators import random_insertions

        config = SimRankConfig(damping=0.6, iterations=20)
        batch = random_insertions(random_graph, 6, seed=31)
        unit = DynamicSimRank(random_graph, config, algorithm="inc-sr")
        unit.apply(batch)
        consolidated = DynamicSimRank(random_graph, config, algorithm="inc-sr")
        groups = consolidated.apply_consolidated(batch)
        assert groups <= len(batch)
        np.testing.assert_allclose(
            unit.similarities(), consolidated.similarities(), atol=1e-4
        )
        assert consolidated.graph == unit.graph
