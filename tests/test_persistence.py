"""Tests for DynamicSimRank.save/load.

A saved session is a durability data dir with one checkpoint and no
WAL; a legacy single-file compressed ``.npz`` session still loads.
"""

import os

import numpy as np
import pytest

from repro import DynamicSimRank, SimRankConfig
from repro.durability.checkpoint import (
    graph_from_packed,
    list_checkpoints,
    load_session,
    restore_stores,
)
from repro.exceptions import ConfigError, CorruptLogError
from repro.executor.score_store import ScoreStore
from repro.graph.updates import EdgeUpdate
from repro.serving import DurabilityConfig, SimRankService
from repro.simrank.matrix import matrix_simrank


def _save_legacy(engine, path):
    """A session file as the single-file format wrote it."""
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            num_nodes=np.asarray([engine.graph.num_nodes], dtype=np.int64),
            edges=np.asarray(
                list(engine.graph.edges()), dtype=np.int64
            ).reshape(-1, 2),
            scores=engine.similarities(),
            damping=np.asarray([engine.config.damping]),
            iterations=np.asarray([engine.config.iterations], dtype=np.int64),
            algorithm=np.asarray([engine.algorithm]),
            score_dtype=np.asarray([engine.score_dtype.name]),
        )


class TestSaveLoad:
    def test_roundtrip_preserves_state(self, cyclic_graph, tmp_path):
        config = SimRankConfig(damping=0.7, iterations=12)
        for dtype in ("float64", "float32"):
            engine = DynamicSimRank(
                cyclic_graph, config, algorithm="inc-sr", score_dtype=dtype
            )
            engine.apply(EdgeUpdate.insert(4, 2))
            # The named path is the path written, suffix or not.
            for name in ("session.npz", "session"):
                path = str(tmp_path / f"{dtype}-{name}")
                engine.save(path)

                restored = DynamicSimRank.load(path)
                assert restored.graph == engine.graph
                assert restored.config == config
                assert restored.algorithm == "inc-sr"
                assert restored.version == engine.version == 1
                assert restored.score_dtype == np.dtype(dtype)
                assert np.array_equal(
                    restored.similarities(), engine.similarities()
                )
        engine = DynamicSimRank(cyclic_graph, config, algorithm="inc-usr")
        engine.save(str(tmp_path / "inc-usr"))
        assert DynamicSimRank.load(str(tmp_path / "inc-usr")).algorithm == (
            "inc-usr"
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

    def test_second_save_replaces_the_session(self, cyclic_graph, tmp_path):
        engine = DynamicSimRank(cyclic_graph, SimRankConfig(0.6, 10))
        path = str(tmp_path / "session.npz")
        engine.save(path)
        engine.apply(EdgeUpdate.insert(4, 2))
        engine.save(path)
        assert [v for v, _ in list_checkpoints(path)] == [1]
        restored = DynamicSimRank.load(path)
        assert restored.version == 1
        assert restored.graph == engine.graph
        assert np.array_equal(restored.similarities(), engine.similarities())

    def test_legacy_file_loads_bit_for_bit(self, random_graph, tmp_path):
        config = SimRankConfig(damping=0.6, iterations=8)
        for dtype in ("float64", "float32"):
            engine = DynamicSimRank(random_graph, config, score_dtype=dtype)
            engine.apply(EdgeUpdate.insert(4, 2))
            path = str(tmp_path / f"legacy-{dtype}.npz")
            _save_legacy(engine, path)
            restored = DynamicSimRank.load(path)
            assert restored.graph == engine.graph
            assert restored.config == config
            assert restored.score_dtype == np.dtype(dtype)
            assert np.array_equal(
                restored.similarities(), engine.similarities()
            )
            # Saving over a legacy file replaces it with a session.
            engine.save(path)
            assert os.path.isdir(path)
            assert DynamicSimRank.load(path).version == engine.version

    def test_service_serves_a_saved_session(self, random_graph, tmp_path):
        config = SimRankConfig(damping=0.6, iterations=8)
        for dtype in ("float64", "float32"):
            engine = DynamicSimRank(random_graph, config, score_dtype=dtype)
            engine.apply([EdgeUpdate.insert(4, 2), EdgeUpdate.insert(5, 2)])
            path = str(tmp_path / f"session-{dtype}")
            engine.save(path)
            service = SimRankService(
                random_graph.copy(),
                config,
                precision=dtype,
                durability=DurabilityConfig(data_dir=path),
            )
            try:
                assert service.version == engine.version == 2
                assert service.engine.graph == engine.graph
                assert np.array_equal(
                    service.snapshot().similarities(), engine.similarities()
                )
            finally:
                service.close()

    def test_shard_rows_mismatch_reshards(self, random_graph, tmp_path):
        engine = DynamicSimRank(
            random_graph, SimRankConfig(0.6, 8), shard_rows=7
        )
        path = str(tmp_path / "session")
        engine.save(path)
        restored = DynamicSimRank.load(path)
        store = restored.score_store
        assert store.shard_rows == 512
        assert store.num_shards == 1
        assert np.array_equal(restored.similarities(), engine.similarities())
        data = load_session(path)
        for shard_rows in (3, 7, 10, 64):
            _, store = restore_stores(data, shard_rows=shard_rows)
            assert store.shard_rows == shard_rows
            rows = [shard["rows"] for shard in store.shard_report()]
            assert rows[:-1] == [shard_rows] * (len(rows) - 1)
            assert np.array_equal(store.to_array(), engine.similarities())

    def test_loaded_blocks_are_adopted(self, random_graph, tmp_path):
        engine = DynamicSimRank(
            random_graph, SimRankConfig(0.6, 8), shard_rows=16
        )
        path = str(tmp_path / "session")
        engine.save(path)
        data = load_session(path)
        _, store = restore_stores(data)
        assert store.num_shards == len(data.shards) > 1
        for block, (_, live) in zip(data.shards, store.iter_shard_blocks()):
            assert np.shares_memory(block, live)
        # A different shard size copies instead.
        _, store = restore_stores(data, shard_rows=17)
        for block, (_, live) in zip(data.shards, store.iter_shard_blocks()):
            assert not np.shares_memory(block, live)

    def test_mixed_dtype_blocks_restore_float64(self):
        rng = np.random.default_rng(3)
        dense = rng.random((10, 10))
        blocks = [dense[:4].astype(np.float32), dense[4:8], dense[8:].copy()]
        store = ScoreStore.from_blocks(blocks, shard_rows=4)
        assert store.dtype == np.float64
        expected = np.vstack([block.astype(np.float64) for block in blocks])
        assert np.array_equal(store.to_array(), expected)
        assert not any(
            np.shares_memory(block, live)
            for block, (_, live) in zip(blocks, store.iter_shard_blocks())
        )

    def test_saving_over_a_durable_data_dir_is_refused(
        self, random_graph, tmp_path
    ):
        path = str(tmp_path / "data")
        SimRankService(random_graph.copy(), durability=path).close()
        engine = DynamicSimRank(random_graph, SimRankConfig(0.6, 8))
        with pytest.raises(ConfigError, match="write-ahead log"):
            engine.save(path)

    def test_missing_session_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no saved session"):
            DynamicSimRank.load(str(tmp_path / "absent"))

    def test_graph_from_packed_rejects_a_bad_csr(self):
        packed = {
            "num_nodes": np.asarray(3),
            "indptr": np.asarray([0, 1, 2, 2]),
            "indices": np.asarray([1, 3]),
        }
        with pytest.raises(CorruptLogError):
            graph_from_packed(packed)
        packed["indices"] = np.asarray([2, 0])
        graph = graph_from_packed(packed)
        assert graph.edge_set() == {(2, 0), (0, 1)}
        assert graph.num_edges == 2

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
