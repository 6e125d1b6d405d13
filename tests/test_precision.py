"""Mixed-precision score store + the PROSE-style accuracy autotuner.

Covers the dtype seam end to end: per-shard storage dtypes in the
:class:`ScoreStore`, dtype-aware memory accounting, the ranking-accuracy
metrics
(NDCG@k / top-k overlap) the precision gates are built on, and the
:class:`PrecisionAutotuner` → :class:`PrecisionPlan` →
``SimRankService(precision=...)`` loop including restart round trips.

The float64 default must stay bit-identical to the pre-dtype stack:
that invariant is asserted directly here and indirectly by every
pre-existing bit-equivalence suite running unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimRankConfig
from repro.dtypes import DEFAULT_FLOAT_DTYPE, dtype_name, resolve_dtype
from repro.exceptions import ConfigError
from repro.executor.score_store import ScoreStore
from repro.graph.generators import preferential_attachment_digraph
from repro.graph.updates import UpdateBatch
from repro.incremental.engine import DynamicSimRank
from repro.incremental.plan import plan_unit_update
from repro.incremental.workspace import UpdateWorkspace
from repro.linalg.qstore import TransitionStore
from repro.metrics.memory import score_store_bytes, snapshot_overhead_bytes
from repro.metrics import ndcg_at_k, top_k_overlap
from repro.serving import SimRankService
from repro.simrank.matrix import matrix_simrank
from repro.tuning import (
    PrecisionAutotuner,
    PrecisionGates,
    PrecisionPlan,
    calibration_updates,
)

from _streams import random_update_stream

CFG = SimRankConfig(damping=0.6, iterations=8)


@pytest.fixture(scope="module")
def workload():
    graph = preferential_attachment_digraph(48, out_degree=3, seed=9)
    scores = matrix_simrank(graph, CFG)
    updates = random_update_stream(graph, 12, seed=21)
    return graph, scores, updates


def _replay(graph, scores, updates, **engine_kwargs):
    engine = DynamicSimRank(
        graph, CFG, initial_scores=scores.copy(), **engine_kwargs
    )
    engine.apply(UpdateBatch(list(updates)))
    return engine.similarities()


# ------------------------------------------------------------------ #
# dtype plumbing: resolve, store, snapshots, save/load
# ------------------------------------------------------------------ #


class TestDtypePlumbing:
    def test_resolve_dtype_names_and_default(self):
        assert resolve_dtype(None) == np.dtype(DEFAULT_FLOAT_DTYPE)
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float64) == np.dtype(np.float64)
        assert dtype_name(np.float32) == "float32"
        with pytest.raises(ConfigError):
            resolve_dtype("float16")

    def test_score_store_dtype_and_accounting(self, workload):
        _, scores, _ = workload
        f64 = ScoreStore(scores.copy(), shard_rows=16)
        f32 = ScoreStore(scores.copy(), shard_rows=16, dtype="float32")
        assert f64.dtype == np.float64
        assert f32.dtype == np.float32
        # float32 storage halves the score-store footprint exactly.
        assert f32.nbytes() * 2 == f64.nbytes()
        report = f32.dtype_report()
        assert report["score_dtype"] == "float32"
        assert report["score_dtype_bytes"] == scores.size * 4
        assert report["shards_by_dtype"] == {"float32": f32.num_shards}

    def test_per_shard_demotion_and_mixed_report(self, workload):
        _, scores, _ = workload
        store = ScoreStore(scores.copy(), shard_rows=16)
        baseline = store.nbytes()
        assert store.set_shard_dtype(0, "float32")
        # Idempotent: demoting again reports no change.
        assert not store.set_shard_dtype(0, "float32")
        assert store.shard_dtypes()[0] == "float32"
        assert store.nbytes() < baseline
        report = store.dtype_report()
        assert report["shards_by_dtype"]["float32"] == 1
        # Mixed stores promote to the widest dtype for reads.
        assert store.dtype == np.float64
        assert store.to_array().dtype == np.float64

    def test_snapshot_preserves_shard_dtypes(self, workload):
        _, scores, _ = workload
        store = ScoreStore(scores.copy(), shard_rows=16, dtype="float32")
        snap = store.snapshot()
        assert snap.to_array().dtype == np.float32
        assert np.array_equal(snap.to_array(), store.to_array())

    def test_engine_save_load_round_trips_dtype(self, workload, tmp_path):
        graph, scores, updates = workload
        engine = DynamicSimRank(
            graph, CFG, initial_scores=scores.copy(), score_dtype="float32"
        )
        engine.apply(UpdateBatch(list(updates[:4])))
        path = tmp_path / "state.npz"
        engine.save(path)
        loaded = DynamicSimRank.load(path)
        assert loaded.score_dtype == np.dtype(np.float32)
        assert np.array_equal(loaded.similarities(), engine.similarities())

    def test_memory_model_tracks_dtype(self):
        assert score_store_bytes(100) == 100 * 100 * 8
        assert score_store_bytes(100, dtype="float32") == 100 * 100 * 4
        f64 = snapshot_overhead_bytes(2, 16, 64)
        f32 = snapshot_overhead_bytes(2, 16, 64, dtype="float32")
        assert f32 * 2 == f64

    def test_panels_and_workspace_dtype_seams(self, workload):
        graph, scores, updates = workload
        store = TransitionStore.from_graph(graph)
        plan = plan_unit_update(store, scores, updates[0], graph, CFG)
        left64, right64 = plan.panels()
        left32, right32 = plan.panels(dtype="float32")
        assert left64.dtype == np.float64
        assert left32.dtype == np.float32
        np.testing.assert_allclose(left32, left64, rtol=1e-6)
        np.testing.assert_allclose(right32, right64, rtol=1e-6)
        ws = UpdateWorkspace(8, dtype="float32")
        assert ws.dtype == np.float32
        assert ws.zeros("u", 8).dtype == np.float32
        assert UpdateWorkspace(8).dtype == np.float64


# ------------------------------------------------------------------ #
# float64 default stays bit-identical; float32 equivalence
# ------------------------------------------------------------------ #


class TestBitIdentity:
    def test_float64_default_is_bit_identical_to_explicit(self, workload):
        graph, scores, updates = workload
        default = _replay(graph, scores, updates)
        explicit = _replay(graph, scores, updates, score_dtype="float64")
        assert default.dtype == np.float64
        assert np.array_equal(default, explicit)

    def test_float32_storage_tracks_float64_closely(self, workload):
        graph, scores, updates = workload
        f64 = _replay(graph, scores, updates)
        f32 = _replay(graph, scores, updates, score_dtype="float32")
        assert f32.dtype == np.float32
        np.testing.assert_allclose(f32, f64, atol=1e-5)

# ------------------------------------------------------------------ #
# Accuracy metrics: determinism + stability under float32 epsilon
# ------------------------------------------------------------------ #


class TestAccuracyMetrics:
    def _scores(self, seed=3, n=40):
        rng = np.random.default_rng(seed)
        scores = rng.random((n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 1.0)
        return scores

    def test_identical_inputs_are_perfect(self):
        scores = self._scores()
        assert ndcg_at_k(scores, scores, 50) == pytest.approx(1.0)
        assert top_k_overlap(scores, scores, 50) == 1.0

    def test_metrics_are_deterministic(self):
        base = self._scores(seed=5)
        approx = base + 1e-3 * self._scores(seed=6)
        first = (ndcg_at_k(approx, base, 25), top_k_overlap(approx, base, 25))
        second = (
            ndcg_at_k(approx.copy(), base.copy(), 25),
            top_k_overlap(approx.copy(), base.copy(), 25),
        )
        assert first == second

    def test_stable_under_float32_epsilon(self):
        """Round-tripping through float32 must not crater the gates.

        This is the exact perturbation the autotuner's float32 leg
        introduces: storage rounding at ~1e-7 relative error.
        """
        base = self._scores(seed=8)
        approx = base.astype(np.float32).astype(np.float64)
        assert ndcg_at_k(approx, base, 50) >= 0.999
        assert top_k_overlap(approx, base, 50) >= 0.98

    def test_tie_handling_does_not_punish_reordering(self):
        """Exactly tied baseline scores are interchangeable under NDCG."""
        base = np.zeros((6, 6))
        base[0, 1] = base[1, 0] = 0.5
        base[2, 3] = base[3, 2] = 0.5
        base[4, 5] = base[5, 4] = 0.1
        approx = base.copy()
        # Swap the two tied pairs' order with an epsilon nudge.
        approx[0, 1] = approx[1, 0] = 0.5 - 1e-12
        assert ndcg_at_k(approx, base, 3) == pytest.approx(1.0, abs=1e-9)

    def test_overlap_counts_pair_identity_not_order(self):
        base = self._scores(seed=12)
        perm = base + 1e-9 * self._scores(seed=13)
        # Tiny jitter reorders within the list but keeps the same set.
        assert top_k_overlap(perm, base, 10) >= 0.9


# ------------------------------------------------------------------ #
# Autotuner + precision plans
# ------------------------------------------------------------------ #


class TestPrecisionPlan:
    def test_plan_json_round_trip(self, tmp_path):
        plan = PrecisionPlan(
            store_dtype="float64",
            shard_dtypes={0: "float32", 2: "float32"},
            gates=PrecisionGates(min_ndcg=0.995),
            seed=11,
            calibration_updates=8,
            num_nodes=48,
            shard_rows=16,
            metrics={"attempts": 3},
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = PrecisionPlan.load(path)
        assert loaded == plan
        assert loaded.demoted_shards() == [0, 2]
        assert not loaded.uniform

    def test_plan_rejects_unknown_dtype(self):
        with pytest.raises(ConfigError):
            PrecisionPlan(store_dtype="float16")
        with pytest.raises(ConfigError):
            PrecisionPlan(shard_dtypes={0: "int8"})

    def test_apply_to_demotes_store_shards(self, workload):
        _, scores, _ = workload
        store = ScoreStore(scores.copy(), shard_rows=16)
        plan = PrecisionPlan(shard_dtypes={1: "float32"})
        assert plan.apply_to(store) == 1
        assert store.shard_dtypes()[1] == "float32"

    def test_calibration_updates_are_seeded(self, workload):
        graph, _, _ = workload
        first = calibration_updates(graph, 8, seed=4)
        second = calibration_updates(graph, 8, seed=4)
        assert [
            (u.kind, u.source, u.target) for u in first
        ] == [(u.kind, u.source, u.target) for u in second]
        other = calibration_updates(graph, 8, seed=5)
        assert [(u.source, u.target) for u in first] != [
            (u.source, u.target) for u in other
        ]


class TestPrecisionAutotuner:
    def test_loose_gates_accept_whole_store_float32(self, workload):
        graph, scores, _ = workload
        tuner = PrecisionAutotuner(
            graph,
            CFG,
            initial_scores=scores.copy(),
            shard_rows=16,
            gates=PrecisionGates(min_ndcg=0.0, min_topk_overlap=0.0),
            seed=7,
            num_updates=6,
        )
        plan = tuner.run()
        assert plan.store_dtype == "float32"
        assert plan.uniform
        assert plan.metrics["accepted"] is not None
        assert len(plan.metrics["attempts"]) >= 1

    def test_impossible_gates_revert_to_float64(self, workload):
        graph, scores, _ = workload
        tuner = PrecisionAutotuner(
            graph,
            CFG,
            initial_scores=scores.copy(),
            shard_rows=16,
            gates=PrecisionGates(min_ndcg=1.1, min_topk_overlap=1.1),
            seed=7,
            num_updates=6,
        )
        plan = tuner.run()
        assert plan.store_dtype == "float64"
        assert not plan.demoted_shards()
        assert plan.metrics["accepted"] is None

    def test_autotuner_is_deterministic(self, workload):
        graph, scores, _ = workload

        def run():
            return PrecisionAutotuner(
                graph,
                CFG,
                initial_scores=scores.copy(),
                shard_rows=16,
                seed=13,
                num_updates=6,
            ).run()

        assert run().to_dict() == run().to_dict()


class TestServicePrecision:
    def test_rejects_unknown_mode(self, workload):
        graph, scores, _ = workload
        with pytest.raises(ConfigError):
            SimRankService(
                graph, CFG, initial_scores=scores.copy(), precision="float16"
            )

    def test_float32_service_serves_and_reports(self, workload):
        graph, scores, updates = workload
        service = SimRankService(
            graph,
            CFG,
            initial_scores=scores.copy(),
            shard_rows=16,
            precision="float32",
        )
        try:
            service.submit_many(list(updates[:4]))
            service.drain()
            report = service.metrics_report()
            assert report["executor"]["score_dtype"] == "float32"
            assert (
                report["executor"]["score_dtype_bytes"]
                == graph.num_nodes * graph.num_nodes * 4
            )
            assert report["precision"]["mode"] == "float32"
            assert service.top_k(5)
        finally:
            service.close()

    def test_auto_plan_restart_round_trip(self, workload, tmp_path):
        graph, scores, _ = workload
        service = SimRankService(
            graph,
            CFG,
            initial_scores=scores.copy(),
            shard_rows=16,
            precision="auto",
            precision_plan={
                "gates": PrecisionGates(
                    min_ndcg=0.0, min_topk_overlap=0.0
                ).to_dict(),
                "store_dtype": "float32",
                "shard_dtypes": {},
                "num_nodes": graph.num_nodes,
                "shard_rows": 16,
            },
        )
        try:
            plan = service.precision_plan
            assert plan is not None
            path = tmp_path / "plan.json"
            plan.save(path)
            dtype_before = service.engine.score_store.dtype
        finally:
            service.close()
        # Restart from the serialized plan: same dtype decision, no
        # re-tuning run.
        restarted = SimRankService(
            graph,
            CFG,
            initial_scores=scores.copy(),
            shard_rows=16,
            precision="auto",
            precision_plan=str(path),
        )
        try:
            assert restarted.engine.score_store.dtype == dtype_before
            assert restarted.precision_plan.to_dict() == plan.to_dict()
        finally:
            restarted.close()

    def test_auto_runs_tuner_when_no_plan_given(self, workload):
        graph, scores, _ = workload
        service = SimRankService(
            graph,
            CFG,
            initial_scores=scores.copy(),
            shard_rows=16,
            precision="auto",
        )
        try:
            plan = service.precision_plan
            assert plan is not None
            assert plan.store_dtype in ("float32", "float64")
            assert (
                service.engine.score_store.dtype.name == plan.store_dtype
                or not plan.uniform
            )
        finally:
            service.close()
