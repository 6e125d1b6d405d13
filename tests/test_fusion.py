"""Drain-level plan fusion: one fused plan per consolidated drain.

A drain plans each row group against ``S`` plus the earlier groups'
pending deltas (:class:`PendingScores`), reading ``S`` only through a
column-sparse ``S·v``, and applies the groups as one plan
(:func:`fuse_plans`).  These tests pin down:

* the column-sparse product and the pending-delta overlay against dense
  arithmetic;
* a fused drain against the same groups applied one at a time (equal
  within rounding, not bitwise), with ranks and Theorem-4 records summed;
* the WAL: a frame holding one fused plan replays bitwise, and legacy
  frames holding several plans, as drains once wrote them, still replay
  to the sequential result;
* the member-count and rank histograms on the telemetry registry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimRankConfig
from repro.durability import manager as durability_manager
from repro.durability.wal import (
    KIND_BATCH,
    KIND_DRAIN,
    decode_frames,
    encode_drain_frame,
)
from repro.executor.score_store import ScoreStore
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.incremental.engine import DynamicSimRank
from repro.incremental.plan import (
    UpdatePlan,
    apply_plan_dense,
    fuse_plans,
)
from repro.incremental.row_update import (
    PendingScores,
    column_matvec,
    consolidate_batch,
    plan_composite_row_update,
)
from repro.linalg.qstore import TransitionStore
from repro.serving import DurabilityConfig, SimRankService
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import render_prometheus, validate_scrape

from _legacy_wal import encode_legacy_batch_frame
from _streams import random_update_stream

CFG = SimRankConfig(damping=0.6, iterations=8)


def _sequential_drain(graph, store, scores, row_updates):
    """Plan and apply each group in turn (how drains once ran).

    Mutates ``graph``, ``store`` and ``scores`` (a ScoreStore); returns
    the plans, each made against the scores the previous one left.
    """
    plans = []
    for row_update in row_updates:
        plan = plan_composite_row_update(
            graph, store, scores, row_update, CFG
        )
        scores.apply_plan(plan)
        plans.append(plan)
        row_update.apply_to(graph)
        store.set_row_from_graph(graph, row_update.target)
    return plans


def _pending_drain(graph, store, scores, row_updates):
    """Plan every group against a :class:`PendingScores` view.

    Mutates ``graph`` and ``store`` only; returns the pending view.
    """
    pending = PendingScores(scores)
    for row_update in row_updates:
        pending.add(
            plan_composite_row_update(graph, store, pending, row_update, CFG)
        )
        row_update.apply_to(graph)
        store.set_row_from_graph(graph, row_update.target)
    return pending


def _drain_case(num_nodes, num_updates, seed, p=0.08):
    graph = erdos_renyi_digraph(num_nodes, p, seed=seed)
    scores = matrix_simrank(graph, CFG)
    stream = random_update_stream(graph, num_updates, seed=seed + 7)
    return graph, scores, consolidate_batch(UpdateBatch(stream), graph)


@st.composite
def _overlay_cases(draw):
    seed = draw(st.integers(0, 10_000))
    num_nodes = draw(st.integers(6, 30))
    num_updates = draw(st.integers(2, 12))
    return _drain_case(num_nodes, num_updates, seed)


class TestColumnSparseProduct:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_nodes=st.integers(1, 40),
        shard_rows=st.integers(1, 16),
        support=st.integers(0, 8),
    )
    def test_matches_dense_gemv(self, seed, num_nodes, shard_rows, support):
        rng = np.random.default_rng(seed)
        scores = rng.random((num_nodes, num_nodes))
        v = np.zeros(num_nodes)
        cols = np.sort(
            rng.choice(num_nodes, size=min(support, num_nodes), replace=False)
        )
        v[cols] = rng.standard_normal(cols.size)
        dense = scores @ v
        scale = max(1.0, float(np.abs(scores).sum(axis=1).max()))
        store = ScoreStore(scores, shard_rows=shard_rows)
        for source in (scores, store):
            got = column_matvec(source, cols, v[cols])
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-15 * scale)


class TestPendingOverlay:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_overlay_cases(), st.integers(0, 10_000))
    def test_overlay_equals_dense_sum(self, case, seed):
        graph, scores, row_updates = case
        store = TransitionStore.from_graph(graph)
        pending = _pending_drain(graph, store, ScoreStore(scores), row_updates)
        n = scores.shape[0]
        dense = scores.copy()
        for plan in pending.plans:
            apply_plan_dense(dense, plan)
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(n, size=min(n, 5), replace=False))
        weights = rng.standard_normal(cols.size)
        v = np.zeros(n)
        v[cols] = weights
        np.testing.assert_allclose(
            pending.column_matvec(cols, weights), dense @ v, rtol=0, atol=1e-14
        )

    def test_noop_plans_are_not_pending(self):
        graph, scores, row_updates = _drain_case(20, 6, seed=3)
        store = TransitionStore.from_graph(graph)
        pending = _pending_drain(graph, store, scores, row_updates)
        assert all(not plan.is_noop for plan in pending.plans)


class TestFusedDrain:
    @pytest.mark.parametrize("seed", [1, 4, 9, 12])
    def test_equals_sequential_groups(self, seed):
        graph, scores, row_updates = _drain_case(40, 16, seed)
        assert len(row_updates) >= 3
        seq_graph, fused_graph = graph.copy(), graph.copy()
        sequential = ScoreStore(scores, shard_rows=7)
        _sequential_drain(
            seq_graph, TransitionStore.from_graph(graph), sequential,
            row_updates,
        )
        fused_store = ScoreStore(scores, shard_rows=7)
        pending = _pending_drain(
            fused_graph, TransitionStore.from_graph(graph), fused_store,
            row_updates,
        )
        fused = fuse_plans(pending.plans)
        fused_store.apply_plan(fused)
        assert fused_graph == seq_graph
        np.testing.assert_allclose(
            fused_store.to_array(), sequential.to_array(), rtol=0, atol=1e-13
        )
        members = pending.plans
        assert fused.members == tuple(members)
        assert fused.rank == sum(plan.rank for plan in members)
        assert fused.affected.iterations == sum(
            plan.affected.iterations for plan in members
        )
        assert fused.affected.area_sizes() == [
            size for plan in members for size in plan.affected.area_sizes()
        ]
        # The fused delta is the members' deltas summed.
        n = scores.shape[0]
        np.testing.assert_allclose(
            fused.delta_matrix(n),
            sum(plan.delta_matrix(n) for plan in members),
            rtol=0,
            atol=1e-15,
        )

    def test_fuse_edge_cases(self):
        graph, scores, row_updates = _drain_case(30, 6, seed=2)
        store = TransitionStore.from_graph(graph)
        pending = _pending_drain(graph, store, scores, row_updates)
        assert fuse_plans([]) is None
        only = pending.plans[0]
        assert fuse_plans([only]) is only
        empty = np.zeros(0, dtype=np.int64)
        noop = UpdatePlan(
            only.target, empty, empty, np.zeros((0, 0)), np.zeros((0, 0)),
            affected=None,
        )
        assert noop.is_noop
        assert fuse_plans([noop]) is None
        assert fuse_plans([noop, only, noop]) is only

    def test_engine_applies_one_plan_per_drain(self, monkeypatch):
        graph, scores, _ = _drain_case(40, 0, seed=5)
        engine = DynamicSimRank(graph, CFG, initial_scores=scores)
        applied = []
        original = ScoreStore.apply_plan

        def record(store, plan):
            applied.append(plan)
            return original(store, plan)

        monkeypatch.setattr(ScoreStore, "apply_plan", record)
        stream = random_update_stream(graph, 16, seed=11)
        groups = engine.apply_consolidated(UpdateBatch(stream))
        assert groups >= 3
        assert len(applied) == 1
        row_updates, plan = engine.take_last_drain()
        assert len(row_updates) == groups
        assert plan is applied[0]
        assert len(applied[0].members) == groups


def _sequential_apply_consolidated(engine, batch):
    """A drain applied one plan per row group, as drains once ran.

    Records ``(row_updates, plans)`` — all of the drain's plans — where
    the live engine records its one fused plan.
    """
    row_updates = consolidate_batch(batch, engine._graph)
    plans = _sequential_drain(
        engine._graph, engine._store, engine._scores, row_updates
    )
    engine._version += 1
    engine._last_drain = (tuple(row_updates), tuple(plans))
    return len(row_updates)


def _legacy_encode(version, row_updates, plans):
    """The WAL encoder swapped for the legacy one: a drain's one plan, or
    all of a sequential drain's, as one ``KIND_BATCH`` frame."""
    if not isinstance(plans, tuple):
        plans = () if plans is None else (plans,)
    return encode_legacy_batch_frame(version, row_updates, plans)


class TestWalReplay:
    def test_fused_frame_roundtrips_bitwise(self):
        graph, scores, row_updates = _drain_case(50, 20, seed=6)
        store = TransitionStore.from_graph(graph)
        pending = _pending_drain(graph, store, scores, row_updates)
        fused = fuse_plans(pending.plans)
        record = encode_drain_frame(1, tuple(row_updates), fused)
        (frame,), _ = decode_frames(record)
        assert frame.kind == KIND_DRAIN
        assert frame.row_updates == tuple(row_updates)
        (replayed,) = frame.plans
        for live, again in zip(fused.panels(), replayed.panels()):
            assert np.array_equal(live.view(np.int64), again.view(np.int64))
            assert again.flags.c_contiguous
        assert np.array_equal(replayed.rows_union, fused.rows_union)
        assert np.array_equal(replayed.cols_union, fused.cols_union)
        live_store = ScoreStore(scores, shard_rows=9)
        replay_store = ScoreStore(scores, shard_rows=9)
        live_store.apply_plan(fused)
        replay_store.apply_plan(replayed)
        assert np.array_equal(live_store.to_array(), replay_store.to_array())

    def test_multi_plan_frames_replay_to_sequential(self, tmp_path, monkeypatch):
        """Legacy frames, one- and two-plan, then new frames in one log:
        recovery and ``view_at`` at every version are bitwise live."""
        graph = erdos_renyi_digraph(40, 0.08, seed=8)
        durability = DurabilityConfig(
            data_dir=str(tmp_path / "data"), checkpoint_interval=1000
        )
        service = SimRankService(graph, CFG, durability=durability)
        live = {0: service.engine.similarities().copy()}

        def drain(updates):
            service.submit_many(updates)
            service.drain()
            live[service.version] = service.engine.similarities().copy()

        with monkeypatch.context() as patch:
            patch.setattr(durability_manager, "encode_drain_frame", _legacy_encode)
            # The drain's fused plan, as a legacy frame.
            drain(random_update_stream(graph, 8, seed=9))
            patch.setattr(
                DynamicSimRank,
                "apply_consolidated",
                _sequential_apply_consolidated,
            )
            now = service.engine.graph
            targets = [t for t in range(now.num_nodes) if now.in_degree(t)][:2]
            drain([
                EdgeUpdate.insert(next(
                    s for s in range(now.num_nodes)
                    if s != t and not now.has_edge(s, t)
                ), t)
                for t in targets
            ])
        for seed in (18, 26, 34):
            drain(random_update_stream(service.engine.graph, 8, seed=seed))
        frames = list(service.durability._wal.frames())
        assert [(frame.kind, len(frame.plans)) for frame in frames] == [
            (KIND_BATCH, 1), (KIND_BATCH, 2),
            (KIND_DRAIN, 1), (KIND_DRAIN, 1), (KIND_DRAIN, 1),
        ]
        for version, scores in live.items():
            view = service.view_at(version)
            assert view.similarities().tobytes() == scores.tobytes()
        service.close()
        reopened = SimRankService(graph, CFG, durability=durability)
        try:
            assert reopened.version == max(live)
            for version, scores in live.items():
                view = reopened.view_at(version)
                assert view.similarities().tobytes() == scores.tobytes()
            assert (
                reopened.engine.similarities().tobytes()
                == live[max(live)].tobytes()
            )
            # Fused drains continue on top of the recovered state.
            reopened.submit_many(random_update_stream(
                reopened.engine.graph, 8, seed=40
            ))
            reopened.drain()
        finally:
            reopened.close()


class TestFusionTelemetry:
    def test_member_and_rank_histograms(self):
        graph = erdos_renyi_digraph(30, 0.1, seed=4)
        service = SimRankService(graph, CFG)
        try:
            targets = sorted(
                node for node in range(30) if graph.in_degree(node)
            )[:3]
            updates = []
            for target in targets:
                source = next(
                    s for s in range(30)
                    if s != target and not graph.has_edge(s, target)
                )
                updates.append(EdgeUpdate.insert(source, target))
            service.submit_many(updates)
            assert service.drain() == 3
            _, fused = service.engine.take_last_drain()
            assert len(fused.members) == 3
            registry = service.telemetry.registry
            members = registry.get("repro_executor_plan_members")
            rank = registry.get("repro_executor_plan_rank")
            assert (members.count, members.sum) == (1, 3)
            assert (rank.count, rank.sum) == (1, fused.rank)
            assert fused.rank == sum(m.rank for m in fused.members)
            report = service.metrics_report()["telemetry"]["histograms"]
            assert report["repro_executor_plan_members"]["max"] == 3
            assert report["repro_executor_plan_rank"]["max"] == fused.rank
            scrape = render_prometheus(registry)
            validate_scrape(scrape)
            assert "repro_executor_plan_members_sum 3" in scrape
            assert f"repro_executor_plan_rank_sum {fused.rank}" in scrape
        finally:
            service.close()
