"""WAL drain frames: a drain's plan must survive its frame bit-exactly.

A drain is logged as its row updates plus its one fused plan's support
unions and dense panels (``KIND_DRAIN``); frames older versions wrote
hold a batch of plans as sparse factors (``KIND_BATCH``, encoded here
by :mod:`_legacy_wal`).  Replaying either kind applies exactly the
plans the live drain applied: a replayed frame equals applying its
plans in order, and a service recovered from its WAL after arbitrary
mixed update streams is bit-identical to the live one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimRankConfig
from repro.durability.wal import (
    KIND_BATCH,
    KIND_DRAIN,
    decode_frames,
    encode_drain_frame,
)
from repro.executor.score_store import ScoreStore
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import UpdateBatch
from repro.incremental.plan import apply_plan_dense
from repro.incremental.row_update import (
    consolidate_batch,
    plan_composite_row_update,
)
from repro.linalg.qstore import TransitionStore
from repro.metrics.topk import top_k_pairs
from repro.serving import DurabilityConfig, SimRankService
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import Telemetry

from _legacy_wal import encode_legacy_batch_frame
from _streams import random_update_stream

CFG = SimRankConfig(damping=0.6, iterations=8)


def _plans_for_stream(num_nodes, num_updates, seed):
    """Real kernel plans: one composite row plan per consolidated group."""
    graph = erdos_renyi_digraph(num_nodes, 0.06, seed=seed)
    store = TransitionStore.from_graph(graph)
    scores = matrix_simrank(graph, CFG)
    stream = random_update_stream(graph, num_updates, seed=seed + 1)
    row_updates = consolidate_batch(UpdateBatch(stream), graph)
    plans = [
        plan_composite_row_update(graph, store, scores, ru, CFG)
        for ru in row_updates
    ]
    return graph, scores, plans


def _roundtrip(plans):
    """Each plan through its own drain frame, then decoded."""
    buffer = b"".join(
        encode_drain_frame(version, (), plan)
        for version, plan in enumerate(plans, start=1)
    )
    frames, good = decode_frames(buffer)
    assert good == len(buffer)
    assert [frame.kind for frame in frames] == [KIND_DRAIN] * len(plans)
    return [plan for frame in frames for plan in frame.plans]


def _bits(array):
    return array.view(np.int64) if array.dtype == np.float64 else array


class TestPackedEncoding:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_word_roundtrip_bit_exact(self, seed):
        """plan -> frame -> plan reproduces unions and panels bitwise."""
        _, _, plans = _plans_for_stream(60, 25, seed)
        plans = [plan for plan in plans if not plan.is_noop]
        rebuilt = _roundtrip(plans)
        assert len(rebuilt) == len(plans)
        for original, copy in zip(plans, rebuilt):
            assert copy.target == original.target
            assert copy.rank == original.rank
            assert copy.affected is None and copy.members == ()
            for a, b in zip(
                (original.rows_union, original.cols_union, *original.panels()),
                (copy.rows_union, copy.cols_union, *copy.panels()),
            ):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert b.flags.c_contiguous
                assert np.array_equal(_bits(a), _bits(b))
        # The legacy sparse layout densifies to the same values (its
        # factors drop a panel's -0.0 entries, which come back as +0.0).
        (frame,), _ = decode_frames(encode_legacy_batch_frame(1, (), plans))
        assert len(frame.plans) == len(plans)
        for original, copy in zip(plans, frame.plans):
            assert copy.target == original.target
            assert np.array_equal(copy.rows_union, original.rows_union)
            assert np.array_equal(copy.cols_union, original.cols_union)
            for a, b in zip(original.panels(), copy.panels()):
                assert b.flags.c_contiguous
                assert np.array_equal(a, b)

    def test_roundtripped_apply_bit_identical(self):
        """Applying rebuilt plans == applying the originals, bitwise."""
        _, scores, plans = _plans_for_stream(50, 20, seed=3)
        rebuilt = _roundtrip([plan for plan in plans if not plan.is_noop])
        direct = scores.copy()
        wired = scores.copy()
        for plan in plans:
            apply_plan_dense(direct, plan)
        for plan in rebuilt:
            apply_plan_dense(wired, plan)
        assert np.array_equal(direct, wired)

    def test_truncated_words_rejected(self):
        _, _, plans = _plans_for_stream(40, 10, seed=4)
        plan = next(plan for plan in plans if not plan.is_noop)
        record = encode_drain_frame(1, (), plan)
        # A torn frame is dropped whole; nothing of it is decoded.
        assert decode_frames(record[:-1]) == ([], 0)

    def test_empty_batch(self):
        """A drain that changed no score logs its row updates only."""
        (frame,), _ = decode_frames(encode_drain_frame(3, (), None))
        assert (frame.kind, frame.version, frame.plans) == (KIND_DRAIN, 3, ())
        (frame,), _ = decode_frames(encode_legacy_batch_frame(3, (), ()))
        assert (frame.kind, frame.version, frame.plans) == (KIND_BATCH, 3, ())


def _replay(store, record):
    """Apply a drain the way WAL recovery does: from its frame's bytes."""
    (frame,), _ = decode_frames(record)
    for plan in frame.plans:
        store.apply_plan(plan)


class TestScoreStoreBatchApply:
    def test_batch_equals_sequential(self):
        """A replayed legacy multi-plan frame == per-plan apply_plan."""
        _, scores, plans = _plans_for_stream(50, 25, seed=6)
        sequential = ScoreStore(scores, shard_rows=16)
        batched = ScoreStore(scores, shard_rows=16, telemetry=Telemetry())
        for plan in plans:
            sequential.apply_plan(plan)
        _replay(batched, encode_legacy_batch_frame(1, (), plans))
        assert np.array_equal(sequential.to_array(), batched.to_array())
        assert batched.version == sequential.version
        assert batched.apply_report()["plans"] == len(
            [plan for plan in plans if not plan.is_noop]
        )

    def test_noop_batch_is_ignored(self):
        store = ScoreStore(
            np.zeros((8, 8)), shard_rows=4, telemetry=Telemetry()
        )
        _replay(store, encode_drain_frame(1, (), None))
        _replay(store, encode_legacy_batch_frame(2, (), ()))
        assert store.version == 0
        assert store.apply_report()["plans"] == 0


class TestServiceStreamEquivalence:
    """WAL-replayed drains == live in-process drains, bitwise."""

    @pytest.mark.parametrize("seed", [21, 22])
    def test_mixed_streams_bit_identical(self, seed, tmp_path):
        graph = erdos_renyi_digraph(80, 0.05, seed=seed)
        scores = matrix_simrank(graph, CFG)
        updates = random_update_stream(graph, 60, seed=seed + 100)
        durability = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off", checkpoint_interval=1000
        )
        live = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy(), shard_rows=16
        )
        durable = SimRankService(
            graph.copy(),
            CFG,
            initial_scores=scores.copy(),
            shard_rows=16,
            durability=durability,
        )
        try:
            chunk = 12
            for begin in range(0, len(updates), chunk):
                part = updates[begin : begin + chunk]
                for service in (live, durable):
                    service.submit_many(part)
                    service.drain()
            oracle = live.engine.similarities()
            assert np.array_equal(durable.engine.similarities(), oracle)
            final = durable.version
            # Every drain since the base checkpoint is a WAL frame.
            assert durable.durability.report()["wal_lag_drains"] > 1
            # Crash: release the lock only, skip every shutdown flush.
            durable.durability.close()
            durable._durability = None
        finally:
            live.close()
            durable.close()
        recovered = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1), durability=durability
        )
        try:
            assert recovered.version == final
            assert np.array_equal(recovered.engine.similarities(), oracle)
            assert recovered.top_k(10) == top_k_pairs(oracle, 10)
        finally:
            recovered.close()
