"""The packed ``PlanBatch`` encoding (the write-ahead log's frame format).

A ``PlanBatch`` must survive the packed word encoding bit-exactly, so a
drain replayed from the WAL applies exactly the plans the live drain
applied: replaying a packed batch onto a score store equals applying
its plans sequentially, and a service recovered from its WAL after
arbitrary mixed update streams is bit-identical to the live one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimRankConfig
from repro.executor.score_store import ScoreStore
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import UpdateBatch
from repro.incremental.plan import (
    PackedPlanBatch,
    PlanBatch,
    apply_plan_dense,
)
from repro.incremental.row_update import (
    consolidate_batch,
    plan_composite_row_update,
)
from repro.linalg.qstore import TransitionStore
from repro.metrics.topk import top_k_pairs
from repro.serving import DurabilityConfig, SimRankService
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import Telemetry

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


class TestPackedEncoding:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_word_roundtrip_bit_exact(self, seed):
        """packed -> words -> plans reproduces every factor bitwise."""
        _, _, plans = _plans_for_stream(60, 25, seed)
        batch = PlanBatch(plans)
        packed = batch.packed()
        words = np.empty(packed.word_count(), dtype=np.int64)
        assert packed.write_words(words) == packed.word_count()
        rebuilt = PackedPlanBatch.from_words(
            words, packed.count, packed.section_lengths()
        ).plans()
        assert len(rebuilt) == len(plans)
        for original, copy in zip(plans, rebuilt):
            assert copy.target == original.target
            assert copy.rank == original.rank
            assert np.array_equal(copy.rows_union, original.rows_union)
            assert np.array_equal(copy.cols_union, original.cols_union)
            for (ai, av), (bi, bv) in zip(
                original.left_factors, copy.left_factors
            ):
                assert np.array_equal(ai, bi)
                assert np.array_equal(av, bv)
            for (ai, av), (bi, bv) in zip(
                original.right_factors, copy.right_factors
            ):
                assert np.array_equal(ai, bi)
                assert np.array_equal(av, bv)

    def test_roundtripped_apply_bit_identical(self):
        """Applying rebuilt plans == applying the originals, bitwise."""
        _, scores, plans = _plans_for_stream(50, 20, seed=3)
        packed = PlanBatch(plans).packed()
        words = np.empty(packed.word_count(), dtype=np.int64)
        packed.write_words(words)
        rebuilt = PackedPlanBatch.from_words(
            words, packed.count, packed.section_lengths()
        ).plans()
        direct = scores.copy()
        wired = scores.copy()
        for plan in plans:
            apply_plan_dense(direct, plan)
        for plan in rebuilt:
            apply_plan_dense(wired, plan)
        assert np.array_equal(direct, wired)

    def test_truncated_words_rejected(self):
        _, _, plans = _plans_for_stream(40, 10, seed=4)
        packed = PlanBatch(plans).packed()
        words = np.empty(packed.word_count(), dtype=np.int64)
        packed.write_words(words)
        with pytest.raises(ValueError):
            PackedPlanBatch.from_words(
                words[:-1], packed.count, packed.section_lengths()
            )

    def test_empty_batch(self):
        packed = PlanBatch([]).packed()
        assert packed.count == 0
        assert packed.word_count() == 0
        assert PackedPlanBatch.from_words(
            np.empty(0, dtype=np.int64), 0, packed.section_lengths()
        ).plans() == []


def _replay(store, batch):
    """Apply a drain the way WAL recovery does: from its packed words."""
    packed = batch.packed()
    words = np.empty(packed.word_count(), dtype=np.int64)
    packed.write_words(words)
    for plan in PackedPlanBatch.from_words(
        words, packed.count, packed.section_lengths()
    ).plans():
        store.apply_plan(plan)


class TestScoreStoreBatchApply:
    def test_batch_equals_sequential(self):
        """A replayed packed batch == per-plan apply_plan, bitwise."""
        _, scores, plans = _plans_for_stream(50, 25, seed=6)
        sequential = ScoreStore(scores, shard_rows=16)
        batched = ScoreStore(scores, shard_rows=16, telemetry=Telemetry())
        for plan in plans:
            sequential.apply_plan(plan)
        _replay(batched, PlanBatch(plans))
        assert np.array_equal(sequential.to_array(), batched.to_array())
        assert batched.version == sequential.version
        assert batched.apply_report()["plans"] == len(
            [plan for plan in plans if not plan.is_noop]
        )

    def test_noop_batch_is_ignored(self):
        store = ScoreStore(
            np.zeros((8, 8)), shard_rows=4, telemetry=Telemetry()
        )
        _replay(store, PlanBatch([]))
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
