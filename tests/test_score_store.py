"""Tests for repro.executor.score_store (the sharded executor layer)."""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.executor import ScoreStore
from repro.executor.score_store import SPARSE_SPAN_RATIO
from repro.graph.generators import erdos_renyi_digraph
from repro.durability.wal import decode_frames, encode_drain_frame
from repro.incremental.plan import (
    UpdatePlan,
    apply_plan_dense,
    plan_unit_update,
)
from repro.graph.updates import EdgeUpdate
from repro.linalg.qstore import TransitionStore
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import NULL_TELEMETRY, Telemetry, render_prometheus
from repro.telemetry.registry import NullCounter

SLICE_PASSES = "repro_executor_apply_slice_passes_total"
FANCY_PASSES = "repro_executor_apply_fancy_passes_total"


def _random_scores(n, seed=0):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, n))
    return (scores + scores.T) / 2.0


class TestReads:
    @pytest.mark.parametrize("shard_rows", [1, 3, 4, 100])
    def test_round_trip(self, shard_rows):
        scores = _random_scores(10)
        store = ScoreStore(scores, shard_rows=shard_rows)
        np.testing.assert_array_equal(store.to_array(), scores)

    def test_entry_row_column(self):
        scores = _random_scores(9)
        store = ScoreStore(scores, shard_rows=4)
        assert store.entry(7, 2) == scores[7, 2]
        np.testing.assert_array_equal(store.row(5), scores[5])
        np.testing.assert_array_equal(store.column(3), scores[:, 3])

    def test_getitem_duck_typing(self):
        scores = _random_scores(8)
        store = ScoreStore(scores, shard_rows=3)
        assert store[4, 6] == scores[4, 6]
        np.testing.assert_array_equal(store[:, 2], scores[:, 2])
        np.testing.assert_array_equal(store[6, :], scores[6])
        with pytest.raises(TypeError):
            store[1:3, 2]

    def test_column_matvec_matches_dense(self):
        scores = _random_scores(11)
        store = ScoreStore(scores, shard_rows=4)
        cols = np.array([1, 4, 9])
        weights = np.random.default_rng(1).random(3)
        out = np.empty(11)
        assert store.column_matvec(cols, weights, out=out) is out
        np.testing.assert_allclose(
            out, scores[:, cols] @ weights, rtol=1e-15, atol=0
        )

    def test_column_into_out_buffer(self):
        scores = _random_scores(7)
        store = ScoreStore(scores, shard_rows=2)
        out = np.empty(7)
        result = store.column(4, out=out)
        assert result is out
        np.testing.assert_array_equal(out, scores[:, 4])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            ScoreStore(np.zeros((3, 4)))

    def test_bad_shard_rows_rejected(self):
        with pytest.raises(DimensionError):
            ScoreStore(np.zeros((3, 3)), shard_rows=0)


class TestWrites:
    def test_add_dense_and_replace(self):
        scores = _random_scores(10)
        store = ScoreStore(scores, shard_rows=3)
        delta = _random_scores(10, seed=5)
        store.add_dense(delta)
        np.testing.assert_array_equal(store.to_array(), scores + delta)
        store.replace_dense(scores)
        np.testing.assert_array_equal(store.to_array(), scores)

    def test_set_entry(self):
        store = ScoreStore(np.zeros((6, 6)), shard_rows=2)
        store.set_entry(5, 1, 0.25)
        assert store.entry(5, 1) == 0.25

    def test_version_bumps_on_mutation(self):
        store = ScoreStore(np.zeros((4, 4)), shard_rows=2)
        v0 = store.version
        store.set_entry(0, 0, 1.0)
        store.add_dense(np.zeros((4, 4)))
        assert store.version == v0 + 2

    def test_apply_plan_matches_dense_executor(self, config):
        graph = erdos_renyi_digraph(40, 0.08, seed=11)
        tstore = TransitionStore.from_graph(graph)
        dense = matrix_simrank(tstore.csr_matrix(), config)
        target = 17
        source = next(
            node
            for node in range(graph.num_nodes)
            if node != target and not graph.has_edge(node, target)
        )
        update = EdgeUpdate.insert(source, target)
        plan = plan_unit_update(tstore, dense, update, graph, config)
        assert not plan.is_noop

        expected = dense.copy()
        apply_plan_dense(expected, plan)
        for shard_rows in (1, 4, 7, 64):
            store = ScoreStore(dense, shard_rows=shard_rows)
            store.apply_plan(plan)
            np.testing.assert_array_equal(store.to_array(), expected)


class TestGrowth:
    def test_add_node_grows_all_reads(self):
        scores = _random_scores(5)
        store = ScoreStore(scores, shard_rows=2)
        node = store.add_node()
        assert node == 5
        assert store.shape == (6, 6)
        grown = store.to_array()
        np.testing.assert_array_equal(grown[:5, :5], scores)
        assert not grown[5].any()
        assert not grown[:, 5].any()

    def test_node_stream_keeps_shard_invariant(self):
        store = ScoreStore(np.zeros((1, 1)), shard_rows=3)
        for _ in range(20):
            store.add_node()
        assert store.shape == (21, 21)
        assert store.num_shards == 7
        report = store.shard_report()
        assert [entry["rows"] for entry in report] == [3] * 6 + [3]
        store.set_entry(20, 20, 0.4)
        assert store.entry(20, 20) == 0.4


class TestCopyOnWrite:
    def test_snapshot_is_bit_stable_under_writes(self):
        scores = _random_scores(12)
        store = ScoreStore(scores, shard_rows=4)
        snap = store.snapshot()
        frozen = snap.to_array()
        store.add_dense(_random_scores(12, seed=9))
        store.set_entry(0, 0, 42.0)
        np.testing.assert_array_equal(snap.to_array(), frozen)
        np.testing.assert_array_equal(snap.to_array(), scores)
        assert snap.entry(0, 0) == scores[0, 0]
        np.testing.assert_array_equal(snap.row(3), scores[3])
        np.testing.assert_array_equal(snap.column(7), scores[:, 7])

    def test_only_touched_shards_are_copied(self, config):
        graph = erdos_renyi_digraph(60, 0.05, seed=2)
        tstore = TransitionStore.from_graph(graph)
        dense = matrix_simrank(tstore.csr_matrix(), config)
        store = ScoreStore(dense, shard_rows=8)
        store.snapshot()
        assert store.shared_shard_count() == store.num_shards
        store.set_entry(0, 0, 1.0)
        assert store.cow_copies == 1
        assert store.shared_shard_count() == store.num_shards - 1

    def test_snapshot_views_are_read_only(self):
        store = ScoreStore(_random_scores(6), shard_rows=2)
        snap = store.snapshot()
        with pytest.raises(ValueError):
            snap._views[0][0, 0] = 1.0

    def test_two_snapshots_without_writes_share_buffers(self):
        store = ScoreStore(_random_scores(6), shard_rows=2)
        first = store.snapshot()
        second = store.snapshot()
        assert first.version == second.version
        store.set_entry(1, 1, 9.0)
        np.testing.assert_array_equal(first.to_array(), second.to_array())

    def test_snapshot_preserves_store_dtype(self):
        store = ScoreStore(_random_scores(12), shard_rows=4, dtype="float32")
        snap = store.snapshot()
        assert snap.dtype == np.float32
        assert snap.to_array().dtype == np.float32
        assert snap.column(3).dtype == np.float32
        np.testing.assert_array_equal(snap.to_array(), store.to_array())

    def test_snapshot_versions_diverge(self):
        store = ScoreStore(_random_scores(6), shard_rows=2)
        old = store.snapshot()
        store.set_entry(2, 3, 7.0)
        new = store.snapshot()
        assert new.version > old.version
        assert old.entry(2, 3) != 7.0
        assert new.entry(2, 3) == 7.0


class TestAccounting:
    def test_bytes_and_report(self):
        store = ScoreStore(_random_scores(10), shard_rows=4)
        assert store.nbytes() == 10 * 10 * 8
        assert store.buffer_bytes() >= store.nbytes()
        report = store.shard_report()
        assert len(report) == store.num_shards == 3
        assert {entry["base"] for entry in report} == {0, 4, 8}

    def test_score_store_dtype_and_accounting(self):
        scores = _random_scores(10)
        f64 = ScoreStore(scores, shard_rows=4)
        f32 = ScoreStore(scores, shard_rows=4, dtype="float32")
        assert (f64.dtype, f32.dtype) == (np.float64, np.float32)
        assert f32.nbytes() * 2 == f64.nbytes()
        assert f32.row(5).dtype == f32.column(5).dtype == np.float32
        assert f32.dtype_report() == {
            "score_dtype": "float32",
            "score_dtype_bytes": 10 * 10 * 4,
        }
        # Node arrival grows the store in its own dtype.
        f32.add_node()
        assert f32.to_array().dtype == np.float32
        assert f32.nbytes() == 11 * 11 * 4


def _plan(rows, cols, rank, seed):
    """A plan over the given supports; factor 0 spans both unions."""
    rng = np.random.default_rng(seed)
    rows = np.asarray(sorted(set(rows)), dtype=np.int64)
    cols = np.asarray(sorted(set(cols)), dtype=np.int64)
    left = np.zeros((rows.size, rank))
    right = np.zeros((cols.size, rank))
    for term in range(rank):
        keep_rows = rng.random(rows.size) < 0.7
        keep_cols = rng.random(cols.size) < 0.7
        if term == 0:
            keep_rows[:] = keep_cols[:] = True
        left[keep_rows, term] = rng.uniform(-1.0, 1.0, keep_rows.sum())
        right[keep_cols, term] = rng.uniform(-1.0, 1.0, keep_cols.sum())
    return UpdatePlan(0, rows, cols, left, right, affected=None)


@st.composite
def _support(draw, n):
    """Sorted indices below ``n``: long runs, a stride, or scattered."""
    shape = draw(st.sampled_from(["runs", "strided", "scattered"]))
    if shape == "runs":
        runs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(1, n)),
                min_size=1,
                max_size=3,
            )
        )
        return [
            i for start, size in runs for i in range(start, min(n, start + size))
        ]
    if shape == "strided":
        start = draw(st.integers(0, n - 1))
        stride = draw(st.integers(1, 2 * SPARSE_SPAN_RATIO))
        return list(range(start, n, stride))
    return draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))


@st.composite
def _apply_cases(draw):
    n = draw(st.integers(2, 48))
    return {
        "n": n,
        "rows": draw(_support(n)),
        "cols": draw(_support(n)),
        "rank": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**16)),
        "shard_rows": draw(st.sampled_from([1, 3, 7, 64])),
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
        "replayed": draw(st.booleans()),
    }


class TestApplyStrategies:
    """The apply strategies against the dense reference: bitwise on
    small plans and ``np.ix_`` passes, within a rounding bound on large
    zero-padded span tiles."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_apply_cases())
    def test_apply_plan_equals_dense_reference(self, case):
        plan = _plan(case["rows"], case["cols"], case["rank"], case["seed"])
        if case["replayed"]:
            # Read back from a WAL frame: read-only views of its bytes.
            (frame,), _ = decode_frames(encode_drain_frame(1, (), plan))
            (plan,) = frame.plans
        scores = _random_scores(case["n"], seed=case["seed"]).astype(
            case["dtype"]
        )
        store = ScoreStore(
            scores, shard_rows=case["shard_rows"], dtype=case["dtype"]
        )
        pinned = store.snapshot()
        store.apply_plan(plan)

        expected = scores.copy()
        apply_plan_dense(expected, plan)
        result = store.to_array()
        assert result.dtype == case["dtype"]
        np.testing.assert_array_equal(result, expected)
        np.testing.assert_array_equal(pinned.to_array(), scores)
        touched = {
            int(i) // case["shard_rows"]
            for i in np.union1d(plan.rows_union, plan.cols_union)
        }
        assert store.cow_copies == len(touched)

    @pytest.mark.parametrize(
        "cols, fancy",
        [
            (range(10, 50), 0),  # one long run
            (range(10, 50, 2), 0),  # half-dense span
            (range(0, 60, 2 * SPARSE_SPAN_RATIO), 1),  # sparse span
        ],
    )
    def test_strategy_counters(self, cols, fancy):
        """The block pass follows ``cols``; the transpose pass slices."""
        telemetry = Telemetry()
        rows = [3, 4, 5, 9, 10, 11, 17, 18]  # runs cross shard bounds
        plan = _plan(rows, cols, rank=3, seed=4)
        scores = _random_scores(64)
        store = ScoreStore(scores, shard_rows=7, telemetry=telemetry)
        store.apply_plan(plan)
        expected = apply_plan_dense(scores.copy(), plan)
        np.testing.assert_array_equal(store.to_array(), expected)
        registry = telemetry.registry
        assert registry.get(FANCY_PASSES).value == fancy
        assert registry.get(SLICE_PASSES).value == 2 - fancy
        scrape = render_prometheus(registry)
        assert f"{FANCY_PASSES} {fancy}" in scrape
        assert f"{SLICE_PASSES} {2 - fancy}" in scrape

    @pytest.mark.parametrize("seed", range(8))
    def test_fancy_transpose_pass_matches_dense_reference(self, seed):
        """A GEMM large enough for BLAS to round ``R @ Lᵀ`` apart from
        ``(L @ Rᵀ)ᵀ``: only the transpose pass scatters through
        ``np.ix_`` (span 6.6x its columns), and it must add the
        transpose of the reference's block."""
        n = 2000
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(n, 300, replace=False))
        cols = np.arange(100, 1100)
        left = rng.random((rows.size, 16))
        right = rng.random((cols.size, 16))
        plan = UpdatePlan(0, rows, cols, left, right, None)
        telemetry = Telemetry()
        store = ScoreStore(np.zeros((n, n)), telemetry=telemetry)
        store.apply_plan(plan)
        assert telemetry.registry.get(FANCY_PASSES).value == 1
        assert telemetry.registry.get(SLICE_PASSES).value == 1
        expected = apply_plan_dense(np.zeros((n, n)), plan)
        np.testing.assert_array_equal(store.to_array(), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_span_tile_within_rounding_bound(self, seed):
        """A large zero-padded span GEMM may round apart from the
        reference's unpadded one (most seeds here differ by up to a few
        ulps), but never by more than the dot-product bound
        ``2·k·eps·(|L|·|R|ᵀ + its transpose)`` per entry."""
        n, rank = 2000, 15
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(np.arange(1000, 2000), 500, replace=False))
        cols = np.sort(rng.choice(np.arange(1400), 1000, replace=False))
        left = rng.random((rows.size, rank))
        right = rng.random((cols.size, rank))
        plan = UpdatePlan(0, rows, cols, left, right, None)
        store = ScoreStore(np.zeros((n, n)))
        store.apply_plan(plan)
        expected = apply_plan_dense(np.zeros((n, n)), plan)
        scale = np.zeros((n, n))
        block = np.abs(left) @ np.abs(right).T
        scale[np.ix_(rows, cols)] += block
        scale[np.ix_(cols, rows)] += block.T
        bound = 2 * rank * np.finfo(np.float64).eps * scale
        assert np.all(np.abs(store.to_array() - expected) <= bound)

    def test_strategy_counters_are_null_without_telemetry(self):
        store = ScoreStore(_random_scores(8), telemetry=NULL_TELEMETRY)
        assert isinstance(store._slice_passes, NullCounter)
        assert isinstance(store._fancy_passes, NullCounter)

    def test_apply_time_covers_panels_and_gemm(self, monkeypatch):
        original = UpdatePlan.panels

        def slow_panels(plan):
            time.sleep(0.005)
            return original(plan)

        monkeypatch.setattr(UpdatePlan, "panels", slow_panels)
        telemetry = Telemetry()
        store = ScoreStore(
            _random_scores(40), shard_rows=16, telemetry=telemetry
        )
        plans = [
            _plan(range(5, 30), range(0, 40, 3), rank=2, seed=seed)
            for seed in range(3)
        ]
        for plan in plans:
            store.apply_plan(plan)
        hist = telemetry.registry.get("repro_executor_apply_plan_seconds")
        assert hist.count == len(plans)
        assert hist.sum >= 0.005 * len(plans)
        # The report reads the same histogram: one record per plan.
        report = store.apply_report()
        assert report["plans"] == len(plans)
        assert report["apply_seconds"] == hist.sum
        assert report["mean_plan_seconds"] >= 0.005
        assert report["recent_plan_ms"]["p50"] >= 5.0
