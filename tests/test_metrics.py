"""Tests for repro.metrics (topk, ndcg, error, memory)."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.metrics.error import frobenius_error, max_abs_error, mean_abs_error
from repro.metrics.memory import (
    batch_intermediate_bytes,
    format_bytes,
    inc_sr_intermediate_bytes,
    inc_svd_intermediate_bytes,
    inc_usr_intermediate_bytes,
    measure_peak_bytes,
    score_store_bytes,
    snapshot_overhead_bytes,
)
from repro.metrics.ndcg import dcg, ndcg_at_k, ndcg_of_pairs
from repro.metrics.topk import pair_rank_scores, top_k_pairs


def symmetric(matrix):
    return (matrix + matrix.T) / 2


class TestTopKPairs:
    def test_basic_extraction(self):
        s = np.zeros((4, 4))
        s[0, 1] = s[1, 0] = 0.9
        s[2, 3] = s[3, 2] = 0.5
        s[0, 2] = s[2, 0] = 0.7
        top = top_k_pairs(s, 2)
        assert top == [(0, 1, 0.9), (0, 2, 0.7)]

    def test_excludes_diagonal_by_default(self):
        s = np.eye(3)
        top = top_k_pairs(s, 3)
        assert all(a != b for a, b, _ in top)

    def test_include_self(self):
        s = np.eye(3)
        top = top_k_pairs(s, 2, include_self=True)
        assert top[0] == (0, 0, 1.0)

    def test_deterministic_tie_break(self):
        s = np.zeros((4, 4))
        for a, b in [(0, 1), (0, 2), (1, 3)]:
            s[a, b] = s[b, a] = 0.5
        top = top_k_pairs(s, 3)
        assert [(a, b) for a, b, _ in top] == [(0, 1), (0, 2), (1, 3)]

    def test_k_larger_than_pairs(self):
        s = symmetric(np.random.default_rng(0).random((3, 3)))
        assert len(top_k_pairs(s, 100)) == 3  # C(3,2) pairs

    def test_k_zero(self):
        assert top_k_pairs(np.eye(3), 0) == []

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            top_k_pairs(np.zeros((2, 3)), 1)

    def test_pair_rank_scores(self):
        s = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(
            pair_rank_scores(s, [(0, 1), (2, 2)]), [1.0, 8.0]
        )


class TestNDCG:
    def test_dcg_formula(self):
        # rel/log2(i+1) for i = 1, 2, 3.
        value = dcg([3.0, 2.0, 1.0])
        expected = 3.0 / np.log2(2) + 2.0 / np.log2(3) + 1.0 / np.log2(4)
        assert value == pytest.approx(expected)

    def test_dcg_empty(self):
        assert dcg([]) == 0.0

    def test_perfect_ranking_scores_one(self):
        rng = np.random.default_rng(1)
        s = symmetric(rng.random((8, 8)))
        assert ndcg_at_k(s, s, k=5) == pytest.approx(1.0)

    def test_identical_matrices_score_one(self, cyclic_graph, config):
        from repro.simrank.exact import exact_simrank

        s = exact_simrank(cyclic_graph, config)
        assert ndcg_at_k(s, s, k=10) == pytest.approx(1.0)

    def test_scrambled_ranking_below_one(self):
        rng = np.random.default_rng(2)
        baseline = symmetric(rng.random((10, 10)))
        scrambled = symmetric(rng.random((10, 10)))
        assert ndcg_at_k(scrambled, baseline, k=10) < 1.0

    def test_monotone_in_quality(self):
        """A mild perturbation ranks closer to truth than a wild one."""
        rng = np.random.default_rng(3)
        baseline = symmetric(rng.random((12, 12)))
        mild = baseline + 0.01 * symmetric(rng.random((12, 12)))
        wild = symmetric(rng.random((12, 12)))
        assert ndcg_at_k(mild, baseline, k=10) >= ndcg_at_k(
            wild, baseline, k=10
        )

    def test_zero_baseline_gives_one(self):
        assert ndcg_at_k(np.eye(4), np.zeros((4, 4)), k=3) == 1.0

    def test_ndcg_of_pairs_direct(self):
        baseline = np.zeros((4, 4))
        baseline[0, 1] = baseline[1, 0] = 1.0
        baseline[2, 3] = baseline[3, 2] = 0.5
        perfect = ndcg_of_pairs([(0, 1), (2, 3)], baseline, k=2)
        inverted = ndcg_of_pairs([(2, 3), (0, 1)], baseline, k=2)
        assert perfect == pytest.approx(1.0)
        assert inverted < perfect

    def test_identical_inputs_are_perfect(self):
        rng = np.random.default_rng(3)
        scores = symmetric(rng.random((40, 40)))
        np.fill_diagonal(scores, 1.0)
        assert ndcg_at_k(scores, scores, 50) == pytest.approx(1.0)

    def test_metrics_are_deterministic(self):
        rng = np.random.default_rng(5)
        base = symmetric(rng.random((40, 40)))
        approx = base + 1e-3 * symmetric(rng.random((40, 40)))
        assert ndcg_at_k(approx, base, 25) == ndcg_at_k(
            approx.copy(), base.copy(), 25
        )

    def test_stable_under_float32_epsilon(self):
        """Storage rounding at ~1e-7 relative error barely moves NDCG."""
        rng = np.random.default_rng(8)
        base = symmetric(rng.random((40, 40)))
        approx = base.astype(np.float32).astype(np.float64)
        assert ndcg_at_k(approx, base, 50) >= 0.999

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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ndcg_at_k(np.eye(3), np.eye(4), k=2)

    def test_k_validation(self):
        with pytest.raises(DimensionError):
            ndcg_of_pairs([], np.eye(3), k=0)


class TestErrorNorms:
    def test_max_abs(self):
        a = np.asarray([[0.0, 1.0], [2.0, 3.0]])
        b = np.asarray([[0.5, 1.0], [2.0, 2.0]])
        assert max_abs_error(a, b) == pytest.approx(1.0)

    def test_mean_abs(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 2.0)
        assert mean_abs_error(a, b) == pytest.approx(2.0)

    def test_frobenius(self):
        a = np.zeros((2, 2))
        b = np.asarray([[3.0, 0.0], [0.0, 4.0]])
        assert frobenius_error(a, b) == pytest.approx(5.0)

    def test_identical_matrices_zero(self):
        a = np.random.default_rng(0).random((5, 5))
        assert max_abs_error(a, a) == 0.0
        assert frobenius_error(a, a) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            max_abs_error(np.eye(2), np.eye(3))


class TestMemoryAccounting:
    def test_estimators_positive_and_ordered(self):
        n, m, k = 1000, 7000, 15
        usr = inc_usr_intermediate_bytes(n, m, k)
        sr = inc_sr_intermediate_bytes(n, m, k, average_area=500.0, average_row_support=20.0)
        assert 0 < sr < usr  # pruning shrinks the working set

    def test_svd_quartic_in_rank(self):
        n = 1000
        r5 = inc_svd_intermediate_bytes(n, 5)
        r25 = inc_svd_intermediate_bytes(n, 25)
        # The r^4 Kronecker system should make r=25 dramatically larger.
        assert r25 > 10 * r5

    def test_memory_model_tracks_dtype(self):
        assert score_store_bytes(100) == 100 * 100 * 8
        assert score_store_bytes(100, dtype="float32") == 100 * 100 * 4
        f64 = snapshot_overhead_bytes(2, 16, 64)
        f32 = snapshot_overhead_bytes(2, 16, 64, dtype="float32")
        assert f32 * 2 == f64

    def test_batch_includes_dense_temp(self):
        assert batch_intermediate_bytes(100, 500) > 100 * 100 * 8

    def test_measure_peak_bytes(self):
        def allocate():
            return np.zeros(300_000)  # ~2.4 MB

        result, peak = measure_peak_bytes(allocate)
        assert result.shape == (300_000,)
        assert peak >= 2_000_000

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(3 * 1024**2) == "3.0 MB"
        assert format_bytes(5 * 1024**3) == "5.0 GB"
