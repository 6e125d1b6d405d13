"""Tests for repro.incremental.plan (the kernel layer)."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate
from repro.incremental.inc_sr import inc_sr_update
from repro.incremental.plan import (
    UpdatePlan,
    apply_plan_dense,
    plan_unit_update,
)
from repro.incremental.row_update import (
    RowUpdate,
    apply_row_update,
    plan_composite_row_update,
)
from repro.linalg.qstore import TransitionStore
from repro.simrank.matrix import matrix_simrank


@pytest.fixture
def planned_state(config):
    graph = erdos_renyi_digraph(50, 0.06, seed=4)
    store = TransitionStore.from_graph(graph)
    scores = matrix_simrank(store.csr_matrix(), config)
    return graph, store, scores


class TestPlanShape:
    def test_plan_is_pure(self, planned_state, config):
        graph, store, scores = planned_state
        before_scores = scores.copy()
        before_version = store.version
        plan = plan_unit_update(
            store, scores, EdgeUpdate.insert(1, 20), graph, config
        )
        assert isinstance(plan, UpdatePlan)
        np.testing.assert_array_equal(scores, before_scores)
        assert store.version == before_version

    def test_factor_bookkeeping(self, planned_state, config):
        graph, store, scores = planned_state
        plan = plan_unit_update(
            store, scores, EdgeUpdate.insert(1, 20), graph, config
        )
        left, right = plan.panels()
        assert plan.target == 20
        assert plan.rank == left.shape[1] == right.shape[1]
        assert plan.rank >= 1
        assert plan.support_size() == plan.rows_union.size * plan.cols_union.size
        assert plan.nbytes() > 0
        # Union supports really are the union of the factor supports:
        # every union row and column is nonzero in some panel column.
        assert left.any(axis=1).all() and right.any(axis=1).all()
        rows = np.unique(np.concatenate([
            plan.rows_union[np.flatnonzero(left[:, k])]
            for k in range(plan.rank)
        ]))
        np.testing.assert_array_equal(rows, plan.rows_union)
        # Column k's support is round k's Theorem-4 affected area.
        for k in range(plan.rank):
            assert np.count_nonzero(left[:, k]) == plan.affected.row_sizes[k]
            assert np.count_nonzero(right[:, k]) == plan.affected.col_sizes[k]

    def test_panels_reconstruct_factors(self, planned_state, config):
        graph, store, scores = planned_state
        plan = plan_unit_update(
            store, scores, EdgeUpdate.insert(1, 20), graph, config
        )
        left, right = plan.panels()
        assert left.shape == (plan.rows_union.size, plan.rank)
        assert right.shape == (plan.cols_union.size, plan.rank)
        assert left.dtype == right.dtype == np.float64
        assert left.flags.c_contiguous and right.flags.c_contiguous
        # Scattered back over all n nodes, panel column k is factor k
        # of the delta: the plan's block is exactly Σ_k ξ_k·η_kᵀ.
        n = graph.num_nodes
        xi = np.zeros((n, plan.rank))
        eta = np.zeros((n, plan.rank))
        xi[plan.rows_union] = left
        eta[plan.cols_union] = right
        block = xi @ eta.T
        np.testing.assert_allclose(
            plan.delta_matrix(n), block + block.T, rtol=0, atol=1e-15
        )


class TestPlanEquivalence:
    @pytest.mark.parametrize(
        "update",
        [EdgeUpdate.insert(1, 20), EdgeUpdate.insert(0, 3)],
    )
    def test_unit_plan_matches_inc_sr_update(
        self, planned_state, config, update
    ):
        graph, store, scores = planned_state
        plan = plan_unit_update(store, scores, update, graph, config)
        reference = inc_sr_update(graph, store, scores, update, config)
        # Applied state is bit-identical; the standalone delta only
        # differs from (S + delta) - S by subtraction round-off.
        applied = scores.copy()
        apply_plan_dense(applied, plan)
        np.testing.assert_array_equal(applied, reference.new_s)
        np.testing.assert_allclose(
            plan.delta_matrix(graph.num_nodes), reference.delta_s, atol=1e-14
        )
        assert plan.affected.iterations == reference.affected.iterations

    def test_delete_plan_matches_inc_sr_update(self, planned_state, config):
        graph, store, scores = planned_state
        update = next(
            EdgeUpdate.delete(s, t) for s, t in graph.edges()
        )
        plan = plan_unit_update(store, scores, update, graph, config)
        reference = inc_sr_update(graph, store, scores, update, config)
        applied = scores.copy()
        apply_plan_dense(applied, plan)
        np.testing.assert_array_equal(applied, reference.new_s)

    def test_row_plan_matches_apply_row_update(self, planned_state, config):
        graph, store, scores = planned_state
        target = 7
        existing = set(graph.in_neighbors(target))
        added = tuple(
            node for node in (2, 11, 23) if node not in existing and node != target
        )
        removed = tuple(sorted(existing))[:1]
        row = RowUpdate(target=target, added=added, removed=removed)
        plan = plan_composite_row_update(graph, store, scores, row, config)
        reference = apply_row_update(graph, store, scores, row, config)
        applied = scores.copy()
        apply_plan_dense(applied, plan)
        np.testing.assert_array_equal(applied, reference.new_s)

    def test_apply_plan_dense_is_symmetric(self, planned_state, config):
        graph, store, scores = planned_state
        plan = plan_unit_update(
            store, scores, EdgeUpdate.insert(1, 20), graph, config
        )
        delta = plan.delta_matrix(graph.num_nodes)
        np.testing.assert_array_equal(delta, delta.T)


class TestNoopPlan:
    def test_empty_factors_apply_to_nothing(self):
        from repro.incremental.affected import AffectedAreaStats

        plan = UpdatePlan(
            target=0,
            rows_union=np.zeros(0, dtype=np.int64),
            cols_union=np.zeros(0, dtype=np.int64),
            left=np.zeros((0, 0)),
            right=np.zeros((0, 0)),
            affected=AffectedAreaStats(num_nodes=4),
        )
        assert plan.is_noop
        scores = np.ones((4, 4))
        apply_plan_dense(scores, plan)
        np.testing.assert_array_equal(scores, np.ones((4, 4)))
