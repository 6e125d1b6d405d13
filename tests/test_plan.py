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
        assert plan.target == 20
        assert plan.rank == len(plan.left_factors) == len(plan.right_factors)
        assert plan.rank >= 1
        assert plan.support_size() == plan.rows_union.size * plan.cols_union.size
        assert plan.nbytes() > 0
        # Union supports really are the union of the factor supports.
        rows = np.unique(np.concatenate([i for i, _ in plan.left_factors]))
        np.testing.assert_array_equal(rows, plan.rows_union)

    def test_panels_reconstruct_factors(self, planned_state, config):
        graph, store, scores = planned_state
        plan = plan_unit_update(
            store, scores, EdgeUpdate.insert(1, 20), graph, config
        )
        left, right = plan.panels()
        assert left.shape == (plan.rows_union.size, plan.rank)
        assert right.shape == (plan.cols_union.size, plan.rank)
        for term, (idx, val) in enumerate(plan.left_factors):
            positions = np.searchsorted(plan.rows_union, idx)
            np.testing.assert_array_equal(left[positions, term], val)


    def test_panels_dtype_seam(self, planned_state, config):
        graph, store, scores = planned_state
        plan = plan_unit_update(
            store, scores, EdgeUpdate.insert(1, 20), graph, config
        )
        left64, right64 = plan.panels()
        left32, right32 = plan.panels(dtype="float32")
        assert left64.dtype == right64.dtype == np.float64
        assert left32.dtype == right32.dtype == np.float32
        np.testing.assert_allclose(left32, left64, rtol=1e-6)
        np.testing.assert_allclose(right32, right64, rtol=1e-6)


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
            left_factors=[],
            right_factors=[],
            rows_union=np.zeros(0, dtype=np.int64),
            cols_union=np.zeros(0, dtype=np.int64),
            affected=AffectedAreaStats(num_nodes=4),
        )
        assert plan.is_noop
        scores = np.ones((4, 4))
        apply_plan_dense(scores, plan)
        np.testing.assert_array_equal(scores, np.ones((4, 4)))
