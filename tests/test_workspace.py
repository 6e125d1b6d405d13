"""Tests for :class:`UpdateWorkspace` and the pooled-buffer update path.

Beyond unit-testing the pool itself, these tests assert the key
end-to-end property of the PR-1 rework: routing Inc-SR and Inc-uSR
through a live :class:`TransitionStore` + :class:`UpdateWorkspace`
matches the workspace-free scipy path to float round-off (the store's
mat-vec uses pairwise reduction, so the last bit can differ from
scipy's sequential loop).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimRankConfig
from repro.graph.generators import (
    erdos_renyi_digraph,
    random_update_batch,
)
from repro.graph.transition import backward_transition_matrix
from repro.incremental.engine import DynamicSimRank
from repro.incremental.gamma import compute_update_vectors
from repro.incremental.inc_sr import inc_sr_update
from repro.incremental.inc_usr import inc_usr_update
from repro.incremental.workspace import BUFFER_NAMES, UpdateWorkspace
from repro.linalg.qstore import TransitionStore
from repro.simrank.matrix import matrix_simrank


class TestUpdateWorkspace:
    def test_buffers_grow_by_doubling(self):
        workspace = UpdateWorkspace(10)
        first = workspace.capacity
        workspace.ensure_capacity(first + 1)
        assert workspace.capacity >= 2 * first

    def test_vector_reuses_memory(self):
        workspace = UpdateWorkspace(8)
        view_a = workspace.vector("w", 8)
        view_b = workspace.vector("w", 8)
        assert view_a.base is view_b.base

    def test_zeros_clears_previous_contents(self):
        workspace = UpdateWorkspace(4)
        workspace.vector("gamma", 4)[:] = 7.0
        np.testing.assert_array_equal(workspace.zeros("gamma", 4), np.zeros(4))

    def test_all_roles_available(self):
        workspace = UpdateWorkspace(4)
        for name in BUFFER_NAMES:
            assert workspace.vector(name, 4).shape == (4,)
        assert workspace.nbytes() > 0


    def test_dtype_seam(self):
        assert UpdateWorkspace(8).dtype == np.float64
        workspace = UpdateWorkspace(8, dtype="float32")
        assert workspace.dtype == np.float32
        assert workspace.zeros("u", 8).dtype == np.float32


class TestWorkspacePathEquivalence:
    """Store+workspace hot path == scipy cold path up to round-off."""

    @pytest.mark.parametrize("seed", [3, 8, 15])
    def test_update_vectors_identical(self, seed):
        graph = erdos_renyi_digraph(30, 0.1, seed=seed)
        config = SimRankConfig(damping=0.6, iterations=10)
        q_matrix = backward_transition_matrix(graph)
        scores = matrix_simrank(graph, config)
        store = TransitionStore.from_graph(graph)
        workspace = UpdateWorkspace(graph.num_nodes)
        batch = random_update_batch(graph, 4, 2, seed=seed + 1)
        for update in batch:
            cold = compute_update_vectors(q_matrix, scores, update, graph, config)
            hot = compute_update_vectors(
                store, scores, update, graph, config, workspace=workspace
            )
            np.testing.assert_array_equal(cold.u, hot.u)
            np.testing.assert_array_equal(cold.v, hot.v)
            np.testing.assert_allclose(cold.gamma, hot.gamma, atol=1e-14)
            assert cold.lam == pytest.approx(hot.lam, rel=1e-12, abs=1e-14)
            assert cold.target_degree == hot.target_degree

    @pytest.mark.parametrize("algorithm", ["inc-sr", "inc-usr"])
    def test_unit_updates_identical(self, algorithm):
        graph = erdos_renyi_digraph(25, 0.12, seed=2)
        config = SimRankConfig(damping=0.6, iterations=12)
        q_matrix = backward_transition_matrix(graph)
        scores = matrix_simrank(graph, config)
        store = TransitionStore.from_graph(graph)
        workspace = UpdateWorkspace(graph.num_nodes)
        update_fn = inc_sr_update if algorithm == "inc-sr" else inc_usr_update
        for update in random_update_batch(graph, 3, 2, seed=4):
            cold = update_fn(graph, q_matrix, scores, update, config)
            hot = update_fn(
                graph, store, scores, update, config, workspace=workspace
            )
            np.testing.assert_allclose(cold.new_s, hot.new_s, atol=1e-13)

    def test_engine_inc_sr_matches_inc_usr_through_workspace(self):
        """Lossless pruning survives the store/workspace rework."""
        graph = erdos_renyi_digraph(25, 0.12, seed=6)
        config = SimRankConfig(damping=0.6, iterations=12)
        initial = matrix_simrank(graph, config)
        batch = random_update_batch(graph, 6, 4, seed=7)
        pruned = DynamicSimRank(
            graph, config, algorithm="inc-sr", initial_scores=initial
        )
        unpruned = DynamicSimRank(
            graph, config, algorithm="inc-usr", initial_scores=initial
        )
        pruned.apply(batch)
        unpruned.apply(batch)
        np.testing.assert_allclose(
            pruned.similarities(), unpruned.similarities(), atol=1e-12
        )
        np.testing.assert_array_equal(
            pruned.transition_matrix.toarray(),
            unpruned.transition_matrix.toarray(),
        )

    def test_engine_add_node_grows_scores_amortized(self):
        graph = erdos_renyi_digraph(12, 0.15, seed=1)
        config = SimRankConfig(damping=0.6, iterations=8)
        engine = DynamicSimRank(graph, config)
        before = engine.similarities()
        nodes = [engine.add_node() for _ in range(10)]
        assert nodes == list(range(12, 22))
        after = engine.similarities()
        assert after.shape == (22, 22)
        assert after.dtype == before.dtype
        np.testing.assert_array_equal(after[:12, :12], before)
        for node in nodes:
            assert engine.similarity(node, node) == pytest.approx(
                1.0 - config.damping
            )
            assert engine.transition_store.in_degree(node) == 0
        # Subsequent edges into the new nodes flow through the hot path;
        # pruned and unpruned engines replaying the same sequence agree.
        from repro.graph.transition import verify_transition_matrix
        from repro.graph.updates import EdgeUpdate

        twin = DynamicSimRank(graph, config, algorithm="inc-usr")
        for _ in nodes:
            twin.add_node()
        for update in (
            EdgeUpdate.insert(0, nodes[0]),
            EdgeUpdate.insert(nodes[0], nodes[1]),
        ):
            engine.apply(update)
            twin.apply(update)
        assert (
            verify_transition_matrix(engine.transition_matrix, engine.graph)
            is None
        )
        np.testing.assert_allclose(
            engine.similarities(), twin.similarities(), atol=1e-12
        )
