"""Tests for repro.graph.updates."""

import pytest

from repro.exceptions import GraphError
from repro.graph.digraph import DynamicDiGraph
from repro.graph.updates import (
    EdgeUpdate,
    UpdateBatch,
    UpdateKind,
    graph_delta,
    interleave,
)


class TestEdgeUpdate:
    def test_shorthand_constructors(self):
        insert = EdgeUpdate.insert(1, 2)
        delete = EdgeUpdate.delete(1, 2)
        assert insert.is_insert and insert.kind is UpdateKind.INSERT
        assert not delete.is_insert and delete.kind is UpdateKind.DELETE
        assert insert.edge == delete.edge == (1, 2)

    def test_inverse(self):
        update = EdgeUpdate.insert(0, 1)
        assert update.inverse() == EdgeUpdate.delete(0, 1)
        assert update.inverse().inverse() == update

    def test_apply_to(self, diamond_graph):
        EdgeUpdate.insert(3, 0).apply_to(diamond_graph)
        assert diamond_graph.has_edge(3, 0)
        EdgeUpdate.delete(3, 0).apply_to(diamond_graph)
        assert not diamond_graph.has_edge(3, 0)

    def test_str(self):
        assert str(EdgeUpdate.insert(1, 2)) == "+(1->2)"
        assert str(EdgeUpdate.delete(1, 2)) == "-(1->2)"

    def test_frozen(self):
        update = EdgeUpdate.insert(0, 1)
        with pytest.raises(AttributeError):
            update.source = 5


class TestUpdateBatch:
    def test_counts(self):
        batch = UpdateBatch(
            [EdgeUpdate.insert(0, 1), EdgeUpdate.delete(1, 2), EdgeUpdate.insert(2, 3)]
        )
        assert len(batch) == 3
        assert batch.num_insertions == 2
        assert batch.num_deletions == 1

    def test_apply_preserves_order(self):
        graph = DynamicDiGraph(3)
        # Insert then delete the same edge: order matters.
        batch = UpdateBatch([EdgeUpdate.insert(0, 1), EdgeUpdate.delete(0, 1)])
        batch.apply_to(graph)
        assert graph.num_edges == 0

    def test_applied_leaves_original_untouched(self, diamond_graph):
        batch = UpdateBatch([EdgeUpdate.insert(3, 0)])
        result = batch.applied(diamond_graph)
        assert result.has_edge(3, 0)
        assert not diamond_graph.has_edge(3, 0)

    def test_inverse_undoes(self, diamond_graph):
        batch = UpdateBatch(
            [EdgeUpdate.insert(3, 0), EdgeUpdate.delete(0, 1), EdgeUpdate.insert(1, 0)]
        )
        forward = batch.applied(diamond_graph)
        back = batch.inverse().applied(forward)
        assert back == diamond_graph

    def test_validate_against_good_batch(self, diamond_graph):
        UpdateBatch([EdgeUpdate.insert(3, 0)]).validate_against(diamond_graph)

    def test_validate_against_bad_batch(self, diamond_graph):
        with pytest.raises(GraphError):
            UpdateBatch([EdgeUpdate.insert(0, 1)]).validate_against(diamond_graph)

    def test_validate_does_not_mutate(self, diamond_graph):
        batch = UpdateBatch([EdgeUpdate.insert(3, 0)])
        batch.validate_against(diamond_graph)
        assert not diamond_graph.has_edge(3, 0)

    @pytest.mark.parametrize(
        "updates",
        [
            [EdgeUpdate.insert(3, 0), EdgeUpdate.insert(0, 1)],
            [EdgeUpdate.delete(1, 3), EdgeUpdate.delete(3, 0)],
            [EdgeUpdate.insert(3, 0), EdgeUpdate.insert(0, 9)],
            [EdgeUpdate.delete(7, 1)],
            [EdgeUpdate.insert(1, 2), EdgeUpdate.delete(1, 2),
             EdgeUpdate.delete(1, 2)],
            [EdgeUpdate.delete(0, 1), EdgeUpdate.insert(0, 1),
             EdgeUpdate.insert(0, 1)],
        ],
        ids=["insert-existing", "delete-missing", "unknown-target",
             "unknown-source", "insert-then-delete-twice",
             "delete-then-insert-twice"],
    )
    def test_validate_messages_match_sequential_application(
        self, diamond_graph, updates
    ):
        batch = UpdateBatch(updates)
        scratch = diamond_graph.copy()
        with pytest.raises(GraphError) as applied:
            batch.apply_to(scratch)
        with pytest.raises(GraphError) as validated:
            batch.validate_against(diamond_graph)
        assert str(validated.value) == f"batch not applicable: {applied.value}"
        assert type(validated.value.__cause__) is type(applied.value)

    def test_validate_accepts_toggles(self, diamond_graph):
        UpdateBatch(
            [EdgeUpdate.insert(1, 2), EdgeUpdate.delete(1, 2),
             EdgeUpdate.insert(1, 2), EdgeUpdate.delete(0, 1),
             EdgeUpdate.insert(0, 1)]
        ).validate_against(diamond_graph)

    def test_validate_never_copies_the_graph(self, diamond_graph, monkeypatch):
        def refuse(graph):
            raise AssertionError("validate_against copied the graph")

        monkeypatch.setattr(DynamicDiGraph, "copy", refuse)
        UpdateBatch(
            [EdgeUpdate.insert(3, 0), EdgeUpdate.delete(3, 0)]
        ).validate_against(diamond_graph)
        with pytest.raises(GraphError, match="already exists"):
            UpdateBatch([EdgeUpdate.insert(0, 1)]).validate_against(
                diamond_graph
            )

    def test_indexing(self):
        updates = [EdgeUpdate.insert(0, 1), EdgeUpdate.delete(1, 2)]
        batch = UpdateBatch(updates)
        assert batch[0] == updates[0]
        assert batch[1] == updates[1]


class TestGraphDelta:
    def test_delta_roundtrip(self, diamond_graph):
        target = diamond_graph.copy()
        target.remove_edge(0, 1)
        target.add_edge(3, 0)
        target.add_edge(1, 0)
        batch = graph_delta(diamond_graph, target)
        assert batch.applied(diamond_graph) == target

    def test_deletions_before_insertions(self, diamond_graph):
        target = diamond_graph.copy()
        target.remove_edge(0, 1)
        target.add_edge(3, 0)
        batch = graph_delta(diamond_graph, target)
        kinds = [update.kind for update in batch]
        assert kinds == [UpdateKind.DELETE, UpdateKind.INSERT]

    def test_identical_graphs_give_empty_delta(self, diamond_graph):
        assert len(graph_delta(diamond_graph, diamond_graph.copy())) == 0

    def test_mismatched_universes_rejected(self):
        with pytest.raises(GraphError):
            graph_delta(DynamicDiGraph(2), DynamicDiGraph(3))


class TestInterleave:
    def test_round_robin(self):
        a = UpdateBatch([EdgeUpdate.insert(0, 1), EdgeUpdate.insert(0, 2)])
        b = UpdateBatch([EdgeUpdate.delete(5, 6)])
        merged = interleave([a, b])
        assert list(merged) == [
            EdgeUpdate.insert(0, 1),
            EdgeUpdate.delete(5, 6),
            EdgeUpdate.insert(0, 2),
        ]
