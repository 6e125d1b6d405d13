"""Typed edge-update streams over link-evolving graphs.

The paper's incremental algorithms process *unit updates* — one edge
insertion or one edge deletion at a time (Sec. V).  A *batch update*
``ΔG`` is a sequence of unit updates; :class:`UpdateBatch` models it and
knows how to be applied to a :class:`~repro.graph.digraph.DynamicDiGraph`.
:func:`graph_delta` recovers an update batch from two graph snapshots,
which is exactly how the paper derives its real-data workloads (edge
differences between consecutive "year" snapshots).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..exceptions import EdgeExistsError, EdgeNotFoundError, GraphError
from .digraph import DynamicDiGraph


class UpdateKind(enum.Enum):
    """Whether a unit update inserts or deletes an edge."""

    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class EdgeUpdate:
    """A unit update: insert or delete the directed edge ``(source, target)``.

    The paper writes the edge as ``(i, j)`` with ``i`` the source and ``j``
    the target; the in-degree that matters for Theorem 1 is ``d_j``, the
    in-degree of :attr:`target` in the *old* graph.
    """

    kind: UpdateKind
    source: int
    target: int

    @classmethod
    def insert(cls, source: int, target: int) -> "EdgeUpdate":
        """Shorthand for an insertion update."""
        return cls(UpdateKind.INSERT, source, target)

    @classmethod
    def delete(cls, source: int, target: int) -> "EdgeUpdate":
        """Shorthand for a deletion update."""
        return cls(UpdateKind.DELETE, source, target)

    @property
    def is_insert(self) -> bool:
        """True iff this update inserts an edge."""
        return self.kind is UpdateKind.INSERT

    @property
    def edge(self) -> Tuple[int, int]:
        """The affected ``(source, target)`` pair."""
        return (self.source, self.target)

    def inverse(self) -> "EdgeUpdate":
        """The update that undoes this one."""
        kind = UpdateKind.DELETE if self.is_insert else UpdateKind.INSERT
        return EdgeUpdate(kind, self.source, self.target)

    def apply_to(self, graph: DynamicDiGraph) -> None:
        """Mutate ``graph`` according to this update."""
        if self.is_insert:
            graph.add_edge(self.source, self.target)
        else:
            graph.remove_edge(self.source, self.target)

    def __str__(self) -> str:
        sign = "+" if self.is_insert else "-"
        return f"{sign}({self.source}->{self.target})"


class UpdateBatch:
    """An ordered sequence of unit updates (the paper's ``ΔG``).

    The batch is a thin immutable wrapper over a list of
    :class:`EdgeUpdate`; the incremental engine consumes it one unit update
    at a time, matching the paper's observation that "batch update ... can
    be decomposed into a sequence of unit updates" (Sec. V).
    """

    def __init__(self, updates: Iterable[EdgeUpdate]) -> None:
        self._updates: Tuple[EdgeUpdate, ...] = tuple(updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self._updates)

    def __len__(self) -> int:
        return len(self._updates)

    def __getitem__(self, index: int) -> EdgeUpdate:
        return self._updates[index]

    @property
    def num_insertions(self) -> int:
        """Number of insertion updates in the batch."""
        return sum(1 for update in self._updates if update.is_insert)

    @property
    def num_deletions(self) -> int:
        """Number of deletion updates in the batch."""
        return len(self._updates) - self.num_insertions

    def apply_to(self, graph: DynamicDiGraph) -> None:
        """Apply every unit update to ``graph`` in order."""
        for update in self._updates:
            update.apply_to(graph)

    def applied(self, graph: DynamicDiGraph) -> DynamicDiGraph:
        """Return a copy of ``graph`` with the batch applied."""
        result = graph.copy()
        self.apply_to(result)
        return result

    def inverse(self) -> "UpdateBatch":
        """The batch that undoes this one (reversed order, inverted kinds)."""
        return UpdateBatch(update.inverse() for update in reversed(self._updates))

    def validate_against(self, graph: DynamicDiGraph) -> None:
        """Check the batch is applicable to ``graph`` without mutating it.

        Raises :class:`~repro.exceptions.GraphError` on the first update
        that would fail (inserting an existing edge, deleting a missing
        edge, or referencing an unknown node).  Edges the batch toggles
        are tracked in a small dict; every other edge is read from
        ``graph``, so the cost is O(len(batch)), not a graph copy.
        """
        present: Dict[Tuple[int, int], bool] = {}
        for update in self._updates:
            edge = update.edge
            try:
                exists = present.get(edge)
                if exists is None:
                    exists = graph.has_edge(*edge)
                if update.is_insert and exists:
                    raise EdgeExistsError(*edge)
                if not update.is_insert and not exists:
                    raise EdgeNotFoundError(*edge)
            except GraphError as exc:
                raise GraphError(f"batch not applicable: {exc}") from exc
            present[edge] = update.is_insert

    def __repr__(self) -> str:
        return (
            f"UpdateBatch(n={len(self)}, +{self.num_insertions}, "
            f"-{self.num_deletions})"
        )


def graph_delta(old: DynamicDiGraph, new: DynamicDiGraph) -> UpdateBatch:
    """Compute an :class:`UpdateBatch` turning ``old`` into ``new``.

    Deletions are emitted before insertions so that applying the batch
    never trips the duplicate-edge guard.  Both graphs must share the same
    node universe.
    """
    if old.num_nodes != new.num_nodes:
        raise GraphError(
            "graph_delta requires equal node universes, got "
            f"{old.num_nodes} vs {new.num_nodes}"
        )
    old_edges = old.edge_set()
    new_edges = new.edge_set()
    deletions = [
        EdgeUpdate.delete(s, t) for (s, t) in sorted(old_edges - new_edges)
    ]
    insertions = [
        EdgeUpdate.insert(s, t) for (s, t) in sorted(new_edges - old_edges)
    ]
    return UpdateBatch(deletions + insertions)


def interleave(batches: Sequence[UpdateBatch]) -> UpdateBatch:
    """Round-robin merge of several batches into one.

    Used by ablation benchmarks to check that the final similarity matrix
    does not depend on how a mixed workload is interleaved.
    """
    queues: List[List[EdgeUpdate]] = [list(batch) for batch in batches]
    merged: List[EdgeUpdate] = []
    while any(queues):
        for queue in queues:
            if queue:
                merged.append(queue.pop(0))
    return UpdateBatch(merged)
