"""A mutable directed graph tuned for link-evolving workloads.

The paper's algorithms need, per unit update, fast access to:

* the in-degree ``d_j`` of the update's target node (Theorem 1),
* the in-neighbor set ``I(v)`` (to build rows of ``Q``), and
* the out-neighbor set ``O(v)`` (to grow affected areas, Theorem 4).

:class:`DynamicDiGraph` therefore stores both adjacency directions as
dictionaries of sets over a dense integer node universe ``0..n-1``.  Nodes
are integers; higher layers may maintain their own label mapping (see
:meth:`DynamicDiGraph.from_labeled_edges`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from ..exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)

Edge = Tuple[int, int]


class DynamicDiGraph:
    """Directed graph over nodes ``0..n-1`` with O(1) edge updates.

    Parameters
    ----------
    num_nodes:
        Size of the node universe.  Nodes exist from the start; edges are
        added and removed dynamically, matching the paper's *link-evolving*
        setting (node set fixed, edge set changing).

    Examples
    --------
    >>> g = DynamicDiGraph(3)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(2, 1)
    >>> sorted(g.in_neighbors(1))
    [0, 2]
    >>> g.in_degree(1)
    2
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._succ: Dict[int, Set[int]] = {v: set() for v in range(num_nodes)}
        self._pred: Dict[int, Set[int]] = {v: set() for v in range(num_nodes)}
        self._num_edges = 0

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, num_nodes: int, edges: Iterable[Edge]) -> "DynamicDiGraph":
        """Build a graph from an iterable of ``(source, target)`` pairs."""
        graph = cls(num_nodes)
        for source, target in edges:
            graph.add_edge(source, target)
        return graph

    @classmethod
    def from_labeled_edges(
        cls, edges: Iterable[Tuple[object, object]]
    ) -> Tuple["DynamicDiGraph", Dict[object, int]]:
        """Build a graph from arbitrary hashable labels.

        Returns the graph together with the ``label -> index`` mapping in
        first-seen order.
        """
        labels: Dict[object, int] = {}
        pairs: List[Edge] = []
        for source, target in edges:
            for label in (source, target):
                if label not in labels:
                    labels[label] = len(labels)
            pairs.append((labels[source], labels[target]))
        return cls.from_edges(len(labels), pairs), labels

    @classmethod
    def from_adjacency(
        cls, pred: List[Set[int]], succ: List[Set[int]]
    ) -> "DynamicDiGraph":
        """Adopt prebuilt in- and out-neighbor sets, one per node.

        The bulk path for rebuilding a saved graph: the sets are taken
        as they are, without per-edge checks, so ``succ`` must list
        exactly the reversed edges of ``pred``.
        """
        graph = cls(0)
        graph._num_nodes = len(pred)
        graph._pred = dict(enumerate(pred))
        graph._succ = dict(enumerate(succ))
        graph._num_edges = sum(len(sources) for sources in pred)
        return graph

    def copy(self) -> "DynamicDiGraph":
        """Return an independent deep copy of this graph."""
        clone = DynamicDiGraph(self._num_nodes)
        clone._succ = {v: set(nbrs) for v, nbrs in self._succ.items()}
        clone._pred = {v: set(nbrs) for v, nbrs in self._pred.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------ #
    # Size queries
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the (fixed) node universe."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Current number of directed edges."""
        return self._num_edges

    def __len__(self) -> int:
        return self._num_nodes

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < self._num_nodes

    # ------------------------------------------------------------------ #
    # Node / edge queries
    # ------------------------------------------------------------------ #

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._num_nodes):
            raise NodeNotFoundError(node)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge ``source -> target`` exists."""
        self._check_node(source)
        self._check_node(target)
        return target in self._succ[source]

    def out_neighbors(self, node: int) -> FrozenSet[int]:
        """The out-neighbor set ``O(node)`` as an immutable view."""
        self._check_node(node)
        return frozenset(self._succ[node])

    def in_neighbors(self, node: int) -> FrozenSet[int]:
        """The in-neighbor set ``I(node)`` as an immutable view."""
        self._check_node(node)
        return frozenset(self._pred[node])

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node``."""
        self._check_node(node)
        return len(self._succ[node])

    def in_degree(self, node: int) -> int:
        """Number of incoming edges of ``node`` (``d_node`` in the paper)."""
        self._check_node(node)
        return len(self._pred[node])

    def average_in_degree(self) -> float:
        """Average in-degree ``d`` of the graph (0.0 for an empty graph)."""
        if self._num_nodes == 0:
            return 0.0
        return self._num_edges / self._num_nodes

    def edges(self) -> Iterator[Edge]:
        """Iterate over all directed edges in node order."""
        for source in range(self._num_nodes):
            for target in sorted(self._succ[source]):
                yield (source, target)

    def edge_set(self) -> Set[Edge]:
        """All edges as a set (materialized)."""
        return set(self.edges())

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_edge(self, source: int, target: int) -> None:
        """Insert edge ``source -> target``; raise if it already exists."""
        self._check_node(source)
        self._check_node(target)
        if target in self._succ[source]:
            raise EdgeExistsError(source, target)
        self._succ[source].add(target)
        self._pred[target].add(source)
        self._num_edges += 1

    def remove_edge(self, source: int, target: int) -> None:
        """Delete edge ``source -> target``; raise if it does not exist."""
        self._check_node(source)
        self._check_node(target)
        if target not in self._succ[source]:
            raise EdgeNotFoundError(source, target)
        self._succ[source].discard(target)
        self._pred[target].discard(source)
        self._num_edges -= 1

    def add_node(self) -> int:
        """Grow the node universe by one isolated node; return its id.

        The paper treats the node set as fixed; this extension point lets
        the engine support node arrival by expanding matrices lazily.
        """
        node = self._num_nodes
        self._num_nodes += 1
        self._succ[node] = set()
        self._pred[node] = set()
        return node

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (for baselines/tests)."""
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(range(self._num_nodes))
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph) -> Tuple["DynamicDiGraph", Dict[object, int]]:
        """Convert from any networkx directed graph; returns label mapping."""
        labels = {node: index for index, node in enumerate(nx_graph.nodes())}
        graph = cls(len(labels))
        for source, target in nx_graph.edges():
            graph.add_edge(labels[source], labels[target])
        return graph, labels

    def in_neighbor_lists(self) -> List[List[int]]:
        """Sorted in-neighbor list per node (used to build ``Q`` rows)."""
        return [sorted(self._pred[v]) for v in range(self._num_nodes)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicDiGraph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes and self._succ == other._succ
        )

    def __repr__(self) -> str:
        return (
            f"DynamicDiGraph(num_nodes={self._num_nodes}, "
            f"num_edges={self._num_edges})"
        )
