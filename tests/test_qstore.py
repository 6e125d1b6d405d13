"""Property tests for the packed-CSR :class:`TransitionStore`.

The store is the engine's hot-path representation of ``Q``; these tests
drive it through randomized insert/delete/node-add sequences and assert
that every view it exposes (CSR, CSC, in-degrees, matvec, rmatvec)
stays exactly equal to a freshly built
:func:`backward_transition_matrix` of the evolving graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.digraph import DynamicDiGraph
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.transition import backward_transition_matrix
from repro.linalg.qstore import TransitionStore
from repro.metrics.memory import transition_store_bytes


def _assert_matches_graph(store: TransitionStore, graph: DynamicDiGraph):
    """Every store view must equal the freshly built Q of ``graph``."""
    expected = backward_transition_matrix(graph)
    n = graph.num_nodes
    assert store.shape == (n, n)
    assert store.nnz == expected.nnz
    np.testing.assert_array_equal(store.toarray(), expected.toarray())
    np.testing.assert_array_equal(
        store.csc_matrix().toarray(), expected.toarray()
    )
    np.testing.assert_array_equal(
        store.in_degrees(),
        np.asarray([graph.in_degree(v) for v in range(n)]),
    )
    # The CSR and its CSC conversion must be canonical scipy objects.
    csr = store.csr_matrix()
    assert csr.has_sorted_indices
    assert store.csc_matrix().has_sorted_indices


def _random_walk(seed: int, steps: int, with_node_adds: bool):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi_digraph(25, 0.08, seed=seed)
    store = TransitionStore.from_graph(graph)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.42 and graph.num_edges:
            source, target = list(graph.edges())[
                int(rng.integers(graph.num_edges))
            ]
            graph.remove_edge(source, target)
            store.remove_edge(source, target)
        elif roll < 0.9 or not with_node_adds:
            source = int(rng.integers(graph.num_nodes))
            target = int(rng.integers(graph.num_nodes))
            if not graph.has_edge(source, target):
                graph.add_edge(source, target)
                store.insert_edge(source, target)
        else:
            node = graph.add_node()
            assert store.add_node() == node
    return graph, store


class TestRandomizedMaintenance:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_edge_walk_matches_fresh_build(self, seed):
        graph, store = _random_walk(seed, steps=120, with_node_adds=False)
        _assert_matches_graph(store, graph)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_walk_with_node_arrivals(self, seed):
        graph, store = _random_walk(seed, steps=150, with_node_adds=True)
        assert graph.num_nodes > 25  # some arrivals actually happened
        _assert_matches_graph(store, graph)

    def test_intermediate_states_stay_consistent(self):
        rng = np.random.default_rng(9)
        graph = erdos_renyi_digraph(15, 0.1, seed=9)
        store = TransitionStore.from_graph(graph)
        for step in range(60):
            source = int(rng.integers(graph.num_nodes))
            target = int(rng.integers(graph.num_nodes))
            if graph.has_edge(source, target):
                graph.remove_edge(source, target)
                store.remove_edge(source, target)
            else:
                graph.add_edge(source, target)
                store.insert_edge(source, target)
            _assert_matches_graph(store, graph)

    def test_set_row_composite_rewrite(self):
        rng = np.random.default_rng(21)
        graph = erdos_renyi_digraph(30, 0.1, seed=21)
        store = TransitionStore.from_graph(graph)
        for target in rng.integers(0, 30, size=20):
            target = int(target)
            new_sources = {
                int(s)
                for s in rng.choice(30, size=int(rng.integers(0, 9)), replace=False)
                if int(s) != target
            }
            for source in graph.in_neighbors(target):
                graph.remove_edge(source, target)
            for source in new_sources:
                graph.add_edge(source, target)
            store.set_row(target, new_sources)
            _assert_matches_graph(store, graph)


def _missing_edge(graph: DynamicDiGraph):
    n = graph.num_nodes
    return next(
        (s, t)
        for s in range(n)
        for t in range(n)
        if s != t and not graph.has_edge(s, t)
    )


class TestCopyOnWrite:
    @pytest.mark.parametrize(
        "mutation", ["insert", "remove", "set_row", "add_node"]
    )
    def test_earlier_views_stay_frozen(self, mutation):
        graph = erdos_renyi_digraph(30, 0.15, seed=8)
        store = TransitionStore.from_graph(graph)
        csr = store.csr_matrix()
        snapshot = store.snapshot()
        frozen = [a.copy() for a in (csr.indptr, csr.indices, csr.data)]
        x = np.random.default_rng(0).random(30)
        products = (snapshot.matvec(x), snapshot.rmatvec(x))
        version = store.version

        source, target = next(iter(graph.edges()))
        if mutation == "insert":
            store.insert_edge(*_missing_edge(graph))
        elif mutation == "remove":
            store.remove_edge(source, target)
        elif mutation == "set_row":
            store.set_row(target, [s for s in (1, 2, 3) if s != target])
        else:
            store.add_node()

        assert store.version == version + 1
        assert store.csr_matrix() is not csr
        assert snapshot.version == version and snapshot.csr_matrix() is csr
        assert csr.shape == (30, 30)
        for before, after in zip(frozen, (csr.indptr, csr.indices, csr.data)):
            assert after.dtype == before.dtype
            assert np.array_equal(after.view(np.uint8), before.view(np.uint8))
        again = (snapshot.matvec(x), snapshot.rmatvec(x))
        for a, b in zip(products, again):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestHotPathReads:
    def test_matvec_matches_scipy(self):
        graph, store = _random_walk(11, steps=80, with_node_adds=False)
        expected = backward_transition_matrix(graph)
        x = np.random.default_rng(0).random(graph.num_nodes)
        np.testing.assert_array_equal(store.matvec(x), expected @ x)
        np.testing.assert_array_equal(store @ x, expected @ x)
        out = np.empty(graph.num_nodes)
        assert store.matvec(x, out=out) is out

    def test_products_bitwise_equal_scipy_on_high_degree_graph(self):
        # Rows and columns with more than 8 entries are where a pairwise
        # segment reduction would part from scipy's sequential sums.
        graph = erdos_renyi_digraph(120, 0.2, seed=31)
        assert max(graph.in_degree(v) for v in range(120)) > 8
        store = TransitionStore.from_graph(graph)
        expected = backward_transition_matrix(graph)
        x = np.random.default_rng(5).random(graph.num_nodes)
        np.testing.assert_array_equal(store.matvec(x), expected @ x)
        np.testing.assert_array_equal(store.rmatvec(x), expected.T @ x)
        out = np.empty(graph.num_nodes)
        assert store.rmatvec(x, out=out) is out

    def test_matmul_matrix_operand_uses_csr(self):
        graph, store = _random_walk(12, steps=40, with_node_adds=False)
        expected = backward_transition_matrix(graph)
        dense = np.random.default_rng(1).random((graph.num_nodes, 3))
        np.testing.assert_allclose(store @ dense, expected @ dense)

    def test_row_and_column_views(self):
        graph = DynamicDiGraph.from_edges(4, [(0, 2), (1, 2), (3, 2), (2, 0)])
        store = TransitionStore.from_graph(graph)
        indices, values = store.row(2)
        np.testing.assert_array_equal(indices, [0, 1, 3])
        np.testing.assert_allclose(values, [1 / 3] * 3)
        assert store.row_weight(2) == pytest.approx(1 / 3)
        rows, column_values = store.column(2)
        np.testing.assert_array_equal(rows, [0])
        np.testing.assert_allclose(column_values, [1.0])


class TestConstructionAndInterop:
    def test_from_csr_round_trip(self, random_graph):
        q_matrix = backward_transition_matrix(random_graph)
        store = TransitionStore.from_csr(q_matrix)
        np.testing.assert_array_equal(store.toarray(), q_matrix.toarray())

    def test_from_csr_rejects_non_uniform_rows(self):
        import scipy.sparse as sp

        bad = sp.csr_matrix(np.array([[0.0, 0.3], [0.7, 0.0]]))
        with pytest.raises(GraphError):
            TransitionStore.from_csr(bad)

    def test_csr_cache_reused_until_mutation(self):
        graph = DynamicDiGraph.from_edges(3, [(0, 1), (1, 2)])
        store = TransitionStore.from_graph(graph)
        first = store.csr_matrix()
        assert store.csr_matrix() is first  # cached between mutations
        version = store.version
        store.insert_edge(2, 0)
        assert store.version > version
        assert store.csr_matrix() is not first

    def test_remove_missing_edge_raises(self):
        graph = DynamicDiGraph.from_edges(3, [(0, 1)])
        store = TransitionStore.from_graph(graph)
        with pytest.raises(GraphError):
            store.remove_edge(2, 1)

    def test_empty_graph(self):
        store = TransitionStore.from_graph(DynamicDiGraph(5))
        assert store.nnz == 0
        np.testing.assert_array_equal(store.toarray(), np.zeros((5, 5)))
        x = np.ones(5)
        np.testing.assert_array_equal(store.matvec(x), np.zeros(5))

    def test_byte_accounting_matches_model(self):
        graph, store = _random_walk(17, steps=60, with_node_adds=False)
        assert store.buffer_bytes() == transition_store_bytes(
            graph.num_nodes, graph.num_edges
        )
