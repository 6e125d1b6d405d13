"""``matrix_simrank`` iterates on the in-linked core, bit for bit.

The batch kernel restricts Eq. (2) to the nodes whose ``Q`` row has
stored entries.  Every term it drops is an exact zero and the kept terms
are summed in the same order, so it must equal the full ``n×n``
iteration — :func:`reference_matrix_simrank`, kept here as the oracle —
byte for byte, including the ``tolerance`` early exit and the
:class:`~repro.exceptions.ConvergenceError` residual.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimRankConfig
from repro.exceptions import ConvergenceError
from repro.graph.digraph import DynamicDiGraph
from repro.graph.transition import backward_transition_matrix
from repro.incremental import DynamicSimRank
from repro.simrank.base import default_config, resolve_q
from repro.simrank.matrix import matrix_simrank


def reference_matrix_simrank(graph_or_q, config=None, tolerance=None):
    """The full ``n×n`` iteration of Eq. (2), as the kernel once ran it."""
    cfg = default_config(config)
    q_matrix = resolve_q(graph_or_q)
    n = q_matrix.shape[0]
    constant = (1.0 - cfg.damping) * np.eye(n)
    current = constant.copy()
    for _ in range(cfg.iterations):
        nxt = cfg.damping * (q_matrix @ current @ q_matrix.T) + constant
        if tolerance is not None:
            residual = float(np.max(np.abs(nxt - current), initial=0.0))
            if residual <= tolerance:
                return nxt
        current = nxt
    if tolerance is not None:
        residual = float(
            np.max(
                np.abs(
                    cfg.damping * (q_matrix @ current @ q_matrix.T)
                    + constant
                    - current
                ),
                initial=0.0,
            )
        )
        if residual > tolerance:
            raise ConvergenceError(
                f"matrix SimRank did not reach tolerance {tolerance} in "
                f"{cfg.iterations} iterations (residual {residual:.3e})",
                iterations=cfg.iterations,
                residual=residual,
            )
    return current


def assert_bitwise(result: np.ndarray, expected: np.ndarray) -> None:
    assert result.shape == expected.shape
    assert result.dtype == expected.dtype
    assert result.tobytes() == expected.tobytes()


CONFIGS = st.builds(
    SimRankConfig,
    damping=st.sampled_from([0.2, 0.6, 0.8, 0.95]),
    iterations=st.integers(1, 12),
)


@st.composite
def sparse_in_links(draw):
    """A digraph in which only some nodes can receive edges."""
    n = draw(st.integers(1, 40))
    receivers = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(receivers)),
            max_size=4 * n,
        )
    )
    return DynamicDiGraph.from_edges(
        n, sorted({(a, b) for a, b in edges if a != b})
    )


@st.composite
def cyclic(draw):
    """Every node has an in-link: a ring plus random chords."""
    n = draw(st.integers(2, 30))
    edges = {(i, (i + 1) % n) for i in range(n)}
    chords = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    )
    edges.update((a, b) for a, b in chords if a != b)
    return DynamicDiGraph.from_edges(n, sorted(edges))


def scrambled_q(graph: DynamicDiGraph, seed: int) -> sp.csr_matrix:
    """``Q`` with each row's entries shuffled and explicit zeros mixed in.

    Some zeros land in rows that are otherwise empty, so those nodes join
    the core without any in-link weight.
    """
    rng = np.random.default_rng(seed)
    q = backward_transition_matrix(graph)
    n = q.shape[0]
    data, indices, indptr = [], [], [0]
    for row in range(n):
        lo, hi = q.indptr[row], q.indptr[row + 1]
        entries = list(zip(q.indices[lo:hi].tolist(), q.data[lo:hi].tolist()))
        stored = {column for column, _ in entries}
        for column in rng.choice(n, size=min(n, 2), replace=False).tolist():
            if column not in stored and rng.random() < 0.5:
                entries.append((column, 0.0))
        order = rng.permutation(len(entries))
        indices += [entries[k][0] for k in order]
        data += [entries[k][1] for k in order]
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int32)),
        shape=(n, n),
    )


SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBitwiseAgainstFullIteration:
    @SETTINGS
    @given(sparse_in_links(), CONFIGS)
    def test_many_nodes_without_in_links(self, graph, config):
        assert_bitwise(
            matrix_simrank(graph, config),
            reference_matrix_simrank(graph, config),
        )

    @SETTINGS
    @given(cyclic(), CONFIGS)
    def test_every_node_in_linked(self, graph, config):
        assert_bitwise(
            matrix_simrank(graph, config),
            reference_matrix_simrank(graph, config),
        )

    @SETTINGS
    @given(sparse_in_links(), CONFIGS, st.integers(0, 2**16))
    def test_unsorted_rows_and_explicit_zeros(self, graph, config, seed):
        q = scrambled_q(graph, seed)
        assert_bitwise(
            matrix_simrank(q, config), reference_matrix_simrank(q, config)
        )
        # The prebuilt matrix is read, never rearranged in place.
        assert_bitwise(q.toarray(), scrambled_q(graph, seed).toarray())

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edgeless(self, n, config):
        q = sp.csr_matrix((n, n))
        expected = reference_matrix_simrank(q, config)
        assert_bitwise(matrix_simrank(q, config), expected)
        assert_bitwise(matrix_simrank(q, config, tolerance=0.0), expected)
        if n:
            graph = DynamicDiGraph(n)
            assert_bitwise(matrix_simrank(graph, config), expected)

    @SETTINGS
    @given(
        st.one_of(sparse_in_links(), cyclic()),
        CONFIGS,
        st.sampled_from([1e-1, 1e-3, 1e-6, 1e-12, 0.0]),
    )
    def test_tolerance_exit_and_failure(self, graph, config, tolerance):
        try:
            expected = reference_matrix_simrank(graph, config, tolerance)
        except ConvergenceError as error:
            with pytest.raises(ConvergenceError) as raised:
                matrix_simrank(graph, config, tolerance)
            assert raised.value.residual == error.residual
            assert raised.value.iterations == error.iterations
            assert str(raised.value) == str(error)
        else:
            assert_bitwise(matrix_simrank(graph, config, tolerance), expected)

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(sparse_in_links(), cyclic()))
    def test_engine_start_state(self, graph):
        config = SimRankConfig(damping=0.6, iterations=15)
        engine = DynamicSimRank(graph, config)
        assert_bitwise(
            engine.similarities(), reference_matrix_simrank(graph, config)
        )
