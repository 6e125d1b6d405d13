"""Backward transition matrix ``Q`` construction and maintenance.

``Q`` is the row-normalized transpose of the adjacency matrix:
``[Q]_{i,j} = 1/|I(i)|`` iff the edge ``j -> i`` exists, else 0
(Sec. III, Eq. (2) of the paper).  Rows of nodes with no in-links are all
zero, so ``Q`` is row-substochastic in general.

The incremental algorithms never rebuild ``Q`` from scratch: a unit update
``(i, j)`` only rewrites row ``j``.  The *engine's* hot path keeps ``Q``
in a :class:`~repro.linalg.qstore.TransitionStore` (one packed CSR
with copy-on-write row surgery);
:func:`update_transition_matrix` remains the reference single-row rewrite
on plain scipy CSR arrays — used by tests and ablations — and
:func:`transition_row` builds one row directly from the graph.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..exceptions import DimensionError
from .digraph import DynamicDiGraph
from .updates import EdgeUpdate


def adjacency_matrix(graph: DynamicDiGraph) -> sp.csr_matrix:
    """The ``n x n`` 0/1 adjacency matrix ``A`` with ``A[i, j] = 1`` iff ``i -> j``."""
    n = graph.num_nodes
    rows = []
    cols = []
    for source, target in graph.edges():
        rows.append(source)
        cols.append(target)
    data = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def backward_transition_matrix(graph: DynamicDiGraph) -> sp.csr_matrix:
    """Build ``Q`` (row-normalized ``Aᵀ``) for the current graph.

    Row ``i`` of the result holds ``1/|I(i)|`` at each in-neighbor of
    ``i``; rows of in-degree-zero nodes are empty.
    """
    n = graph.num_nodes
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = []
    data = []
    for node, in_list in enumerate(graph.in_neighbor_lists()):
        degree = len(in_list)
        indptr[node + 1] = indptr[node] + degree
        if degree:
            indices.extend(in_list)
            data.extend([1.0 / degree] * degree)
    return sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int64), indptr),
        shape=(n, n),
    )


def transition_row(graph: DynamicDiGraph, node: int) -> sp.csr_matrix:
    """The single row ``[Q]_{node,:}`` as a ``1 x n`` CSR matrix."""
    n = graph.num_nodes
    in_list = sorted(graph.in_neighbors(node))
    degree = len(in_list)
    if degree == 0:
        return sp.csr_matrix((1, n), dtype=np.float64)
    data = np.full(degree, 1.0 / degree)
    indices = np.asarray(in_list, dtype=np.int64)
    indptr = np.asarray([0, degree], dtype=np.int64)
    return sp.csr_matrix((data, indices, indptr), shape=(1, n))


def update_transition_matrix(
    q_matrix: sp.csr_matrix,
    update: EdgeUpdate,
    new_graph: DynamicDiGraph,
) -> sp.csr_matrix:
    """Return ``Q̃`` after a unit update, rewriting only row ``update.target``.

    Parameters
    ----------
    q_matrix:
        The old ``Q`` (CSR), matching the graph *before* the update.
    update:
        The unit update that was applied.
    new_graph:
        The graph *after* the update (used to read the fresh in-neighbor
        list of the target node).
    """
    n = new_graph.num_nodes
    if q_matrix.shape != (n, n):
        raise DimensionError(
            f"Q has shape {q_matrix.shape}, expected ({n}, {n})"
        )
    target = update.target
    new_row = transition_row(new_graph, target)
    # Splice the new row into the CSR arrays directly: everything outside
    # row `target` is byte-copied, which keeps the per-update maintenance
    # cost at O(nnz) with NumPy-level copies (no LIL round-trip).
    start, end = int(q_matrix.indptr[target]), int(q_matrix.indptr[target + 1])
    data = np.concatenate(
        (q_matrix.data[:start], new_row.data, q_matrix.data[end:])
    )
    indices = np.concatenate(
        (q_matrix.indices[:start], new_row.indices, q_matrix.indices[end:])
    )
    indptr = q_matrix.indptr.copy()
    shift = new_row.nnz - (end - start)
    indptr[target + 1 :] += shift
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def verify_transition_matrix(
    q_matrix: sp.csr_matrix,
    graph: DynamicDiGraph,
    atol: float = 1e-12,
) -> Optional[str]:
    """Cross-check an incrementally maintained ``Q`` against the graph.

    Returns ``None`` when consistent, otherwise a human-readable
    description of the first discrepancy.  Used by tests and by the
    engine's (opt-in) paranoid mode.
    """
    expected = backward_transition_matrix(graph)
    difference = (q_matrix - expected).tocoo()
    if difference.nnz == 0:
        return None
    magnitudes = np.abs(difference.data)
    worst = int(np.argmax(magnitudes))
    if magnitudes[worst] <= atol:
        return None
    return (
        f"Q mismatch at ({difference.row[worst]}, {difference.col[worst]}): "
        f"got delta {difference.data[worst]:+.3e}"
    )
