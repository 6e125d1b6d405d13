"""Transition-matrix store: one packed CSR ``Q`` with copy-on-write surgery.

The incremental algorithms read ``Q`` in two products per unit update:
the mat-vec ``w = Q·[S]_{:,i}`` of Theorem 2 (line 3 of Algorithm 1) and
the K frontier rounds ``Q·ξ_k``, ``Q·η_k`` of Algorithm 2's pruned core
(:func:`~repro.incremental.plan.plan_rank_one`).  Both are scipy CSR
products over dense vectors, one C loop each.  The walk-vector queries'
``Qᵀ·x`` is ``csr.T @ x``: ``.T`` is a CSC view over the same three
arrays, so no layout is ever converted or kept twice.

``Q`` is row-normalized (``[Q]_{r,c} = 1/d_r`` for every in-neighbor
``c`` of ``r``).  Beside the CSR arrays the store keeps that shared row
value as ``row_weight[r] = 1/d_r``; the in-degree vector is
``diff(indptr)``.

Copy-on-write surgery
---------------------
A unit insert or delete, :meth:`TransitionStore.set_row` and
:meth:`TransitionStore.add_node` never write into the current arrays.
Each builds new ``indices``/``data``/``indptr`` (``np.concatenate``
around the changed row, ``np.append`` for a new node), with ``1/d_j``
over row ``j``'s entries, and publishes the result as a new CSR.  Every
earlier :meth:`TransitionStore.csr_matrix` and :class:`TransitionSnapshot`
therefore stays frozen at its version without a copy taken for it.

Such surgery is O(nnz) where a slab layout with per-row slack is
O(row).  It is never the bottleneck here: the score matrix ``S`` is a
dense ``n × n`` store, so for every ``n`` this code can hold, ``nnz`` is
far below the ``n·|affected|`` score work of the same update.
"""

from __future__ import annotations

import copy
from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import DimensionError, GraphError

#: Index dtype of the CSR arrays.  ``S`` is dense, so ``n`` (and with
#: it ``nnz <= n²``) stays far below the int32 range for any graph the
#: engine can hold; scipy's products run on int32 natively.
_INDEX_DTYPE = np.int32


class TransitionSnapshot:
    """An immutable ``Q`` frozen at one :class:`TransitionStore` version.

    Wraps the packed scipy CSR the store published at that version (the
    store never writes into a published CSR — surgery builds new arrays)
    plus a lazily derived transpose view, and exposes the read API the
    query layer needs (``matvec``, ``rmatvec``, ``@``).  The live store
    serves its own reads through its current snapshot, and the serving
    layer pins one so readers can answer single-source/single-pair
    queries at that version while the writer keeps mutating the store.
    """

    __slots__ = ("_csr", "_csr_t", "version")

    def __init__(self, csr: sp.csr_matrix, version: int) -> None:
        self._csr = csr
        self._csr_t = None
        self.version = int(version)

    @property
    def shape(self) -> Tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    def csr_matrix(self) -> sp.csr_matrix:
        """The frozen packed CSR view (treat as read-only)."""
        return self._csr

    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``Q @ x``; ``out`` receives a copy of the result."""
        result = self._csr @ x
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    def rmatvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``Qᵀ @ x`` through a CSC view of the same arrays."""
        if self._csr_t is None:
            self._csr_t = self._csr.T
        result = self._csr_t @ x
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    def __matmul__(self, x):
        return self._csr @ x

    def nbytes(self) -> int:
        """Bytes pinned by the frozen CSR arrays."""
        return (
            self._csr.data.nbytes
            + self._csr.indices.nbytes
            + self._csr.indptr.nbytes
        )

    def __repr__(self) -> str:
        n = self._csr.shape[0]
        return f"TransitionSnapshot(n={n}, nnz={self.nnz}, version={self.version})"


class TransitionStore:
    """``Q`` as one packed CSR, kept in sync with the evolving graph.

    Build once with :meth:`from_graph` (or :meth:`from_csr`), then mirror
    the graph via :meth:`insert_edge` / :meth:`remove_edge` (unit
    updates), :meth:`set_row` (composite row updates) and
    :meth:`add_node`.  Reads go to the current :class:`TransitionSnapshot`;
    see the module docstring for the copy-on-write surgery.
    """

    def __init__(self, csr: sp.csr_matrix, row_weight: np.ndarray) -> None:
        self._current = TransitionSnapshot(csr, 0)
        self._row_weight = row_weight

    # -------------------------------------------------------------- #
    # Construction
    # -------------------------------------------------------------- #

    @classmethod
    def from_graph(cls, graph) -> "TransitionStore":
        """Build the store from a :class:`DynamicDiGraph`."""
        n = graph.num_nodes
        lists = graph.in_neighbor_lists()
        lengths = np.fromiter(map(len, lists), dtype=_INDEX_DTYPE, count=n)
        indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.fromiter(
            (source for in_list in lists for source in in_list),
            dtype=_INDEX_DTYPE,
            count=int(indptr[-1]),
        )
        return cls._from_structure(n, indices, indptr)

    @classmethod
    def from_csr(cls, q_matrix: sp.spmatrix) -> "TransitionStore":
        """Build the store from a prebuilt ``Q`` (any scipy format).

        ``Q`` must be row-uniform (every nonzero of row ``r`` equal to
        ``1/nnz(row r)``), which every backward transition matrix is;
        anything else raises :class:`GraphError`.
        """
        csr = sp.csr_matrix(q_matrix, copy=True)
        if csr.shape[0] != csr.shape[1]:
            raise DimensionError(f"Q must be square, got {csr.shape}")
        csr.sort_indices()
        store = cls._from_structure(
            csr.shape[0],
            csr.indices.astype(_INDEX_DTYPE),
            csr.indptr.astype(_INDEX_DTYPE),
        )
        if not np.array_equal(store.csr_matrix().data, csr.data):
            raise GraphError(
                "TransitionStore requires a row-normalized Q "
                "(uniform 1/in-degree rows)"
            )
        return store

    @classmethod
    def _from_structure(
        cls, n: int, indices: np.ndarray, indptr: np.ndarray
    ) -> "TransitionStore":
        lengths = np.diff(indptr)
        weights = np.zeros(n, dtype=np.float64)
        nonzero = lengths > 0
        weights[nonzero] = 1.0 / lengths[nonzero]
        data = np.repeat(weights, lengths)
        return cls(_packed_csr(data, indices, indptr, n), weights)

    # -------------------------------------------------------------- #
    # Shape / degree reads
    # -------------------------------------------------------------- #

    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation; lets callers that
        hold derived state (caches, snapshots) detect staleness."""
        return self._current.version

    @property
    def shape(self) -> Tuple[int, int]:
        return self._current.shape

    @property
    def num_nodes(self) -> int:
        return self._current.shape[0]

    @property
    def nnz(self) -> int:
        return self._current.nnz

    def in_degree(self, node: int) -> int:
        """``d_node``: nnz of CSR row ``node`` (O(1))."""
        indptr = self._current.csr_matrix().indptr
        return int(indptr[node + 1] - indptr[node])

    def in_degrees(self) -> np.ndarray:
        """The full in-degree vector (a fresh array; O(n))."""
        return np.diff(self._current.csr_matrix().indptr)

    def row_weight(self, node: int) -> float:
        """The shared value ``1/d_node`` of row ``node`` (0 when empty)."""
        return float(self._row_weight[node])

    def row(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``node`` as (sorted column indices view, values copy)."""
        csr = self._current.csr_matrix()
        lo, hi = csr.indptr[node], csr.indptr[node + 1]
        return csr.indices[lo:hi], csr.data[lo:hi].copy()

    def column(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``node`` as (sorted row indices, values); an O(nnz) scan."""
        csr = self._current.csr_matrix()
        hits = np.flatnonzero(csr.indices == node)
        rows = np.searchsorted(csr.indptr, hits, side="right") - 1
        return rows, csr.data[hits]

    # -------------------------------------------------------------- #
    # Products
    # -------------------------------------------------------------- #

    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``Q @ x``; ``out`` receives a copy of the result."""
        return self._current.matvec(x, out=out)

    def rmatvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``Qᵀ @ x`` (``csr.T @ x``: a CSC view, no conversion)."""
        return self._current.rmatvec(x, out=out)

    def __matmul__(self, x):
        return self._current @ x

    # -------------------------------------------------------------- #
    # Surgery (copy-on-write)
    # -------------------------------------------------------------- #

    def insert_edge(self, source: int, target: int) -> None:
        """Mirror the edge insertion ``source -> target``."""
        self.set_row(target, self.row(target)[0].tolist() + [source])

    def remove_edge(self, source: int, target: int) -> None:
        """Mirror the edge deletion ``source -> target``."""
        sources = self.row(target)[0].tolist()
        if source not in sources:
            raise GraphError(f"entry {source} missing from row {target}")
        sources.remove(source)
        self.set_row(target, sources)

    def set_row(self, target: int, sources: Iterable[int]) -> None:
        """Rewrite row ``target`` to ``1/d`` over ``sources``.

        ``sources`` is the new in-neighbor set of ``target``; an empty
        iterable clears the row.  Used by the consolidated-batch path,
        where one call replaces a whole group of unit updates.
        """
        row = np.asarray(sorted(sources), dtype=_INDEX_DTYPE)
        csr = self._current.csr_matrix()
        lo, hi = int(csr.indptr[target]), int(csr.indptr[target + 1])
        weight = 1.0 / row.size if row.size else 0.0
        indices = np.concatenate((csr.indices[:lo], row, csr.indices[hi:]))
        data = np.concatenate(
            (csr.data[:lo], np.full(row.size, weight), csr.data[hi:])
        )
        indptr = csr.indptr.copy()
        indptr[target + 1 :] += row.size - (hi - lo)
        self._row_weight[target] = weight
        # Same shape, so a shallow clone of the previous CSR object with
        # the new arrays swapped in is exact; scipy's constructor would
        # re-run its dtype and format checks, which with the caches cold
        # after a score apply cost more than the splice itself.
        fresh = copy.copy(csr)
        fresh.indptr, fresh.indices, fresh.data = indptr, indices, data
        self._publish(fresh)

    def set_row_from_graph(self, graph, target: int) -> None:
        """Sync row ``target`` from the (already mutated) graph."""
        self.set_row(target, graph.in_neighbors(target))

    def apply_update(self, update) -> None:
        """Mirror one :class:`EdgeUpdate` that was applied to the graph."""
        if update.is_insert:
            self.insert_edge(update.source, update.target)
        else:
            self.remove_edge(update.source, update.target)

    def add_node(self) -> int:
        """Append one empty row and column; returns the new node id."""
        csr = self._current.csr_matrix()
        n = csr.shape[0]
        indptr = np.append(csr.indptr, csr.indptr[-1])
        self._row_weight = np.append(self._row_weight, 0.0)
        self._publish(_packed_csr(csr.data, csr.indices, indptr, n + 1))
        return n

    def copy(self) -> "TransitionStore":
        """An independent store at the same ``Q``.

        The CSR arrays are shared: neither store ever writes into them.
        """
        return TransitionStore(
            self._current.csr_matrix(), self._row_weight.copy()
        )

    def replace_from_graph(self, graph) -> None:
        """Rebuild the whole store from ``graph`` (batch/recovery path)."""
        rebuilt = TransitionStore.from_graph(graph)
        self._row_weight = rebuilt._row_weight
        self._publish(rebuilt.csr_matrix())

    def _publish(self, csr: sp.csr_matrix) -> None:
        self._current = TransitionSnapshot(csr, self._current.version + 1)

    # -------------------------------------------------------------- #
    # Scipy interop
    # -------------------------------------------------------------- #

    def csr_matrix(self) -> sp.csr_matrix:
        """The current packed CSR; the same object until the next mutation.

        Surgery never writes into it, so it stays frozen at this
        version; callers must treat it as read-only.
        """
        return self._current.csr_matrix()

    def csc_matrix(self) -> sp.csc_matrix:
        """A CSC copy of ``Q`` (interop only; O(nnz) per call)."""
        return self._current.csr_matrix().tocsc()

    def toarray(self) -> np.ndarray:
        """Dense ``Q`` (tests/debugging only)."""
        return self._current.csr_matrix().toarray()

    def export_packed(self) -> dict:
        """The checkpoint payload: CSR structure, ``num_nodes``, ``version``.

        ``indices``/``indptr`` are the rows' sorted in-neighbor lists,
        which is all recovery reads (``graph_from_packed``); values are
        implied by row normalization.
        """
        csr = self._current.csr_matrix()
        return {
            "indices": csr.indices,
            "indptr": csr.indptr,
            "num_nodes": csr.shape[0],
            "version": self.version,
        }

    def snapshot(self) -> TransitionSnapshot:
        """The current ``Q`` frozen as a :class:`TransitionSnapshot`.

        Zero-copy: it is the snapshot the store itself reads through
        until its next mutation publishes a new one.
        """
        return self._current

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #

    def buffer_bytes(self) -> int:
        """Bytes of the CSR arrays plus ``row_weight`` (Fig. 3)."""
        return self._current.nbytes() + self._row_weight.nbytes

    def __repr__(self) -> str:
        return f"TransitionStore(n={self.num_nodes}, nnz={self.nnz})"


def _packed_csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, n: int
) -> sp.csr_matrix:
    """Wrap sorted, duplicate-free CSR arrays (shared, not copied).

    Flagging them canonical spares scipy an O(nnz) re-check on first use.
    """
    csr = sp.csr_matrix((data, indices, indptr), shape=(n, n), copy=False)
    csr.has_sorted_indices = True
    csr.has_canonical_format = True
    return csr
