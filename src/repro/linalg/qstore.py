"""Persistent dual-layout transition-matrix store — the update hot path.

The incremental algorithms read ``Q`` two ways per unit update:

* **by row** (CSR order) for the dense mat-vec ``w = Q·[S]_{:,i}`` of
  Theorem 2 (line 3 of Algorithm 1); and
* **by column** (CSC order) for the pruned affected-area gathers of
  Algorithm 2, which touch exactly the columns in ``supp(ξ_k)``.

The seed implementation kept ``Q`` as a scipy CSR matrix, converting to
CSC *per update* and rebuilding the full CSR arrays with
``np.concatenate`` to splice one row — O(nnz) maintenance for an O(row)
logical change.  :class:`TransitionStore` removes both costs by owning
``Q`` in **both layouts simultaneously** as *structure-only* slab arrays
with per-row slack.

Factored values
---------------
``Q`` is row-normalized (``[Q]_{r,c} = 1/d_r`` for every in-neighbor
``c`` of ``r``), so all nonzeros of a row share one value.  The store
exploits that: the slabs hold **indices only**, and a single per-row
weight vector ``row_weight[r] = 1/d_r`` supplies every value.  A unit
update therefore touches exactly *one* structural entry per layout
(insert or delete the changed edge) plus one scalar weight — the
re-weighting of the target's surviving in-edges, which a value-carrying
mirror would rewrite entry-by-entry, is free.  The in-degree vector is
the CSR ``length`` array itself, cached by construction.

Layout
------
Each direction is a :class:`_SlabLayout`: three per-segment vectors
``start``/``length``/``capacity`` plus a shared ``indices`` buffer.
Segment ``i`` occupies ``indices[start[i] : start[i]+length[i]]``
(sorted) with ``capacity[i] - length[i]`` slack slots behind it.

Slack policy
------------
Segments are laid out with :data:`DEFAULT_SLACK` spare slots each at
build time.  A segment rewrite that fits its capacity is an in-place
write; one that does not relocates the segment to the tail of the
buffer with its capacity doubled (geometric growth), abandoning the old
slots.  Because per-segment capacity only ever doubles, total abandoned
space is bounded by the live capacity, so the buffer holds at most
~3x nnz entries plus the initial slack — no compaction pass is ever
required on the hot path (an explicit :meth:`TransitionStore.compact`
exists for hygiene).  Buffer exhaustion grows the shared array by
doubling, so all surgery is amortized O(row).

Interop
-------
:meth:`TransitionStore.csr_matrix` / :meth:`csc_matrix` materialize
packed scipy views lazily and cache them until the next mutation, so
code that wants a real scipy object between updates (tests,
persistence, the Batch comparator) pays the packing cost once, never
per update.  :meth:`matvec` (also exposed as ``store @ x``) and
:meth:`gather_columns` serve the two hot read patterns directly from
the slabs without materializing any scipy object at all, bit-identical
to the scipy results (products are formed per entry before summation,
in the same order).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import DimensionError, GraphError

#: Spare slots appended to every segment at build time.  Unit updates
#: change a row's nnz by one, so a handful of slack slots absorbs many
#: updates before the first relocation.
DEFAULT_SLACK = 4

_INDEX_DTYPE = np.int64


class _SlabLayout:
    """One direction (rows or columns) of the dual store.

    Holds sparsity *structure* only: each segment is a sorted run of
    indices inside a shared buffer that may contain holes left behind by
    relocated segments.  All mutators keep ``length``/``capacity``
    consistent and never move more than one segment at a time.
    """

    __slots__ = ("start", "length", "capacity", "indices", "used", "n")

    def __init__(
        self,
        n: int,
        seg_lengths: np.ndarray,
        indices: np.ndarray,
        slack: int,
    ) -> None:
        self.n = int(n)
        lengths = np.array(seg_lengths, dtype=_INDEX_DTYPE)
        caps = lengths + int(slack)
        starts = np.zeros(self.n, dtype=_INDEX_DTYPE)
        if self.n:
            np.cumsum(caps[:-1], out=starts[1:])
        total = int(caps.sum())
        buffer = np.zeros(max(total, 1), dtype=_INDEX_DTYPE)
        # Scatter the packed input into the slacked layout in one pass.
        if indices.size:
            buffer[_segment_positions(starts, lengths)] = indices
        self.start = starts
        self.length = lengths
        self.capacity = caps
        self.indices = buffer
        self.used = total

    # -------------------------------------------------------------- #
    # Reads
    # -------------------------------------------------------------- #

    def segment(self, seg: int) -> np.ndarray:
        """View of segment ``seg``'s sorted indices; do not resize."""
        lo = self.start[seg]
        return self.indices[lo : lo + self.length[seg]]

    def packed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copy out canonical ``(indices, indptr)`` CSR-style arrays."""
        lengths = self.length[: self.n]
        indptr = np.zeros(self.n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(lengths, out=indptr[1:])
        if self.n == 0 or indptr[-1] == 0:
            return np.zeros(0, dtype=_INDEX_DTYPE), indptr
        positions = _segment_positions(self.start[: self.n], lengths)
        return self.indices[positions], indptr

    def matvec(
        self, x: np.ndarray, weights: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Dense ``diag(weights)·pattern @ x`` written into ``out``.

        ``weights[i]`` is the shared value of every nonzero in segment
        ``i``; products are formed per entry before the per-segment
        summation, matching scipy's CSR mat-vec bit for bit.
        """
        out[: self.n] = 0.0
        active = np.flatnonzero(self.length[: self.n])
        if active.size == 0:
            return out
        counts = self.length[active]
        positions = _segment_positions(self.start[active], counts)
        values = np.repeat(weights[active], counts) * x[self.indices[positions]]
        bounds = np.zeros(active.size, dtype=_INDEX_DTYPE)
        np.cumsum(counts[:-1], out=bounds[1:])
        out[active] = np.add.reduceat(values, bounds)
        return out

    def matvec_indexed(
        self, x: np.ndarray, index_weights: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Dense ``pattern·diag(index_weights) @ x`` written into ``out``.

        The per-*index* twin of :meth:`matvec`: entry weights come from
        the touched index (``index_weights[index]``) rather than the
        owning segment.  On the CSC layout with the row weights this is
        exactly ``Qᵀ @ x`` — the transpose mat-vec of the walk-vector
        queries — served straight from the slabs.
        """
        out[: self.n] = 0.0
        active = np.flatnonzero(self.length[: self.n])
        if active.size == 0:
            return out
        counts = self.length[active]
        positions = _segment_positions(self.start[active], counts)
        touched = self.indices[positions]
        values = index_weights[touched] * x[touched]
        bounds = np.zeros(active.size, dtype=_INDEX_DTYPE)
        np.cumsum(counts[:-1], out=bounds[1:])
        out[active] = np.add.reduceat(values, bounds)
        return out

    def gather(
        self, segs: np.ndarray, seg_values: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse ``Σ_k seg_values[k] · weights[touched] · pattern`` sums.

        Gathers the entries of the given segments, scales each by its
        own per-*index* weight (``weights[index]``) times the owning
        segment's coefficient, and returns ``(indices, sums)`` with the
        index array sorted and unique.  This is the pruned core's
        ``Q·ξ`` gather over CSC slabs, with cost ``O(t log t)`` in the
        number of touched nonzeros ``t`` — independent of ``n``.
        """
        counts = self.length[segs]
        total = int(counts.sum())
        if total == 0:
            return (
                np.zeros(0, dtype=_INDEX_DTYPE),
                np.zeros(0, dtype=np.float64),
            )
        positions = _segment_positions(self.start[segs], counts)
        touched = self.indices[positions]
        contributions = weights[touched] * np.repeat(seg_values, counts)
        return self._accumulate_touched(touched, contributions)

    def gather_pair(
        self,
        segs_a: np.ndarray,
        vals_a: np.ndarray,
        segs_b: np.ndarray,
        vals_b: np.ndarray,
        weights: np.ndarray,
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Two :meth:`gather` calls fused into one pass.

        The pruned iteration advances ξ and η together every step;
        building one combined position/contribution vector and splitting
        afterwards halves the fixed per-call overhead, which dominates
        once the supports are modest.
        """
        counts_a = self.length[segs_a]
        counts_b = self.length[segs_b]
        total_a = int(counts_a.sum())
        total_b = int(counts_b.sum())
        empty = (np.zeros(0, dtype=_INDEX_DTYPE), np.zeros(0, dtype=np.float64))
        if total_a == 0 and total_b == 0:
            return empty, empty
        counts = np.concatenate((counts_a, counts_b))
        starts = np.concatenate((self.start[segs_a], self.start[segs_b]))
        positions = _segment_positions(starts, counts)
        touched = self.indices[positions]
        contributions = weights[touched] * np.repeat(
            np.concatenate((vals_a, vals_b)), counts
        )
        first = (
            self._accumulate_touched(touched[:total_a], contributions[:total_a])
            if total_a
            else empty
        )
        second = (
            self._accumulate_touched(touched[total_a:], contributions[total_a:])
            if total_b
            else empty
        )
        return first, second

    def _accumulate_touched(
        self, touched: np.ndarray, contributions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reduce raw (index, contribution) pairs to sorted unique sums."""
        if 8 * touched.size >= self.n:
            # Dense scatter-add: for large gathers the O(n) bincount +
            # support scan beats the O(t log t) sort's constant factor.
            dense = np.bincount(touched, weights=contributions, minlength=self.n)
            support = np.nonzero(dense)[0]
            return support, dense[support]
        order = np.argsort(touched, kind="stable")
        touched = touched[order]
        contributions = contributions[order]
        boundaries = np.concatenate(
            ([0], np.flatnonzero(touched[1:] != touched[:-1]) + 1)
        )
        return touched[boundaries], np.add.reduceat(contributions, boundaries)

    # -------------------------------------------------------------- #
    # Surgery
    # -------------------------------------------------------------- #

    def set_segment(self, seg: int, new_indices: np.ndarray) -> None:
        """Replace segment ``seg`` wholesale (indices must be sorted)."""
        need = new_indices.size
        if need > self.capacity[seg]:
            self._relocate(seg, need)
        lo = self.start[seg]
        self.indices[lo : lo + need] = new_indices
        self.length[seg] = need

    def insert_entry(self, seg: int, key: int) -> None:
        """Insert ``key`` into segment ``seg``, keeping it sorted."""
        count = int(self.length[seg])
        if count + 1 > self.capacity[seg]:
            self._relocate(seg, count + 1)
        lo = int(self.start[seg])
        keys = self.indices[lo : lo + count]
        offset = int(np.searchsorted(keys, key))
        hi = lo + count
        self.indices[lo + offset + 1 : hi + 1] = self.indices[lo + offset : hi]
        self.indices[lo + offset] = key
        self.length[seg] = count + 1

    def remove_entry(self, seg: int, key: int) -> None:
        """Remove the entry ``key`` from segment ``seg``."""
        count = int(self.length[seg])
        lo = int(self.start[seg])
        keys = self.indices[lo : lo + count]
        offset = int(np.searchsorted(keys, key))
        if offset >= count or keys[offset] != key:
            raise GraphError(f"entry {key} missing from segment {seg}")
        hi = lo + count
        self.indices[lo + offset : hi - 1] = self.indices[lo + offset + 1 : hi]
        self.length[seg] = count - 1

    def append_segment(self) -> None:
        """Add one empty segment at the end (node arrival); amortized O(1).

        The per-segment metadata arrays grow geometrically, so a long
        stream of node arrivals costs O(1) amortized per node (plus the
        one-off cost when the shared entry buffer doubles).
        """
        if self.n == self.start.size:
            grown = max(2 * self.start.size, 8)
            for name in ("start", "length", "capacity"):
                old = getattr(self, name)
                fresh = np.zeros(grown, dtype=_INDEX_DTYPE)
                fresh[: self.n] = old[: self.n]
                setattr(self, name, fresh)
        cap = DEFAULT_SLACK
        if self.used + cap > self.indices.size:
            self._grow(self.used + cap)
        self.start[self.n] = self.used
        self.length[self.n] = 0
        self.capacity[self.n] = cap
        self.used += cap
        self.n += 1

    def compact(self, slack: int = DEFAULT_SLACK) -> None:
        """Repack all segments contiguously, restoring uniform slack."""
        indices, indptr = self.packed()
        rebuilt = _SlabLayout(self.n, np.diff(indptr), indices, slack)
        self.start = rebuilt.start
        self.length = rebuilt.length
        self.capacity = rebuilt.capacity
        self.indices = rebuilt.indices
        self.used = rebuilt.used

    # -------------------------------------------------------------- #
    # Accounting / internals
    # -------------------------------------------------------------- #

    @property
    def nnz(self) -> int:
        return int(self.length[: self.n].sum())

    def buffer_bytes(self) -> int:
        """Bytes held by the buffers (live entries *and* slack)."""
        return (
            self.indices.nbytes
            + self.start.nbytes
            + self.length.nbytes
            + self.capacity.nbytes
        )

    def slack_bytes(self) -> int:
        """Bytes of allocated-but-unoccupied entry slots (slack + holes)."""
        return int(self.indices.size - self.nnz) * self.indices.itemsize

    def _relocate(self, seg: int, need: int) -> None:
        new_cap = max(2 * int(self.capacity[seg]), need, DEFAULT_SLACK)
        if self.used + new_cap > self.indices.size:
            self._grow(self.used + new_cap)
        lo = int(self.start[seg])
        count = int(self.length[seg])
        new_lo = self.used
        self.indices[new_lo : new_lo + count] = self.indices[lo : lo + count]
        self.start[seg] = new_lo
        self.capacity[seg] = new_cap
        self.used += new_cap

    def _grow(self, minimum: int) -> None:
        size = max(2 * self.indices.size, minimum, 16)
        buffer = np.zeros(size, dtype=_INDEX_DTYPE)
        buffer[: self.used] = self.indices[: self.used]
        self.indices = buffer


def _segment_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Buffer positions of all entries of the given segments, in order.

    Fully vectorized range concatenation: for segments with starts
    ``s_k`` and lengths ``c_k`` returns
    ``[s_0, s_0+1, ..., s_0+c_0-1, s_1, ...]``.
    """
    total = int(counts.sum())
    head = np.repeat(
        starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts
    )
    return head + np.arange(total, dtype=_INDEX_DTYPE)


class TransitionStore:
    """``Q`` resident in CSR *and* CSC with O(row) update surgery.

    Build once with :meth:`from_graph` (or :meth:`from_csr`), then keep
    it in sync with the evolving graph via :meth:`insert_edge` /
    :meth:`remove_edge` (unit updates), :meth:`set_row` (composite row
    updates), and :meth:`add_node`.  See the module docstring for the
    factored-value representation, layout, and slack policy.
    """

    def __init__(
        self,
        rows: _SlabLayout,
        cols: _SlabLayout,
        row_weight: np.ndarray,
        num_nodes: int,
    ) -> None:
        self._rows = rows
        self._cols = cols
        self._row_weight = row_weight
        self._n = int(num_nodes)
        self._csr_cache: Optional[sp.csr_matrix] = None
        self._csc_cache: Optional[sp.csc_matrix] = None
        #: Monotone counter bumped by every mutation; lets callers that
        #: hold derived state (caches, snapshots) detect staleness.
        self.version = 0

    # -------------------------------------------------------------- #
    # Construction
    # -------------------------------------------------------------- #

    @classmethod
    def from_graph(cls, graph, slack: int = DEFAULT_SLACK) -> "TransitionStore":
        """Build the dual store from a :class:`DynamicDiGraph`."""
        n = graph.num_nodes
        row_lengths = np.zeros(n, dtype=_INDEX_DTYPE)
        parts = []
        for node, in_list in enumerate(graph.in_neighbor_lists()):
            row_lengths[node] = len(in_list)
            if in_list:
                parts.append(np.asarray(in_list, dtype=_INDEX_DTYPE))
        indices = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=_INDEX_DTYPE)
        )
        indptr = np.zeros(n + 1, dtype=_INDEX_DTYPE)
        np.cumsum(row_lengths, out=indptr[1:])
        return cls._from_structure(n, indices, indptr, row_lengths, slack)

    @classmethod
    def from_csr(
        cls,
        q_matrix: sp.spmatrix,
        slack: int = DEFAULT_SLACK,
        csc_hint: Optional[sp.csc_matrix] = None,
    ) -> "TransitionStore":
        """Build the dual store from a prebuilt ``Q`` (any scipy format).

        ``Q`` must be row-uniform (every nonzero of row ``r`` equal to
        ``1/nnz(row r)``), which every backward transition matrix is;
        anything else raises :class:`GraphError`.  ``csc_hint`` may
        supply an already-converted CSC view of the same matrix to skip
        the internal transpose pass.
        """
        csr = sp.csr_matrix(q_matrix).copy()
        if csr.shape[0] != csr.shape[1]:
            raise DimensionError(f"Q must be square, got {csr.shape}")
        csr.sort_indices()
        n = csr.shape[0]
        lengths = np.diff(csr.indptr).astype(_INDEX_DTYPE)
        expected = np.repeat(
            np.where(lengths > 0, 1.0 / np.maximum(lengths, 1), 0.0), lengths
        )
        if not np.array_equal(csr.data, expected):
            raise GraphError(
                "TransitionStore requires a row-normalized Q "
                "(uniform 1/in-degree rows)"
            )
        return cls._from_structure(
            n,
            csr.indices.astype(_INDEX_DTYPE),
            csr.indptr.astype(_INDEX_DTYPE),
            lengths,
            slack,
            csc_hint=csc_hint,
        )

    @classmethod
    def _from_structure(
        cls,
        n: int,
        indices: np.ndarray,
        indptr: np.ndarray,
        lengths: np.ndarray,
        slack: int,
        csc_hint: Optional[sp.csc_matrix] = None,
    ) -> "TransitionStore":
        if csc_hint is not None and csc_hint.shape == (n, n):
            csc = csc_hint if csc_hint.has_sorted_indices else csc_hint.copy()
            csc.sort_indices()
        else:
            pattern = sp.csr_matrix(
                (np.ones(indices.size, dtype=np.int8), indices, indptr),
                shape=(n, n),
            )
            csc = pattern.tocsc()
            csc.sort_indices()
        rows = _SlabLayout(n, lengths, indices, slack)
        cols = _SlabLayout(
            n, np.diff(csc.indptr), csc.indices.astype(_INDEX_DTYPE), slack
        )
        weights = np.zeros(max(n, 1), dtype=np.float64)
        nonzero = lengths > 0
        weights[: n][nonzero] = 1.0 / lengths[nonzero]
        return cls(rows, cols, weights, n)

    # -------------------------------------------------------------- #
    # Shape / degree reads
    # -------------------------------------------------------------- #

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._n)

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        return self._rows.nnz

    def in_degree(self, node: int) -> int:
        """``d_node``: nnz of CSR row ``node`` (cached, O(1))."""
        return int(self._rows.length[node])

    def in_degrees(self) -> np.ndarray:
        """The full in-degree vector (a copy; O(n))."""
        return self._rows.length[: self._n].copy()

    def row_weight(self, node: int) -> float:
        """The shared value ``1/d_node`` of row ``node`` (0 when empty)."""
        return float(self._row_weight[node])

    def row(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``node`` as (sorted column indices view, values copy)."""
        indices = self._rows.segment(node)
        return indices, np.full(indices.size, self._row_weight[node])

    def column(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``node`` as (sorted row indices view, values copy)."""
        indices = self._cols.segment(node)
        return indices, self._row_weight[indices]

    # -------------------------------------------------------------- #
    # Hot-path reads
    # -------------------------------------------------------------- #

    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``Q @ x``; pass ``out`` to reuse a workspace buffer."""
        if out is None:
            out = np.zeros(self._n, dtype=np.float64)
        return self._rows.matvec(x, self._row_weight, out)

    def __matmul__(self, x):
        if isinstance(x, np.ndarray) and x.ndim == 1:
            return self.matvec(x)
        # Fall back to the packed scipy view for matrix operands.
        return self.csr_matrix() @ x

    def rmatvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``Qᵀ @ x`` served from the CSC slabs; no transpose built.

        The walk-vector queries iterate ``(Qᵀ)^k e_a``; this serves each
        step directly from the column layout (a CSC column of ``Q`` *is*
        a CSR row of ``Qᵀ``), so no ``O(nnz)`` transpose conversion is
        ever paid.  Pass ``out`` to reuse a workspace buffer.
        """
        if out is None:
            out = np.zeros(self._n, dtype=np.float64)
        return self._cols.matvec_indexed(x, self._row_weight, out)

    def gather_columns(
        self, indices: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``Q @ x`` for sparse ``x = (indices, values)``, as sparse output.

        Returns sorted unique row indices and their sums — exactly the
        affected-area gather of Algorithm 2, with cost independent of
        ``n``.
        """
        return self._cols.gather(indices, values, self._row_weight)

    def gather_columns_pair(
        self,
        indices_a: np.ndarray,
        values_a: np.ndarray,
        indices_b: np.ndarray,
        values_b: np.ndarray,
    ):
        """Two :meth:`gather_columns` fused into one pass (ξ and η)."""
        return self._cols.gather_pair(
            indices_a, values_a, indices_b, values_b, self._row_weight
        )

    # -------------------------------------------------------------- #
    # Surgery
    # -------------------------------------------------------------- #

    def insert_edge(self, source: int, target: int) -> None:
        """Mirror the edge insertion ``source -> target`` (O(row)).

        One structural insert per layout plus the target's weight
        update; the re-weighting of surviving in-edges is implicit in
        the factored representation.
        """
        self._rows.insert_entry(target, source)
        self._cols.insert_entry(source, target)
        self._row_weight[target] = 1.0 / self._rows.length[target]
        self._invalidate()

    def remove_edge(self, source: int, target: int) -> None:
        """Mirror the edge deletion ``source -> target`` (O(row))."""
        self._rows.remove_entry(target, source)
        self._cols.remove_entry(source, target)
        degree = self._rows.length[target]
        self._row_weight[target] = 1.0 / degree if degree else 0.0
        self._invalidate()

    def set_row(self, target: int, sources: Iterable[int]) -> None:
        """Rewrite row ``target`` to ``1/d`` over ``sources`` (O(row)).

        ``sources`` is the new in-neighbor set of ``target``; an empty
        iterable clears the row.  Used by the consolidated-batch path,
        where one call replaces a whole group of unit updates.
        """
        new_idx = np.asarray(sorted(sources), dtype=_INDEX_DTYPE)
        old_idx = self._rows.segment(target).copy()
        self._rows.set_segment(target, new_idx)
        for source in np.setdiff1d(old_idx, new_idx, assume_unique=True):
            self._cols.remove_entry(int(source), target)
        for source in np.setdiff1d(new_idx, old_idx, assume_unique=True):
            self._cols.insert_entry(int(source), target)
        degree = new_idx.size
        self._row_weight[target] = 1.0 / degree if degree else 0.0
        self._invalidate()

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
        self._rows.append_segment()
        self._cols.append_segment()
        if self._n >= self._row_weight.size:
            fresh = np.zeros(max(2 * self._row_weight.size, 8))
            fresh[: self._n] = self._row_weight[: self._n]
            self._row_weight = fresh
        self._row_weight[self._n] = 0.0
        self._n += 1
        self._invalidate()
        return self._n - 1

    def copy(self) -> "TransitionStore":
        """An independent deep copy (fresh slabs, compacted slack)."""
        return TransitionStore.from_csr(
            self.csr_matrix(), csc_hint=self.csc_matrix()
        )

    def replace_from_graph(self, graph) -> None:
        """Rebuild the whole store from ``graph`` (batch/recovery path)."""
        rebuilt = TransitionStore.from_graph(graph)
        self._rows = rebuilt._rows
        self._cols = rebuilt._cols
        self._row_weight = rebuilt._row_weight
        self._n = rebuilt._n
        self._invalidate()

    def compact(self) -> None:
        """Repack both layouts, reclaiming relocation holes."""
        self._rows.compact()
        self._cols.compact()
        self._invalidate()

    def _invalidate(self) -> None:
        self._csr_cache = None
        self._csc_cache = None
        self.version += 1

    # -------------------------------------------------------------- #
    # Scipy interop (lazy, cached between mutations)
    # -------------------------------------------------------------- #

    def csr_matrix(self) -> sp.csr_matrix:
        """Packed scipy CSR view; cached until the next mutation.

        The returned matrix shares no hot-path state, so mutating it
        cannot corrupt the store — but callers should treat it as
        read-only, since repeated calls between updates return the same
        object.
        """
        if self._csr_cache is None:
            indices, indptr = self._rows.packed()
            data = np.repeat(
                self._row_weight[: self._n], self._rows.length[: self._n]
            )
            self._csr_cache = sp.csr_matrix(
                (data, indices, indptr), shape=self.shape
            )
        return self._csr_cache

    def csc_matrix(self) -> sp.csc_matrix:
        """Packed scipy CSC view; cached until the next mutation."""
        if self._csc_cache is None:
            indices, indptr = self._cols.packed()
            self._csc_cache = sp.csc_matrix(
                (self._row_weight[indices], indices, indptr), shape=self.shape
            )
        return self._csc_cache

    def toarray(self) -> np.ndarray:
        """Dense ``Q`` (tests/debugging only)."""
        return self.csr_matrix().toarray()

    def export_packed(self) -> dict:
        """Canonical packed arrays of both layouts (checkpoint payload).

        Returns ``indices``/``indptr`` (CSR), ``col_indices``/
        ``col_indptr`` (CSC), the factored ``row_weight`` vector, and
        ``num_nodes``/``version`` — the checkpoint format, from which
        ``Q`` is rebuilt without scipy object churn.  All arrays are
        fresh copies detached from the slab buffers.
        """
        indices, indptr = self._rows.packed()
        col_indices, col_indptr = self._cols.packed()
        return {
            "indices": indices,
            "indptr": indptr,
            "col_indices": col_indices,
            "col_indptr": col_indptr,
            "row_weight": self._row_weight[: self._n].copy(),
            "num_nodes": self._n,
            "version": self.version,
        }

    def snapshot(self) -> "TransitionSnapshot":
        """Freeze the current ``Q`` as a :class:`TransitionSnapshot`.

        Effectively zero-copy between mutations: the snapshot wraps the
        lazily packed CSR view, which the store *abandons* (rather than
        rewrites) on its next mutation, so the snapshot stays frozen at
        this version forever while consecutive snapshots between
        mutations share one packed matrix.
        """
        return TransitionSnapshot(self.csr_matrix(), self.version)

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #

    def buffer_bytes(self) -> int:
        """Total bytes of both layouts' buffers, slack included (Fig. 3)."""
        return (
            self._rows.buffer_bytes()
            + self._cols.buffer_bytes()
            + self._row_weight.nbytes
        )

    def slack_bytes(self) -> int:
        """Bytes of entry slots currently allocated but unoccupied."""
        return self._rows.slack_bytes() + self._cols.slack_bytes()

    def __repr__(self) -> str:
        return (
            f"TransitionStore(n={self._n}, nnz={self.nnz}, "
            f"slack_bytes={self.slack_bytes()})"
        )


class TransitionSnapshot:
    """An immutable ``Q`` frozen at one :class:`TransitionStore` version.

    Wraps the packed scipy CSR view current at snapshot time (the store
    never mutates a packed view — it rebuilds a fresh one after
    surgery) plus a lazily derived transpose, and exposes the read API
    the query layer needs (``matvec``, ``rmatvec``, ``@``).  Used by the
    serving layer so readers can answer single-source/single-pair
    queries at a pinned version while the writer keeps mutating the
    live store.
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
        """Dense ``Q @ x`` at the frozen version."""
        result = self._csr @ x
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    def rmatvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``Qᵀ @ x`` via an O(1) transpose view (no conversion)."""
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
