"""Row-sharded similarity-score store with copy-on-write snapshots.

``S`` is dense (the paper's algorithms maintain all-pairs scores), but a
single monolithic ``n × n`` ndarray couples every reader to every
writer: a snapshot costs a full O(n²) copy and any update invalidates
all concurrent views.  :class:`ScoreStore` instead holds ``S`` in
**row-block shards** — each shard an independently growable 2-D buffer
covering ``shard_rows`` consecutive rows — which buys three things:

* **per-shard plan application**: a kernel
  :class:`~repro.incremental.plan.UpdatePlan` touches only the shards
  overlapping its union supports.  Each of its two passes (block and
  transpose) is one GEMM over the column *span* of the supports, added
  as contiguous slices, one per run of consecutive rows — no
  per-element fancy indexing except for sparse spans.  Each score
  entry still gets exactly one add of the same dot product as in the
  dense reference (bitwise on planner plans; see :meth:`_add_product`);
* **independent growth**: node arrival grows at most the tail shard's
  rows and each shard's column capacity (amortized by doubling), never
  reallocating ``S`` wholesale; and
* **copy-on-write snapshots**: :meth:`snapshot` marks every shard
  shared and hands out read-only views.  The next write to a shared
  shard first clones *that shard only*, so a pinned
  :class:`ScoreSnapshot` keeps serving the frozen version while the
  writer advances — snapshot cost is O(#shards), and memory overhead is
  one shard per shard actually diverged, not O(n²) per version.

The store also quacks like the score matrix for the kernel's read
patterns (``store[:, j]``, ``store[i, j]`` and the column-sparse
``store.column_matvec``), so the Theorem 1–3 precomputation runs
against it unchanged.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dtypes import resolve_dtype
from ..exceptions import DimensionError

#: Default rows per shard.  Small enough that copy-on-write divergence
#: and per-shard growth stay cheap, large enough that few row runs of a
#: plan are split at shard boundaries.
DEFAULT_SHARD_ROWS = 512

#: Apply-strategy crossover (see :meth:`ScoreStore._add_product`): a
#: pass whose column span exceeds this many times its column count takes
#: the ``np.ix_`` scatter instead of a zero-padded span tile, which also
#: caps the tile's padding for any input.  Fitted on the 394 passes of
#: 85 cith-unit and 112 dblp-durable plans (n=2000, 2-core x86,
#: OpenBLAS): the summed apply time is flat within 1% for ratios 3–6
#: and rises 8% at 2 and 33% at 1.5; the 6 dblp passes above 4 scatter
#: 1.4x faster than they tile.
SPARSE_SPAN_RATIO = 4


#: Bucket bounds of the per-applied-plan member count and rank
#: histograms (counts, not seconds).
PLAN_MEMBER_BUCKETS = (1, 2, 4, 8, 16, 32, 64)
PLAN_RANK_BUCKETS = (4, 8, 16, 32, 64, 128, 256, 512)


class _Shard:
    """One row block of ``S``: a growable buffer plus sharing state."""

    __slots__ = ("base", "rows", "buffer", "shared")

    def __init__(self, base: int, rows: int, buffer: np.ndarray) -> None:
        self.base = int(base)
        self.rows = int(rows)
        self.buffer = buffer
        #: True while any snapshot may still reference ``buffer``; the
        #: next write clones the buffer and clears the flag.
        self.shared = False


class ScoreSnapshot:
    """An immutable view of ``S`` frozen at one store version.

    Holds read-only row-block views into the shard buffers that were
    live at :meth:`ScoreStore.snapshot` time.  Copy-on-write in the
    store guarantees those buffers are never written again once the
    writer diverges, so every read from this snapshot is bit-identical
    to the state at pin time, forever.
    """

    __slots__ = ("num_nodes", "version", "shard_rows", "dtype", "_views")

    def __init__(
        self,
        num_nodes: int,
        version: int,
        shard_rows: int,
        views: Sequence[np.ndarray],
        dtype: np.dtype,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.version = int(version)
        self.shard_rows = int(shard_rows)
        #: The store's storage dtype, which every frozen view shares.
        self.dtype = np.dtype(dtype)
        self._views = tuple(views)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.num_nodes, self.num_nodes)

    def entry(self, row: int, col: int) -> float:
        """One frozen score ``[S]_{row,col}``."""
        view = self._views[row // self.shard_rows]
        return float(view[row % self.shard_rows, col])

    def row(self, row: int) -> np.ndarray:
        """A copy of frozen row ``row``."""
        view = self._views[row // self.shard_rows]
        return np.array(view[row % self.shard_rows])

    def gather(self, rows, cols) -> list:
        """Frozen scores of many ``(row, col)`` pairs, one read per shard.

        The front door's batched-admission path for ``similarity``
        queries: pairs are grouped by shard and fetched with one
        fancy-indexing read each, instead of one Python-level
        :meth:`entry` call per pair.  Bit-identical to :meth:`entry`
        (both read the same frozen array element and widen through
        ``float``).
        """
        by_shard: dict = {}
        for index, row in enumerate(rows):
            by_shard.setdefault(row // self.shard_rows, []).append(index)
        out = [0.0] * len(rows)
        for shard, indices in by_shard.items():
            local = np.array([rows[i] % self.shard_rows for i in indices])
            cut = np.array([cols[i] for i in indices])
            values = self._views[shard][local, cut]
            for slot, value in zip(indices, values):
                out[slot] = float(value)
        return out

    def column(self, col: int) -> np.ndarray:
        """A copy of frozen column ``col``."""
        out = np.empty(self.num_nodes, dtype=self.dtype)
        cursor = 0
        for view in self._views:
            out[cursor : cursor + view.shape[0]] = view[:, col]
            cursor += view.shape[0]
        return out

    def to_array(self) -> np.ndarray:
        """Materialize the full frozen matrix (a fresh copy)."""
        if not self._views:
            return np.zeros((0, 0), dtype=self.dtype)
        return np.concatenate(self._views, axis=0)

    def iter_blocks(self):
        """Yield ``(base_row, block_view)`` per frozen shard.

        The shard-at-a-time read path: block-wise consumers (the top-k
        shard merge) never need :meth:`to_array`'s dense concatenation.
        """
        cursor = 0
        for view in self._views:
            yield cursor, view
            cursor += view.shape[0]

    def __repr__(self) -> str:
        return (
            f"ScoreSnapshot(n={self.num_nodes}, version={self.version}, "
            f"shards={len(self._views)})"
        )


class ScoreStore:
    """The executor-side owner of ``S``; applies kernel update plans."""

    def __init__(
        self,
        scores: np.ndarray,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        dtype=None,
        telemetry=None,
    ) -> None:
        dtype = resolve_dtype(dtype)
        scores = np.asarray(scores, dtype=dtype)
        if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
            raise DimensionError(
                f"scores must be square, got shape {scores.shape}"
            )
        self._setup(scores.shape[0], shard_rows, dtype, telemetry)
        for base in range(0, self._n, self._shard_rows):
            rows = min(self._shard_rows, self._n - base)
            # order="C" is load-bearing: np.array's default order="K"
            # would inherit an F-ordered source (BLAS results often
            # are), and the row-run slice adds are several times
            # slower on F-ordered shards.
            buffer = np.array(
                scores[base : base + rows], dtype=self._dtype, order="C"
            )
            self._shards.append(_Shard(base, rows, buffer))

    @classmethod
    def from_blocks(
        cls,
        blocks: Sequence[np.ndarray],
        shard_rows: int = DEFAULT_SHARD_ROWS,
        telemetry=None,
    ) -> "ScoreStore":
        """A store over saved row blocks, adopted without copies.

        ``blocks`` are consecutive ``rows × n`` row blocks of ``S`` (a
        checkpoint's shards).  When every block but the last has
        exactly ``shard_rows`` rows, all share one storage dtype and
        each is a writable C-contiguous array, the blocks become the
        shard buffers themselves: the caller hands them over and must
        not touch them again.  Otherwise (a different ``shard_rows``,
        or a legacy checkpoint mixing float32 and float64 blocks) the
        rows are copied block by block into fresh shards of
        ``shard_rows`` rows, in float64 when the dtypes mix, which holds
        every float32 value exactly.  Never assembles a dense ``n × n``
        matrix.
        """
        blocks = list(blocks)
        n = sum(block.shape[0] for block in blocks)
        if any(block.ndim != 2 or block.shape[1] != n for block in blocks):
            raise DimensionError(
                f"score blocks must be row blocks of an {n} x {n} matrix, "
                f"got shapes {[block.shape for block in blocks]}"
            )
        dtypes = {block.dtype for block in blocks}
        dtype = resolve_dtype(np.result_type(*dtypes) if dtypes else None)
        store = cls.__new__(cls)
        store._setup(n, shard_rows, dtype, telemetry)
        shard_rows = store._shard_rows
        last = len(blocks) - 1
        adoptable = all(
            block.dtype == dtype
            and block.flags.c_contiguous
            and block.flags.writeable
            and (
                block.shape[0] == shard_rows
                or (index == last and 0 < block.shape[0] < shard_rows)
            )
            for index, block in enumerate(blocks)
        )
        if adoptable:
            buffers = blocks
        else:
            starts = np.cumsum([0] + [block.shape[0] for block in blocks])
            buffers = []
            for base in range(0, n, shard_rows):
                buffer = np.empty((min(shard_rows, n - base), n), dtype)
                end = base + buffer.shape[0]
                for start, block in zip(starts.tolist(), blocks):
                    lo, hi = max(base, start), min(end, start + block.shape[0])
                    if lo < hi:
                        buffer[lo - base : hi - base] = block[
                            lo - start : hi - start
                        ]
                buffers.append(buffer)
        base = 0
        for buffer in buffers:
            store._shards.append(_Shard(base, buffer.shape[0], buffer))
            base += buffer.shape[0]
        return store

    def _setup(self, n: int, shard_rows: int, dtype, telemetry) -> None:
        """Shape, bookkeeping and instruments of an empty shard list."""
        if shard_rows <= 0:
            raise DimensionError(f"shard_rows must be positive: {shard_rows}")
        self._dtype = dtype
        self._n = int(n)
        self._shard_rows = int(shard_rows)
        self._shards: List[_Shard] = []
        #: Optional shard-local top-k observer, notified on mutations.
        self._topk = None
        #: Monotone counter bumped by every mutation (mirrors
        #: :attr:`TransitionStore.version`).
        self.version = 0
        #: Shard buffers cloned by copy-on-write since construction.
        self.cow_copies = 0
        self.bind_telemetry(telemetry)

    def bind_telemetry(self, telemetry) -> None:
        """Register the store's instruments in ``telemetry`` (None: off).

        Recovery replays the WAL into a store without telemetry and then
        binds the service's, so replayed plans are not counted as served
        ones.
        """
        if telemetry is None:
            from ..telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self._telemetry = telemetry
        #: Per-plan apply latency histogram, the one record of applied
        #: plans (see :meth:`apply_report`); the shared null instrument
        #: when telemetry is off, so the hot path never branches.
        registry = telemetry.registry
        self._apply_hist = registry.histogram(
            "repro_executor_apply_plan_seconds",
            help="Per-plan apply wall time (panels, GEMMs and adds)",
        )
        #: How much each applied plan carries: a drain applies its row
        #: groups' plans fused into one (see
        #: :func:`~repro.incremental.plan.fuse_plans`).
        self._members_hist = registry.histogram(
            "repro_executor_plan_members",
            buckets=PLAN_MEMBER_BUCKETS,
            help="Member plans fused into each applied plan",
        )
        self._rank_hist = registry.histogram(
            "repro_executor_plan_rank",
            buckets=PLAN_RANK_BUCKETS,
            help="Rank (factor pairs) of each applied plan",
        )
        #: Plan passes by apply strategy (see :meth:`_add_product`).
        self._slice_passes = registry.counter(
            "repro_executor_apply_slice_passes_total",
            help="Plan passes added as contiguous row-run slices",
        )
        self._fancy_passes = registry.counter(
            "repro_executor_apply_fancy_passes_total",
            help="Plan passes scattered through np.ix_ (sparse column span)",
        )

    # -------------------------------------------------------------- #
    # Shape / reads
    # -------------------------------------------------------------- #

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._n)

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_rows(self) -> int:
        """Rows per shard (all shards but the last are full)."""
        return self._shard_rows

    @property
    def dtype(self) -> np.dtype:
        """The storage dtype of every shard (float64 or float32)."""
        return self._dtype

    def _live(self, shard: _Shard) -> np.ndarray:
        """The shard's live ``rows × n`` window (read-only by contract)."""
        return shard.buffer[: shard.rows, : self._n]

    def shard_block(self, index: int) -> Tuple[int, np.ndarray]:
        """``(base_row, live block view)`` of shard ``index`` (read-only)."""
        shard = self._shards[index]
        return shard.base, self._live(shard)

    def iter_shard_blocks(self):
        """Yield ``(base_row, live block view)`` per shard (read-only)."""
        for shard in self._shards:
            yield shard.base, self._live(shard)

    def attach_topk(self, index) -> None:
        """Register ``index`` as the shard-local top-k observer.

        The store notifies it on every mutation (:meth:`apply_plan`
        patches the affected pairs; dense rewrites and node arrival
        invalidate).  At most one observer is attached; a new one
        replaces the old.
        """
        self._topk = index

    @property
    def topk(self):
        """The attached shard-local top-k index, or None."""
        return self._topk

    @property
    def telemetry(self):
        """The telemetry facade the store's instruments register in."""
        return self._telemetry

    def apply_report(self) -> dict:
        """Applied plans and their wall time, off the apply histogram.

        ``recent_plan_ms`` holds the histogram's bucket-interpolated
        percentiles in ms.  Every value reads zero when telemetry is
        disabled.
        """
        hist = self._apply_hist
        digest = hist.summary()
        return {
            "plans": hist.count,
            "apply_seconds": hist.sum,
            "mean_plan_seconds": digest["mean"],
            "recent_plan_ms": {
                "count": hist.count,
                **{q: digest[q] * 1e3 for q in ("p50", "p95", "p99")},
            },
        }

    def entry(self, row: int, col: int) -> float:
        """One score ``[S]_{row,col}``."""
        shard = self._shards[row // self._shard_rows]
        return float(shard.buffer[row - shard.base, col])

    def row(self, row: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """A copy of row ``row`` (into ``out`` when given)."""
        shard = self._shards[row // self._shard_rows]
        if out is None:
            out = np.empty(self._n, dtype=self._dtype)
        np.copyto(out, shard.buffer[row - shard.base, : self._n])
        return out

    def column(self, col: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """A copy of column ``col`` — a contiguous gather across shards."""
        if out is None:
            out = np.empty(self._n, dtype=self._dtype)
        for shard in self._shards:
            out[shard.base : shard.base + shard.rows] = shard.buffer[
                : shard.rows, col
            ]
        return out

    def column_matvec(
        self,
        cols: np.ndarray,
        weights: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Column-sparse ``S[:, cols] @ weights``, one gather per shard.

        The planner's ``S·v`` for a ``v`` supported on ``cols``: it reads
        ``|cols|`` columns instead of the whole ``n × n`` matrix.
        """
        if out is None:
            out = np.empty(
                self._n, dtype=np.result_type(self._dtype, weights.dtype)
            )
        for shard in self._shards:
            np.dot(
                shard.buffer[: shard.rows, cols],
                weights,
                out=out[shard.base : shard.base + shard.rows],
            )
        return out

    def __getitem__(self, key):
        """Score-matrix duck typing for the kernel's read patterns.

        Supports exactly the accesses the Theorem 1–3 precomputation
        performs: ``store[i, j]`` (scalar), ``store[:, j]`` (column
        copy), and ``store[i, :]`` (row copy).
        """
        if isinstance(key, tuple) and len(key) == 2:
            row_key, col_key = key
            row_is_index = isinstance(row_key, (int, np.integer))
            col_is_index = isinstance(col_key, (int, np.integer))
            if row_is_index and col_is_index:
                return self.entry(int(row_key), int(col_key))
            if row_key == slice(None) and col_is_index:
                return self.column(int(col_key))
            if row_is_index and col_key == slice(None):
                return self.row(int(row_key))
        raise TypeError(
            f"ScoreStore supports [i, j], [:, j] and [i, :] reads; got {key!r}"
        )

    def to_array(self) -> np.ndarray:
        """Materialize the full matrix as one fresh dense copy."""
        if not self._shards:
            return np.zeros((0, 0), dtype=self._dtype)
        return np.concatenate(
            [self._live(shard) for shard in self._shards], axis=0
        )

    # -------------------------------------------------------------- #
    # Writes (all funnel through the copy-on-write gate)
    # -------------------------------------------------------------- #

    def _writable(self, shard: _Shard) -> np.ndarray:
        """The shard buffer, cloned first if a snapshot may reference it."""
        if shard.shared:
            shard.buffer = shard.buffer.copy()
            shard.shared = False
            self.cow_copies += 1
        return shard.buffer

    def apply_plan(self, plan) -> None:
        """Apply a kernel :class:`UpdatePlan`: ``ΔS = L·Rᵀ`` plus transpose.

        The plan may be one row group's or a whole drain's fusion of
        them (:func:`~repro.incremental.plan.fuse_plans`); either way it
        is one factored delta.  Adds the panels' block and its
        transpose as two passes of :meth:`_add_product`.  Only shards
        overlapping the supports are touched — and only those pay a
        copy-on-write clone.  With a top-k index attached, the same
        passes collect its promotion hits, which the index then merges
        once per plan.
        """
        if plan.is_noop:
            return
        self._members_hist.observe(len(plan.members) or 1)
        self._rank_hist.observe(plan.rank)
        topk = self._topk
        promotion = topk.promotion_scores() if topk is not None else None
        hits: Dict[int, list] = {}
        started = time.perf_counter()
        self._apply_plan_scatter(plan, promotion, hits)
        self._apply_hist.observe(time.perf_counter() - started)
        self.version += 1
        if topk is not None:
            topk.on_plan(hits)

    def _apply_plan_scatter(self, plan, promotion, hits) -> None:
        """The one copy of the per-plan apply arithmetic.

        Promotion hits land in ``hits`` (see :meth:`_add_product`).
        """
        left, right = plan.panels()
        self._add_product(
            plan.rows_union, plan.cols_union, left, right, promotion, hits
        )
        self._add_product(
            plan.cols_union, plan.rows_union, right, left, promotion, hits,
            transpose=True,
        )

    def _row_segments(self, rows: np.ndarray):
        """Yield ``(shard_id, lo, hi)`` per shard ``rows[lo:hi]`` falls in."""
        first = int(rows[0]) // self._shard_rows
        last = int(rows[-1]) // self._shard_rows
        if first == last:
            yield first, 0, rows.size
            return
        bounds = np.searchsorted(
            rows,
            np.arange(first + 1, last + 1, dtype=np.int64) * self._shard_rows,
        ).tolist()
        for shard_id, lo, hi in zip(
            range(first, last + 1), [0] + bounds, bounds + [rows.size]
        ):
            if lo < hi:
                yield shard_id, lo, hi

    def _add_product(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        promotion: Optional[List[float]],
        hits: Dict[int, list],
        transpose: bool = False,
    ) -> None:
        """``S[rows × cols] += left @ right.T`` with both supports sorted.

        ``left``/``right`` are the plan's panels, so for a fused plan the
        one GEMM carries every member's factors: the rank is the
        members' summed rank and the supports their unions.  Two
        strategies, each adding every entry once as a
        length-``rank`` dot product, like the dense reference
        :func:`~repro.incremental.plan.apply_plan_dense`:

        * *slice runs* — ``right`` is densified over the column span
          ``[cols[0], cols[-1]]`` with zero rows off the support, so one
          GEMM gives a ``|rows| × span`` tile whose padding is exact
          zeros; each maximal run of consecutive rows, split at shard
          boundaries, is then one contiguous slice add.  The padded GEMM
          matched the reference bitwise on planner plans, but BLAS may
          block a larger GEMM differently: an entry can then round
          apart from the reference by a few ulps, never by more than
          ``2·k·eps`` times the entry of ``|L|·|R|ᵀ`` plus its
          transpose (``k`` the rank);
        * *fancy* — the ``np.ix_`` scatter of the support block, when
          the span is more than :data:`SPARSE_SPAN_RATIO` times the
          column count and the padded tile would cost more than it
          saves.  On the ``transpose`` pass (``left``/``right`` swapped)
          the block is ``(right @ left.T).T``, the transpose of the
          first pass's product as the dense reference adds it: BLAS
          does not always round ``R @ Lᵀ`` and ``(L @ Rᵀ)ᵀ`` alike.

        With ``promotion`` (the top-k index's score per shard, or None
        without an index to feed), every region just written is compared
        against its shard's score and the upper-triangle entries ``>=``
        it are appended to ``hits[shard_id]`` as ``(a, b)`` arrays; every
        written shard gets a ``hits`` entry, even an empty one.
        Comparing right after each add catches every entry at its
        final value: the pass that writes an entry last compares it last.
        """
        if rows.size == 0 or cols.size == 0:
            return
        col0 = int(cols[0])
        span = int(cols[-1]) - col0 + 1
        sparse = span > SPARSE_SPAN_RATIO * cols.size
        if sparse:
            self._fancy_passes.inc()
        else:
            self._slice_passes.inc()
            if span != cols.size:
                dense = np.zeros((span, right.shape[1]), dtype=right.dtype)
                dense[cols - col0] = right
                right = dense
            window = slice(col0, col0 + span)
            run_starts = np.flatnonzero(np.diff(rows) != 1) + 1
        if sparse and transpose:
            tile = (right @ left.T).T
        else:
            tile = left @ right.T
        for shard_id, lo, hi in self._row_segments(rows):
            shard = self._shards[shard_id]
            buffer = self._writable(shard)
            score = None if promotion is None else promotion[shard_id]
            if score is not None:
                found = hits.setdefault(shard_id, [])
            if sparse:
                block = np.ix_(rows[lo:hi] - shard.base, cols)
                buffer[block] += tile[lo:hi]
                if score is not None:
                    i, j = np.divmod(
                        np.flatnonzero(buffer[block] >= score), cols.size
                    )
                    a, b = rows[lo:hi][i], cols[j]
                    upper = b > a
                    found.append((a[upper], b[upper]))
            else:
                a, b = np.searchsorted(run_starts, (lo + 1, hi))
                cuts = [lo, *run_starts[a:b].tolist(), hi]
                for k0, k1 in zip(cuts[:-1], cuts[1:]):
                    top = int(rows[k0]) - shard.base
                    buffer[top : top + k1 - k0, window] += tile[k0:k1]
                    if score is None:
                        continue
                    # Columns up to the run's first row are lower-triangle
                    # duplicates of entries the other pass writes.
                    first = max(col0, int(rows[k0]) + 1)
                    if first >= col0 + span:
                        continue
                    written = buffer[top : top + k1 - k0, first : col0 + span]
                    flat = np.flatnonzero(written >= score)
                    if flat.size:
                        i, j = np.divmod(flat, written.shape[1])
                        i += int(rows[k0])
                        j += first
                        upper = j > i
                        found.append((i[upper], j[upper]))

    def add_dense(self, delta: np.ndarray) -> None:
        """``S += delta`` shard by shard (the unpruned Inc-uSR path)."""
        if delta.shape != self.shape:
            raise DimensionError(
                f"delta shape {delta.shape} != {self.shape}"
            )
        for shard in self._shards:
            buffer = self._writable(shard)
            buffer[: shard.rows, : self._n] += delta[
                shard.base : shard.base + shard.rows
            ]
        self.version += 1
        if self._topk is not None:
            self._topk.invalidate_all()

    def replace_dense(self, scores: np.ndarray) -> None:
        """Overwrite all scores (batch recomputation path).

        The assignment casts into the store's dtype.
        """
        scores = np.asarray(scores)
        if scores.shape != self.shape:
            raise DimensionError(
                f"scores shape {scores.shape} != {self.shape}"
            )
        for shard in self._shards:
            buffer = self._writable(shard)
            buffer[: shard.rows, : self._n] = scores[
                shard.base : shard.base + shard.rows
            ]
        self.version += 1
        if self._topk is not None:
            self._topk.invalidate_all()

    def set_entry(self, row: int, col: int, value: float) -> None:
        """Write one score (node-arrival self-score)."""
        shard = self._shards[row // self._shard_rows]
        buffer = self._writable(shard)
        buffer[row - shard.base, col] = value
        self.version += 1
        if self._topk is not None:
            self._topk.on_entry(row, col)

    def add_node(self) -> int:
        """Grow to ``n + 1`` nodes; returns the new (all-zero) row id.

        The tail shard's row window grows (doubling its buffer rows up
        to ``shard_rows``) or a fresh shard is opened; every shard's
        column capacity grows by doubling when ``n`` outruns it.  The
        new row and column read as zeros by construction: buffers are
        zero-allocated and writes never exceed the live window.
        """
        node = self._n
        self._n += 1
        # Column capacity first (all shards must span the new column).
        for shard in self._shards:
            if self._n > shard.buffer.shape[1]:
                grown = np.zeros(
                    (shard.buffer.shape[0], max(2 * shard.buffer.shape[1], self._n)),
                    dtype=self._dtype,
                )
                grown[:, : shard.buffer.shape[1]] = shard.buffer
                shard.buffer = grown
                shard.shared = False  # fresh allocation, provably private
        tail = self._shards[-1] if self._shards else None
        if tail is not None and tail.rows < self._shard_rows:
            if tail.rows + 1 > tail.buffer.shape[0]:
                rows_cap = min(
                    self._shard_rows, max(2 * tail.buffer.shape[0], 1)
                )
                grown = np.zeros(
                    (rows_cap, tail.buffer.shape[1]), dtype=self._dtype
                )
                grown[: tail.rows] = tail.buffer[: tail.rows]
                tail.buffer = grown
                tail.shared = False
            tail.rows += 1
        else:
            base = node
            buffer = np.zeros((1, max(self._n, 1)), dtype=self._dtype)
            self._shards.append(_Shard(base, 1, buffer))
        self.version += 1
        if self._topk is not None:
            self._topk.on_add_node()
        return node

    # -------------------------------------------------------------- #
    # Snapshots
    # -------------------------------------------------------------- #

    def snapshot(self) -> ScoreSnapshot:
        """Pin the current version as an immutable :class:`ScoreSnapshot`.

        O(#shards): marks every shard shared and returns read-only
        views of the live windows.  Later writes clone the affected
        shard buffers first, so the snapshot stays bit-identical to the
        pinned version no matter what the writer does next.
        """
        views = []
        for shard in self._shards:
            shard.shared = True
            view = self._live(shard)
            view.flags.writeable = False
            views.append(view)
        return ScoreSnapshot(
            self._n, self.version, self._shard_rows, views, self._dtype
        )

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #

    def nbytes(self) -> int:
        """Logical bytes of the live ``n × n`` scores at storage itemsize."""
        return self._n * self._n * self._dtype.itemsize

    def buffer_bytes(self) -> int:
        """Allocated bytes across all shard buffers (slack included)."""
        return sum(shard.buffer.nbytes for shard in self._shards)

    def shard_report(self) -> List[dict]:
        """Per-shard accounting (rows, allocation, sharing state)."""
        return [
            {
                "base": shard.base,
                "rows": shard.rows,
                "buffer_bytes": shard.buffer.nbytes,
                "shared": shard.shared,
            }
            for shard in self._shards
        ]

    def dtype_report(self) -> dict:
        """Storage dtype and live-score bytes for the observability surface."""
        return {
            "score_dtype": self._dtype.name,
            "score_dtype_bytes": self.nbytes(),
        }

    def shared_shard_count(self) -> int:
        """Shards currently marked copy-on-write (pinned by snapshots)."""
        return sum(1 for shard in self._shards if shard.shared)

    def __repr__(self) -> str:
        return (
            f"ScoreStore(n={self._n}, shards={len(self._shards)}, "
            f"shard_rows={self._shard_rows}, version={self.version})"
        )
