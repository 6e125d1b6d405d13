"""Shard-local incremental top-k maintenance over the sharded score store.

``top_k()`` used to materialize the full ``S`` matrix and scan all
O(n²) upper-triangle entries on every call — exactly the dense pass the
low-rank :class:`~repro.incremental.plan.UpdatePlan` machinery exists to
avoid.  This module keeps the ranking *incremental* and *shard-local*:

* Each :class:`~repro.executor.score_store.ScoreStore` row-block shard
  owns the canonical pairs ``(a, b)`` with ``a < b`` whose row ``a``
  falls in the shard.  :class:`ShardTopK` keeps, per shard, the shard's
  exact best pairs as three parallel arrays (rows, columns, scores)
  under the same deterministic order as
  :func:`~repro.metrics.topk.top_k_pairs` — descending score, ties by
  ``(a, b)`` — plus a **floor**, the key of the best untracked pair.
  Invariant: every tracked key < floor <= every untracked key, so the
  tracked set is always the shard's exact top-|tracked|.
* When the store applies an :class:`~repro.incremental.plan.UpdatePlan`
  it compares each slice it writes against the written shard's floor
  score and hands the index the entries at or above it (promotion
  hits).  The index then patches each written shard with one vectorised
  merge: refresh the tracked scores, append the hits, drop every key at
  or below the floor (a tracked pair that sank there is simply
  untracked), and trim back to ``capacity`` — the first discarded key
  becomes the new floor.  A plan costs work proportional to its
  affected area; nothing is marked for a rescan.
* A query merges the tracked sets, then rescans only the shards whose
  floor beats the merged k-th key (those that untracked too many pairs
  to vouch for it), and merges again.  Whole-index rescans happen only
  at the first build and after a dense rewrite or node arrival.

The index's counters (queries, clean queries, shard rescans, untracked
and promoted pairs) live on the telemetry registry as ``repro_topk_*``.

:func:`top_k_from_blocks` is the scan-based sibling used by frozen
:class:`~repro.executor.score_store.ScoreSnapshot` views: it selects
candidates one row block at a time (never concatenating the shards into
a dense ``n × n`` matrix) and merges them with the same deterministic
order, so snapshot and incremental rankings are bit-identical to the
brute-force reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import DimensionError

#: Total-order key — ascending key = better pair (score desc, then pair
#: order), matching :func:`repro.metrics.topk.top_k_pairs` exactly.
PairKey = Tuple[float, int, int]
ScoredPair = Tuple[int, int, float]
#: Promotion hits of one shard: ``(a, b)`` index arrays, possibly
#: overlapping the tracked set and each other.
Hits = List[Tuple[np.ndarray, np.ndarray]]

_NO_INT = np.zeros(0, dtype=np.int64)
_NO_FLOAT = np.zeros(0, dtype=np.float64)


def _key(a: int, b: int, score: float) -> PairKey:
    return (-score, a, b)


def _select(
    a: np.ndarray, b: np.ndarray, s: np.ndarray, k: int
) -> List[ScoredPair]:
    """The best ``k`` of parallel candidate arrays, in ranking order."""
    order = np.lexsort((b, a, -s))[:k]
    return [(int(a[i]), int(b[i]), float(s[i])) for i in order]


def _trim(a: np.ndarray, b: np.ndarray, s: np.ndarray, capacity: int):
    """The best ``capacity`` of more candidates, plus the first dropped key.

    Returns ``(a, b, s, floor)``: the kept arrays in ranking order and
    the key of the best discarded pair — the new floor.
    """
    order = np.lexsort((b, a, -s))
    cut = order[capacity]
    floor = _key(int(a[cut]), int(b[cut]), float(s[cut]))
    order = order[:capacity]
    return a[order], b[order], s[order], floor


def _block_candidates(
    block: np.ndarray, base: int, limit: int, include_self: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Deterministic top-``limit`` upper-triangle entries of one row block.

    ``block`` covers global rows ``base .. base + rows``; only entries
    with ``col > row`` (``>=`` when ``include_self``) participate, so the
    scan starts at the first column any row may use and blanks only the
    strict lower triangle of the ``rows × rows`` square on the diagonal.
    Returns ``(a, b, scores, truncated)`` — int64, int64 and float64
    arrays, unordered — where ``truncated`` is True when valid entries
    were discarded, i.e. the block held more than ``limit`` of them.
    Ties at the cut-off score are kept in ``(row, col)`` order, which is
    the row-major order ``np.flatnonzero`` yields.
    """
    rows, n = block.shape
    first = base + (0 if include_self else 1)
    width = n - first
    if rows == 0 or width <= 0 or limit <= 0:
        return _NO_INT, _NO_INT, _NO_FLOAT, False
    work = np.array(block[:, first:], dtype=np.float64)
    # Local row i may use local columns j >= i.
    side = min(rows, width)
    lower = np.tri(side, side, -1, dtype=bool)
    work[:side, :side][lower] = -np.inf
    work[side:] = -np.inf
    flat = work.ravel()
    valid = rows * width - side * (side - 1) // 2 - (rows - side) * width
    if valid <= limit:
        keep = np.ones(work.shape, dtype=bool)
        keep[:side, :side][lower] = False
        keep[side:] = False
        index = np.flatnonzero(keep)
        truncated = False
    else:
        cut = flat.size - limit
        threshold = np.partition(flat, cut)[cut]
        index = np.flatnonzero(flat > threshold)
        ties = np.flatnonzero(flat == threshold)[: limit - index.size]
        index = np.concatenate((index, ties))
        truncated = True
    i, j = np.divmod(index, width)
    return base + i, first + j, flat[index], truncated


def top_k_from_blocks(
    blocks: Iterable[Tuple[int, np.ndarray]],
    k: int,
    include_self: bool = False,
) -> List[ScoredPair]:
    """Global top-``k`` pairs from ``(base, row_block)`` views.

    The shard-merge sibling of
    :func:`~repro.metrics.topk.top_k_pairs`: identical output (same
    deterministic tie order), but the selection runs one row block at a
    time — at most ``k`` candidates survive per block, and the final
    merge touches ``O(blocks · k)`` candidates — so the full ``n × n``
    matrix is never materialized.
    """
    if k < 0:
        raise DimensionError(f"k must be >= 0, got {k}")
    if k == 0:
        return []
    parts = [
        _block_candidates(view, base, k, include_self)[:3]
        for base, view in blocks
    ]
    if not parts:
        return []
    a, b, s = (np.concatenate(column) for column in zip(*parts))
    return _select(a, b, s, k)


class _ShardState:
    """One shard's exact top-|tracked| pairs as parallel arrays.

    ``a``/``b``/``s`` hold the tracked canonical pairs and their scores
    (widened to float64).  ``floor`` is the key of the best untracked
    pair, or ``None`` while the shard tracks every pair it owns.
    Invariant: every tracked key < ``floor`` <= every untracked key.
    """

    __slots__ = ("a", "b", "s", "floor")

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        s: np.ndarray,
        floor: Optional[PairKey],
    ) -> None:
        self.a = a
        self.b = b
        self.s = s
        self.floor = floor


class ShardTopK:
    """Incrementally maintained top-k pairs over a live :class:`ScoreStore`.

    Parameters
    ----------
    store:
        The live sharded score store; the index attaches itself as the
        store's top-k observer and is patched on every mutation.  Its
        telemetry registry holds the index's ``repro_topk_*`` counters
        (null instruments when telemetry is off).
    k:
        Default ranking size.
    capacity:
        Pairs tracked per shard (default ``max(2k, 16)``) and the largest
        ranking the index serves.  The slack above ``k`` absorbs sunk
        pairs before a query has to rescan a shard.
    """

    def __init__(
        self,
        store,
        k: int,
        capacity: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise DimensionError(f"k must be >= 1, got {k}")
        self._store = store
        self.k = int(k)
        self.capacity = (
            int(capacity) if capacity is not None else max(2 * self.k, 16)
        )
        if self.capacity < self.k:
            raise DimensionError(
                f"capacity {self.capacity} must be >= k {self.k}"
            )
        #: None means "every shard needs a scan" (first build, dense
        #: mutation, node arrival); rebuilt at the next query.
        self._shards: Optional[List[_ShardState]] = None
        registry = store.telemetry.registry
        self._queries = registry.counter(
            "repro_topk_queries_total", help="Top-k index queries"
        )
        self._clean_queries = registry.counter(
            "repro_topk_clean_queries_total",
            help="Top-k queries answered without a shard rescan",
        )
        self._shard_reads = registry.counter(
            "repro_topk_shard_reads_total",
            help="Shards consulted by top-k queries",
        )
        self._rescans = registry.counter(
            "repro_topk_shard_rescans_total",
            help="Top-k shard rescans (builds and shards that ran short)",
        )
        self._untracked = registry.counter(
            "repro_topk_untracked_pairs_total",
            help="Tracked pairs that sank to their shard's floor",
        )
        self._promoted = registry.counter(
            "repro_topk_promoted_pairs_total",
            help="Untracked pairs promoted above their shard's floor",
        )
        store.attach_topk(self)

    # -------------------------------------------------------------- #
    # Store notifications (called by ScoreStore on every mutation)
    # -------------------------------------------------------------- #

    def invalidate_all(self) -> None:
        """Dense mutation / node arrival: every shard rescans lazily."""
        self._shards = None

    def on_add_node(self) -> None:
        """Node arrival adds a zero column pair to every shard."""
        self.invalidate_all()

    def promotion_scores(self) -> Optional[List[float]]:
        """Per-shard score that written entries are compared against.

        ``None`` while every shard awaits a scan; otherwise each
        shard's floor score, or ``+inf`` for a shard that tracks every
        pair it owns.  An upper-triangle entry a plan leaves at ``>=``
        this score may now beat the floor — a promotion hit.
        """
        if self._shards is None:
            return None
        return [
            np.inf if state.floor is None else -state.floor[0]
            for state in self._shards
        ]

    def on_plan(self, hits: Dict[int, Hits]) -> None:
        """An :class:`UpdatePlan` was applied; merge its promotion hits.

        ``hits`` maps every shard the plan wrote to the ``(a, b)`` arrays
        of the upper-triangle entries the store found at or above that
        shard's :meth:`promotion_scores` entry.  Only written shards can
        hold moved tracked pairs, so each is refreshed and merged; the
        index reads nothing else of the affected area.
        """
        if self._shards is None:
            return
        for shard_id, found in hits.items():
            self._patch(shard_id, found)

    def on_entry(self, row: int, col: int) -> None:
        """One score was overwritten; patch its canonical pair."""
        if self._shards is None or row == col:
            return
        a, b = (row, col) if row < col else (col, row)
        pair = (np.array([a], dtype=np.int64), np.array([b], dtype=np.int64))
        self._patch(a // self._store.shard_rows, [pair])

    # -------------------------------------------------------------- #
    # Patching internals
    # -------------------------------------------------------------- #

    def _patch(self, shard_id: int, found: Hits) -> None:
        """Refresh, promote, untrack and trim one shard."""
        state = self._shards[shard_id]
        base, block = self._store.shard_block(shard_id)
        a, b = state.a, state.b
        s = block[a - base, b].astype(np.float64, copy=False)
        tracked = a.size
        if found:
            # First occurrences of the pair codes, tracked pairs first:
            # the survivors past ``tracked`` are the new, distinct hits.
            width = self._store.num_nodes
            codes = np.concatenate(
                [a * width + b] + [ha * width + hb for ha, hb in found]
            )
            _, first = np.unique(codes, return_index=True)
            fresh = codes[first[first >= tracked]]
            if fresh.size:
                ha, hb = np.divmod(fresh, width)
                a = np.concatenate((a, ha))
                b = np.concatenate((b, hb))
                s = np.concatenate((s, block[ha - base, hb]))
        if state.floor is not None:
            floor_neg, floor_a, floor_b = state.floor
            floor_score = -floor_neg
            keep = (s > floor_score) | (
                (s == floor_score)
                & ((a < floor_a) | ((a == floor_a) & (b < floor_b)))
            )
            sunk = tracked - int(np.count_nonzero(keep[:tracked]))
            promoted = int(np.count_nonzero(keep[tracked:]))
            a, b, s = a[keep], b[keep], s[keep]
        else:
            sunk, promoted = 0, a.size - tracked
        if a.size > self.capacity:
            a, b, s, state.floor = _trim(a, b, s, self.capacity)
        state.a, state.b, state.s = a, b, s
        if sunk:
            self._untracked.inc(sunk)
        if promoted:
            self._promoted.inc(promoted)

    def _scan(self, shard_id: int) -> _ShardState:
        """Rebuild one shard from its block: top-``capacity`` plus floor."""
        base, block = self._store.shard_block(shard_id)
        a, b, s, _ = _block_candidates(block, base, self.capacity + 1)
        if a.size <= self.capacity:
            return _ShardState(a, b, s, None)
        return _ShardState(*_trim(a, b, s, self.capacity))

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #

    def dirty_shards(self) -> int:
        """Shards that need a scan at the next query."""
        return self._store.num_shards if self._shards is None else 0

    def _merge(self, k: int) -> List[ScoredPair]:
        shards = self._shards
        if not shards:
            return []
        return _select(
            np.concatenate([state.a for state in shards]),
            np.concatenate([state.b for state in shards]),
            np.concatenate([state.s for state in shards]),
            k,
        )

    def top_k(self, k: Optional[int] = None) -> List[ScoredPair]:
        """The global top-``k`` pairs, merged across the shards' tracked sets.

        Bit-identical to ``top_k_pairs(store.to_array(), k)`` — same
        scores, same deterministic tie order — without materializing
        ``S``, for every ``k`` up to ``capacity``.  A shard is rescanned
        only when its floor beats the merged k-th key (or fewer than
        ``k`` pairs were merged): then untracked pairs could belong in
        the answer.  A query that rescanned nothing counts as clean.
        """
        k = self.k if k is None else int(k)
        if k < 0:
            raise DimensionError(f"k must be >= 0, got {k}")
        if k > self.capacity:
            raise DimensionError(
                f"k={k} exceeds the index capacity {self.capacity}; "
                f"build a larger ShardTopK"
            )
        self._queries.inc()
        if k == 0:
            self._clean_queries.inc()
            return []
        rescans = 0
        if self._shards is None:
            self._shards = [
                self._scan(shard_id)
                for shard_id in range(self._store.num_shards)
            ]
            rescans = len(self._shards)
        self._shard_reads.inc(len(self._shards))
        best = self._merge(k)
        kth = _key(*best[-1]) if len(best) == k else None
        short = [
            shard_id
            for shard_id, state in enumerate(self._shards)
            if state.floor is not None and (kth is None or state.floor < kth)
        ]
        if short:
            for shard_id in short:
                self._shards[shard_id] = self._scan(shard_id)
            rescans += len(short)
            best = self._merge(k)
        if rescans:
            self._rescans.inc(rescans)
        else:
            self._clean_queries.inc()
        return best

    def report(self) -> dict:
        """The ``metrics_report()["topk"]`` section, read off the counters.

        Counters are per telemetry registry, so they accumulate across
        indexes that replace each other and read zero when telemetry is
        off.  ``patched_entries`` counts promoted pairs and
        ``floor_invalidations`` counts untracked (sunk) pairs.
        """
        queries = self._queries.value
        reads = self._shard_reads.value
        rescans = self._rescans.value
        return {
            "k": self.k,
            "capacity": self.capacity,
            "heap_hit_rate": 1.0 - rescans / reads if reads else 0.0,
            "clean_query_rate": (
                self._clean_queries.value / queries if queries else 0.0
            ),
            "queries": int(queries),
            "shard_rescans": int(rescans),
            "patched_entries": int(self._promoted.value),
            "floor_invalidations": int(self._untracked.value),
            "dirty_shards": self.dirty_shards(),
        }

    def __repr__(self) -> str:
        return (
            f"ShardTopK(k={self.k}, capacity={self.capacity}, "
            f"dirty={self.dirty_shards()}/{self._store.num_shards})"
        )
