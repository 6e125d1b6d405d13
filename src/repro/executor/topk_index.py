"""Shard-local incremental top-k maintenance over the sharded score store.

``top_k()`` used to materialize the full ``S`` matrix and scan all
O(n²) upper-triangle entries on every call — exactly the dense pass the
low-rank :class:`~repro.incremental.plan.UpdatePlan` machinery exists to
avoid.  This module keeps the ranking *incremental* and *shard-local*:

* Each :class:`~repro.executor.score_store.ScoreStore` row-block shard
  owns the canonical pairs ``(a, b)`` with ``a < b`` whose row ``a``
  falls in the shard.  :class:`ShardTopK` keeps, per shard, a small
  candidate set (a dict plus a lazy-deletion heap) of the shard's best
  ``capacity`` pairs under the same deterministic order as
  :func:`~repro.metrics.topk.top_k_pairs` — descending score, ties by
  ``(a, b)``.
* When the executor applies an :class:`~repro.incremental.plan.UpdatePlan`,
  only the pairs inside the plan's affected supports
  (``rows_union × cols_union`` and its transpose) can have moved, so the
  index patches exactly those pairs in the overlapping shards.  A shard
  pays a lazy re-scan only when its **heap floor is invalidated** — a
  tracked candidate falls to or below the score floor beneath which
  entries were previously discarded, so untracked pairs could now
  outrank it.  Dirty shards are re-scanned at the next query, not
  eagerly.
* A query merges the per-shard candidate sets k-way —
  O(shards · capacity) candidates through a size-k heap instead of an
  O(n²) dense scan — and :class:`TopKStats` records the ``heap_hit_rate``
  (queries answered purely from the maintained heaps).

:func:`top_k_from_blocks` is the scan-based sibling used by frozen
:class:`~repro.executor.score_store.ScoreSnapshot` views: it selects
candidates one row block at a time (never concatenating the shards into
a dense ``n × n`` matrix) and merges them with the same deterministic
order, so snapshot and incremental rankings are bit-identical to the
brute-force reference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import DimensionError

Pair = Tuple[int, int]
#: Total-order key — ascending key = better pair (score desc, then pair
#: order), matching :func:`repro.metrics.topk.top_k_pairs` exactly.
PairKey = Tuple[float, int, int]
ScoredPair = Tuple[int, int, float]


def _key(a: int, b: int, score: float) -> PairKey:
    return (-score, a, b)


def _block_candidates(
    block: np.ndarray, base: int, limit: int, include_self: bool = False
) -> Tuple[List[ScoredPair], bool]:
    """Deterministic top-``limit`` upper-triangle entries of one row block.

    ``block`` covers global rows ``base .. base + rows``; only entries
    with ``col > row`` (``>=`` when ``include_self``) participate.
    Returns ``(candidates, truncated)`` where ``truncated`` is True when
    valid entries were discarded — i.e. the block held more than
    ``limit`` of them.  Tie handling matches ``top_k_pairs``: entries
    equal to the cut-off score are kept in ``(row, col)`` order, which is
    exactly the row-major order ``np.nonzero`` yields.
    """
    rows, n = block.shape
    if rows == 0 or n == 0 or limit <= 0:
        return [], False
    offset = 0 if include_self else 1
    row_ids = np.arange(base, base + rows, dtype=np.int64)
    invalid = np.arange(n, dtype=np.int64)[None, :] < (
        row_ids[:, None] + offset
    )
    valid_count = rows * n - int(invalid.sum())
    if valid_count <= 0:
        return [], False
    work = np.array(block, dtype=np.float64)
    work[invalid] = -np.inf
    if valid_count <= limit:
        r, c = np.nonzero(~invalid)
        return (
            [
                (int(base + i), int(j), float(work[i, j]))
                for i, j in zip(r, c)
            ],
            False,
        )
    flat = work.ravel()
    threshold = float(np.partition(flat, flat.size - limit)[flat.size - limit])
    above = work > threshold
    r, c = np.nonzero(above)
    out = [
        (int(base + i), int(j), float(work[i, j])) for i, j in zip(r, c)
    ]
    need = limit - len(out)
    if need > 0:
        tr, tc = np.nonzero(work == threshold)
        for i, j in zip(tr[:need], tc[:need]):
            out.append((int(base + i), int(j), threshold))
    return out, True


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
    k-way merge touches ``O(blocks · k)`` candidates — so the full
    ``n × n`` matrix is never materialized.
    """
    if k < 0:
        raise DimensionError(f"k must be >= 0, got {k}")
    if k == 0:
        return []
    candidates: List[ScoredPair] = []
    for base, view in blocks:
        candidates.extend(_block_candidates(view, base, k, include_self)[0])
    best = heapq.nsmallest(k, candidates, key=lambda t: _key(t[0], t[1], t[2]))
    return [(a, b, float(s)) for a, b, s in best]


@dataclass
class TopKStats:
    """Lifetime counters of one :class:`ShardTopK` index."""

    queries: int = 0
    heap_hits: int = 0
    shard_queries: int = 0
    shard_rescans: int = 0
    patched_entries: int = 0
    floor_invalidations: int = 0
    full_invalidations: int = 0

    def heap_hit_rate(self) -> float:
        """Fraction of per-query shard reads served from the heaps.

        Each query consults every shard; a shard counts as a hit when
        its candidate heap was still valid (no re-scan needed).  1.0
        means pure incremental maintenance; the complement is the
        fraction of shard visits that paid a lazy re-scan.
        """
        if self.shard_queries == 0:
            return 0.0
        return 1.0 - self.shard_rescans / self.shard_queries

    def clean_query_rate(self) -> float:
        """Fraction of queries that re-scanned no shard at all."""
        if self.queries == 0:
            return 0.0
        return self.heap_hits / self.queries


class _ShardHeap:
    """One shard's candidate set: tracked pairs + lazy-deletion heap.

    ``entries`` maps each tracked canonical pair to its current score.
    ``heap`` holds ``(score, -a, -b)`` records (min-heap top = worst
    tracked pair under the ranking order); records go stale when a pair
    is re-scored, and are dropped lazily when their score no longer
    matches ``entries``.  ``floor`` is the key of the best pair ever
    *discarded* from this shard — every untracked pair's key is ``>=``
    ``floor`` — or ``None`` while nothing has been discarded (every pair
    of the shard is tracked).
    """

    __slots__ = ("entries", "heap", "floor", "dirty")

    def __init__(self) -> None:
        self.entries: Dict[Pair, float] = {}
        self.heap: List[Tuple[float, int, int]] = []
        self.floor: Optional[PairKey] = None
        self.dirty = True


class ShardTopK:
    """Incrementally maintained top-k pairs over a live :class:`ScoreStore`.

    Parameters
    ----------
    store:
        The live sharded score store; the index attaches itself as the
        store's top-k observer and is patched on every mutation.
    k:
        Largest ranking size the index serves.
    capacity:
        Candidates kept per shard (default ``max(2k, 16)``) — the slack
        above ``k`` is what lets score *decreases* usually stay local
        instead of forcing a shard re-scan.
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
        #: Monotone counter bumped whenever the candidate state moves —
        #: the cheap "did any ranking possibly change since I last
        #: looked?" signal the front door's top-k subscriptions poll
        #: after each drain.  Read it *before* a query, and again after,
        #: to absorb the bumps the query's own lazy re-scans produce.
        self.revision = 0
        #: None means "everything dirty" (initial state / after a dense
        #: mutation); rebuilt lazily at the next query.
        self._shards: Optional[List[_ShardHeap]] = None
        self.stats = TopKStats()
        store.attach_topk(self)

    # -------------------------------------------------------------- #
    # Store notifications (called by ScoreStore on every mutation)
    # -------------------------------------------------------------- #

    def invalidate_all(self) -> None:
        """Dense mutation / node arrival: every shard re-scans lazily."""
        self._shards = None
        self.revision += 1
        self.stats.full_invalidations += 1

    def on_add_node(self) -> None:
        """Node arrival adds a zero column pair to every shard."""
        self.invalidate_all()

    def on_entry(self, row: int, col: int) -> None:
        """One score was overwritten; patch its canonical pair."""
        if self._shards is None or row == col:
            return
        a, b = (row, col) if row < col else (col, row)
        shard_id = a // self._store.shard_rows
        if shard_id >= len(self._shards):
            self.invalidate_all()
            return
        state = self._shards[shard_id]
        if state.dirty:
            return
        value = self._store.entry(a, b)
        pair = (a, b)
        before = self.stats.patched_entries + self.stats.floor_invalidations
        if pair in state.entries:
            self._update_tracked(state, pair, value)
        else:
            self._insert(state, pair, value)
        if before != self.stats.patched_entries + self.stats.floor_invalidations:
            self.revision += 1

    def on_plan(self, plan) -> None:
        """An :class:`UpdatePlan` was applied; patch its affected pairs.

        The plan touched ``rows_union × cols_union`` and the transpose,
        so the canonical pairs that may have moved are exactly
        ``{(min(i, j), max(i, j)) : i ∈ rows_union, j ∈ cols_union}``.
        Each overlapping, non-dirty shard refreshes its tracked pairs in
        the affected set and promotes untracked affected pairs that now
        beat its floor.
        """
        if self._shards is None:
            return
        rows = plan.rows_union
        cols = plan.cols_union
        if rows.size == 0 or cols.size == 0:
            return
        shard_rows = self._store.shard_rows
        row_set = set(int(i) for i in rows)
        col_set = set(int(j) for j in cols)
        first = int(min(rows[0], cols[0])) // shard_rows
        last = min(
            int(max(rows[-1], cols[-1])) // shard_rows,
            len(self._shards) - 1,
        )
        for shard_id in range(first, last + 1):
            state = self._shards[shard_id]
            if state.dirty:
                continue
            before = (
                self.stats.patched_entries + self.stats.floor_invalidations
            )
            self._patch_shard(state, shard_id, rows, cols, row_set, col_set)
            after = (
                self.stats.patched_entries + self.stats.floor_invalidations
            )
            if before != after:
                self.revision += 1

    # -------------------------------------------------------------- #
    # Patching internals
    # -------------------------------------------------------------- #

    def _patch_shard(
        self,
        state: _ShardHeap,
        shard_id: int,
        rows: np.ndarray,
        cols: np.ndarray,
        row_set: set,
        col_set: set,
    ) -> None:
        base, block = self._store.shard_block(shard_id)
        # 1) Tracked pairs inside the affected set: refresh from the
        #    (already updated) store.  A pair falling to/under the floor
        #    invalidates the shard — stop, the re-scan covers the rest.
        for pair in list(state.entries):
            a, b = pair
            if (a in row_set and b in col_set) or (
                a in col_set and b in row_set
            ):
                self._update_tracked(state, pair, float(block[a - base, b]))
                if state.dirty:
                    return
        # 2) Untracked affected pairs now above the floor: promote them.
        #    Two passes cover the scatter block and its transpose; pairs
        #    hit by both are deduplicated by the tracked check.
        span = block.shape[0]
        floor_score = -state.floor[0] if state.floor is not None else None
        for a_all, b_all in ((rows, cols), (cols, rows)):
            lo = int(np.searchsorted(a_all, base))
            hi = int(np.searchsorted(a_all, base + span))
            a_part = a_all[lo:hi]
            if a_part.size == 0 or b_all.size == 0:
                continue
            values = block[np.ix_(a_part - base, b_all)]
            mask = b_all[None, :] > a_part[:, None]
            if floor_score is not None:
                mask &= values >= floor_score
            for i, j in zip(*np.nonzero(mask)):
                pair = (int(a_part[i]), int(b_all[j]))
                if pair in state.entries:
                    continue
                self._insert(state, pair, float(values[i, j]))

    def _update_tracked(
        self, state: _ShardHeap, pair: Pair, value: float
    ) -> None:
        if state.entries[pair] == value:
            return
        key = _key(pair[0], pair[1], value)
        if state.floor is not None and key >= state.floor:
            # The pair sank into the discarded region: untracked pairs
            # may now outrank it, so the shard must re-scan.
            state.dirty = True
            self.stats.floor_invalidations += 1
            return
        state.entries[pair] = value
        heapq.heappush(state.heap, (value, -pair[0], -pair[1]))
        self.stats.patched_entries += 1
        self._maybe_compact(state)

    def _insert(self, state: _ShardHeap, pair: Pair, value: float) -> None:
        key = _key(pair[0], pair[1], value)
        if state.floor is not None and key >= state.floor:
            return  # not better than what was already discarded
        state.entries[pair] = value
        heapq.heappush(state.heap, (value, -pair[0], -pair[1]))
        self.stats.patched_entries += 1
        if len(state.entries) > self.capacity:
            self._evict_worst(state)
        self._maybe_compact(state)

    def _evict_worst(self, state: _ShardHeap) -> None:
        while True:
            score, neg_a, neg_b = state.heap[0]
            pair = (-neg_a, -neg_b)
            if state.entries.get(pair) != score:
                heapq.heappop(state.heap)  # stale record
                continue
            heapq.heappop(state.heap)
            del state.entries[pair]
            state.floor = _key(pair[0], pair[1], score)
            return

    def _maybe_compact(self, state: _ShardHeap) -> None:
        if len(state.heap) > 4 * max(len(state.entries), 16):
            state.heap = [
                (score, -a, -b) for (a, b), score in state.entries.items()
            ]
            heapq.heapify(state.heap)

    def _rescan(self, state: _ShardHeap, shard_id: int) -> None:
        base, block = self._store.shard_block(shard_id)
        candidates, truncated = _block_candidates(
            block, base, self.capacity, include_self=False
        )
        state.entries = {(a, b): score for a, b, score in candidates}
        state.heap = [(score, -a, -b) for a, b, score in candidates]
        heapq.heapify(state.heap)
        state.floor = (
            max(_key(a, b, score) for a, b, score in candidates)
            if truncated
            else None
        )
        state.dirty = False
        self.stats.shard_rescans += 1
        self.revision += 1

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #

    def dirty_shards(self) -> int:
        """Shards whose heaps need a re-scan at the next query."""
        if self._shards is None:
            return self._store.num_shards
        return sum(1 for state in self._shards if state.dirty)

    def _materialize(self) -> None:
        """Ensure the per-shard heap list matches the store's shards."""
        count = self._store.num_shards
        if self._shards is None or len(self._shards) != count:
            self._shards = [_ShardHeap() for _ in range(count)]

    def top_k(self, k: Optional[int] = None) -> List[ScoredPair]:
        """The global top-``k`` pairs, k-way merged across shard heaps.

        Bit-identical to ``top_k_pairs(store.to_array(), k)`` — same
        scores, same deterministic tie order — without materializing
        ``S``.  Dirty shards are re-scanned first; a query that needed
        no re-scan counts as a heap hit.
        """
        k = self.k if k is None else int(k)
        if k < 0:
            raise DimensionError(f"k must be >= 0, got {k}")
        if k > self.capacity:
            raise DimensionError(
                f"k={k} exceeds the index capacity {self.capacity}; "
                f"build a larger ShardTopK"
            )
        self.stats.queries += 1
        if k == 0:
            self.stats.heap_hits += 1
            return []
        self._materialize()
        self.stats.shard_queries += len(self._shards)
        hit = True
        for shard_id, state in enumerate(self._shards):
            if state.dirty:
                self._rescan(state, shard_id)
                hit = False
        if hit:
            self.stats.heap_hits += 1
        candidates = [
            (a, b, score)
            for state in self._shards
            for (a, b), score in state.entries.items()
        ]
        best = heapq.nsmallest(
            k, candidates, key=lambda t: _key(t[0], t[1], t[2])
        )
        return [(a, b, float(score)) for a, b, score in best]

    def __repr__(self) -> str:
        return (
            f"ShardTopK(k={self.k}, capacity={self.capacity}, "
            f"dirty={self.dirty_shards()}/{self._store.num_shards})"
        )
