"""Incrementally maintained top-k similar pair set.

Applications like recommenders only watch the top of the ranking.  This
tracker keeps the current top-k pair list synchronized with a
:class:`~repro.incremental.engine.DynamicSimRank` engine and reports
*churn* — which pairs entered or left the top-k after each update batch.
Because the engine's ΔS has small support (Theorem 4), most updates
leave the top-k untouched; the tracker makes that observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from ..exceptions import DimensionError
from .topk import ScoredPair, top_k_pairs

Pair = Tuple[int, int]


@dataclass
class TopKChurn:
    """Difference between two consecutive top-k snapshots."""

    entered: List[ScoredPair]
    left: List[Pair]

    @property
    def changed(self) -> bool:
        """Whether the top-k membership moved at all."""
        return bool(self.entered or self.left)


class TopKTracker:
    """Watches an engine's similarity matrix and tracks the top-k pairs.

    Parameters
    ----------
    engine:
        A :class:`~repro.incremental.engine.DynamicSimRank` (or anything
        exposing ``similarities()``).
    k:
        Size of the maintained ranking.
    """

    def __init__(self, engine, k: int) -> None:
        if k < 1:
            raise DimensionError(f"k must be >= 1, got {k}")
        self._engine = engine
        self._k = int(k)
        self._current: List[ScoredPair] = self._rank()

    def _rank(self) -> List[ScoredPair]:
        """Current top-k via the engine's shard-local index when available.

        :meth:`DynamicSimRank.top_k` serves from the incrementally
        maintained :class:`~repro.executor.topk_index.ShardTopK` (no
        dense scan) and is ranking-identical to the brute-force pass;
        plain score sources without ``top_k`` fall back to it.
        """
        ranker = getattr(self._engine, "top_k", None)
        if callable(ranker):
            return ranker(self._k)
        return top_k_pairs(self._engine.similarities(), self._k)

    @property
    def k(self) -> int:
        """The ranking size."""
        return self._k

    def current(self) -> List[ScoredPair]:
        """The top-k list as of the last :meth:`refresh`."""
        return list(self._current)

    def current_pairs(self) -> Set[Pair]:
        """Membership set of the current ranking."""
        return {(a, b) for a, b, _ in self._current}

    def refresh(self) -> TopKChurn:
        """Re-rank from the engine; return the churn.

        Call after applying updates to the engine.  With a
        :class:`~repro.incremental.engine.DynamicSimRank` engine the
        re-rank rides the shard-local incremental index — each update
        plan's affected supports patched the per-shard heaps already, so
        the common case is a pure k-way merge with no score scan at all.
        """
        previous_pairs = self.current_pairs()
        self._current = self._rank()
        new_pairs = self.current_pairs()
        entered = [
            (a, b, score)
            for a, b, score in self._current
            if (a, b) not in previous_pairs
        ]
        left = sorted(previous_pairs - new_pairs)
        return TopKChurn(entered=entered, left=left)
