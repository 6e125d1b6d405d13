"""Reader-side pins: :class:`SnapshotView` at one frozen version.

A view bundles a copy-on-write
:class:`~repro.executor.score_store.ScoreSnapshot` of ``S`` with a
frozen :class:`~repro.linalg.qstore.TransitionSnapshot` of ``Q`` and
serves the full read API at that version: point lookups, full-matrix
export, top-k ranking, and the single-source / single-pair walk queries
(computed against the frozen ``Q``, so a pinned reader's answers never
shift under concurrent writes).

Pinning is cheap — O(#shards) bookkeeping, no score copying — and the
bit-stability guarantee is structural: the writer clones any shard it
touches before writing, so the arrays this view references are never
mutated again.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..config import SimRankConfig
from ..executor.score_store import ScoreSnapshot
from ..linalg.qstore import TransitionSnapshot


class SnapshotView:
    """All reads of one frozen ``(S, Q)`` version."""

    def __init__(
        self,
        scores: ScoreSnapshot,
        transitions: TransitionSnapshot,
        config: SimRankConfig,
        version: int,
    ) -> None:
        self._scores = scores
        self._transitions = transitions
        self._config = config
        self._version = int(version)

    # -------------------------------------------------------------- #
    # Identity
    # -------------------------------------------------------------- #

    @property
    def version(self) -> int:
        """The engine version this view is pinned at."""
        return self._version

    @property
    def num_nodes(self) -> int:
        return self._scores.num_nodes

    @property
    def config(self) -> SimRankConfig:
        return self._config

    @property
    def scores(self) -> ScoreSnapshot:
        """The underlying frozen score shards."""
        return self._scores

    @property
    def transitions(self) -> TransitionSnapshot:
        """The underlying frozen transition matrix."""
        return self._transitions

    # -------------------------------------------------------------- #
    # Score reads (frozen S)
    # -------------------------------------------------------------- #

    def similarity(self, node_a: int, node_b: int) -> float:
        """The frozen SimRank score of one node pair.

        Reads the canonical ``(min, max)`` entry, so the answer is
        bitwise symmetric in its arguments (see
        :meth:`DynamicSimRank.similarity`).
        """
        if node_a > node_b:
            node_a, node_b = node_b, node_a
        return self._scores.entry(node_a, node_b)

    def similarities(self) -> np.ndarray:
        """The full frozen score matrix (a fresh copy)."""
        return self._scores.to_array()

    def similarity_row(self, node: int) -> np.ndarray:
        """Frozen row ``[S]_{node,:}`` (a copy)."""
        return self._scores.row(node)

    def top_k(self, k: int, include_self: bool = False) -> List[Tuple[int, int, float]]:
        """Top-``k`` most similar node pairs at the frozen version.

        Served by the shard-merge path: candidates are selected one
        frozen row block at a time and k-way merged, so the ranking is
        bit-identical to a dense :func:`~repro.metrics.topk.top_k_pairs`
        scan without ever materializing the O(n²) matrix.
        """
        from ..executor.topk_index import top_k_from_blocks

        return top_k_from_blocks(
            self._scores.iter_blocks(), k, include_self=include_self
        )

    # -------------------------------------------------------------- #
    # Walk queries (frozen Q)
    # -------------------------------------------------------------- #

    def single_source(self, node: int) -> np.ndarray:
        """Series-form single-source scores against the frozen ``Q``."""
        from ..simrank.queries import single_source_simrank

        return single_source_simrank(self._transitions, node, self._config)

    def single_pair(self, node_a: int, node_b: int) -> float:
        """Series-form single-pair score against the frozen ``Q``."""
        from ..simrank.queries import single_pair_simrank

        return single_pair_simrank(
            self._transitions, node_a, node_b, self._config
        )

    def top_k_similar(self, node: int, k: int) -> List[Tuple[int, float]]:
        """The ``k`` nodes most similar to ``node`` at the frozen version."""
        from ..simrank.queries import top_k_similar_nodes

        return top_k_similar_nodes(self._transitions, node, k, self._config)

    def __repr__(self) -> str:
        return (
            f"SnapshotView(version={self._version}, "
            f"n={self.num_nodes})"
        )
