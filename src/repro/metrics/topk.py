"""Top-k node-pair extraction from a similarity matrix.

SimRank matrices are symmetric, so pairs are canonicalized to
``a < b`` (the diagonal is excluded unless asked for).  Ties are broken
deterministically by pair order so the rankings — and hence the NDCG
numbers built on them — are reproducible.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..exceptions import DimensionError

ScoredPair = Tuple[int, int, float]


def top_k_pairs(
    s_matrix: np.ndarray, k: int, include_self: bool = False
) -> List[ScoredPair]:
    """The ``k`` highest-scoring node pairs ``(a, b, score)`` with ``a < b``.

    Parameters
    ----------
    s_matrix:
        Symmetric similarity matrix.
    k:
        Number of pairs to return (fewer if the graph is tiny).
    include_self:
        When True, diagonal pairs ``(a, a)`` participate as well.
    """
    scores = np.asarray(s_matrix)
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise DimensionError(f"S must be square, got {scores.shape}")
    if k < 0:
        raise DimensionError(f"k must be >= 0, got {k}")
    n = scores.shape[0]
    offset = 0 if include_self else 1
    rows, cols = np.triu_indices(n, k=offset)
    values = scores[rows, cols]
    if values.size == 0 or k == 0:
        return []
    k_eff = min(k, values.size)
    # argsort on (-score, row, col) gives a deterministic total order.
    order = np.lexsort((cols, rows, -values))[:k_eff]
    return [
        (int(rows[index]), int(cols[index]), float(values[index]))
        for index in order
    ]


def pair_rank_scores(
    s_matrix: np.ndarray, pairs: List[Tuple[int, int]]
) -> np.ndarray:
    """Scores of specific (a, b) pairs under a (possibly different) matrix."""
    scores = np.asarray(s_matrix)
    return np.asarray([scores[a, b] for a, b in pairs], dtype=np.float64)
