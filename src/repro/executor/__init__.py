"""Executor layer — score storage that applies kernel update plans.

The kernel layer (:mod:`repro.incremental.plan`) turns edge updates into
explicit :class:`~repro.incremental.plan.UpdatePlan` objects; this
package owns the similarity matrix ``S`` and knows how to apply them:

* :mod:`repro.executor.score_store` — :class:`ScoreStore`, ``S`` held in
  independently growable row-block shards with per-shard plan
  application and copy-on-write :class:`ScoreSnapshot` views for the
  serving layer.
* :mod:`repro.executor.topk_index` — :class:`ShardTopK`, each shard's
  exact best pairs kept as arrays and merged with the promotion hits
  the store finds inside each plan's apply (a query rescans only a
  shard that untracked too many sunk pairs), plus
  :func:`top_k_from_blocks`, the block-at-a-time merge used by frozen
  snapshots — ``top_k()`` never materializes the dense ``n × n`` matrix.
"""

from .score_store import DEFAULT_SHARD_ROWS, ScoreSnapshot, ScoreStore
from .topk_index import ShardTopK, top_k_from_blocks

__all__ = [
    "ScoreStore",
    "ScoreSnapshot",
    "DEFAULT_SHARD_ROWS",
    "ShardTopK",
    "top_k_from_blocks",
]
