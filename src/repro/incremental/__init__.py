"""Incremental SimRank on link-evolving graphs — the paper's contribution.

* :mod:`repro.incremental.rank_one` — Theorem 1: the rank-one
  decomposition ``ΔQ = u·vᵀ`` of a unit link update.
* :mod:`repro.incremental.gamma` — Theorems 2–3: the update vectors
  ``γ`` (and scalar ``λ``) expressed from the old ``Q`` and ``S``.
* :mod:`repro.incremental.inc_usr` — Algorithm 1 (**Inc-uSR**): the
  unpruned ``O(K·n²)`` incremental update.
* :mod:`repro.incremental.affected` — Theorem 4: affected-area tracking.
* :mod:`repro.incremental.inc_sr` — Algorithm 2 (**Inc-SR**): pruned
  incremental update in ``O(K·(n·d + |AFF|))``.
* :mod:`repro.incremental.inc_svd` — the Inc-SVD baseline of Li et
  al. [1], including its inherent approximation (Sec. IV).
* :mod:`repro.incremental.plan` — the kernel layer: explicit
  :class:`UpdatePlan` objects (a factored low-rank delta as two dense
  panels over its affected support sets) produced without mutating
  any state.
* :mod:`repro.incremental.workspace` — :class:`UpdateWorkspace`, the
  pooled per-update scratch vectors shared by the hot paths.
* :mod:`repro.incremental.engine` — :class:`DynamicSimRank`, the
  user-facing facade over the kernel and executor layers.
"""

from .rank_one import rank_one_decomposition
from .gamma import compute_gamma_lambda, compute_update_vectors, UpdateVectors
from .inc_usr import inc_usr_delta, inc_usr_update, UnitUpdateResult
from .inc_sr import inc_sr_update
from .affected import AffectedAreaStats
from .inc_svd import IncSVDSimRank
from .plan import (
    UpdatePlan,
    apply_plan_dense,
    plan_rank_one,
    plan_unit_update,
)
from .workspace import UpdateWorkspace
from .engine import DynamicSimRank, UpdateStats

__all__ = [
    "rank_one_decomposition",
    "UpdatePlan",
    "plan_rank_one",
    "plan_unit_update",
    "apply_plan_dense",
    "inc_usr_delta",
    "compute_gamma_lambda",
    "compute_update_vectors",
    "UpdateVectors",
    "inc_usr_update",
    "inc_sr_update",
    "UnitUpdateResult",
    "AffectedAreaStats",
    "IncSVDSimRank",
    "UpdateWorkspace",
    "DynamicSimRank",
    "UpdateStats",
]
