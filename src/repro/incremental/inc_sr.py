"""Algorithm 2 — **Inc-SR**: incremental SimRank with affected-area pruning.

Inc-SR is Inc-uSR restricted, at every step, to the affected areas of
Theorem 4.  The pruned iteration itself lives in the kernel layer
(:func:`repro.incremental.plan.plan_rank_one`): it advances the factor
pair ``(ξ_k, η_k)`` as dense vectors through CSR products, and the
nonzero supports it realizes are the out-neighbor closures ``A_k``/
``B_k`` of Theorem 4's Eq. (40).  It returns an explicit
:class:`~repro.incremental.plan.UpdatePlan` (factored low-rank delta +
affected support sets) instead of mutating ``S``, so the score work is
confined to ``|A_k|·|B_k|`` entries.  This module is the dense-matrix
convenience wrapper: it plans and then applies the plan to a plain
ndarray, which is what the standalone-function API and the test-suite
equivalence checks consume.  A whole update costs
``O(K·nnz(Q) + Σ_k |A_k|·|B_k|)``.

The pruning is *lossless*: every skipped entry is provably zero
(Theorem 4), so Inc-SR and Inc-uSR return identical matrices up to float
round-off — a property the test suite asserts on random graphs.

The recorded :class:`~repro.incremental.affected.AffectedAreaStats` use
the realized supports ``supp(ξ_k)``/``supp(η_k)`` (subsets of the paper's
closure sets ``A_k``/``B_k``; equal to them in the absence of exact
numerical cancellation), i.e. the affected area actually computed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SimRankConfig
from ..graph.digraph import DynamicDiGraph
from ..graph.updates import EdgeUpdate
from ..simrank.base import default_config
from .gamma import UpdateVectors, compute_update_vectors
from .inc_usr import UnitUpdateResult
from .plan import apply_plan_dense, plan_rank_one
from .workspace import UpdateWorkspace


def inc_sr_core(
    q_matrix,
    s_matrix: np.ndarray,
    target: int,
    vectors: UpdateVectors,
    config: SimRankConfig,
    tolerance: float = 0.0,
    in_place: bool = False,
    workspace: Optional[UpdateWorkspace] = None,
) -> UnitUpdateResult:
    """The pruned iteration (lines 13–20 of Algorithm 2), dense-applied.

    ``q_matrix``/``s_matrix`` describe the *old* graph and ``vectors``
    must already hold the Theorem 1–3 quantities for a rank-one update
    of row ``target`` (``vectors.u`` supported on ``{target}``).
    ``q_matrix`` may be a scipy CSR matrix or a live
    :class:`~repro.linalg.qstore.TransitionStore`; the planner uses
    either directly.  With ``in_place=True`` the update is written
    directly into ``s_matrix``; otherwise ``s_matrix`` is copied first.
    ``workspace`` is accepted for interface symmetry; the planner
    allocates its own frontier history.

    This is equivalent to :func:`~repro.incremental.plan.plan_rank_one`
    followed by :func:`~repro.incremental.plan.apply_plan_dense`; the
    engine's sharded path applies the same plan through a
    :class:`~repro.executor.score_store.ScoreStore` instead.
    """
    plan = plan_rank_one(q_matrix, target, vectors, config, tolerance=tolerance)
    new_s = s_matrix if in_place else s_matrix.copy()
    apply_plan_dense(new_s, plan)
    return UnitUpdateResult(
        new_s=new_s,
        delta_s=None,
        vectors=vectors,
        affected=plan.affected,
    )


def inc_sr_update(
    graph: DynamicDiGraph,
    q_matrix,
    s_matrix: np.ndarray,
    update: EdgeUpdate,
    config: SimRankConfig = None,
    new_graph: Optional[DynamicDiGraph] = None,
    tolerance: float = 0.0,
    workspace: Optional[UpdateWorkspace] = None,
) -> UnitUpdateResult:
    """Apply one unit update with Algorithm 2 (pruned, exact).

    Parameters
    ----------
    graph, q_matrix, s_matrix:
        State of the *old* graph (none of them is mutated);
        ``q_matrix`` may be CSR or a :class:`TransitionStore`.
    update:
        The unit update on edge ``(i, j)``.
    new_graph:
        Unused (kept for interface compatibility; the sparse-vector
        formulation does not need the updated graph).
    tolerance:
        Support threshold: entries with ``|x| <= tolerance`` are treated
        as zero when growing affected areas.  ``0.0`` (default) keeps the
        pruning lossless.
    workspace:
        Optional pooled scratch for the Theorem 1–3 precomputation.

    Returns
    -------
    UnitUpdateResult
        With :attr:`~repro.incremental.inc_usr.UnitUpdateResult.affected`
        populated; ``delta_s`` is filled in as ``new_s − s_matrix``.
    """
    cfg = default_config(config)
    vectors = compute_update_vectors(
        q_matrix, s_matrix, update, graph, cfg, workspace=workspace
    )
    result = inc_sr_core(
        q_matrix, s_matrix, update.target, vectors, cfg, tolerance=tolerance
    )
    result.delta_s = result.new_s - s_matrix
    return result
