"""Generalized rank-one *row* updates and batch consolidation.

An extension beyond the paper's unit updates: Theorem 1 shows a single
edge change rewrites one row of ``Q`` and hence factors as ``ΔQ = u·vᵀ``
with ``u ∝ e_j``.  But the proof of Theorems 2–3 never uses the *unit*
structure — it holds for **any** rank-one ``ΔQ``.  Consequently, *any
set of edge changes that all target the same node j* (several citations
added to one paper, a whole related-video list rewritten) is still a
single rank-one update:

    ΔQ = e_j · (new_row_j − old_row_j)ᵀ,

and costs one Sylvester-series run instead of one per edge.

:func:`consolidate_batch` groups an update batch by target node (after
cancelling insert/delete pairs that annihilate), and
:func:`plan_composite_row_update` plans each group's composite rank-one
change with the pruned Inc-SR planner.  The result is bit-compatible
with processing the group's unit updates sequentially only in the limit
``K → ∞``; at finite ``K`` both are within the same truncation bound of
the exact fixed point (asserted by the tests), while the consolidated
path does ``(group size)×`` less work.

A drain plans its groups one after another, each against ``Q`` after
the earlier groups' row surgery and against ``S`` plus the earlier
groups' pending deltas (:class:`PendingScores`), and then applies all
of them as one fused plan
(:func:`~repro.incremental.plan.fuse_plans`).  The group's one read of
``S``, ``z = S·v``, is column-sparse: ``v`` is supported on the old and
new in-neighbours of the target only.  :func:`apply_row_update` and
:func:`apply_consolidated_batch` keep the older in-place Inc-SR core as
a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np
import scipy.sparse as sp

from ..config import SimRankConfig
from ..exceptions import GraphError
from ..graph.digraph import DynamicDiGraph
from ..graph.updates import EdgeUpdate, UpdateBatch
from ..linalg.qstore import TransitionStore
from ..simrank.base import default_config
from .gamma import UpdateVectors
from .inc_sr import inc_sr_core
from .inc_usr import UnitUpdateResult
from .workspace import UpdateWorkspace


@dataclass(frozen=True)
class RowUpdate:
    """A composite change to the in-neighbor set of one target node.

    Attributes
    ----------
    target:
        The node whose ``Q`` row changes (the ``j`` of the paper).
    added, removed:
        Source nodes gaining/losing an edge into ``target``; disjoint.
    """

    target: int
    added: Tuple[int, ...]
    removed: Tuple[int, ...]

    @property
    def num_changes(self) -> int:
        """Number of unit edge updates this row update replaces."""
        return len(self.added) + len(self.removed)

    def unit_updates(self) -> List[EdgeUpdate]:
        """The equivalent sequence of unit updates (removals first)."""
        removals = [EdgeUpdate.delete(s, self.target) for s in self.removed]
        additions = [EdgeUpdate.insert(s, self.target) for s in self.added]
        return removals + additions

    def apply_to(self, graph: DynamicDiGraph) -> None:
        """Mutate ``graph`` with all of this row's edge changes."""
        for update in self.unit_updates():
            update.apply_to(graph)


def consolidate_batch(
    batch: UpdateBatch, graph: DynamicDiGraph
) -> List[RowUpdate]:
    """Group a batch into per-target :class:`RowUpdate` objects.

    Net semantics: an insert followed by a delete of the same edge (or
    vice versa) cancels.  The batch must be sequentially applicable to
    ``graph`` (validated).  Row updates are returned in ascending target
    order; because each touches a distinct ``Q`` row, their relative
    order does not affect the final graph.
    """
    batch.validate_against(graph)
    added: Dict[int, Set[int]] = {}
    removed: Dict[int, Set[int]] = {}
    for update in batch:
        source, target = update.edge
        add_set = added.setdefault(target, set())
        remove_set = removed.setdefault(target, set())
        if update.is_insert:
            if source in remove_set:
                remove_set.discard(source)
            else:
                add_set.add(source)
        else:
            if source in add_set:
                add_set.discard(source)
            else:
                remove_set.add(source)
    row_updates = []
    for target in sorted(set(added) | set(removed)):
        add_tuple = tuple(sorted(added.get(target, ())))
        remove_tuple = tuple(sorted(removed.get(target, ())))
        if add_tuple or remove_tuple:
            row_updates.append(
                RowUpdate(target=target, added=add_tuple, removed=remove_tuple)
            )
    return row_updates


def row_rank_one_vectors(
    graph: DynamicDiGraph, row_update: RowUpdate
) -> Tuple[np.ndarray, np.ndarray]:
    """The rank-one factors ``(u, v)`` of a composite row change.

    ``u = e_target`` and ``v = new_row − old_row`` where both rows are
    the in-neighbor-averaged ``Q`` rows before/after the change.
    ``graph`` is the graph *before* the row update.
    """
    n = graph.num_nodes
    target = row_update.target
    old_set = set(graph.in_neighbors(target))
    for source in row_update.removed:
        if source not in old_set:
            raise GraphError(
                f"row update removes missing edge ({source} -> {target})"
            )
    for source in row_update.added:
        if source in old_set:
            raise GraphError(
                f"row update adds existing edge ({source} -> {target})"
            )
    new_set = (old_set - set(row_update.removed)) | set(row_update.added)

    old_row = np.zeros(n)
    if old_set:
        old_row[sorted(old_set)] = 1.0 / len(old_set)
    new_row = np.zeros(n)
    if new_set:
        new_row[sorted(new_set)] = 1.0 / len(new_set)

    u_vector = np.zeros(n)
    u_vector[target] = 1.0
    return u_vector, new_row - old_row


def column_matvec(
    scores, cols: np.ndarray, weights: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    """``S[:, cols] @ weights`` for a dense ``S`` or any score source.

    Score stores (and :class:`PendingScores`) gather their columns
    themselves (``column_matvec``); a plain ndarray is sliced here.
    """
    if hasattr(scores, "column_matvec"):
        return scores.column_matvec(cols, weights, out=out)
    return np.dot(scores[:, cols], weights, out=out)


def _add_pending(z_vector, rows, left, cols_union, right, cols, weights):
    """``z[rows] += left @ (right[cols ∩ cols_union]ᵀ · weights)``.

    One pass of a pending plan's ``(L·Rᵀ)[:, cols] · weights``: the
    ``|cols ∩ cols_union|`` panel rows it reads are found by one
    ``searchsorted`` in the sorted union.
    """
    at = np.searchsorted(cols_union, cols)
    hit = at < cols_union.size
    hit[hit] = cols_union[at[hit]] == cols[hit]
    if hit.any():
        z_vector[rows] += left @ (weights[hit] @ right[at[hit]])


class PendingScores:
    """``S`` plus the deltas of plans planned but not yet applied.

    A drain plans every row group before it applies any: group ``i+1``
    must see ``S + Σ_{p ≤ i} ΔS_p``, and its only read of ``S`` is the
    column-sparse ``S·v`` of :func:`general_update_vectors`.  This view
    answers that read as ``S[:, supp v]·v`` plus, per pending plan, the
    two small panel products ``L·(Rᵀ·v)`` and ``R·(Lᵀ·v)`` restricted to
    ``supp v`` — ``ΔS_p`` is never materialized.
    """

    def __init__(self, scores) -> None:
        self.scores = scores
        #: The non-empty plans pending, in planning order.
        self.plans = []

    @property
    def shape(self):
        return self.scores.shape

    def add(self, plan) -> None:
        """Make ``plan``'s delta visible to later reads."""
        if not plan.is_noop:
            self.plans.append(plan)

    def column_matvec(
        self, cols: np.ndarray, weights: np.ndarray, out: np.ndarray = None
    ) -> np.ndarray:
        """``(S + Σ ΔS_p)[:, cols] @ weights``."""
        z_vector = column_matvec(self.scores, cols, weights, out=out)
        for plan in self.plans:
            left, right = plan.panels()
            _add_pending(
                z_vector, plan.rows_union, left, plan.cols_union, right,
                cols, weights,
            )
            _add_pending(
                z_vector, plan.cols_union, right, plan.rows_union, left,
                cols, weights,
            )
        return z_vector


def general_update_vectors(
    q_matrix,
    s_matrix: np.ndarray,
    u_vector: np.ndarray,
    v_vector: np.ndarray,
    target: int,
    config: SimRankConfig,
    workspace: UpdateWorkspace = None,
) -> UpdateVectors:
    """Theorem 2 for an arbitrary rank-one ``ΔQ = u·vᵀ`` with ``u = e_j``.

    Computes ``z = S·v``, ``y = Q·z``, ``λ = vᵀ·z`` and folds
    ``w = y + (λ/2)·u`` into the γ vector consumed by the Inc-SR core.
    This is the generic path the degree-specialized closed forms of
    Eqs. (27)–(28) shortcut.  ``S·v`` is column-sparse,
    ``S[:, supp v] @ v[supp v]`` (see :func:`column_matvec`): a row
    change's ``v`` lives on the target's old and new in-neighbours, a
    handful of columns, so the dense ``n × n`` GEMV is never run.
    ``s_matrix`` may be dense, a score store or a
    :class:`PendingScores` view; ``q_matrix`` may be CSR or a
    :class:`TransitionStore`; a ``workspace`` pools the dense scratch.
    """
    n = s_matrix.shape[0]
    support = np.flatnonzero(v_vector)
    z_vector = column_matvec(
        s_matrix,
        support,
        v_vector[support],
        out=None if workspace is None else workspace.vector("scratch", n),
    )
    if workspace is None:
        y_vector = q_matrix @ z_vector
        lam = float(v_vector @ z_vector)
        gamma = y_vector + 0.5 * lam * u_vector
    else:
        if hasattr(q_matrix, "matvec"):
            y_vector = q_matrix.matvec(z_vector, out=workspace.vector("w", n))
        else:
            y_vector = q_matrix @ z_vector
        lam = float(v_vector @ z_vector)
        gamma = workspace.vector("gamma", n)
        np.multiply(u_vector, 0.5 * lam, out=gamma)
        gamma += y_vector
    return UpdateVectors(
        u=u_vector,
        v=v_vector,
        gamma=gamma,
        lam=lam,
        target_degree=-1,  # not meaningful for composite updates
    )


def plan_composite_row_update(
    graph: DynamicDiGraph,
    store: TransitionStore,
    scores,
    row_update: RowUpdate,
    config: SimRankConfig = None,
    workspace: UpdateWorkspace = None,
    tolerance: float = 0.0,
):
    """Plan one composite row update as an explicit kernel UpdatePlan.

    The consolidated-batch analogue of
    :func:`repro.incremental.plan.plan_unit_update`: reads the old
    ``(graph, Q, S)`` state only and returns the factored low-rank plan
    for the whole row group.  ``scores`` may be dense, a sharded score
    store or a :class:`PendingScores` view (a drain's earlier groups
    pending); it is read once, through :func:`column_matvec`.
    """
    from .plan import plan_rank_one

    cfg = default_config(config)
    u_vector, v_vector = row_rank_one_vectors(graph, row_update)
    vectors = general_update_vectors(
        store,
        scores,
        u_vector,
        v_vector,
        row_update.target,
        cfg,
        workspace=workspace,
    )
    return plan_rank_one(
        store, row_update.target, vectors, cfg, tolerance=tolerance
    )


def apply_row_update(
    graph: DynamicDiGraph,
    q_matrix,
    s_matrix: np.ndarray,
    row_update: RowUpdate,
    config: SimRankConfig = None,
    tolerance: float = 0.0,
    workspace: UpdateWorkspace = None,
    in_place: bool = False,
) -> UnitUpdateResult:
    """Apply one composite row update with the pruned Inc-SR core.

    ``graph``/``q_matrix``/``s_matrix`` describe the state *before* the
    row update (``q_matrix`` may be CSR or a :class:`TransitionStore`).
    By default nothing is mutated and ``delta_s`` is filled in; with
    ``in_place=True`` the update is written straight into ``s_matrix``
    and ``delta_s`` stays ``None`` (the consolidated-batch hot path).
    """
    cfg = default_config(config)
    u_vector, v_vector = row_rank_one_vectors(graph, row_update)
    vectors = general_update_vectors(
        q_matrix,
        s_matrix,
        u_vector,
        v_vector,
        row_update.target,
        cfg,
        workspace=workspace,
    )
    result = inc_sr_core(
        q_matrix,
        s_matrix,
        row_update.target,
        vectors,
        cfg,
        tolerance=tolerance,
        in_place=in_place,
    )
    if not in_place:
        result.delta_s = result.new_s - s_matrix
    return result


def apply_consolidated_batch(
    graph: DynamicDiGraph,
    q_matrix,
    s_matrix: np.ndarray,
    batch: UpdateBatch,
    config: SimRankConfig = None,
    tolerance: float = 0.0,
    store: TransitionStore = None,
    workspace: UpdateWorkspace = None,
    in_place: bool = False,
) -> Tuple[np.ndarray, sp.csr_matrix, DynamicDiGraph, int]:
    """Process a whole batch as consolidated row updates.

    Returns ``(new_s, new_q, new_graph, num_row_updates)``.  Each row
    group is one rank-one Sylvester run, so a batch with ``g`` distinct
    targets costs ``g`` runs instead of ``len(batch)``.  The groups are
    applied one at a time, each against the scores the previous one
    left — the sequential reference that the engine's fused drains
    (:meth:`~repro.incremental.engine.DynamicSimRank.apply_consolidated`)
    match within rounding.

    By default nothing is mutated (the graph and scores are copied and a
    private :class:`TransitionStore` is built from ``q_matrix``).  The
    engine's zero-rebuild path passes its live ``store``/``workspace``
    with ``in_place=True``: the graph, scores, and store are then
    mutated directly and only row-granular surgery happens — no CSR
    rebuild anywhere.
    """
    cfg = default_config(config)
    row_updates = consolidate_batch(batch, graph)
    live_graph = graph if in_place else graph.copy()
    if store is None:
        store = TransitionStore.from_csr(q_matrix)
    elif not in_place:
        # Honor the no-mutation default for a caller-supplied store too.
        store = store.copy()
    scores = s_matrix if in_place else s_matrix.copy()
    for row_update in row_updates:
        apply_row_update(
            live_graph,
            store,
            scores,
            row_update,
            cfg,
            tolerance=tolerance,
            workspace=workspace,
            in_place=True,
        )
        row_update.apply_to(live_graph)
        # Copy-on-write surgery of the target's Q row.
        store.set_row_from_graph(live_graph, row_update.target)
    return scores, store.csr_matrix(), live_graph, len(row_updates)
