"""Kernel layer — explicit :class:`UpdatePlan` objects.

The incremental kernels (Inc-SR / Inc-uSR / generalized row updates) are
pure functions here: they read the *old* ``(Q, S)`` state and return an
:class:`UpdatePlan` describing the score change as a **factored low-rank
delta** instead of mutating ``S`` in place:

    ΔS = L·Rᵀ  scattered at  rows_union × cols_union,  plus its transpose,

where column ``k`` of the panels ``L``/``R`` is the factor pair
``(ξ_k, η_k)`` of Algorithm 2 restricted to the affected supports.
:func:`plan_rank_one` advances ``[ξ η]`` as one dense frontier per round
(CSR products plus the one-entry Theorem-1 correction) and gathers the
panels from the rounds it kept.  The plan is tiny relative to ``S`` (its
footprint tracks the affected area, not ``n²``), so it can be applied to
a plain ndarray by the dense helper :func:`apply_plan_dense`, applied
shard by shard by the row-sharded
:class:`~repro.executor.score_store.ScoreStore`, or written as it is
into a write-ahead-log frame (:mod:`repro.durability.wal`).  Plans sum
as factored deltas: :func:`fuse_plans` joins a drain's row-group plans
into one plan of their summed rank.

Separating *planning* (read-only on old state) from *application*
(a scatter-add against the score store) is what enables the service
layer's copy-on-write snapshots: readers keep serving the old shards
while the writer applies plans to private copies.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import SimRankConfig
from ..linalg.qstore import TransitionStore
from .affected import AffectedAreaStats
from .gamma import UpdateVectors


class UpdatePlan:
    """A factored low-rank score delta plus its affected support sets.

    The plan is the kernel→executor contract: it fully determines the
    score change ``ΔS = L·Rᵀ + (L·Rᵀ)ᵀ`` without referencing the score
    store it will be applied to.  The same object is what the
    write-ahead log frames and replays, so live apply and recovery feed
    the GEMM the same operands bit for bit.

    Parameters
    ----------
    target:
        The updated ``Q`` row (the ``j`` of the paper's unit update); a
        fused plan carries its first member's.
    rows_union, cols_union:
        Sorted unions of the left/right factor supports — exactly the
        rows/columns of ``S`` the plan will touch.
    left, right:
        The panels: ``L`` is ``|rows_union| × rank`` and ``R`` is
        ``|cols_union| × rank`` float64, column ``k`` holding the
        factor pair ``(ξ_k, η_k)`` with zeros off its support.  Both
        must be C-contiguous: the WAL replays them row-major, and BLAS
        may round an operand of another layout differently.  A rank-0
        plan (e.g. a fully pruned update) is a no-op.
    affected:
        Theorem 4 affected-area statistics recorded while planning
        (``None`` on plans read back from the WAL — application never
        reads them).
    members:
        The plans a fused plan sums (see :func:`fuse_plans`); empty for
        a plan planned, read from the WAL, or built by hand.
    """

    def __init__(
        self,
        target: int,
        rows_union: np.ndarray,
        cols_union: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        affected: Optional[AffectedAreaStats],
        members: Tuple["UpdatePlan", ...] = (),
    ) -> None:
        self.target = target
        self.rows_union = rows_union
        self.cols_union = cols_union
        self._panels = (left, right)
        self.affected = affected
        self.members = members

    @property
    def rank(self) -> int:
        """Number of factor pairs (the K of the truncated series)."""
        return self._panels[0].shape[1]

    @property
    def is_noop(self) -> bool:
        """True when applying the plan would change nothing."""
        return self.rank == 0

    def support_size(self) -> int:
        """Entries of the (untransposed) scatter block, ``|rows|·|cols|``."""
        return int(self.rows_union.size) * int(self.cols_union.size)

    def panels(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(L, R)``: the score block is one GEMM ``L @ R.T``.

        Treat them as read-only: a planned plan's panels are gathered
        from the planner's frontier history, a replayed plan's are
        views of the WAL frame's bytes.
        """
        return self._panels

    def delta_matrix(self, num_nodes: int) -> np.ndarray:
        """Materialize the dense ``ΔS`` (tests / offline analysis only)."""
        delta = np.zeros((num_nodes, num_nodes))
        apply_plan_dense(delta, self)
        return delta

    def nbytes(self) -> int:
        """Plan footprint (tracks the affected area)."""
        left, right = self._panels
        return (
            self.rows_union.nbytes
            + self.cols_union.nbytes
            + left.nbytes
            + right.nbytes
        )


def _union(supports: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted union of non-empty sorted supports, and each node's slot in it.

    One boolean mask over the index range: cheaper than sorting the
    concatenation, and its running count maps a node to its union row.
    """
    mask = np.zeros(max(int(support[-1]) for support in supports) + 1, bool)
    for support in supports:
        mask[support] = True
    return np.flatnonzero(mask), np.cumsum(mask) - 1


def fuse_plans(plans: Sequence[UpdatePlan]) -> Optional[UpdatePlan]:
    """One plan whose delta is the sum of ``plans``' deltas.

    A drain's row groups each plan a factored ``ΔS_i = L_i·R_iᵀ`` (plus
    transpose); their sum is one factored delta of rank ``Σ K_i`` over
    the union supports, so the drain applies as **one** GEMM and one
    pass of slice adds.  The fused panels place the members' panels
    side by side, each member's rows (columns) scattered into the union
    rows (columns) with zeros elsewhere; ``affected`` joins the members'
    Theorem-4 records.  No-op plans are dropped: with one plan left it
    is returned as is, with none the result is None.
    """
    members = tuple(plan for plan in plans if not plan.is_noop)
    if len(members) <= 1:
        return members[0] if members else None
    rows_union, row_at = _union([member.rows_union for member in members])
    cols_union, col_at = _union([member.cols_union for member in members])
    rank = sum(member.rank for member in members)
    left = np.zeros((rows_union.size, rank))
    right = np.zeros((cols_union.size, rank))
    affected = None
    at = 0
    for member in members:
        member_left, member_right = member.panels()
        span = slice(at, at + member.rank)
        left[row_at[member.rows_union], span] = member_left
        right[col_at[member.cols_union], span] = member_right
        at += member.rank
        if member.affected is not None:
            affected = (
                member.affected
                if affected is None
                else affected.merged_with(member.affected)
            )
    return UpdatePlan(
        members[0].target,
        rows_union,
        cols_union,
        left,
        right,
        affected,
        members=members,
    )


def plan_rank_one(
    store,
    target: int,
    vectors: UpdateVectors,
    config: SimRankConfig,
    tolerance: float = 0.0,
) -> UpdatePlan:
    """Plan the pruned Inc-SR iteration (lines 13–20 of Algorithm 2).

    ``store`` is the **old** ``Q`` — a
    :class:`~repro.linalg.qstore.TransitionStore` or any scipy CSR —
    and ``vectors`` the Theorem 1–3 quantities for a rank-one update of
    row ``target`` (``vectors.u`` supported on ``{target}``).  Pure
    read-only planning: neither ``Q`` nor any score state is touched.

    Each round advances the frontier ``[ξ η]`` densely: two CSR
    products ``Q·ξ``, ``Q·η``, the Theorem-1 correction ``(vᵀ·x)·u_j``
    on row ``target`` (``Q̃ = Q + u·vᵀ`` is never built), ``ξ`` scaled
    by ``C``, and with a positive ``tolerance`` every entry at or below
    it zeroed.  The rounds stay in a ``(K+1) × 2 × n`` history until the
    first round with an empty ``ξ`` or ``η``; the plan's factor supports
    are then exactly the realized affected areas of Theorem 4, and its
    panels are the history gathered at their unions.
    """
    q_matrix = store.csr_matrix() if isinstance(store, TransitionStore) else store
    n = q_matrix.shape[0]
    damping = config.damping
    u_scale = float(vectors.u[target])  # the only nonzero of u
    v_dense = vectors.v

    # history[k] = [ξ_k, η_k]; ξ_0 = C·e_j, η_0 = γ (support B_0).
    history = np.empty((config.iterations + 1, 2, n))
    history[0, 0] = 0.0
    history[0, 0, target] = damping
    history[0, 1] = vectors.gamma
    if tolerance > 0.0:
        eta = history[0, 1]
        eta[np.abs(eta) <= tolerance] = 0.0

    stats = AffectedAreaStats(num_nodes=n)
    rank = 0
    for k in range(config.iterations + 1):
        if k:
            frontier, previous = history[k], history[k - 1]
            correction = (previous @ v_dense) * u_scale
            frontier[0] = q_matrix @ previous[0]
            frontier[1] = q_matrix @ previous[1]
            frontier[:, target] += correction
            frontier[0] *= damping
            if tolerance > 0.0:
                frontier[np.abs(frontier) <= tolerance] = 0.0
        xi_size = np.count_nonzero(history[k, 0])
        eta_size = np.count_nonzero(history[k, 1])
        stats.record(xi_size, eta_size)
        if not (xi_size and eta_size):
            break
        rank = k + 1

    factors = history[:rank]
    supported = (factors != 0.0).any(axis=0)
    rows_union = np.flatnonzero(supported[0])
    cols_union = np.flatnonzero(supported[1])
    return UpdatePlan(
        target,
        rows_union,
        cols_union,
        np.ascontiguousarray(factors[:, 0][:, rows_union].T),
        np.ascontiguousarray(factors[:, 1][:, cols_union].T),
        affected=stats,
    )


def plan_unit_update(
    store,
    scores,
    update,
    graph,
    config: SimRankConfig,
    workspace=None,
    tolerance: float = 0.0,
) -> UpdatePlan:
    """Plan one unit edge update end to end (Theorems 1–4).

    Runs the Theorem 1–3 precomputation against the old ``(Q, S)`` state
    — ``scores`` may be a dense matrix or any score source supporting
    ``[:, i]`` / ``[i, j]`` reads, e.g. a
    :class:`~repro.executor.score_store.ScoreStore` — then the pruned
    planner.  Nothing is mutated; apply the returned plan through the
    executor of your choice.
    """
    from .gamma import compute_update_vectors

    vectors = compute_update_vectors(
        store, scores, update, graph, config, workspace=workspace
    )
    return plan_rank_one(
        store, update.target, vectors, config, tolerance=tolerance
    )


def apply_plan_dense(s_matrix: np.ndarray, plan: UpdatePlan) -> np.ndarray:
    """Apply a plan to a plain dense score matrix, in place.

    The reference executor, kept deliberately simple: one
    union-support GEMM followed by two fancy-indexed scatter-adds
    (block and transpose).  The sharded
    :class:`~repro.executor.score_store.ScoreStore` computes the same
    products over the supports' spans and adds them as contiguous
    slices; every entry gets one add of the same dot product.  Its
    ``np.ix_`` passes are bit-identical to this one; its zero-padded
    span GEMMs matched it on planner plans, but BLAS may round a
    larger padded GEMM apart from the unpadded one, within
    ``2·k·eps·(|L|·|R|ᵀ + its transpose)`` per entry for a rank-``k``
    plan.
    """
    if plan.is_noop:
        return s_matrix
    left, right = plan.panels()
    block = left @ right.T
    s_matrix[np.ix_(plan.rows_union, plan.cols_union)] += block
    s_matrix[np.ix_(plan.cols_union, plan.rows_union)] += block.T
    return s_matrix
