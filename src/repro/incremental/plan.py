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
:class:`~repro.executor.score_store.ScoreStore`, or packed into a
write-ahead-log frame (:class:`PackedPlanBatch`), which stores each
factor sparse.  Plans sum as factored deltas: :func:`fuse_plans` joins
a drain's row-group plans into one plan of their summed rank.

Separating *planning* (read-only on old state) from *application*
(a scatter-add against the score store) is what enables the service
layer's copy-on-write snapshots: readers keep serving the old shards
while the writer applies plans to private copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import SimRankConfig
from ..linalg.qstore import TransitionStore
from .affected import AffectedAreaStats
from .gamma import UpdateVectors

SparseVector = Tuple[np.ndarray, np.ndarray]  # (sorted indices, values)

_EMPTY_IDX = np.zeros(0, dtype=np.int64)
_EMPTY_VAL = np.zeros(0, dtype=np.float64)


class UpdatePlan:
    """A factored low-rank score delta plus its affected support sets.

    The plan is the kernel→executor contract: it fully determines the
    score change ``ΔS = Σ_k ξ_k·η_kᵀ + (Σ_k ξ_k·η_kᵀ)ᵀ`` without
    referencing the score store it will be applied to.  A planned plan
    (:meth:`from_panels`) carries the factors as two dense panels; a
    plan rebuilt from the WAL, or built by hand, carries them sparse.
    Either form yields the other on demand, bit for bit.

    Attributes
    ----------
    target:
        The updated ``Q`` row (the ``j`` of the paper's unit update); a
        fused plan carries its first member's.
    left_factors, right_factors:
        The per-iteration sparse factor pairs ``(ξ_k, η_k)``; equal
        length.  No factors encode a no-op plan (e.g. a fully pruned
        update).
    rows_union, cols_union:
        Sorted unions of the left/right factor supports — exactly the
        rows/columns of ``S`` the plan will touch.
    affected:
        Theorem 4 affected-area statistics recorded while planning
        (``None`` on plans rebuilt from the packed WAL encoding —
        application never reads them).
    vectors:
        The Theorem 1–3 precomputation the plan was built from (kept
        for diagnostics; may alias pooled workspace buffers, in which
        case it is only valid until the next update is planned).
    members:
        The plans a fused plan sums (see :func:`fuse_plans`); empty for
        a plan planned, rebuilt from the WAL, or built by hand.
    """

    def __init__(
        self,
        target: int,
        left_factors: Optional[List[SparseVector]],
        right_factors: Optional[List[SparseVector]],
        rows_union: np.ndarray,
        cols_union: np.ndarray,
        affected: Optional[AffectedAreaStats],
        vectors: Optional[UpdateVectors] = None,
        members: Tuple["UpdatePlan", ...] = (),
    ) -> None:
        self.target = target
        self.rows_union = rows_union
        self.cols_union = cols_union
        self.affected = affected
        self.vectors = vectors
        self.members = members
        self._factors = (
            None if left_factors is None else (left_factors, right_factors)
        )
        self._panels: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def from_panels(
        cls,
        target: int,
        rows_union: np.ndarray,
        cols_union: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        affected: Optional[AffectedAreaStats],
        vectors: Optional[UpdateVectors] = None,
        members: Tuple["UpdatePlan", ...] = (),
    ) -> "UpdatePlan":
        """A plan whose factors are panel columns (see :meth:`panels`)."""
        plan = cls(
            target, None, None, rows_union, cols_union, affected, vectors,
            members,
        )
        plan._panels = (left, right)
        return plan

    @property
    def left_factors(self) -> List[SparseVector]:
        return self._sparse_factors()[0]

    @property
    def right_factors(self) -> List[SparseVector]:
        return self._sparse_factors()[1]

    @property
    def rank(self) -> int:
        """Number of factor pairs (the K of the truncated series)."""
        if self._panels is not None:
            return self._panels[0].shape[1]
        return len(self._factors[0])

    @property
    def is_noop(self) -> bool:
        """True when applying the plan would change nothing."""
        return self.rank == 0

    def support_size(self) -> int:
        """Entries of the (untransposed) scatter block, ``|rows|·|cols|``."""
        return int(self.rows_union.size) * int(self.cols_union.size)

    def panels(self, dtype=None) -> Tuple[np.ndarray, np.ndarray]:
        """The factors as dense panels over the union supports: ``(L, R)``.

        ``L`` is ``|rows_union| × rank`` and ``R`` is
        ``|cols_union| × rank``, so the score block is one GEMM
        ``L @ R.T``; column ``k`` of each is factor ``k`` with zeros off
        its support.  A planned plan returns the panels the planner
        gathered from its frontier history (treat them as read-only); a
        sparse plan densifies its factors here.  Both are C-contiguous:
        BLAS may round differently per operand layout, and a WAL-replayed
        plan must feed the GEMM the live plan's operands bit for bit.

        ``dtype`` selects the panel (and hence GEMM) precision; the
        default is float64, which every apply path uses regardless of the
        score store's storage dtype — reduced-precision stores cast at
        scatter time, so the plan arithmetic stays bit-identical across
        dtypes.
        """
        if self._panels is not None:
            left, right = self._panels
        else:
            left_factors, right_factors = self._factors
            left = _densify(left_factors, self.rows_union)
            right = _densify(right_factors, self.cols_union)
        if dtype is None:
            return left, right
        return left.astype(dtype), right.astype(dtype)

    def delta_matrix(self, num_nodes: int) -> np.ndarray:
        """Materialize the dense ``ΔS`` (tests / offline analysis only)."""
        delta = np.zeros((num_nodes, num_nodes))
        apply_plan_dense(delta, self)
        return delta

    def nbytes(self) -> int:
        """Approximate plan footprint (tracks the affected area)."""
        total = self.rows_union.nbytes + self.cols_union.nbytes
        if self._panels is not None:
            return total + self._panels[0].nbytes + self._panels[1].nbytes
        for idx, val in self.left_factors + self.right_factors:
            total += idx.nbytes + val.nbytes
        return total

    def _sparse_factors(self) -> Tuple[List[SparseVector], List[SparseVector]]:
        if self._factors is None and self.members:
            # A fused panel column is one member's column scattered into
            # the union with zeros elsewhere: its nonzeros are exactly
            # that member's sparse factor.
            left: List[SparseVector] = []
            right: List[SparseVector] = []
            for member in self.members:
                member_left, member_right = member._sparse_factors()
                left += member_left
                right += member_right
            self._factors = (left, right)
        elif self._factors is None:
            left, right = self._panels
            self._factors = (
                _column_supports(left, self.rows_union),
                _column_supports(right, self.cols_union),
            )
        return self._factors


def _densify(factors: List[SparseVector], union: np.ndarray) -> np.ndarray:
    """Sparse factors -> C-contiguous ``|union| × rank`` panel."""
    panel = np.zeros((union.size, len(factors)))
    for term, (idx, val) in enumerate(factors):
        panel[np.searchsorted(union, idx), term] = val
    return panel


def _column_supports(panel: np.ndarray, union: np.ndarray) -> List[SparseVector]:
    """Panel columns -> sparse factors over their nonzero entries."""
    factors = []
    for column in panel.T:
        support = np.flatnonzero(column)
        factors.append((union[support], column[support]))
    return factors


@dataclass
class PackedPlanBatch:
    """A :class:`PlanBatch` flattened into five contiguous arrays.

    This is the write-ahead log's frame format
    (:mod:`repro.durability.wal`): every factor support/value vector and
    union of every plan in a drain is concatenated into a handful of
    buffers, so the whole drain is framed as **one** contiguous word
    block.

    Layout (all elements are 8-byte words):

    * ``targets``  — ``int64[K]``, the target row of each plan;
    * ``ranks``    — ``int64[K]``, factor pairs per plan;
    * ``lens``     — ``int64``: per plan ``rows_union_len,
      cols_union_len`` then per factor pair ``left_len, right_len``;
    * ``idx``      — ``int64``: per plan ``rows_union, cols_union`` then
      per factor pair ``left_indices, right_indices``;
    * ``val``      — ``float64``: per factor pair ``left_values,
      right_values``.

    Unpacking is zero-copy: the rebuilt plans hold *views* into these
    arrays (or into the WAL words they were read from).
    """

    targets: np.ndarray
    ranks: np.ndarray
    lens: np.ndarray
    idx: np.ndarray
    val: np.ndarray

    @property
    def count(self) -> int:
        return int(self.targets.size)

    def word_count(self) -> int:
        """Total 8-byte words across all five arrays."""
        return int(
            self.targets.size
            + self.ranks.size
            + self.lens.size
            + self.idx.size
            + self.val.size
        )

    def section_lengths(self) -> Tuple[int, int, int]:
        """``(lens, idx, val)`` element counts (targets/ranks = count)."""
        return int(self.lens.size), int(self.idx.size), int(self.val.size)

    def write_words(self, out: np.ndarray) -> int:
        """Serialize into ``out`` (int64, caller-allocated); return words.

        ``val`` is bit-copied through an int64 view, so the float64
        payload survives exactly.
        """
        cursor = 0
        for part in (
            self.targets,
            self.ranks,
            self.lens,
            self.idx,
            self.val.view(np.int64),
        ):
            out[cursor : cursor + part.size] = part
            cursor += part.size
        return cursor

    @classmethod
    def from_words(
        cls, words: np.ndarray, count: int, sections: Tuple[int, int, int]
    ) -> "PackedPlanBatch":
        """Rebuild from a word block — pure views, no copies."""
        lens_len, idx_len, val_len = sections
        bounds = np.cumsum([count, count, lens_len, idx_len, val_len])
        if words.size < int(bounds[-1]):
            raise ValueError(
                f"packed plan batch needs {int(bounds[-1])} words, "
                f"got {words.size}"
            )
        return cls(
            targets=words[: bounds[0]],
            ranks=words[bounds[0] : bounds[1]],
            lens=words[bounds[1] : bounds[2]],
            idx=words[bounds[2] : bounds[3]],
            val=words[bounds[3] : bounds[4]].view(np.float64),
        )

    def plans(self) -> List["UpdatePlan"]:
        """Rebuild the batch's plans as views into the packed arrays.

        The rebuilt plans carry everything :meth:`UpdatePlan.panels` and
        the score store's scatter path read — factors and support unions —
        bit-identical to the originals.  Planning-time diagnostics
        (``affected``, ``vectors``) are not packed.
        """
        out: List[UpdatePlan] = []
        len_at = 0
        idx_at = 0
        val_at = 0
        for k in range(self.count):
            rows_len = int(self.lens[len_at])
            cols_len = int(self.lens[len_at + 1])
            len_at += 2
            rows_union = self.idx[idx_at : idx_at + rows_len]
            idx_at += rows_len
            cols_union = self.idx[idx_at : idx_at + cols_len]
            idx_at += cols_len
            left: List[SparseVector] = []
            right: List[SparseVector] = []
            for _ in range(int(self.ranks[k])):
                left_len = int(self.lens[len_at])
                right_len = int(self.lens[len_at + 1])
                len_at += 2
                left_idx = self.idx[idx_at : idx_at + left_len]
                idx_at += left_len
                right_idx = self.idx[idx_at : idx_at + right_len]
                idx_at += right_len
                left_val = self.val[val_at : val_at + left_len]
                val_at += left_len
                right_val = self.val[val_at : val_at + right_len]
                val_at += right_len
                left.append((left_idx, left_val))
                right.append((right_idx, right_val))
            out.append(
                UpdatePlan(
                    target=int(self.targets[k]),
                    left_factors=left,
                    right_factors=right,
                    rows_union=rows_union,
                    cols_union=cols_union,
                    affected=None,
                )
            )
        return out


@dataclass
class PlanBatch:
    """An ordered sequence of :class:`UpdatePlan` objects — one drain.

    A drain applies one plan, the fusion of its row groups' plans (see
    :func:`fuse_plans`), so its batch holds that one plan.  A batch of
    several plans (as drains once applied them, one per row group) is
    replayed by applying its plans **in order**, each made against the
    scores the previous one left.  The durability layer packs one batch
    per drain into a WAL frame (:meth:`packed`) and replays it the same
    way on recovery.
    """

    plans: List[UpdatePlan]

    def packed(self) -> PackedPlanBatch:
        """Flatten into the contiguous WAL encoding (fresh arrays)."""
        targets = np.empty(len(self.plans), dtype=np.int64)
        ranks = np.empty(len(self.plans), dtype=np.int64)
        lens: List[int] = []
        idx_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        for k, plan in enumerate(self.plans):
            targets[k] = plan.target
            ranks[k] = plan.rank
            lens.append(plan.rows_union.size)
            lens.append(plan.cols_union.size)
            idx_parts.append(plan.rows_union)
            idx_parts.append(plan.cols_union)
            for (l_idx, l_val), (r_idx, r_val) in zip(
                plan.left_factors, plan.right_factors
            ):
                lens.append(l_idx.size)
                lens.append(r_idx.size)
                idx_parts.append(l_idx)
                idx_parts.append(r_idx)
                val_parts.append(l_val)
                val_parts.append(r_val)
        return PackedPlanBatch(
            targets=targets,
            ranks=ranks,
            lens=np.asarray(lens, dtype=np.int64),
            idx=(
                np.concatenate(idx_parts).astype(np.int64, copy=False)
                if idx_parts
                else _EMPTY_IDX
            ),
            val=(
                np.concatenate(val_parts)
                if val_parts
                else _EMPTY_VAL
            ),
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
    Theorem-4 records, and the sparse factors (the WAL encoding) are
    the members' factors concatenated.  No-op plans are dropped: with
    one plan left it is returned as is, with none the result is None.
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
    return UpdatePlan.from_panels(
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
    # Adding +0.0 turns γ's -0.0 entries into +0.0, so every zero a
    # panel holds matches the zeros a WAL-replayed plan densifies.
    np.add(vectors.gamma, 0.0, out=history[0, 1])
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
    return UpdatePlan.from_panels(
        target,
        rows_union,
        cols_union,
        np.ascontiguousarray(factors[:, 0][:, rows_union].T),
        np.ascontiguousarray(factors[:, 1][:, cols_union].T),
        affected=stats,
        vectors=vectors,
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
