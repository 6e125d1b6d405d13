"""Theorems 2–3: the update vectors ``γ`` and scalar ``λ``.

After the rank-one decomposition ``ΔQ = u·vᵀ`` (Theorem 1), the SimRank
update matrix is ``ΔS = M + Mᵀ`` with

    M = Σ_{k>=0} C^{k+1} · Q̃^k · e_j · γᵀ · (Q̃ᵀ)^k          (Eq. (26))

where ``γ`` folds ``u``'s scaling into the closed forms of Eqs. (27)–(28)
and ``λ`` is Eq. (29):

    λ = [S]_{i,i} + (1/C)·[S]_{j,j} − 2·[Q]_{j,:}·[S]_{:,i} − 1/C + 1.

Everything here is computed from the *old* ``Q`` and ``S`` only, using a
**single** sparse matrix–vector product ``w = Q·[S]_{:,i}`` plus
SAXPY-level vector work — this is lines 3–12 of Algorithm 1.  ``γ`` and
``λ`` share that one mat-vec via :func:`compute_gamma_lambda`; the
``q_matrix`` argument may be a scipy CSR matrix or a
:class:`~repro.linalg.qstore.TransitionStore`, and an optional
:class:`~repro.incremental.workspace.UpdateWorkspace` supplies pooled
output buffers (see that module for the aliasing contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config import SimRankConfig
from ..exceptions import DimensionError
from ..graph.updates import EdgeUpdate
from .workspace import UpdateWorkspace


@dataclass(frozen=True)
class UpdateVectors:
    """All precomputed quantities for one unit update.

    Attributes
    ----------
    u, v:
        The rank-one factors of ``ΔQ`` (Theorem 1), dense.
    gamma:
        The folded right-hand-side vector ``γ`` of Eq. (27)/(28).
    lam:
        The scalar ``λ`` of Eq. (29) (only meaningful for the
        ``d_j > 0`` insertion / ``d_j > 1`` deletion branches; exposed
        for tests in all cases).
    target_degree:
        ``d_j``, the in-degree of the target in the old graph.

    When produced through an :class:`UpdateWorkspace`, the arrays alias
    pooled buffers and are only valid until the next update.
    """

    u: np.ndarray
    v: np.ndarray
    gamma: np.ndarray
    lam: float
    target_degree: int


def _q_matvec(
    q_matrix,
    x: np.ndarray,
    workspace: Optional[UpdateWorkspace],
    name: str,
) -> np.ndarray:
    """``Q @ x`` routed into a pooled buffer when possible.

    A strided ``x`` (e.g. a matrix column) is staged into a contiguous
    pooled buffer first: scipy's CSR product reads ``x`` at random
    positions, which on a 1-element-per-cache-line strided column is
    several times slower than one sequential staging pass.
    """
    if workspace is not None and hasattr(q_matrix, "matvec"):
        n = q_matrix.shape[0]
        if not x.flags.c_contiguous:
            staged = workspace.vector("xcol", n)
            np.copyto(staged, x)
            x = staged
        return q_matrix.matvec(x, out=workspace.vector(name, n))
    return q_matrix @ x


def compute_gamma_lambda(
    q_matrix,
    s_matrix: np.ndarray,
    update: EdgeUpdate,
    target_degree: int,
    config: SimRankConfig,
    workspace: Optional[UpdateWorkspace] = None,
) -> Tuple[np.ndarray, float]:
    """``(γ, λ)`` of Theorems 2–3 from one shared mat-vec.

    Parameters
    ----------
    q_matrix, s_matrix:
        The transition and similarity matrices of the *old* graph;
        ``q_matrix`` may be CSR or a ``TransitionStore``.
    update:
        The unit update on edge ``(i, j)``.
    target_degree:
        ``d_j`` in the old graph.
    config:
        Supplies the damping factor ``C``.
    workspace:
        Optional buffer pool; when given, ``γ`` (and the internal
        mat-vec result) live in pooled buffers.
    """
    damping = config.damping
    n = q_matrix.shape[0]
    if s_matrix.shape != (n, n):
        raise DimensionError(
            f"S has shape {s_matrix.shape}, expected ({n}, {n})"
        )
    source, target = update.edge

    # Line 3 of Algorithm 1: w = Q · [S]_{:,i}  (the one sparse mat-vec,
    # shared by λ and every branch of γ).
    w_vector = _q_matvec(q_matrix, s_matrix[:, source], workspace, "w")
    # Line 4: λ from Eq. (29); [w]_j doubles as [Q]_{j,:}·[S]_{:,i}.
    lam = float(
        s_matrix[source, source]
        + s_matrix[target, target] / damping
        - 2.0 * w_vector[target]
        - 1.0 / damping
        + 1.0
    )

    if workspace is not None:
        gamma = workspace.vector("gamma", n)
        scratch = workspace.vector("scratch", n)
    else:
        gamma = np.empty(n)
        scratch = np.empty(n)

    if update.is_insert:
        if target_degree == 0:
            # Eq. (27), d_j = 0:  γ = Q·[S]_{:,i} + (1/2)[S]_{i,i}·e_j
            gamma[:] = w_vector
            gamma[target] += 0.5 * s_matrix[source, source]
            return gamma, lam
        # Eq. (27), d_j > 0.
        scale = 1.0 / (target_degree + 1)
        coefficient = lam * scale / 2.0 + 1.0 / damping - 1.0
        np.divide(s_matrix[:, target], damping, out=scratch)
        np.subtract(w_vector, scratch, out=gamma)
        gamma[target] += coefficient
        gamma *= scale
        return gamma, lam
    if target_degree == 1:
        # Eq. (28), d_j = 1:  γ = (1/2)[S]_{i,i}·e_j − Q·[S]_{:,i}
        np.negative(w_vector, out=gamma)
        gamma[target] += 0.5 * s_matrix[source, source]
        return gamma, lam
    # Eq. (28), d_j > 1.
    scale = 1.0 / (target_degree - 1)
    coefficient = lam * scale / 2.0 - 1.0 / damping + 1.0
    np.divide(s_matrix[:, target], damping, out=gamma)
    gamma -= w_vector
    gamma[target] += coefficient
    gamma *= scale
    return gamma, lam


def compute_gamma(
    q_matrix,
    s_matrix: np.ndarray,
    update: EdgeUpdate,
    target_degree: int,
    config: SimRankConfig,
) -> np.ndarray:
    """The vector ``γ`` of Theorem 3 (Eqs. (27)–(28)).

    Thin wrapper over :func:`compute_gamma_lambda` kept for callers that
    only need ``γ``; always returns a freshly allocated array.
    """
    return compute_gamma_lambda(
        q_matrix, s_matrix, update, target_degree, config
    )[0]


def compute_update_vectors(
    q_matrix,
    s_matrix: np.ndarray,
    update: EdgeUpdate,
    graph,
    config: SimRankConfig,
    workspace: Optional[UpdateWorkspace] = None,
) -> UpdateVectors:
    """Bundle ``(u, v, γ, λ, d_j)`` for a unit update (lines 1–12 of Alg. 1).

    The single ``Q·[S]_{:,i}`` mat-vec inside
    :func:`compute_gamma_lambda` supplies both ``γ`` and ``λ`` — nothing
    is computed twice.  With a ``workspace``, every returned vector
    aliases a pooled buffer (valid until the next update).
    """
    from .rank_one import rank_one_decomposition, target_in_degree

    degree = target_in_degree(graph, update)
    u_vector, v_vector = rank_one_decomposition(
        graph, update, workspace=workspace
    )
    gamma, lam = compute_gamma_lambda(
        q_matrix, s_matrix, update, degree, config, workspace=workspace
    )
    return UpdateVectors(
        u=u_vector,
        v=v_vector,
        gamma=gamma,
        lam=lam,
        target_degree=degree,
    )
