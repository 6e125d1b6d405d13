"""Matrix-form batch SimRank — the paper's **Batch** comparator.

Iterates Eq. (2) of the paper,

    S_{k+1} = C · Q · S_k · Qᵀ + (1 - C) · Iₙ,   S_0 = (1 - C) · Iₙ,

with a sparse ``Q`` and dense ``S``.  After ``K`` steps this equals the
truncated series ``(1-C)·Σ_{k=0..K} C^k Q^k (Qᵀ)^k`` (Eq. (16)/(34)), and
converges to the exact matrix-form fixed point with error at most
``C^{K+1}/(1-C)`` per entry.

The paper benchmarks against Yu et al.'s fine-grained-memoization batch
algorithm [6]; at reproduction scale the BLAS-backed sparse-dense
iteration below is the fastest batch method available and plays that
role.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SimRankConfig
from ..exceptions import ConvergenceError
from .base import default_config, resolve_q


def matrix_simrank(
    graph_or_q,
    config: SimRankConfig = None,
    tolerance: Optional[float] = None,
) -> np.ndarray:
    """Matrix-form SimRank via truncated series iteration.

    Parameters
    ----------
    graph_or_q:
        A :class:`~repro.graph.digraph.DynamicDiGraph` or a prebuilt
        backward transition matrix ``Q``.
    config:
        Damping and iteration count; defaults to the paper's evaluation
        settings (C=0.6, K=15).
    tolerance:
        Optional early-exit threshold on ``max |S_{k+1} - S_k|``.  When
        given and not reached within ``config.iterations`` steps, a
        :class:`~repro.exceptions.ConvergenceError` is raised.

    Returns
    -------
    numpy.ndarray
        The dense ``n x n`` similarity matrix ``S_K``.
    """
    cfg = default_config(config)
    q_matrix = resolve_q(graph_or_q)
    n = q_matrix.shape[0]
    constant = (1.0 - cfg.damping) * np.eye(n)
    current = constant.copy()
    for iteration in range(cfg.iterations):
        nxt = cfg.damping * (q_matrix @ current @ q_matrix.T) + constant
        if tolerance is not None:
            residual = float(np.max(np.abs(nxt - current), initial=0.0))
            if residual <= tolerance:
                return nxt
        current = nxt
    if tolerance is not None:
        residual = float(
            np.max(
                np.abs(
                    cfg.damping * (q_matrix @ current @ q_matrix.T)
                    + constant
                    - current
                ),
                initial=0.0,
            )
        )
        if residual > tolerance:
            raise ConvergenceError(
                f"matrix SimRank did not reach tolerance {tolerance} in "
                f"{cfg.iterations} iterations (residual {residual:.3e})",
                iterations=cfg.iterations,
                residual=residual,
            )
    return current


def batch_simrank(graph_or_q, config: SimRankConfig = None) -> np.ndarray:
    """Alias of :func:`matrix_simrank` under the paper's name **Batch**."""
    return matrix_simrank(graph_or_q, config)
