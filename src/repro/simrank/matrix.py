"""Matrix-form batch SimRank — the paper's **Batch** comparator.

Iterates Eq. (2) of the paper,

    S_{k+1} = C · Q · S_k · Qᵀ + (1 - C) · Iₙ,   S_0 = (1 - C) · Iₙ,

with a sparse ``Q`` and dense ``S``.  After ``K`` steps this equals the
truncated series ``(1-C)·Σ_{k=0..K} C^k Q^k (Qᵀ)^k`` (Eq. (16)/(34)), and
converges to the exact matrix-form fixed point with error at most
``C^{K+1}/(1-C)`` per entry.

**Why the iteration runs on the in-linked core only.**  Let ``A`` be the
nodes whose ``Q`` row has stored entries and ``Ā`` the rest.  A row of
``Q`` with no entries makes the matching row and column of
``Q·S_k·Qᵀ`` exact zeros, so off ``A×A`` every ``S_k`` is exactly
``(1-C)·I``, and only the dense block ``S_A`` changes.  One step then
reads, with ``X = Q[A, :]·S_k``:

* ``X[:, A] = Q[A, A]·S_A`` — the dropped terms ``Q[a, k]·S[k, j]``
  (``k ∈ Ā``) multiply an exact zero;
* ``X[:, Ā] = (1-C)·Q[A, Ā]`` — one nonzero term per entry, fixed for
  the whole iteration;
* ``S_A ← C·(Q[A, :]·Xᵀ)ᵀ + (1-C)·I``.

Both products are scipy's CSR products, which sum each entry's terms in
the row's stored order.  ``Q[A, A]`` keeps that order (a mask over the
stored entries, not scipy column indexing, which may sort them), and
adding an exact zero leaves a float sum unchanged, so the result is
bitwise equal to the full ``n×n`` iteration, and so are the
``tolerance`` residuals, since no entry off the core ever moves.  The
``n×n`` result is allocated once, at the end; each step costs products
and copies of ``|A|×|A|`` blocks.

The paper benchmarks against Yu et al.'s fine-grained-memoization batch
algorithm [6]; at reproduction scale the BLAS-backed sparse-dense
iteration below is the fastest batch method available and plays that
role.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

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
    damping = cfg.damping
    base = 1.0 - damping
    dtype = np.result_type(q_matrix.dtype, np.float64)

    # Relabel so the core A comes first (positions 0..m-1) and the rest
    # after it; the stored order within each row is kept as it is.
    lengths = np.diff(q_matrix.indptr)
    core = np.flatnonzero(lengths)
    m = core.size
    label = np.empty(n, dtype=np.int64)
    label[core] = np.arange(m)
    label[lengths == 0] = np.arange(m, n)
    nnz = q_matrix.indptr[-1]
    data = q_matrix.data[:nnz].astype(dtype, copy=False)
    columns = label[q_matrix.indices[:nnz]]
    rows_indptr = np.concatenate(([0], q_matrix.indptr[core + 1]))
    q_rows = sp.csr_matrix((data, columns, rows_indptr), shape=(m, n))
    inside = columns < m
    entry_row = np.repeat(np.arange(m), np.diff(rows_indptr))
    q_core = sp.csr_matrix(
        (
            data[inside],
            columns[inside],
            np.concatenate(
                ([0], np.cumsum(np.bincount(entry_row[inside], minlength=m)))
            ),
        ),
        shape=(m, m),
    )
    # xt = Xᵀ, laid out for the second product: rows A get Q[A, A]·S_A
    # every step, rows Ā hold the fixed (1-C)·Q[A, Ā]ᵀ.
    xt = np.zeros((n, m), dtype=dtype)
    outside = ~inside
    np.add.at(xt, (columns[outside], entry_row[outside]), data[outside] * base)

    def step(s_core: np.ndarray) -> np.ndarray:
        xt[:m] = (q_core @ s_core).T
        nxt = q_rows @ xt
        nxt *= damping
        nxt.flat[:: m + 1] += base
        return nxt.T

    current = base * np.eye(m, dtype=dtype)
    for _ in range(cfg.iterations):
        previous, current = current, step(current)
        if tolerance is not None and _max_change(current, previous) <= tolerance:
            break
    else:
        if tolerance is not None:
            residual = _max_change(step(current), current)
            if residual > tolerance:
                raise ConvergenceError(
                    f"matrix SimRank did not reach tolerance {tolerance} in "
                    f"{cfg.iterations} iterations (residual {residual:.3e})",
                    iterations=cfg.iterations,
                    residual=residual,
                )
    scores = np.zeros((n, n), dtype=dtype)
    scores.flat[:: n + 1] = base
    scores[np.ix_(core, core)] = current
    return scores


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old), initial=0.0))


def batch_simrank(graph_or_q, config: SimRankConfig = None) -> np.ndarray:
    """Alias of :func:`matrix_simrank` under the paper's name **Batch**."""
    return matrix_simrank(graph_or_q, config)
