"""Intermediate-memory accounting for the Fig. 3 experiment.

The paper's "memory space" excludes the final ``n²`` score output and
counts only intermediate structures.  Two complementary tools:

* analytic estimators of each algorithm's working set, derived from the
  data structures this implementation actually allocates; and
* :func:`measure_peak_bytes`, a :mod:`tracemalloc`-based harness that
  measures the real allocation peak of an arbitrary callable.
"""

from __future__ import annotations

import tracemalloc
from typing import Callable, Tuple, TypeVar

from ..dtypes import resolve_dtype

T = TypeVar("T")

_FLOAT_BYTES = 8
_INDEX_BYTES = 8
#: The transition store's CSR index width (int32; see ``repro.linalg.qstore``).
_CSR_INDEX_BYTES = 4


def transition_store_bytes(num_nodes: int, num_edges: int) -> int:
    """Working set of the packed-CSR :class:`TransitionStore`.

    One CSR: ``indptr`` (``n + 1`` indices), ``indices`` (one per edge),
    ``data`` (one float per edge) and the per-row ``row_weight``
    vector.  Surgery builds new arrays instead of keeping spare slots,
    so this is exact at every version.
    """
    indptr = (num_nodes + 1) * _CSR_INDEX_BYTES
    entries = num_edges * (_CSR_INDEX_BYTES + _FLOAT_BYTES)
    row_weights = num_nodes * _FLOAT_BYTES
    return indptr + entries + row_weights


def inc_usr_intermediate_bytes(num_nodes: int, num_edges: int, iterations: int) -> int:
    """Working set of Algorithm 1 (Inc-uSR), excluding ``S`` itself.

    Counts the packed-CSR ``Q`` store, the six pooled workspace
    vectors (u, v, w, γ, scratch, xcol — see
    :class:`~repro.incremental.workspace.UpdateWorkspace`), the factor
    stack of ``K + 1`` vector pairs, and — dominating everything — the
    dense ``n x n`` accumulator ``M_k`` plus the transient ``n x n``
    outer-product block this implementation allocates each iteration
    (line 17 of Algorithm 1).
    """
    q_bytes = transition_store_bytes(num_nodes, num_edges)
    scratch = 6 * num_nodes * _FLOAT_BYTES
    factor_stack = 2 * (iterations + 1) * num_nodes * _FLOAT_BYTES
    dense_accumulator = 2 * num_nodes * num_nodes * _FLOAT_BYTES
    return q_bytes + scratch + factor_stack + dense_accumulator


def inc_sr_intermediate_bytes(
    num_nodes: int,
    num_edges: int,
    iterations: int,
    average_area: float,
    average_row_support: float,
) -> int:
    """Working set of Algorithm 2 (Inc-SR).

    The planner advances ``[ξ_k η_k]`` as dense ``n``-vectors and keeps
    all ``K + 1`` rounds (the frontier history); the plan it returns
    holds the two dense factor panels over the affected supports
    (``average_row_support`` rows per factor), and the apply adds one
    transient ``|A_k|x|B_k|`` outer-product block (``average_area``
    entries).  The ΔS entries themselves are written into the score
    matrix, which — like the paper's accounting — is excluded as output
    space.
    """
    q_bytes = transition_store_bytes(num_nodes, num_edges)
    scratch = 6 * num_nodes * _FLOAT_BYTES
    history = 2 * (iterations + 1) * num_nodes * _FLOAT_BYTES
    support = int(average_row_support)
    panels = 2 * (iterations + 1) * support * _FLOAT_BYTES
    transient_block = int(average_area) * _FLOAT_BYTES
    return q_bytes + scratch + history + panels + transient_block


def inc_svd_intermediate_bytes(num_nodes: int, rank: int) -> int:
    """Working set of Inc-SVD at target rank ``r``.

    Counts ``U``/``V`` (2·n·r), ``Σ`` (r), the Kronecker-lifted scoring
    system (r⁴ matrix entries of the ``r²×r²`` solve) and the ``n·r``
    densification buffer of ``U·M``.
    """
    factors = (2 * num_nodes * rank + rank) * _FLOAT_BYTES
    kron_system = (rank**4) * _FLOAT_BYTES
    densify = num_nodes * rank * _FLOAT_BYTES
    return factors + kron_system + densify


def score_store_bytes(num_nodes: int, dtype=None) -> int:
    """Allocated bytes of a freshly sharded score store.

    Independent of the shard size: shards are allocated tight at build
    time (each holds exactly its live ``rows × n`` float block), so the
    total is the plain ``n²`` score footprint at the store's storage
    ``dtype`` (float64 default; a float32 store halves it).  Growth
    slack appears only after node arrivals, and copy-on-write
    divergence is costed separately by :func:`snapshot_overhead_bytes`.
    """
    return num_nodes * num_nodes * resolve_dtype(dtype).itemsize


def snapshot_overhead_bytes(
    divergent_shards: int, shard_rows: int, num_nodes: int, dtype=None
) -> int:
    """Extra resident bytes one pinned snapshot costs the writer.

    Copy-on-write means a snapshot is free until the writer touches a
    shard; each divergent shard then keeps one retained copy of its
    ``shard_rows × n`` block alive for the snapshot — at the shard's
    storage ``dtype`` (float64 default), since copy-on-write clones
    preserve precision.  The worst case (writer touched everything) is
    one full ``n²`` retained version; the typical incremental case is
    the few shards overlapping the updates' affected rows.
    """
    rows = min(divergent_shards * shard_rows, num_nodes)
    return rows * num_nodes * resolve_dtype(dtype).itemsize


def batch_intermediate_bytes(num_nodes: int, num_edges: int) -> int:
    """Working set of the matrix-form Batch iteration (one dense temp)."""
    q_bytes = num_edges * (_FLOAT_BYTES + _INDEX_BYTES) + (num_nodes + 1) * _INDEX_BYTES
    dense_temp = num_nodes * num_nodes * _FLOAT_BYTES
    return q_bytes + dense_temp


def measure_peak_bytes(function: Callable[[], T]) -> Tuple[T, int]:
    """Run ``function`` under tracemalloc; return ``(result, peak_bytes)``.

    The peak is relative to the start of the call, so pre-existing
    allocations (e.g. the input ``S``) are not charged to the algorithm.
    """
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        result = function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, max(0, peak - baseline)


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count (``1.5 MB`` style, powers of 1024)."""
    size = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if size < 1024.0 or unit == "TB":
            return f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{size:.1f} TB"
