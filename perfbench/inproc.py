"""Layer wiring shared by the in-process workloads (cith-unit, dblp-durable).

:data:`TIMED_CALLS` names the public functions the traced run times and
the per-layer metric each one feeds; :func:`layer_metrics` turns one
traced phase into ``<metric>_ms`` (per-call p50) and ``<metric>_pct``
(share of the phase's wall time).
"""

from __future__ import annotations

from typing import Dict

from repro.durability.manager import DurabilityManager
from repro.executor.score_store import ScoreStore
from repro.executor.topk_index import ShardTopK
from repro.incremental import gamma, plan, row_update
from repro.incremental.plan import UpdatePlan
from repro.linalg.qstore import TransitionStore
from repro.serving.service import SimRankService

from .common import p50_ms
from .layers import LayerTimer, PlanCounter

#: ``(owner, attribute, metric)`` for every timed public call.  Two calls
#: may feed one metric (both ways the transition store takes a change).
TIMED_CALLS = (
    (gamma, "compute_update_vectors", "incremental.vectors"),
    (row_update, "general_update_vectors", "incremental.row_vectors"),
    (plan, "plan_rank_one", "incremental.plan"),
    (row_update, "consolidate_batch", "incremental.consolidate"),
    (ScoreStore, "apply_plan", "executor.apply"),
    (UpdatePlan, "panels", "executor.panels"),
    (ShardTopK, "on_plan", "executor.topk_patch"),
    (ShardTopK, "top_k", "executor.topk_query"),
    (TransitionStore, "apply_update", "linalg.q_update"),
    (TransitionStore, "set_row_from_graph", "linalg.q_update"),
    (SimRankService, "drain", "serving.drain"),
    (SimRankService, "top_k", "serving.query"),
    (DurabilityManager, "append_drain", "durability.append"),
    (DurabilityManager, "checkpoint", "durability.checkpoint"),
)

#: The calls that make up one unit update on the cith-unit path; their
#: summed time over the summed update time is the trace coverage.
UNIT_UPDATE_PARTS = (
    "incremental.vectors",
    "incremental.plan",
    "executor.apply",
    "linalg.q_update",
)


def plan_counter() -> PlanCounter:
    """A work counter on the in-process score store (installed at once)."""
    return PlanCounter(ScoreStore)


def layer_timer() -> LayerTimer:
    """A timer over :data:`TIMED_CALLS`; call ``install()`` to start."""
    return LayerTimer(TIMED_CALLS)


def layer_metrics(timer: LayerTimer, phase_seconds: float) -> Dict[str, tuple]:
    """Per-call p50 and phase share of every timed call in one phase.

    Calls that never happened produce no metric, so the run lists them
    as not exercised.
    """
    metrics: Dict[str, tuple] = {}
    for metric in sorted({name for _, _, name in TIMED_CALLS}):
        walls = timer.walls(metric)
        if not walls:
            continue
        metrics[f"{metric}_ms"] = (p50_ms(walls), "ms")
        metrics[f"{metric}_pct"] = (100.0 * sum(walls) / phase_seconds, "%")
    if timer.selfs("serving.drain"):
        metrics["serving.drain_self_ms"] = (
            p50_ms(timer.selfs("serving.drain")),
            "ms",
        )
    return metrics


def count_metrics(counts: Dict[str, int], updates: int, num_nodes: int):
    """Per-layer work ratios from exact plan counts."""
    plans = counts["plans"]
    return {
        "incremental.plan_rank": (
            counts["plan_rank_sum"] / plans if plans else 0.0,
            "count",
        ),
        "incremental.affected_fraction": (
            counts["affected_area"]
            / counts["affected_iterations"]
            / float(num_nodes) ** 2
            if counts["affected_iterations"]
            else 0.0,
            "ratio",
        ),
        "incremental.plans_per_update": (plans / updates, "ratio"),
        "executor.scatter_mb_per_update": (
            counts["scatter_entries"] * 2 * 8 / updates / 1e6,
            "MB",
        ),
    }
