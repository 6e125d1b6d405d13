"""**Paper-evaluation** metrics — accuracy and memory of the algorithm.

This package answers "is the reproduction faithful?": the quantities
the source paper's experiments report, computed offline over score
matrices and rankings.

* :mod:`repro.metrics.topk` — top-k node-pair extraction.
* :mod:`repro.metrics.topk_tracker` — incrementally refreshed top-k
  churn tracking (rides the engine's shard-local heap index).
* :mod:`repro.metrics.ndcg` — NDCG@k over node-pair rankings (Fig. 4).
* :mod:`repro.metrics.error` — element-wise error norms between score
  matrices.
* :mod:`repro.metrics.memory` — intermediate-memory accounting (Fig. 3).

It is deliberately distinct from :mod:`repro.telemetry`, which answers
"is the *service* healthy right now?" — runtime counters, gauges,
latency histograms, request traces, and the crash flight recorder.
Rule of thumb: a number a figure in the paper could plot belongs here;
a number an operator would watch on a dashboard belongs in
:mod:`repro.telemetry`.  Serving-side gauges (writer queue depth,
backpressure counters, top-k ``heap_hit_rate``) are reported by
:meth:`repro.serving.service.SimRankService.metrics_report`, whose
``telemetry`` section is rendered by the telemetry registry.
"""

from .error import frobenius_error, max_abs_error, mean_abs_error
from .memory import score_store_bytes, snapshot_overhead_bytes
from .ndcg import ndcg_at_k, ndcg_of_pairs
from .topk import top_k_pairs
from .topk_tracker import TopKChurn, TopKTracker

__all__ = [
    "top_k_pairs",
    "TopKTracker",
    "TopKChurn",
    "score_store_bytes",
    "snapshot_overhead_bytes",
    "ndcg_at_k",
    "ndcg_of_pairs",
    "max_abs_error",
    "mean_abs_error",
    "frobenius_error",
]
