"""Unified runtime telemetry: metrics, tracing, flight recording.

This package is the **runtime observability** spine of the stack — as
opposed to :mod:`repro.metrics`, which holds the paper's *evaluation*
metrics (NDCG, error norms, top-k overlap).  Three pillars, one
:class:`Telemetry` facade that every layer shares:

* :mod:`repro.telemetry.registry` — typed counters / gauges /
  fixed-bucket histograms with a near-zero-overhead no-op mode.
* :mod:`repro.telemetry.tracing` — per-request trace ids propagated
  front door → service → writer → executor, spans in a bounded ring.
* :mod:`repro.telemetry.flight` — a per-process event ring snapshotted
  to JSON when durability fails.
* :mod:`repro.telemetry.prometheus` — text-format exposition for
  ``GET /metrics?format=prometheus`` plus the minimal parser the tests
  and CI validate scrapes with.

``NULL_TELEMETRY`` is the shared disabled instance: standalone engines
(benchmark legs, unit tests) run against it and pay one no-op method
call per instrumentation point.
"""

from __future__ import annotations

from typing import Dict, Optional

from .flight import FlightRecorder, NullFlightRecorder
from .prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    render_prometheus,
    validate_scrape,
)
from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    GaugeGroup,
    Histogram,
    MetricRegistry,
    NullCounter,
    NullGauge,
    NullHistogram,
)
from .tracing import NullTracer, Span, Tracer, trace_sampled

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "MetricRegistry",
    "Counter",
    "Gauge",
    "GaugeGroup",
    "Histogram",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "Tracer",
    "NullTracer",
    "Span",
    "trace_sampled",
    "FlightRecorder",
    "NullFlightRecorder",
    "render_prometheus",
    "parse_prometheus_text",
    "validate_scrape",
    "PROMETHEUS_CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
]


class Telemetry:
    """One process's telemetry spine: registry + tracer + flight ring."""

    def __init__(
        self,
        enabled: bool = True,
        trace_sample_rate: float = 1.0,
        trace_capacity: int = 512,
        flight_capacity: int = 256,
        flight_dir: Optional[str] = None,
    ) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricRegistry(enabled=self.enabled)
        if self.enabled:
            self.tracer = Tracer(
                capacity=trace_capacity,
                sample_rate=trace_sample_rate,
            )
            self.flight = FlightRecorder(
                capacity=flight_capacity, directory=flight_dir
            )
        else:
            self.tracer = NullTracer()
            self.flight = NullFlightRecorder()

    @classmethod
    def from_config(cls, config) -> "Telemetry":
        """Build from a ``TelemetryConfig`` (or None → enabled defaults)."""
        if config is None:
            return cls()
        return cls(
            enabled=config.enabled,
            trace_sample_rate=config.trace_sample_rate,
            trace_capacity=config.trace_capacity,
            flight_capacity=config.flight_capacity,
            flight_dir=config.flight_dir,
        )

    def report(self) -> Dict:
        """The ``telemetry`` section of ``metrics_report()``."""
        return {
            "enabled": self.enabled,
            "tracing": self.tracer.report(),
            "flight": self.flight.report(),
            "histograms": self.registry.histogram_summaries(),
        }


#: Shared disabled instance — the default for standalone engines.
NULL_TELEMETRY = Telemetry(enabled=False)
