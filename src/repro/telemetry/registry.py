"""Typed metric registry: counters, gauges, fixed-bucket histograms.

One registry instance is the telemetry spine of a process: every layer
(front door, service, writer, executor, durability) creates its
instruments here instead of hand-rolling gauge dicts.  Three instrument
types:

* :class:`Counter` — monotonically increasing, thread-safe.
* :class:`Gauge` — a point-in-time value, either set explicitly or
  backed by a zero-argument callback (the idiomatic way to expose an
  existing stats attribute without double bookkeeping).
* :class:`Histogram` — fixed upper-bound buckets with total count, sum,
  and tracked min/max; p50/p95/p99 are estimated by linear
  interpolation inside the containing bucket, so summaries cost O(1)
  memory regardless of sample volume.

Disabled registries hand out shared **null instruments** whose
``inc``/``set``/``observe`` are empty methods on allocation-free
singletons — the no-op mode costs one dynamic dispatch on the hot path
and nothing else (asserted by ``tests/test_telemetry.py`` with
``tracemalloc``).

:class:`GaugeGroup` is the dedup helper for the front-door stats
objects: declare each report field once (a name and a reader callback)
and the group both registers a callback gauge into the registry *and*
renders the exact legacy ``report()`` dict — key names and values are
identical whether telemetry is enabled or not, because the readers pull
from the stats object's own attributes.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "GaugeGroup",
    "Histogram",
    "MetricRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "DEFAULT_LATENCY_BUCKETS",
]

# Upper bounds in seconds, spanning sub-millisecond gathers to
# multi-second cold drains.  Roughly 2.5x steps: fine enough that
# interpolated p99 lands within ~2x of the true value, coarse enough
# that a histogram is 16 ints.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value", "_lock")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value — set explicitly or read from a callback."""

    __slots__ = ("name", "help", "_value", "_fn")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return float("nan")
        return self._value


class Histogram:
    """Fixed-bucket latency histogram with interpolated percentiles."""

    __slots__ = (
        "name",
        "help",
        "buckets",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # +1 = overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # Bisect by hand to avoid an import on the hot path; bucket
        # counts are small tuples so linear scan wins below ~20 bounds.
        index = 0
        for bound in self.buckets:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        """The largest observed value (0.0 before the first observe)."""
        return self._max if self._count else 0.0

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> float:
        """Estimate the ``q`` quantile (0..1) by in-bucket interpolation."""
        with self._lock:
            count = self._count
            if count == 0:
                return 0.0
            counts = list(self._counts)
            lo_value, hi_value = self._min, self._max
        target = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if cumulative + bucket_count >= target and bucket_count > 0:
                lower = (
                    lo_value
                    if index == 0
                    else self.buckets[index - 1]
                )
                upper = (
                    hi_value
                    if index >= len(self.buckets)
                    else min(self.buckets[index], hi_value)
                )
                lower = max(min(lower, upper), 0.0)
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return hi_value

    def summary(self) -> Dict[str, float]:
        """The JSON-facing digest: count/mean plus p50/p95/p99."""
        count = self._count
        return {
            "count": count,
            "mean": (self._sum / count) if count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


class NullCounter:
    """Allocation-free no-op counter (shared singleton)."""

    __slots__ = ()

    kind = "counter"
    name = "null"
    help = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge:
    __slots__ = ()

    kind = "gauge"
    name = "null"
    help = ""
    value = 0.0

    def set(self, value: float) -> None:
        pass


class NullHistogram:
    __slots__ = ()

    kind = "histogram"
    name = "null"
    help = ""
    buckets: Tuple[float, ...] = ()
    count = 0
    sum = 0.0
    max = 0.0

    def observe(self, value: float) -> None:
        pass

    def bucket_counts(self) -> List[int]:
        return []

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class MetricRegistry:
    """The per-process instrument registry.

    Factories are idempotent by name (the existing instrument is
    returned), so layers can create their instruments independently
    without coordinating.  A disabled registry returns the shared null
    instruments from every factory — callers hold a reference whose
    methods do nothing, and the hot path never branches on ``enabled``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get_or_create(name, lambda: Counter(name, help))

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        gauge = self._get_or_create(name, lambda: Gauge(name, help, fn))
        if fn is not None and gauge._fn is not fn:
            # Latest owner wins: a restarted writer (or a second front
            # door) re-registers its callback under the same name, and
            # the gauge must read the live object, not a dead one.
            gauge._fn = fn
        return gauge

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get_or_create(
            name, lambda: Histogram(name, buckets, help)
        )

    def _get_or_create(self, name: str, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            return instrument

    def get(self, name: str):
        return self._instruments.get(name)

    def collect(self) -> Iterable[object]:
        """Every registered instrument, name-ordered (stable exposition)."""
        with self._lock:
            return [
                self._instruments[name]
                for name in sorted(self._instruments)
            ]

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """All histogram digests keyed by metric name (JSON ``/metrics``)."""
        out: Dict[str, Dict[str, float]] = {}
        for instrument in self.collect():
            if instrument.kind == "histogram" and instrument.count:
                out[instrument.name] = instrument.summary()
        return out


class GaugeGroup:
    """Declare-once report fields shared between JSON and Prometheus.

    Each :meth:`expose` call registers ``<prefix>_<key>`` as a callback
    gauge in the registry *and* remembers the reader for
    :meth:`report`, which renders the legacy flat dict with the exact
    historical key names.  The readers pull live values from the owning
    stats object, so the report stays correct even when the registry is
    disabled (null gauges).
    """

    def __init__(self, registry: MetricRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix
        self._fields: List[Tuple[str, Callable[[], float]]] = []

    def expose(
        self, key: str, fn: Callable[[], float], help: str = ""
    ) -> None:
        self._fields.append((key, fn))
        self._registry.gauge(f"{self._prefix}_{key}", help=help, fn=fn)

    def report(self) -> Dict[str, float]:
        return {key: fn() for key, fn in self._fields}
