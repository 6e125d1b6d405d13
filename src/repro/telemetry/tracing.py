"""Request tracing: minted/propagated trace ids and a bounded span ring.

A trace id is minted at the front door (or accepted verbatim from an
``X-Trace-Id`` header) and rides the request through every layer:
``QueryRequest`` envelopes carry it into admission batching, update
submissions remember it until the drain that folds them in, and the
drain's apply span lands in the same trace.

Spans are plain dicts in a bounded ring (``deque(maxlen)``, appends are
atomic under the GIL), exportable as JSON via :meth:`Tracer.export` or
the front door's ``GET /traces?trace_id=...``.

Sampling is **deterministic on the trace id** (CRC32, not the salted
``hash``), so every layer independently agrees whether a given trace
is recorded.  Explicitly supplied ids (the
``X-Trace-Id`` header) are always sampled: if a caller went to the
trouble of naming the trace, they want to see it.
"""

from __future__ import annotations

import threading
import time
import uuid
import zlib
from collections import deque
from typing import Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "trace_sampled"]

_SAMPLE_SPACE = 1 << 20


def trace_sampled(trace_id: str, sample_rate: float) -> bool:
    """Deterministic sampling decision (stable across processes)."""
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    bucket = zlib.crc32(trace_id.encode("utf-8")) % _SAMPLE_SPACE
    return bucket < int(sample_rate * _SAMPLE_SPACE)


class Span:
    """A timing scope bound to one trace; use as a context manager."""

    __slots__ = ("tracer", "name", "trace_id", "attrs", "_started", "_wall")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str, attrs):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.attrs = attrs
        self._started = 0.0
        self._wall = 0.0

    def __enter__(self) -> "Span":
        self._wall = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._started
        if exc_type is not None:
            self.attrs = dict(self.attrs or {})
            self.attrs["error"] = exc_type.__name__
        self.tracer.record(
            self.name,
            self.trace_id,
            duration_seconds=duration,
            start_time=self._wall,
            **(self.attrs or {}),
        )
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Mints trace ids and records sampled spans into a bounded ring."""

    def __init__(
        self,
        capacity: int = 512,
        sample_rate: float = 1.0,
        enabled: bool = True,
    ) -> None:
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        self.sample_rate = float(sample_rate)
        self._ring: deque = deque(maxlen=self.capacity)
        self._forced: set = set()
        self._forced_lock = threading.Lock()
        self.spans_recorded = 0
        self.spans_dropped = 0

    # ------------------------------------------------------------- #
    # Trace id lifecycle
    # ------------------------------------------------------------- #

    def mint(self) -> str:
        return uuid.uuid4().hex

    def admit(self, trace_id: Optional[str]) -> Optional[str]:
        """The front-door entry point: adopt an explicit id or mint one.

        Explicit ids (``X-Trace-Id``) bypass sampling — they are pinned
        as force-sampled for the ring's lifetime (bounded set).  Minted
        ids are returned only when the sampler keeps them, so an
        unsampled request carries no id at all and every downstream
        layer skips its spans with one ``is None`` check.
        """
        if not self.enabled:
            return trace_id
        if trace_id:
            with self._forced_lock:
                self._forced.add(trace_id)
                while len(self._forced) > 4 * self.capacity:
                    self._forced.pop()
            return trace_id
        minted = self.mint()
        return minted if trace_sampled(minted, self.sample_rate) else None

    def sampled(self, trace_id: Optional[str]) -> bool:
        if not self.enabled or not trace_id:
            return False
        if trace_sampled(trace_id, self.sample_rate):
            return True
        with self._forced_lock:
            return trace_id in self._forced

    # ------------------------------------------------------------- #
    # Span recording
    # ------------------------------------------------------------- #

    def span(self, name: str, trace_id: Optional[str], **attrs):
        """A timing context manager; no-op when the trace is unsampled."""
        if not self.sampled(trace_id):
            return _NULL_SPAN
        return Span(self, name, trace_id, attrs)

    def record(
        self,
        name: str,
        trace_id: Optional[str],
        duration_seconds: float,
        start_time: Optional[float] = None,
        **attrs,
    ) -> None:
        """Record an externally timed span (e.g. a measured drain)."""
        if not self.sampled(trace_id):
            return
        span = {
            "name": name,
            "trace_id": trace_id,
            "start_time": time.time() if start_time is None else start_time,
            "duration_ms": duration_seconds * 1e3,
        }
        if attrs:
            span["attrs"] = attrs
        if len(self._ring) == self.capacity:
            self.spans_dropped += 1
        self._ring.append(span)
        self.spans_recorded += 1

    # ------------------------------------------------------------- #
    # Export
    # ------------------------------------------------------------- #

    def export(self, trace_id: Optional[str] = None) -> List[Dict]:
        """JSON-ready spans, oldest first; optionally one trace only."""
        spans = list(self._ring)
        if trace_id is not None:
            spans = [s for s in spans if s["trace_id"] == trace_id]
        return spans

    def report(self) -> Dict[str, float]:
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "capacity": self.capacity,
            "spans_recorded": self.spans_recorded,
            "spans_dropped": self.spans_dropped,
            "spans_buffered": len(self._ring),
        }


class NullTracer:
    """Disabled tracing: every call is a cheap no-op."""

    __slots__ = ()

    enabled = False
    sample_rate = 0.0
    capacity = 0
    spans_recorded = 0
    spans_dropped = 0

    def mint(self) -> str:
        return uuid.uuid4().hex

    def admit(self, trace_id):
        return trace_id

    def sampled(self, trace_id) -> bool:
        return False

    def span(self, name, trace_id, **attrs):
        return _NULL_SPAN

    def record(self, name, trace_id, duration_seconds, **attrs) -> None:
        pass

    def export(self, trace_id=None) -> List[Dict]:
        return []

    def report(self) -> Dict[str, float]:
        return {
            "enabled": False,
            "sample_rate": 0.0,
            "capacity": 0,
            "spans_recorded": 0,
            "spans_dropped": 0,
            "spans_buffered": 0,
        }
