"""Typed query envelopes and the exception→HTTP-status taxonomy.

One request/response shape serves both surfaces: the in-process API
(:meth:`SimRankService.query` takes a :class:`QueryRequest` and returns
a :class:`QueryResult`) and the network front door (the HTTP JSON wire
format is exactly ``QueryRequest.to_dict()`` in and
``QueryResult.to_dict()`` out).  Because the dataclasses are shared
verbatim, an answer computed in-process and an answer parsed off the
wire are the same object shape carrying the same bit-exact values —
JSON float serialization uses ``repr`` round-tripping, so float64
scores survive the wire unchanged.

The error side is likewise shared: :data:`ERROR_STATUS` maps the
library's exception hierarchy onto HTTP status codes once, so
"queue full" means 429 and "service closed" means 503 whether the caller
sees the exception object or the wire status.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np

from ..exceptions import (
    BackpressureError,
    ConfigError,
    DimensionError,
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    HistoryUnavailableError,
    NodeNotFoundError,
    ProtocolError,
    ReproError,
    ServiceClosedError,
)

#: Legal query kinds.  ``similarity`` reads one precomputed score from
#: the pinned ``S`` shards; ``single_pair``/``single_source`` evaluate
#: the series form against the pinned ``Q``; ``top_k`` ranks pairs.
QUERY_KINDS = ("similarity", "single_pair", "single_source", "top_k")

#: Which envelope fields each kind requires.
_REQUIRED_BY_KIND = {
    "similarity": ("node_a", "node_b"),
    "single_pair": ("node_a", "node_b"),
    "single_source": ("node",),
    "top_k": ("k",),
}

#: The exception→HTTP-status taxonomy, first match wins.  Shared by the
#: in-process API (where the exception itself is the contract) and the
#: wire (where the status code is):
#:
#: ======================== ======
#: ``BackpressureError``     429
#: ``ServiceClosedError``    503
#: ``NodeNotFoundError``     404
#: ``EdgeNotFoundError``     404
#: ``HistoryUnavailableError`` 404
#: ``EdgeExistsError``       409
#: ``ProtocolError``         400
#: ``ConfigError``           400
#: ``DimensionError``        400
#: ``GraphError``            400
#: ``ReproError``            500
#: ======================== ======
ERROR_STATUS: Tuple[Tuple[type, int], ...] = (
    (BackpressureError, 429),
    (ServiceClosedError, 503),
    (NodeNotFoundError, 404),
    (EdgeNotFoundError, 404),
    (HistoryUnavailableError, 404),
    (EdgeExistsError, 409),
    (ProtocolError, 400),
    (ConfigError, 400),
    (DimensionError, 400),
    (GraphError, 400),
    (ReproError, 500),
)


def http_status(exc: BaseException) -> int:
    """The HTTP status code for one library exception (500 fallback)."""
    for exc_type, status in ERROR_STATUS:
        if isinstance(exc, exc_type):
            return status
    return 500


def error_body(exc: BaseException) -> dict:
    """The wire JSON body for one failed request."""
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "status": http_status(exc),
    }


def _coerce_index(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"query field {name!r} must be an integer, got {value!r}"
        )
    return int(value)


@dataclass(frozen=True)
class QueryRequest:
    """One read request, identical in-process and on the wire.

    Parameters
    ----------
    kind:
        One of :data:`QUERY_KINDS`.
    node_a, node_b:
        The pair for ``similarity``/``single_pair``.
    node:
        The source for ``single_source``.
    k:
        The ranking size for ``top_k``.
    id:
        Optional caller-chosen correlation id, echoed on the result.
    trace_id:
        Optional request-trace id (:mod:`repro.telemetry`).  The front
        door fills it from the ``X-Trace-Id`` header (or mints one when
        sampled); admission, pin, and gather spans are recorded under
        it.  ``None`` means the request is untraced; the field is
        dropped from the wire payload, so pre-telemetry clients and
        servers interoperate unchanged.
    """

    kind: str
    node_a: Optional[int] = None
    node_b: Optional[int] = None
    node: Optional[int] = None
    k: Optional[int] = None
    id: Optional[str] = None
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ConfigError(
                f"unknown query kind {self.kind!r}; expected one of "
                f"{QUERY_KINDS}"
            )
        for name in _REQUIRED_BY_KIND[self.kind]:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(
                    f"query kind {self.kind!r} requires field {name!r}"
                )
            object.__setattr__(self, name, _coerce_index(name, value))
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise ConfigError(
                f"trace_id must be a string, got {self.trace_id!r}"
            )

    @property
    def batchable(self) -> bool:
        """Whether the admission batcher may vectorize this kind."""
        return self.kind in ("similarity", "single_source")

    def to_dict(self) -> dict:
        """JSON-safe payload (None fields dropped)."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if getattr(self, spec.name) is not None
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryRequest":
        """Parse a wire payload; unknown keys are a 400-class error."""
        if not isinstance(payload, dict):
            raise ConfigError(
                f"query must be a JSON object, got {type(payload).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown query fields: {sorted(unknown)}")
        if "kind" not in payload:
            raise ConfigError("query is missing the 'kind' field")
        return cls(**payload)


@dataclass(frozen=True)
class QueryResult:
    """One read answer, identical in-process and on the wire.

    ``value`` is a float (``similarity``/``single_pair``), a list of
    per-node scores (``single_source``), or a list of
    ``[a, b, score]`` triples (``top_k``).  ``version`` is the engine
    version the answer was computed at; ``batched``/``batch_size``
    record whether the admission batcher vectorized the execution.
    """

    kind: str
    value: object
    version: int
    elapsed_seconds: float = 0.0
    id: Optional[str] = None
    batched: bool = False
    batch_size: int = 1

    def to_dict(self) -> dict:
        """JSON-safe payload (ndarray values become lists)."""
        value = self.value
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, list) and value and isinstance(value[0], tuple):
            value = [[int(a), int(b), float(s)] for a, b, s in value]
        elif isinstance(value, np.floating):
            value = float(value)
        payload = {
            "kind": self.kind,
            "value": value,
            "version": self.version,
            "elapsed_seconds": self.elapsed_seconds,
            "batched": self.batched,
            "batch_size": self.batch_size,
        }
        if self.id is not None:
            payload["id"] = self.id
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResult":
        """Parse a wire payload back into a result envelope."""
        if not isinstance(payload, dict):
            raise ConfigError(
                f"result must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        value = payload.get("value")
        if (
            isinstance(value, list)
            and value
            and isinstance(value[0], list)
            and len(value[0]) == 3
        ):
            value = [(int(a), int(b), float(s)) for a, b, s in value]
        return cls(
            kind=payload["kind"],
            value=value,
            version=int(payload["version"]),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            id=payload.get("id"),
            batched=bool(payload.get("batched", False)),
            batch_size=int(payload.get("batch_size", 1)),
        )


def execute_query(view, request: QueryRequest) -> object:
    """Run one request against a pinned view; returns the raw value.

    ``view`` is anything with the :class:`SnapshotView` read surface.
    The same function backs the in-process API, the front door's
    unbatched path, and the demultiplexed tail of a batched admission —
    so every path computes answers with identical arithmetic.
    """
    if request.kind == "similarity":
        return view.similarity(request.node_a, request.node_b)
    if request.kind == "single_pair":
        return view.single_pair(request.node_a, request.node_b)
    if request.kind == "single_source":
        return view.single_source(request.node)
    return view.top_k(request.k)


def run_query(view, request: QueryRequest) -> QueryResult:
    """Execute one request against a view and wrap the envelope."""
    started = time.perf_counter()
    value = execute_query(view, request)
    return QueryResult(
        kind=request.kind,
        value=value,
        version=view.version,
        elapsed_seconds=time.perf_counter() - started,
        id=request.id,
    )
