"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  The concrete
subclasses mirror the major subsystems: graph mutation errors, shape or
configuration errors in the numeric code, and convergence failures in the
iterative solvers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors raised by graph construction or mutation."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id referenced by an operation does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeExistsError(GraphError, ValueError):
    """Attempted to insert an edge that is already present."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r} -> {target!r}) already exists")
        self.source = source
        self.target = target


class EdgeNotFoundError(GraphError, KeyError):
    """Attempted to delete or reference an edge that is not present."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r} -> {target!r}) does not exist")
        self.source = source
        self.target = target


class ConfigError(ReproError, ValueError):
    """A configuration value is outside its legal domain."""


class BackpressureError(ReproError, RuntimeError):
    """A bounded update queue rejected a submit under the ``error`` policy.

    Raised by the serving layer's background writer when the pending
    queue is at capacity and the configured backpressure policy is
    ``"error"``; the caller decides whether to retry, shed load, or
    block on :meth:`~repro.serving.writer.BackgroundWriter.flush`.
    """


class ServiceClosedError(ReproError, RuntimeError):
    """The serving session was closed and no longer accepts requests.

    :meth:`~repro.serving.service.SimRankService.close` is idempotent
    and safe to call while a network front door is still serving; any
    request that races the shutdown gets this error instead of touching
    a released executor.  The wire taxonomy maps it to HTTP 503.
    """


class ProtocolError(ReproError, ValueError):
    """A malformed HTTP request reached the front door.

    Covers unparsable request lines, oversized headers/bodies, invalid
    JSON payloads, unknown routes and malformed update entries.  The
    wire taxonomy maps it to HTTP 400.
    """


class DimensionError(ReproError, ValueError):
    """A matrix or vector argument has an incompatible shape."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""

    def __init__(self, message: str, iterations: int, residual: float) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class CorruptLogError(ReproError, RuntimeError):
    """The write-ahead log is damaged beyond safe automatic repair.

    A torn tail — a partial final frame left by a crash mid-append — is
    *expected* damage and is silently truncated on recovery.  This
    error covers everything else: a CRC mismatch, a bad magic, or an
    impossible length in the *middle* of the log (valid frames follow
    the damage), where truncating would silently discard drains the
    service already acknowledged.  Recovery refuses to guess; the
    operator decides whether to restore from an older checkpoint or
    accept the loss explicitly.
    """

    def __init__(self, message: str, path: str = "", offset: int = -1) -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset


class HistoryUnavailableError(ReproError, KeyError):
    """A time-travel read asked for a version outside the retained window.

    Raised by ``score_at(version)`` / ``top_k_at(version)`` when the
    requested version predates the oldest retained checkpoint (pruned
    by the retention policy), lies beyond the current live version, or
    falls in a gap left by a durability failure.  The wire taxonomy
    maps it to HTTP 404.
    """

    def __init__(self, message: str) -> None:
        # KeyError repr()s its message; store it plainly for str().
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message
