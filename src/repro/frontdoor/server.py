"""The async network front door over one :class:`SimRankService`.

One asyncio server, one listening socket, plain HTTP/1.1 with JSON
bodies:

========================== ===========================================
``GET /health``             liveness + version (+ durability state)
``GET /metrics``            service metrics + front-door gauges
                            (``?format=prometheus``: text exposition)
``GET /traces``             recorded spans (``?trace_id=`` filters)
``POST /query``             one :class:`QueryRequest` (JSON); batched
                            admission for ``similarity`` /
                            ``single_source``, shard-local index for
                            ``top_k``; ``?version=N`` reads a past
                            version from the data dir
``POST /updates``           submit edge updates (optional validation
                            against graph ∪ pending queue)
``POST /flush``             wait until everything queued is applied
========================== ===========================================

Design rules:

* the **event loop never waits on work that grows with the graph** —
  it parses, routes, demultiplexes, and answers a batch of only
  ``similarity`` queries against a background writer's published view
  (an attribute read plus one gather per touched shard); every other
  engine call (``single_source`` walks, a sync service's pin, which
  waits for a drain, ``top_k``, time-travel views, updates, ``/flush``,
  ``/metrics``) runs in the default thread-pool executor;
* **errors are the taxonomy** — every library exception maps through
  :func:`~repro.serving.envelopes.http_status`, so a closed service is
  a 503 and a full queue is a 429 on the wire exactly as they are
  in-process;
* **shutdown is graceful** — :meth:`stop` fails parked admission
  futures, then closes the listening socket and every open connection.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import time
from typing import Optional, Set

from ..exceptions import ConfigError, ProtocolError
from ..graph.updates import EdgeUpdate
from ..serving.config import FrontDoorConfig
from ..serving.envelopes import (
    QueryRequest,
    error_body,
    http_status,
    run_query,
)
from ..telemetry import (
    NULL_TELEMETRY,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from .admission import AdmissionBatcher
from .protocol import read_request, render_response, send_json


class _RawResponse:
    """A non-JSON route result: pre-rendered body + content type."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


class FrontDoor:
    """Serve one :class:`SimRankService` over HTTP."""

    def __init__(self, service, config: Optional[FrontDoorConfig] = None):
        if config is None:
            config = (
                service.service_config.frontdoor or FrontDoorConfig()
            )
        self._service = service
        self.config = config
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = False
        self._connections: Set[asyncio.StreamWriter] = set()
        self.telemetry = getattr(service, "telemetry", None) or NULL_TELEMETRY
        self.batcher = AdmissionBatcher(
            pin_view=service.snapshot,
            max_batch=config.admission_max_batch,
            run_blocking=self._run_blocking,
            telemetry=self.telemetry,
            # A background writer publishes views; pinning one is an
            # attribute read no drain holds up.
            pin_never_waits=lambda: service.background,
        )
        self.requests_served = 0
        self.protocol_errors = 0
        self.status_counts: dict = {}
        registry = self.telemetry.registry
        self._request_hist = registry.histogram(
            "repro_frontdoor_request_seconds",
            help="HTTP request latency at the front door (route + render)",
        )
        registry.gauge(
            "repro_frontdoor_requests_served",
            help="Requests accepted off the wire",
            fn=lambda: self.requests_served,
        )
        registry.gauge(
            "repro_frontdoor_protocol_errors",
            help="Requests rejected as malformed",
            fn=lambda: self.protocol_errors,
        )

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            raise ConfigError("front door is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def start(self) -> "FrontDoor":
        """Bind the listening socket."""
        if self._server is not None:
            raise ConfigError("front door already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self

    async def stop(self) -> None:
        """Graceful teardown; safe to call twice."""
        if self._stopping:
            return
        self._stopping = True
        self.batcher.drain()
        if self._server is not None:
            self._server.close()
            # An idle keep-alive client would otherwise hold its handler
            # (and, from Python 3.12, ``wait_closed``) open for good.
            for writer in tuple(self._connections):
                writer.close()
            await self._server.wait_closed()

    async def run_forever(self) -> None:
        """Start and serve until cancelled (the CLI entry point)."""
        await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    def _run_blocking(self, fn):
        return asyncio.get_running_loop().run_in_executor(None, fn)

    # ------------------------------------------------------------- #
    # Connection handling
    # ------------------------------------------------------------- #

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while not self._stopping:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    self.protocol_errors += 1
                    await send_json(
                        writer, 400, error_body(exc), keep_alive=False
                    )
                    return
                if request is None:
                    return
                self.requests_served += 1
                keep_open = await self._dispatch_http(request, writer)
                if not keep_open:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_http(self, request, writer) -> bool:
        started = time.perf_counter()
        try:
            status, payload = await self._route(request)
        except ProtocolError as exc:
            self.protocol_errors += 1
            status, payload = 400, error_body(exc)
        except Exception as exc:  # the taxonomy owns every failure
            status, payload = http_status(exc), error_body(exc)
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        keep_alive = request.keep_alive and status < 500
        if isinstance(payload, _RawResponse):
            writer.write(
                render_response(
                    status,
                    payload.body,
                    content_type=payload.content_type,
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
        else:
            await send_json(writer, status, payload, keep_alive=keep_alive)
        self._request_hist.observe(time.perf_counter() - started)
        return keep_alive

    async def _route(self, request):
        method, path = request.method, request.path
        if path == "/health" and method == "GET":
            return 200, self._health()
        if path == "/metrics" and method == "GET":
            if request.query.get("format") == "prometheus":
                # Callback gauges render from live attributes; no
                # blocking engine work happens here.
                body = render_prometheus(self.telemetry.registry)
                return 200, _RawResponse(
                    body.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                )
            report = await self._run_blocking(self._service.metrics_report)
            report["frontdoor"] = self.report()
            return 200, report
        if path == "/traces" and method == "GET":
            trace_id = request.query.get("trace_id")
            return 200, {
                "trace_id": trace_id,
                "spans": self.telemetry.tracer.export(trace_id),
            }
        if path == "/query" and method == "POST":
            return await self._handle_query(request)
        if path == "/updates" and method == "POST":
            return await self._handle_updates(request)
        if path == "/flush" and method == "POST":
            await self._run_blocking(self._service.flush)
            return 200, {"version": self._service.version}
        raise ProtocolError(f"no route for {method} {path}")

    def _health(self) -> dict:
        service = self._service
        health = {
            "status": "ok",
            "version": service.version,
            "num_nodes": service.num_nodes,
            "pending": service.pending,
        }
        manager = service.durability
        if manager is not None:
            health["durability"] = {
                "failed": manager.failed,
                "fsync": manager.config.fsync,
                "durable_version": manager.durable_version,
                "last_checkpoint_version": manager.last_checkpoint_version,
                "wal_bytes": manager.wal_bytes(),
                "wal_lag_drains": manager.wal_lag_drains(),
            }
        return health

    async def _handle_query(self, request):
        query = QueryRequest.from_dict(request.json())
        # The trace enters here: an explicit X-Trace-Id (or an id already
        # in the envelope) is adopted verbatim and force-sampled; without
        # one the tracer mints an id only when the sampler keeps it.
        tracer = self.telemetry.tracer
        trace_id = tracer.admit(
            query.trace_id or request.headers.get("x-trace-id")
        )
        if trace_id != query.trace_id:
            query = dataclasses.replace(query, trace_id=trace_id)
        raw_version = request.query.get("version")
        at_version = None
        if raw_version is not None:
            try:
                at_version = int(raw_version)
            except ValueError:
                raise ProtocolError(
                    f"version must be an integer: {raw_version!r}"
                )
        with tracer.span(
            "frontdoor.query", trace_id, kind=query.kind
        ):
            if at_version is not None:
                # Time-travel read: materialize the historical view off
                # the loop (checkpoint load + WAL replay can take a
                # while), then compute off it.
                def _travel():
                    view = self._service.view_at(at_version)
                    return run_query(view, query)

                result = await self._run_blocking(_travel)
            elif query.batchable:
                result = await self.batcher.run(query)
            else:
                result = await self._run_blocking(
                    functools.partial(self._service.query, query)
                )
        body = result.to_dict()
        if trace_id is not None and tracer.sampled(trace_id):
            body["trace_id"] = trace_id
        return 200, body

    async def _handle_updates(self, request):
        payload = request.json()
        if not isinstance(payload, dict) or "updates" not in payload:
            raise ProtocolError(
                "updates body must be {'updates': [[op, source, target]...]}"
            )
        validate = bool(payload.get("validate", False))
        updates = []
        for entry in payload["updates"]:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 3
                or entry[0] not in ("insert", "delete")
            ):
                raise ProtocolError(f"malformed update entry: {entry!r}")
            op, source, target = entry
            # JSON booleans are ints to Python; ``true`` is no node id.
            if any(
                isinstance(node, bool) or not isinstance(node, int)
                for node in (source, target)
            ):
                raise ProtocolError(f"malformed update entry: {entry!r}")
            updates.append(
                EdgeUpdate.insert(source, target)
                if op == "insert"
                else EdgeUpdate.delete(source, target)
            )

        def submit():
            if not validate:
                self._service.submit_many(updates)
                return len(updates), []
            return self._submit_validated(updates)

        tracer = self.telemetry.tracer
        trace_id = tracer.admit(request.headers.get("x-trace-id"))
        started = time.perf_counter()
        accepted, rejected = await self._run_blocking(submit)
        tracer.record(
            "updates.submit",
            trace_id,
            time.perf_counter() - started,
            accepted=accepted,
            rejected=len(rejected),
        )
        if accepted:
            # Remember the trace until the drain that folds these
            # updates in; the writer records the drain.apply span under
            # it.
            note = getattr(self._service, "note_origin_trace", None)
            if note is not None:
                note(trace_id)
        body = {
            "accepted": accepted,
            "rejected": rejected,
            "pending": self._service.pending,
        }
        if trace_id is not None and tracer.sampled(trace_id):
            body["trace_id"] = trace_id
        return 200, body

    def _submit_validated(self, updates):
        """Admit only updates valid against **graph ∪ pending queue**.

        An insert that duplicates an existing edge — or one already
        sitting in the coalescing queue — would fail the whole drain
        batch later (a poison batch pausing the background writer), so
        validation must see the queued net effects, not just the graph.
        Effects of earlier updates in this same request are tracked so
        an ``insert; delete`` pair in one payload validates like the
        sequential application it becomes.
        """
        service = self._service
        graph = service.engine.graph
        n = graph.num_nodes
        local: dict = {}
        accepted = []
        rejected = []
        for update in updates:
            source, target = update.source, update.target
            entry = [
                "insert" if update.is_insert else "delete",
                source,
                target,
            ]
            if not (0 <= source < n and 0 <= target < n):
                rejected.append(entry + ["unknown node"])
                continue
            key = (source, target)
            if key in local:
                exists = local[key]
            else:
                pending = service.scheduler.pending_effect(source, target)
                exists = (
                    pending
                    if pending is not None
                    else graph.has_edge(source, target)
                )
            if update.is_insert == exists:
                reason = (
                    "edge already exists" if exists else "edge not found"
                )
                rejected.append(entry + [reason])
                continue
            local[key] = update.is_insert
            accepted.append(update)
        if accepted:
            service.submit_many(accepted)
        return len(accepted), rejected

    # ------------------------------------------------------------- #
    # Introspection
    # ------------------------------------------------------------- #

    def report(self) -> dict:
        """Front-door gauges for ``GET /metrics``."""
        return {
            "host": self.config.host,
            "port": self._server.sockets[0].getsockname()[1]
            if self._server is not None
            else None,
            "requests_served": self.requests_served,
            "protocol_errors": self.protocol_errors,
            "status_counts": dict(self.status_counts),
            "admission": self.batcher.report(),
        }


async def serve_frontdoor(
    service, config: Optional[FrontDoorConfig] = None
) -> FrontDoor:
    """Start a front door and return it (caller owns ``stop()``)."""
    return await FrontDoor(service, config).start()
