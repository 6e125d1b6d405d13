"""The async network front door over one :class:`SimRankService`.

One asyncio server, one listening socket, two protocols:

========================== ===========================================
``GET /health``             liveness + version (+ durability state)
``GET /metrics``            service metrics + front-door gauges
``POST /query``             one :class:`QueryRequest` (JSON); batched
                            admission for ``similarity`` /
                            ``single_source``, shard-local index for
                            ``top_k``, pinned-session routing via the
                            envelope's ``session`` field
``POST /session``           pin the current snapshot; returns the id
``GET /session/<id>``       session metadata (refreshes the TTL)
``DELETE /session/<id>``    release the pin
``POST /updates``           submit edge updates (optional validation
                            against graph ∪ pending queue)
``POST /flush``             wait until everything queued is applied
``GET /ws/topk?k=K``        WebSocket: top-k delta subscription
========================== ===========================================

Design rules:

* the **event loop never blocks** — every engine call (query, drain
  wait, ranking) runs in the default thread-pool executor; the loop
  only parses, routes, and demultiplexes;
* **drains push, clients don't poll** — a
  :meth:`SimRankService.add_drain_listener` callback flips an asyncio
  event from the writer thread (``call_soon_threadsafe``), waking the
  push task that runs one subscription poll per drain burst;
* **errors are the taxonomy** — every library exception maps through
  :func:`~repro.serving.envelopes.http_status`, so a closed service is
  a 503 and a full queue is a 429 on the wire exactly as they are
  in-process;
* **shutdown is graceful** — :meth:`stop` sends every subscriber a
  terminal frame, releases every pinned session, fails parked
  admission futures, and only then closes the service-side listener.
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
from .protocol import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    encode_frame,
    handshake_response,
    read_frame,
    read_request,
    render_response,
    send_json,
    send_ws_json,
)
from .sessions import SessionManager
from .subscriptions import TopKSubscriptions

#: Sentinel queued to a subscriber to end its WebSocket.
_TERMINAL = object()


class _RawResponse:
    """A non-JSON route result: pre-rendered body + content type."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


class FrontDoor:
    """Serve one :class:`SimRankService` over HTTP + WebSocket."""

    def __init__(self, service, config: Optional[FrontDoorConfig] = None):
        if config is None:
            config = (
                service.service_config.frontdoor or FrontDoorConfig()
            )
        self._service = service
        self.config = config
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_event = asyncio.Event()
        self._stopping = False
        self._push_task: Optional[asyncio.Task] = None
        self._ws_tasks: Set[asyncio.Task] = set()
        self.telemetry = getattr(service, "telemetry", None) or NULL_TELEMETRY
        self.sessions = SessionManager(
            default_ttl=config.session_ttl,
            max_sessions=config.max_sessions,
            registry=self.telemetry.registry,
        )
        self.subscriptions = TopKSubscriptions(
            service,
            max_k=config.subscription_max_k,
            registry=self.telemetry.registry,
        )
        self.batcher = AdmissionBatcher(
            pin_view=service.snapshot,
            max_batch=config.admission_max_batch,
            run_blocking=self._run_blocking,
            telemetry=self.telemetry,
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
        """Bind the socket, hook the drain listener, start pushing."""
        if self._server is not None:
            raise ConfigError("front door already started")
        self._loop = asyncio.get_running_loop()
        self._service.add_drain_listener(self._on_drain)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._push_task = self._loop.create_task(self._push_loop())
        return self

    async def stop(self) -> None:
        """Graceful teardown; safe to call twice."""
        if self._stopping:
            return
        self._stopping = True
        self._service.remove_drain_listener(self._on_drain)
        self.batcher.drain()
        # Terminal frame to every subscriber, then let their handler
        # tasks finish the close handshake.
        for subscriber in self.subscriptions.drain_subscribers():
            subscriber.queue.put_nowait(_TERMINAL)
        if self._push_task is not None:
            self._drain_event.set()
            self._push_task.cancel()
            try:
                await self._push_task
            except asyncio.CancelledError:
                pass
        if self._ws_tasks:
            await asyncio.gather(
                *tuple(self._ws_tasks), return_exceptions=True
            )
        self.sessions.release_all()
        if self._server is not None:
            self._server.close()
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
    # Drain push pipeline
    # ------------------------------------------------------------- #

    def _on_drain(self, version: int) -> None:
        # Writer-thread context: hop to the loop with the one
        # threadsafe primitive; coalescing multiple drains into one
        # event-set is exactly right (the poll reads current state).
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._drain_event.set)

    async def _push_loop(self) -> None:
        while not self._stopping:
            await self._drain_event.wait()
            self._drain_event.clear()
            if self._stopping:
                return
            if not len(self.subscriptions):
                continue
            messages = await self._run_blocking(self.subscriptions.poll)
            for subscriber, message in messages:
                subscriber.queue.put_nowait(message)

    # ------------------------------------------------------------- #
    # Connection handling
    # ------------------------------------------------------------- #

    async def _handle_connection(self, reader, writer) -> None:
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
                if request.wants_websocket:
                    await self._handle_websocket(request, reader, writer)
                    return
                keep_open = await self._dispatch_http(request, writer)
                if not keep_open:
                    return
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
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
        if path == "/session" and method == "POST":
            return await self._handle_create_session(request)
        if path.startswith("/session/"):
            session_id = path[len("/session/"):]
            if method == "GET":
                return 200, self.sessions.info(session_id)
            if method == "DELETE":
                self.sessions.release(session_id)
                return 200, {"session": session_id, "released": True}
            raise ProtocolError(f"method {method} not allowed on {path}")
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
            "sessions": len(self.sessions),
            "subscribers": len(self.subscriptions),
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
            if query.session is not None:
                raise ProtocolError(
                    "?version= and a pinned session are mutually "
                    "exclusive (both name a fixed view)"
                )
        with tracer.span(
            "frontdoor.query", trace_id, kind=query.kind
        ):
            if at_version is not None:
                # Time-travel read: materialize the historical view off
                # the loop (checkpoint load + WAL replay can take a
                # while), then compute off it like a pinned session.
                def _travel():
                    view = self._service.view_at(at_version)
                    return run_query(view, query)

                result = await self._run_blocking(_travel)
            elif query.session is not None:
                # Pinned-session routing: resolve the frozen view on the
                # loop (the manager is loop-confined), compute off it.
                view = self.sessions.get(query.session)
                result = await self._run_blocking(
                    functools.partial(run_query, view, query)
                )
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

    async def _handle_create_session(self, request):
        payload = request.json() or {}
        if not isinstance(payload, dict):
            raise ProtocolError("session body must be a JSON object")
        ttl = payload.get("ttl")
        if ttl is not None and (
            not isinstance(ttl, (int, float)) or ttl <= 0
        ):
            raise ProtocolError(f"session ttl must be positive: {ttl!r}")
        view = await self._run_blocking(self._service.snapshot)
        session_id = self.sessions.create(view, ttl=ttl)
        return 201, {
            "session": session_id,
            "version": view.version,
            "ttl": ttl or self.config.session_ttl,
        }

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
            if not isinstance(source, int) or not isinstance(target, int):
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
    # WebSocket subscriptions
    # ------------------------------------------------------------- #

    async def _handle_websocket(self, request, reader, writer) -> None:
        key = request.headers.get("sec-websocket-key")
        if request.path != "/ws/topk" or key is None:
            self.protocol_errors += 1
            await send_json(
                writer,
                400,
                error_body(ProtocolError("bad websocket upgrade")),
                keep_alive=False,
            )
            return
        try:
            k = int(request.query.get("k", "10"))
            subscriber = self.subscriptions.add(k, asyncio.Queue())
        except (ValueError, ConfigError) as exc:
            self.protocol_errors += 1
            await send_json(
                writer, 400, error_body(ConfigError(str(exc))),
                keep_alive=False,
            )
            return
        writer.write(handshake_response(key))
        await writer.drain()
        task = asyncio.current_task()
        self._ws_tasks.add(task)
        try:
            snapshot = await self._run_blocking(
                functools.partial(self.subscriptions.prime, subscriber)
            )
            await send_ws_json(writer, snapshot)
            pump = asyncio.get_running_loop().create_task(
                self._ws_client_pump(reader, subscriber)
            )
            try:
                while True:
                    message = await subscriber.queue.get()
                    if message is _TERMINAL:
                        await send_ws_json(writer, {"type": "closed"})
                        break
                    await send_ws_json(writer, message)
            finally:
                pump.cancel()
                try:
                    await pump
                except asyncio.CancelledError:
                    pass
            writer.write(encode_frame(OP_CLOSE, b""))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self._ws_tasks.discard(task)
            self.subscriptions.remove(subscriber)

    async def _ws_client_pump(self, reader, subscriber) -> None:
        """Read the client side: answer pings, honor close frames."""
        try:
            while True:
                opcode, payload = await read_frame(reader)
                if opcode == OP_CLOSE:
                    subscriber.queue.put_nowait(_TERMINAL)
                    return
                if opcode in (OP_PING, OP_PONG):
                    continue  # the push task owns the writer; no pong
        except (
            ProtocolError,
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ):
            subscriber.queue.put_nowait(_TERMINAL)

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
            "sessions": self.sessions.report(),
            "subscriptions": self.subscriptions.report(),
        }


async def serve_frontdoor(
    service, config: Optional[FrontDoorConfig] = None
) -> FrontDoor:
    """Start a front door and return it (caller owns ``stop()``)."""
    return await FrontDoor(service, config).start()
