"""Tests for repro.frontdoor (wire protocol, admission, sessions, subs).

The contracts the network front door adds on top of the serving layer,
each asserted as an *exact* equality:

* **batched admission equivalence** — queries answered through the
  vectorized admission path are bit-identical to solo execution;
* **pinned-session stability** — a session's answers never change
  across drains, while fresh reads see monotone versions;
* **subscription reconstruction** — a client applying pushed deltas
  holds exactly the ranking a full recompute produces, at every drain
  point, digest-verified;
* **error taxonomy** — ConfigError is a 400, a closed service is a 503,
  an unknown session is a 404;
* **close discipline** — service close is idempotent and
  concurrent-safe, and the front door's stop releases every pinned
  snapshot.

No pytest-asyncio here: async flows run under ``asyncio.run`` so the
suite stays dependency-free like the package it tests.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro import SimRankConfig
from repro.exceptions import (
    BackpressureError,
    ConfigError,
    ProtocolError,
    ServiceClosedError,
    SessionNotFoundError,
)
from repro.frontdoor import FrontDoor, HTTPClient, ws_connect, ws_recv_json
from repro.frontdoor.admission import execute_batch
from repro.frontdoor.protocol import websocket_accept
from repro.frontdoor.sessions import SessionManager
from repro.frontdoor.subscriptions import (
    apply_delta,
    diff_ranking,
    ranking_digest,
)
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate
from repro.metrics.topk import top_k_pairs
from repro.serving import (
    FrontDoorConfig,
    QueryRequest,
    ServiceConfig,
    SimRankService,
    http_status,
    resolve_service_config,
)
from repro.simrank.matrix import matrix_simrank

from _streams import random_update_stream

CFG = SimRankConfig(damping=0.6, iterations=7)


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi_digraph(40, 0.08, seed=23)
    scores = matrix_simrank(graph, CFG)
    updates = random_update_stream(graph, 16, seed=29)
    return graph, scores, updates


def _service(workload, **kwargs):
    graph, scores, _ = workload
    return SimRankService(
        graph.copy(), CFG, initial_scores=scores.copy(), **kwargs
    )


async def _with_door(service, body, config=None):
    door = FrontDoor(service, config or FrontDoorConfig())
    await door.start()
    try:
        return await body(door)
    finally:
        await door.stop()


# ------------------------------------------------------------------ #
# Envelopes + config (satellite surface)
# ------------------------------------------------------------------ #


class TestEnvelopes:
    def test_request_validation(self):
        with pytest.raises(ConfigError):
            QueryRequest(kind="nope")
        with pytest.raises(ConfigError):
            QueryRequest(kind="similarity", node_a=1)  # node_b missing
        with pytest.raises(ConfigError):
            QueryRequest(kind="similarity", node_a=True, node_b=2)
        with pytest.raises(ConfigError):
            QueryRequest.from_dict(
                {"kind": "top_k", "k": 3, "bogus": 1}
            )

    def test_round_trip(self):
        request = QueryRequest(
            kind="single_source", node=4, session="abc", id="r1"
        )
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_status_taxonomy(self):
        assert http_status(ConfigError("x")) == 400
        assert http_status(BackpressureError("x")) == 429
        assert http_status(SessionNotFoundError("x")) == 404
        assert http_status(ServiceClosedError("x")) == 503
        assert http_status(ValueError("x")) == 500

    def test_batchable_kinds(self):
        assert QueryRequest(kind="similarity", node_a=0, node_b=1).batchable
        assert QueryRequest(kind="single_source", node=0).batchable
        assert not QueryRequest(kind="top_k", k=5).batchable


class TestServiceConfig:
    def test_json_round_trip(self, tmp_path):
        config = ServiceConfig(
            damping=0.7,
            writer="background",
            frontdoor=FrontDoorConfig(admission_max_batch=16),
        )
        path = tmp_path / "service.json"
        config.save(path)
        assert ServiceConfig.load(path) == config

    def test_kwarg_conflict_detected(self):
        config = ServiceConfig(writer="background")
        with pytest.raises(ConfigError, match="conflicts"):
            resolve_service_config(config, {"writer": "sync"})
        # Agreeing values are not a conflict.
        resolved = resolve_service_config(config, {"writer": "background"})
        assert resolved.writer == "background"

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceConfig(writer="turbo")
        with pytest.raises(ConfigError):
            FrontDoorConfig(admission_max_batch=0)
        with pytest.raises(ConfigError):
            FrontDoorConfig(subscription_max_k=0)
        # Configs saved before the executor knobs were removed must
        # fail loudly, naming the keys, not quietly serve in-process.
        with pytest.raises(ConfigError, match="executor.*workers"):
            ServiceConfig.from_dict({"executor": "process", "workers": 2})
        # Likewise a front door saved with the removed admission timer.
        with pytest.raises(ConfigError, match="admission_window"):
            ServiceConfig.from_dict(
                {"frontdoor": {"admission_window": 0.002}}
            )
        # And configs saved with the removed precision autotuner.
        with pytest.raises(ConfigError, match="precision_plan"):
            ServiceConfig.from_dict(
                {"precision": "float64", "precision_plan": None}
            )
        with pytest.raises(ConfigError, match="auto"):
            ServiceConfig.from_dict({"precision": "auto"})


# ------------------------------------------------------------------ #
# Admission: batched == unbatched, bit-identical
# ------------------------------------------------------------------ #


class TestAdmission:
    def test_batch_matches_solo_execution(self, workload):
        service = _service(workload)
        try:
            view = service.snapshot()
            rng = np.random.default_rng(5)
            n = view.num_nodes
            requests = []
            for _ in range(12):
                if rng.random() < 0.5:
                    requests.append(
                        QueryRequest(
                            kind="similarity",
                            node_a=int(rng.integers(n)),
                            node_b=int(rng.integers(n)),
                        )
                    )
                else:
                    requests.append(
                        QueryRequest(
                            kind="single_source", node=int(rng.integers(n))
                        )
                    )
            # Duplicate one request: dedup must not change answers.
            requests.append(requests[0])
            results = execute_batch(view, requests)
            for request, result in zip(requests, results):
                if request.kind == "similarity":
                    solo = view.similarity(request.node_a, request.node_b)
                    assert result.value == solo
                else:
                    solo = view.single_source(request.node)
                    assert np.array_equal(result.value, solo)
                assert result.batched
                assert result.batch_size == len(requests)
        finally:
            service.close()

    def test_invalid_slot_fails_alone(self, workload):
        service = _service(workload)
        try:
            view = service.snapshot()
            requests = [
                QueryRequest(kind="similarity", node_a=0, node_b=1),
                QueryRequest(kind="single_source", node=10_000),
                QueryRequest(kind="single_source", node=2),
            ]
            results = execute_batch(view, requests)
            assert results[0].value == view.similarity(0, 1)
            assert isinstance(results[1], Exception)
            assert np.array_equal(results[2].value, view.single_source(2))
        finally:
            service.close()

    def test_wire_batching_is_bit_identical(self, workload):
        """Concurrent clients through group-commit admission get exactly
        the solo answers — while a background writer drains."""
        service = _service(workload, writer="background")
        graph, _, updates = workload

        async def body(door):
            n = graph.num_nodes
            payloads = [
                {"kind": "similarity", "node_a": i % n, "node_b": (i * 3) % n}
                for i in range(10)
            ] + [{"kind": "single_source", "node": i} for i in range(6)]

            async def one(payload):
                async with HTTPClient(door.host, door.port) as solo:
                    return await solo.request("POST", "/query", payload)

            # Quiet round: nothing queued, so every answer comes from
            # the pinned version — wire values must be bit-identical
            # to the in-process snapshot (JSON repr round-trips
            # float64 exactly).
            view = service.snapshot()
            responses = await asyncio.gather(
                *[one(payload) for payload in payloads]
            )
            batch_sizes = set()
            for payload, (status, body_json) in zip(payloads, responses):
                assert status == 200
                assert body_json["version"] == view.version
                batch_sizes.add(body_json["batch_size"])
                if payload["kind"] == "similarity":
                    expected = view.similarity(
                        payload["node_a"], payload["node_b"]
                    )
                    assert body_json["value"] == expected
                else:
                    expected = view.single_source(payload["node"])
                    assert body_json["value"] == [
                        float(x) for x in expected
                    ]
            assert max(batch_sizes) > 1  # admission actually batched

            # Live round: the same concurrent mix while the background
            # writer is draining a real update stream.
            service.submit_many(updates)
            responses = await asyncio.gather(
                *[one(payload) for payload in payloads]
            )
            service.flush()
            for status, body_json in responses:
                assert status == 200
                assert body_json["version"] >= view.version
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()


# ------------------------------------------------------------------ #
# Sessions
# ------------------------------------------------------------------ #


class TestSessions:
    def test_manager_ttl_and_limits(self, workload):
        service = _service(workload)
        try:
            clock = {"now": 0.0}
            manager = SessionManager(
                default_ttl=10.0,
                max_sessions=2,
                clock=lambda: clock["now"],
            )
            view = service.snapshot()
            first = manager.create(view)
            manager.create(view, ttl=1.0)
            with pytest.raises(BackpressureError):
                manager.create(view)
            clock["now"] = 2.0  # second session expired; room again
            manager.create(view)
            assert manager.get(first).version == view.version
            clock["now"] = 50.0
            with pytest.raises(SessionNotFoundError):
                manager.get(first)
        finally:
            service.close()

    def test_pinned_session_bit_stable_under_drains(self, workload):
        service = _service(workload, writer="background")
        graph, _, updates = workload

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, created = await client.request(
                    "POST", "/session", {"ttl": 60}
                )
                assert status == 201
                session = created["session"]
                pairs = [(0, 1), (2, 3), (5, 7), (1, 1)]
                reference = {}
                for a, b in pairs:
                    status, body_json = await client.request(
                        "POST",
                        "/query",
                        {
                            "kind": "similarity",
                            "node_a": a,
                            "node_b": b,
                            "session": session,
                        },
                    )
                    assert status == 200
                    assert body_json["version"] == created["version"]
                    reference[(a, b)] = body_json["value"]

                service.submit_many(updates)
                service.flush()  # versions advance under the session

                last_version = -1
                for a, b in pairs:
                    status, pinned = await client.request(
                        "POST",
                        "/query",
                        {
                            "kind": "similarity",
                            "node_a": a,
                            "node_b": b,
                            "session": session,
                        },
                    )
                    assert status == 200
                    assert pinned["value"] == reference[(a, b)]
                    assert pinned["version"] == created["version"]
                    status, fresh = await client.request(
                        "POST",
                        "/query",
                        {"kind": "similarity", "node_a": a, "node_b": b},
                    )
                    assert status == 200
                    assert fresh["version"] >= max(
                        last_version, created["version"]
                    )
                    last_version = fresh["version"]

                status, _ = await client.request(
                    "DELETE", f"/session/{session}"
                )
                assert status == 200
                status, body_json = await client.request(
                    "POST",
                    "/query",
                    {
                        "kind": "similarity",
                        "node_a": 0,
                        "node_b": 1,
                        "session": session,
                    },
                )
                assert status == 404
                assert body_json["error"] == "SessionNotFoundError"
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()


# ------------------------------------------------------------------ #
# Subscriptions
# ------------------------------------------------------------------ #


class TestSubscriptions:
    def test_delta_primitives(self):
        old = [(0, 1, 0.5), (2, 3, 0.4), (4, 5, 0.3)]
        new = [(0, 1, 0.5), (4, 5, 0.45), (2, 3, 0.4), (6, 7, 0.2)]
        changed = diff_ranking(old, new)
        assert apply_delta(old, len(new), changed) == new
        shrunk = new[:2]
        assert apply_delta(new, 2, diff_ranking(new, shrunk)) == shrunk
        assert ranking_digest(new) != ranking_digest(old)
        assert ranking_digest(list(new)) == ranking_digest(new)

    def test_deltas_match_brute_force_at_every_drain(self, workload):
        """Reconstructed-from-deltas == top_k_pairs over the dense
        matrix, at each controlled drain point."""
        service = _service(workload, writer="background")
        graph, _, updates = workload
        k = 8

        async def body(door):
            reader, writer = await ws_connect(
                door.host, door.port, f"/ws/topk?k={k}"
            )
            try:
                message = await ws_recv_json(reader)
                assert message["type"] == "snapshot"
                ranking = [tuple(entry) for entry in message["ranking"]]
                assert ranking_digest(ranking) == message["digest"]
                assert ranking == top_k_pairs(
                    service.engine.similarities(), k
                )

                for start in range(0, len(updates), 4):
                    service.submit_many(updates[start : start + 4])
                    service.flush()
                    expected = top_k_pairs(
                        service.engine.similarities(), k
                    )
                    if expected == ranking:
                        continue  # nothing pushed for a no-op drain
                    message = await asyncio.wait_for(
                        ws_recv_json(reader), timeout=10
                    )
                    assert message["type"] == "delta"
                    ranking = apply_delta(
                        ranking, message["size"], message["changed"]
                    )
                    assert ranking_digest(ranking) == message["digest"]
                    assert ranking == expected
            finally:
                writer.close()
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()

    def test_k_out_of_range_refused(self, workload):
        service = _service(workload)

        async def body(door):
            with pytest.raises(ProtocolError):
                await ws_connect(door.host, door.port, "/ws/topk?k=0")
            with pytest.raises(ProtocolError):
                await ws_connect(door.host, door.port, "/ws/topk?k=999")
            return True

        config = FrontDoorConfig(subscription_max_k=20)
        try:
            assert asyncio.run(_with_door(service, body, config))
        finally:
            service.close()

    def test_stop_sends_terminal_frame(self, workload):
        service = _service(workload)

        async def body():
            door = FrontDoor(service, FrontDoorConfig())
            await door.start()
            reader, writer = await ws_connect(
                door.host, door.port, "/ws/topk?k=5"
            )
            snapshot = await ws_recv_json(reader)
            assert snapshot["type"] == "snapshot"
            await door.stop()
            closed = await asyncio.wait_for(ws_recv_json(reader), timeout=5)
            assert closed is None or closed.get("type") == "closed"
            writer.close()
            assert len(door.sessions) == 0
            return True

        try:
            assert asyncio.run(body())
        finally:
            service.close()


# ------------------------------------------------------------------ #
# Error taxonomy over the wire
# ------------------------------------------------------------------ #


class TestWireErrors:
    def test_bad_requests_are_400(self, workload):
        service = _service(workload)

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, body_json = await client.request(
                    "POST", "/query", {"kind": "bogus"}
                )
                assert status == 400
                assert body_json["error"] == "ConfigError"
                status, body_json = await client.request(
                    "POST", "/query", {"kind": "similarity", "node_a": 1}
                )
                assert status == 400
                status, _ = await client.request("GET", "/no/such/route")
                assert status == 400
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()

    def test_update_validation_rejects_poison(self, workload):
        graph, _, _ = workload
        edge = next(iter(graph.edges()))
        missing = None
        for a in range(graph.num_nodes):
            for b in range(graph.num_nodes):
                if a != b and not graph.has_edge(a, b):
                    missing = (a, b)
                    break
            if missing:
                break
        service = _service(workload)

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, body_json = await client.request(
                    "POST",
                    "/updates",
                    {
                        "updates": [
                            ["insert", *edge],  # duplicate: rejected
                            ["delete", *missing],  # absent: rejected
                            ["delete", *edge],  # valid
                            ["insert", *edge],  # valid again vs local effect
                        ],
                        "validate": True,
                    },
                )
                assert status == 200
                assert body_json["accepted"] == 2
                assert len(body_json["rejected"]) == 2
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()


# ------------------------------------------------------------------ #
# Close discipline
# ------------------------------------------------------------------ #


class TestClose:
    def test_close_is_idempotent_and_concurrent_safe(self, workload):
        service = _service(workload, writer="background")
        errors = []

        def closer():
            try:
                service.close()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.closed
        service.close()  # and again, sequentially
        with pytest.raises(ServiceClosedError):
            service.similarity(0, 1)
        with pytest.raises(ServiceClosedError):
            service.submit(EdgeUpdate.insert(0, 1))
        with pytest.raises(ServiceClosedError):
            service.snapshot()

    def test_door_stop_is_idempotent_and_releases_sessions(self, workload):
        service = _service(workload)

        async def body():
            door = FrontDoor(service, FrontDoorConfig())
            await door.start()
            async with HTTPClient(door.host, door.port) as client:
                for _ in range(3):
                    status, _ = await client.request(
                        "POST", "/session", {}
                    )
                    assert status == 201
                assert len(door.sessions) == 3
            await door.stop()
            await door.stop()  # idempotent
            assert len(door.sessions) == 0
            return True

        try:
            assert asyncio.run(body())
        finally:
            service.close()


# ------------------------------------------------------------------ #
# Protocol corners
# ------------------------------------------------------------------ #


class TestProtocol:
    def test_websocket_accept_rfc_vector(self):
        # The worked example from RFC 6455 section 1.3.
        assert (
            websocket_accept("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 400 Bad Request\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Sec-WebSocket-Accept: wrong\r\n\r\n",
        ],
        ids=["refused", "key-mismatch"],
    )
    def test_failed_handshake_closes_the_socket(self, monkeypatch, reply):
        opened = []
        open_connection = asyncio.open_connection

        async def recording_open(*args, **kwargs):
            reader, writer = await open_connection(*args, **kwargs)
            opened.append(writer)
            return reader, writer

        async def handler(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(reply)
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def body():
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with pytest.raises(ProtocolError):
                    await ws_connect("127.0.0.1", port, "/ws/topk?k=5")

        monkeypatch.setattr(asyncio, "open_connection", recording_open)
        asyncio.run(body())
        (writer,) = opened
        assert writer.is_closing()

    def test_malformed_http_is_400_not_a_crash(self, workload):
        service = _service(workload)

        async def body(door):
            reader, writer = await asyncio.open_connection(
                door.host, door.port
            )
            writer.write(b"NOT A REQUEST\r\n\r\n")
            await writer.drain()
            response = await reader.read(200)
            assert b"400" in response.split(b"\r\n")[0]
            writer.close()
            # The server survived: a normal request still works.
            async with HTTPClient(door.host, door.port) as client:
                status, _ = await client.request("GET", "/health")
                assert status == 200
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()

    def test_query_result_survives_json(self, workload):
        service = _service(workload)
        try:
            result = service.query(
                {"kind": "single_source", "node": 3}
            )
            over_wire = json.loads(json.dumps(result.to_dict()))
            assert over_wire["value"] == [
                float(x) for x in result.value
            ]
            pair = service.query(
                {"kind": "similarity", "node_a": 1, "node_b": 2}
            )
            assert json.loads(json.dumps(pair.to_dict()))["value"] == float(
                pair.value
            )
        finally:
            service.close()


# ------------------------------------------------------------------ #
# Telemetry over the wire
# ------------------------------------------------------------------ #


class TestTelemetryWire:
    def test_explicit_trace_id_spans_query_path(self, workload):
        """A client-supplied ``X-Trace-Id`` is force-sampled and every
        layer the request crosses lands a span under it: the admission
        wait, the snapshot pin, the vectorized execute, and the front
        door dispatch itself."""
        service = _service(workload)

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, body_json = await client.request(
                    "POST",
                    "/query",
                    {"kind": "similarity", "node_a": 1, "node_b": 2},
                    headers={"X-Trace-Id": "trace-e2e-query"},
                )
                assert status == 200
                assert body_json["trace_id"] == "trace-e2e-query"
                status, traces = await client.request(
                    "GET", "/traces?trace_id=trace-e2e-query"
                )
                assert status == 200
                names = [span["name"] for span in traces["spans"]]
                for expected in (
                    "admission.wait",
                    "admission.pin",
                    "admission.execute",
                    "frontdoor.query",
                ):
                    assert expected in names, names
                execute = traces["spans"][names.index("admission.execute")]
                assert execute["attrs"]["batch_size"] >= 1  # fan-in
                for span in traces["spans"]:
                    assert span["trace_id"] == "trace-e2e-query"
                    assert span["duration_ms"] >= 0.0
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()

    def test_update_trace_reaches_drain(self, workload):
        """An ``X-Trace-Id`` on POST /updates follows the accepted
        updates through the background drain: the flush-side apply span
        lands in the same trace the client named."""
        graph, _, _ = workload
        edge = next(iter(graph.edges()))
        service = _service(workload)

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, body_json = await client.request(
                    "POST",
                    "/updates",
                    {"updates": [["delete", *edge]]},
                    headers={"X-Trace-Id": "trace-e2e-update"},
                )
                assert status == 200
                assert body_json["accepted"] == 1
                assert body_json["trace_id"] == "trace-e2e-update"
                status, _ = await client.request("POST", "/flush", {})
                assert status == 200
                status, traces = await client.request(
                    "GET", "/traces?trace_id=trace-e2e-update"
                )
                assert status == 200
                names = [span["name"] for span in traces["spans"]]
                assert "updates.submit" in names, names
                assert "drain.apply" in names, names
                drain = traces["spans"][names.index("drain.apply")]
                assert drain["attrs"]["updates"] >= 1
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()

    def test_prometheus_scrape_and_legacy_json(self, workload):
        """`/metrics?format=prometheus` serves valid text exposition;
        the JSON default keeps every historical front-door key."""
        from repro.telemetry import validate_scrape

        service = _service(workload)

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, _ = await client.request(
                    "POST",
                    "/query",
                    {"kind": "similarity", "node_a": 0, "node_b": 3},
                )
                assert status == 200
                status, text = await client.request(
                    "GET", "/metrics?format=prometheus", raw=True
                )
                assert status == 200
                summary = validate_scrape(text)
                assert summary["families"] > 10
                assert summary["histograms"] >= 1
                assert "repro_frontdoor_request_seconds_bucket" in text

                status, report = await client.request("GET", "/metrics")
                assert status == 200
                frontdoor = report["frontdoor"]
                assert set(frontdoor["admission"]) == {
                    "max_batch",
                    "batches",
                    "batched_queries",
                    "mean_batch_size",
                    "max_batch_seen",
                }
                assert set(frontdoor["sessions"]) == {
                    "active",
                    "max_sessions",
                    "default_ttl_seconds",
                    "created",
                    "expired",
                    "released",
                    "pinned_bytes",
                }
                assert set(frontdoor["subscriptions"]) == {
                    "active",
                    "max_k",
                    "polls",
                    "deltas_pushed",
                    "skipped_by_revision",
                    "quiet_rounds",
                }
                assert "telemetry" in report
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()

    def test_unsampled_requests_carry_no_trace(self, workload):
        """With sampling off, minted ids are dropped at the door:
        responses carry no trace_id and the span ring stays empty."""
        from repro.serving import TelemetryConfig

        graph, scores, _ = workload
        config = ServiceConfig(
            damping=CFG.damping,
            iterations=CFG.iterations,
            telemetry=TelemetryConfig(trace_sample_rate=0.0),
        )
        service = SimRankService(
            graph.copy(), config, initial_scores=scores.copy()
        )

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, body_json = await client.request(
                    "POST",
                    "/query",
                    {"kind": "similarity", "node_a": 1, "node_b": 2},
                )
                assert status == 200
                assert "trace_id" not in body_json
                status, traces = await client.request("GET", "/traces")
                assert status == 200
                assert traces["spans"] == []
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()
