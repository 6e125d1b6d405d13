"""Tests for repro.frontdoor (wire protocol, admission, routes).

The contracts the network front door adds on top of the serving layer,
each asserted as an *exact* equality:

* **batched admission equivalence** — queries answered through the
  vectorized admission path are bit-identical to solo execution;
* **error taxonomy** — ConfigError is a 400, a closed service is a 503,
  a malformed request or an unknown route is a 400 that leaves the
  server serving;
* **close discipline** — service close is idempotent and
  concurrent-safe, and the front door's stop is idempotent even with a
  client still connected.

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
)
from repro.frontdoor import FrontDoor, HTTPClient
from repro.frontdoor.admission import execute_batch
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
            kind="single_source", node=4, id="r1"
        )
        assert QueryRequest.from_dict(request.to_dict()) == request

    def test_status_taxonomy(self):
        assert http_status(ConfigError("x")) == 400
        assert http_status(BackpressureError("x")) == 429
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
        # Configs saved before the executor knobs were removed must
        # fail loudly, naming the keys, not quietly serve in-process.
        with pytest.raises(ConfigError, match="executor.*workers"):
            ServiceConfig.from_dict({"executor": "process", "workers": 2})
        # Likewise a front door saved with the removed admission timer.
        with pytest.raises(ConfigError, match="admission_window"):
            ServiceConfig.from_dict(
                {"frontdoor": {"admission_window": 0.002}}
            )
        # And one saved with the removed session and subscription knobs.
        for key, value in (
            ("session_ttl", 30.0),
            ("max_sessions", 1024),
            ("subscription_max_k", 100),
        ):
            with pytest.raises(ConfigError, match=key):
                ServiceConfig.from_dict({"frontdoor": {key: value}})
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
# Fresh reads under drains
# ------------------------------------------------------------------ #


class TestWireReads:
    def test_top_k_matches_brute_force_at_every_drain(self, workload):
        """``/query`` top-k equals ``top_k_pairs`` over the dense matrix
        at each drain point, and fresh versions never go backwards."""
        service = _service(workload, writer="background")
        _, _, updates = workload
        k = 8

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                last_version = -1
                for start in range(0, len(updates), 4):
                    service.submit_many(updates[start : start + 4])
                    service.flush()
                    status, body_json = await client.request(
                        "POST", "/query", {"kind": "top_k", "k": k}
                    )
                    assert status == 200
                    ranking = [tuple(entry) for entry in body_json["value"]]
                    assert ranking == top_k_pairs(
                        service.engine.similarities(), k
                    )
                    assert body_json["version"] == service.version
                    assert body_json["version"] >= last_version
                    last_version = body_json["version"]
            return True

        try:
            assert asyncio.run(_with_door(service, body))
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
                # JSON ``true`` is a Python int; it must not pass as
                # node 1 and queue the edge 1 -> 3.
                _, before = await client.request("GET", "/health")
                for entry in (["insert", True, 3], ["delete", 3, False]):
                    status, body_json = await client.request(
                        "POST", "/updates", {"updates": [entry]}
                    )
                    assert status == 400
                    assert body_json["error"] == "ProtocolError"
                _, after = await client.request("GET", "/health")
                assert after["version"] == before["version"]
                assert after["pending"] == before["pending"] == 0
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

    def test_door_stop_is_idempotent_with_client_connected(self, workload):
        service = _service(workload)

        async def body():
            door = FrontDoor(service, FrontDoorConfig())
            await door.start()
            async with HTTPClient(door.host, door.port) as client:
                status, _ = await client.request("GET", "/health")
                assert status == 200
                # The keep-alive connection is still open: stop must
                # close it rather than wait for the client to leave.
                await asyncio.wait_for(door.stop(), timeout=10)
                await asyncio.wait_for(door.stop(), timeout=10)
                with pytest.raises((ProtocolError, ConnectionError)):
                    await client.request("GET", "/health")
            return True

        try:
            assert asyncio.run(body())
        finally:
            service.close()


# ------------------------------------------------------------------ #
# Protocol corners
# ------------------------------------------------------------------ #


class TestProtocol:
    def test_removed_routes_are_400_and_server_keeps_serving(
        self, workload
    ):
        """Pinned sessions and top-k push are gone: their routes are
        plain unknown routes, and a query naming a session is refused
        as carrying an unknown field."""
        service = _service(workload)

        async def body(door):
            async with HTTPClient(door.host, door.port) as client:
                status, body_json = await client.request(
                    "POST", "/session", {}
                )
                assert status == 400
                assert body_json["error"] == "ProtocolError"
                status, body_json = await client.request(
                    "POST",
                    "/query",
                    {
                        "kind": "similarity",
                        "node_a": 0,
                        "node_b": 1,
                        "session": "abc",
                    },
                )
                assert status == 400
                assert body_json["error"] == "ConfigError"
                assert "unknown query fields" in body_json["message"]

            reader, writer = await asyncio.open_connection(
                door.host, door.port
            )
            try:
                writer.write(
                    b"GET /ws/topk?k=5 HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Upgrade: websocket\r\n"
                    b"Connection: Upgrade\r\n"
                    b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                    b"Sec-WebSocket-Version: 13\r\n\r\n"
                )
                await writer.drain()
                status_line = await reader.readuntil(b"\r\n")
                assert status_line.split(b" ")[1] == b"400"
            finally:
                writer.close()
                await writer.wait_closed()

            async with HTTPClient(door.host, door.port) as client:
                status, body_json = await client.request(
                    "POST",
                    "/query",
                    {"kind": "similarity", "node_a": 0, "node_b": 1},
                )
                assert status == 200
                assert body_json["value"] == service.similarity(0, 1)
            return True

        try:
            assert asyncio.run(_with_door(service, body))
        finally:
            service.close()

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
        the JSON default carries exactly the front-door keys."""
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
                assert set(frontdoor) == {
                    "host",
                    "port",
                    "requests_served",
                    "protocol_errors",
                    "status_counts",
                    "admission",
                }
                for removed in ("repro_sessions_", "repro_subscriptions_"):
                    assert removed not in text
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
