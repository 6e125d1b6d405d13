"""Group-commit admission, driven through ``AdmissionBatcher`` directly.

The batcher holds at most one batch in flight: an idle batcher executes
a query at once (no timer), queries that arrive while a batch executes
park, and the settle step turns whatever parked into the next batch, up
to ``max_batch``.  The tests hold a batch's snapshot pin on a
``threading.Event`` so the parking is deterministic, not a race.  The
gated head is a ``single_source`` walk: walks always run in the thread
pool, while a similarity-only batch may run on the event loop, where a
gated pin would block the very loop that has to release it.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import SimRankConfig
from repro.frontdoor import FrontDoor
from repro.frontdoor.admission import AdmissionBatcher, execute_batch
from repro.graph.generators import erdos_renyi_digraph
from repro.serving import QueryRequest, SimRankService
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import render_prometheus, validate_scrape

CFG = SimRankConfig(damping=0.6, iterations=7)


@pytest.fixture
def service():
    graph = erdos_renyi_digraph(30, 0.1, seed=31)
    service = SimRankService(
        graph, CFG, initial_scores=matrix_simrank(graph, CFG)
    )
    yield service
    service.close()


@pytest.fixture
def background_service():
    graph = erdos_renyi_digraph(30, 0.1, seed=31)
    service = SimRankService(
        graph,
        CFG,
        initial_scores=matrix_simrank(graph, CFG),
        writer="background",
    )
    yield service
    service.close()


#: The gated head of a parking test: a walk, so its batch takes the pool.
WALK = QueryRequest(kind="single_source", node=5)


def _requests(count, n, seed=3):
    """A seeded similarity/single-source mix, pairs in both orders."""
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(count):
        if rng.random() < 0.6:
            a, b = (int(x) for x in rng.integers(n, size=2))
            requests.append(
                QueryRequest(kind="similarity", node_a=a, node_b=b)
            )
        else:
            requests.append(
                QueryRequest(kind="single_source", node=int(rng.integers(n)))
            )
    return requests


def _run_blocking(fn):
    return asyncio.get_running_loop().run_in_executor(None, fn)


class _GatedPin:
    """``pin_view`` whose first call blocks until released.

    ``fail_calls`` names the (1-based) calls that raise instead of
    pinning, standing in for a snapshot that cannot be taken.
    """

    def __init__(self, service, fail_calls=()):
        self._service = service
        self._fail_calls = set(fail_calls)
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self):
        self.calls += 1
        if self.calls == 1:
            self.entered.set()
            assert self.release.wait(10)
        if self.calls in self._fail_calls:
            raise RuntimeError(f"pin {self.calls} failed")
        return self._service.snapshot()


async def _park_behind(pin, batcher, first, rest):
    """Start ``first`` (it blocks in the pin), then park ``rest``."""
    head = asyncio.ensure_future(batcher.run(first))
    await _run_blocking(lambda: pin.entered.wait(10))
    tail = [asyncio.ensure_future(batcher.run(r)) for r in rest]
    await asyncio.sleep(0)  # every tail task reaches its future
    return head, tail


def _assert_solo_identical(view, request, result):
    solo = execute_batch(view, [request])[0]
    if request.kind == "similarity":
        assert result.value == solo.value
    else:
        assert np.array_equal(result.value, solo.value)


class TestGroupCommit:
    def test_idle_batcher_executes_without_a_timer(self, service, monkeypatch):
        request = QueryRequest(kind="similarity", node_a=7, node_b=2)

        async def body():
            loop = asyncio.get_running_loop()

            def no_timer(*args, **kwargs):
                raise AssertionError("admission armed a timer")

            monkeypatch.setattr(loop, "call_later", no_timer)
            batcher = AdmissionBatcher(
                service.snapshot, max_batch=8, run_blocking=_run_blocking
            )
            return await batcher.run(request)

        result = asyncio.run(body())
        assert result.batch_size == 1
        assert result.value == service.snapshot().similarity(7, 2)

    def test_parked_queries_settle_in_capped_batches(self, service):
        n = service.snapshot().num_nodes
        requests = [WALK] + _requests(7, n)
        pin = _GatedPin(service)

        async def body():
            batcher = AdmissionBatcher(
                pin,
                max_batch=3,
                run_blocking=_run_blocking,
                telemetry=service.telemetry,
            )
            head, tail = await _park_behind(
                pin, batcher, requests[0], requests[1:]
            )
            pin.release.set()
            results = await asyncio.wait_for(asyncio.gather(head, *tail), 10)
            return batcher, results

        batcher, results = asyncio.run(body())
        assert [r.batch_size for r in results] == [1, 3, 3, 3, 3, 3, 3, 1]
        assert pin.calls == 4  # one pin per batch
        view = service.snapshot()
        for request, result in zip(requests, results):
            assert result.version == view.version
            _assert_solo_identical(view, request, result)

        report = batcher.report()
        assert report["batches"] == 4
        assert report["batched_queries"] == 8
        assert report["mean_batch_size"] == 2.0
        assert report["max_batch_seen"] == 3
        assert report["max_batch"] == 3

        # The same histogram backs metrics_report() and the scrape.
        histograms = service.metrics_report()["telemetry"]["histograms"]
        sizes = histograms["repro_admission_batch_size"]
        assert sizes["count"] == 4
        assert sizes["mean"] == 2.0
        assert sizes["max"] == 3
        scrape = render_prometheus(service.telemetry.registry)
        validate_scrape(scrape)
        assert 'repro_admission_batch_size_bucket{le="1.0"} 2' in scrape
        assert 'repro_admission_batch_size_bucket{le="4.0"} 4' in scrape
        assert "repro_admission_batch_size_count 4" in scrape
        assert "repro_admission_batch_size_sum 8.0" in scrape

    def test_failed_batch_fails_alone_and_hands_over(self, service):
        requests = [WALK] + _requests(4, service.snapshot().num_nodes, seed=8)
        pin = _GatedPin(service, fail_calls={2})

        async def body():
            batcher = AdmissionBatcher(
                pin, max_batch=2, run_blocking=_run_blocking
            )
            head, tail = await _park_behind(
                pin, batcher, requests[0], requests[1:]
            )
            pin.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(head, *tail, return_exceptions=True), 10
            )
            # Idle again: a fresh query runs alone, at once.
            after = await batcher.run(requests[0])
            return results, after

        results, after = asyncio.run(body())
        assert results[0].batch_size == 1
        # Batch two (requests 1-2) lost its pin; only its members fail.
        for failed in results[1:3]:
            assert isinstance(failed, RuntimeError)
            assert "pin 2 failed" in str(failed)
        view = service.snapshot()
        for request, result in zip(requests[3:], results[3:]):
            assert result.batch_size == 2
            _assert_solo_identical(view, request, result)
        assert after.batch_size == 1
        assert pin.calls == 4

    def test_failed_lone_query_leaves_the_batcher_idle(self, service):
        request = QueryRequest(kind="similarity", node_a=1, node_b=4)
        calls = []

        def pin():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("no snapshot")
            return service.snapshot()

        async def body():
            batcher = AdmissionBatcher(
                pin, max_batch=4, run_blocking=_run_blocking
            )
            with pytest.raises(RuntimeError, match="no snapshot"):
                await batcher.run(request)
            return await batcher.run(request)

        assert asyncio.run(body()).batch_size == 1

    def test_drain_cancels_parked_queries(self, service):
        requests = _requests(4, service.snapshot().num_nodes, seed=13)
        pin = _GatedPin(service)

        async def body():
            batcher = AdmissionBatcher(
                pin,
                max_batch=8,
                run_blocking=_run_blocking,
                telemetry=service.telemetry,
            )
            head, tail = await _park_behind(
                pin, batcher, requests[0], requests[1:]
            )
            batcher.drain()
            pin.release.set()
            first = await head
            parked = await asyncio.gather(*tail, return_exceptions=True)
            return batcher, first, parked

        batcher, first, parked = asyncio.run(body())
        assert first.batch_size == 1
        assert all(isinstance(r, asyncio.CancelledError) for r in parked)
        # Nothing ran for the cancelled queries: one batch, one pin.
        assert pin.calls == 1
        assert batcher.report()["batches"] == 1


def _count_pool_hops(loop, monkeypatch):
    """Count ``loop.run_in_executor`` calls (still delegating to it)."""
    hops = []
    run_in_executor = loop.run_in_executor

    def counting(executor, fn, *args):
        hops.append(fn)
        return run_in_executor(executor, fn, *args)

    monkeypatch.setattr(loop, "run_in_executor", counting)
    return hops


class TestWhereBatchesRun:
    """Similarity-only batches against published views run on the loop;
    walks and sync pins (which wait for a drain) take the pool."""

    def test_similarity_runs_inline_and_walks_take_the_pool(
        self, background_service, monkeypatch
    ):
        service = background_service
        pair = QueryRequest(kind="similarity", node_a=3, node_b=11)

        async def body():
            hops = _count_pool_hops(asyncio.get_running_loop(), monkeypatch)
            batcher = FrontDoor(service).batcher
            alone = await batcher.run(pair)
            inline_hops = len(hops)
            walk = await batcher.run(WALK)
            return alone, inline_hops, walk, len(hops)

        alone, inline_hops, walk, total_hops = asyncio.run(body())
        assert inline_hops == 0
        assert total_hops == 1
        view = service.snapshot()
        _assert_solo_identical(view, pair, alone)
        _assert_solo_identical(view, WALK, walk)

    def test_similarity_parked_behind_a_walk_settles_together(
        self, background_service, monkeypatch
    ):
        service = background_service
        n = service.snapshot().num_nodes
        pairs = [
            request
            for request in _requests(12, n, seed=17)
            if request.kind == "similarity"
        ]
        pin = _GatedPin(service)

        async def body():
            hops = _count_pool_hops(asyncio.get_running_loop(), monkeypatch)
            batcher = AdmissionBatcher(
                pin,
                max_batch=64,
                run_blocking=_run_blocking,
                telemetry=service.telemetry,
                pin_never_waits=lambda: service.background,
            )
            head, tail = await _park_behind(pin, batcher, WALK, pairs)
            pin.release.set()
            results = await asyncio.wait_for(asyncio.gather(head, *tail), 10)
            return batcher, results, hops

        batcher, results, hops = asyncio.run(body())
        # The waiter in _park_behind, then the walk; the parked pairs
        # settled inline as one batch.
        assert len(hops) == 2
        assert pin.calls == 2
        assert results[0].batch_size == 1
        assert len(pairs) > 1
        assert [r.batch_size for r in results[1:]] == [len(pairs)] * len(pairs)
        assert batcher.report()["max_batch_seen"] == len(pairs)
        view = service.snapshot()
        for request, result in zip([WALK] + pairs, results):
            assert result.version == view.version
            _assert_solo_identical(view, request, result)

    def test_sync_service_batches_take_the_pool(self, service, monkeypatch):
        pair = QueryRequest(kind="similarity", node_a=3, node_b=11)

        async def body():
            hops = _count_pool_hops(asyncio.get_running_loop(), monkeypatch)
            result = await FrontDoor(service).batcher.run(pair)
            return result, len(hops)

        result, hops = asyncio.run(body())
        assert not service.background
        assert hops == 1
        _assert_solo_identical(service.snapshot(), pair, result)
