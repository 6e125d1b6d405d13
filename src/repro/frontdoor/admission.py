"""Batched query admission: one snapshot, one BLAS pass, many answers.

Under concurrent load the front door does not execute similarity and
single-source queries one at a time.  Admission is **group commit**, as
a database WAL commits: at most one batch is in flight.  A query that
finds the batcher idle executes at once; queries that arrive while a
batch executes park, and when that batch settles everything parked
(up to :attr:`FrontDoorConfig.admission_max_batch`) becomes the next
batch.  Batches grow with concurrency and cost nothing without it —
there is no timer.  Each batch pins **one** snapshot view and executes
as one vectorized pass:

* ``similarity`` — the requested ``(a, b)`` pairs are gathered from
  the frozen score shards with one fancy-indexing read per touched
  shard instead of one Python-level ``entry()`` call per query;
* ``single_source`` — the walk stacks of all requested sources are
  computed **stacked**: the unit vectors become the columns of one
  ``(n, b)`` matrix and the per-step sparse products ``QᵀX`` / ``QX``
  run as single sparse×dense-matrix calls.

The stacked path is **bit-identical per column** to the sequential
one: scipy's CSR/CSC sparse×matrix kernels accumulate every output
column in the same sequential nonzero order as their matrix×vector
kernels, and the dense Horner combination ``t + C·(Q·R)`` is
elementwise.  The equivalence is asserted by the test suite and spot
checked by the benchmark, so batching is a pure latency/throughput
optimization — answers never change by admission accident.

Where a batch runs depends on what it holds.  A batch of only
``similarity`` queries runs **on the event loop** when the pin is one
attribute read (a background writer's published view): its work is a
gather per touched shard, cheaper than the hop into the thread pool and
back.  Every other batch — any ``single_source`` walk (``K`` sparse
products per step), or a sync service's pin, which waits for an
in-flight drain — runs in the thread pool.  Since an inline batch never
yields, queries park only behind a pool batch, so batches form behind
walks.

Demultiplexing tags each :class:`QueryResult` with ``batched=True``
and the batch size, so the wire exposes how much coalescing the load
produced.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Sequence

import numpy as np

from ..exceptions import NodeNotFoundError
from ..serving.envelopes import QueryRequest, QueryResult
from ..simrank.queries import single_source_simrank
from ..telemetry import NULL_TELEMETRY, GaugeGroup

#: Bucket bounds of the per-batch query count histogram (counts, not
#: seconds); the top bound is the default ``admission_max_batch``.
ADMISSION_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def batched_similarity(view, pairs: Sequence[tuple]) -> List[float]:
    """Gather frozen scores for many ``(a, b)`` pairs, one read per shard.

    Bit-identical to per-pair :meth:`SnapshotView.similarity`: both are
    pure reads of the same canonical ``(min(a, b), max(a, b))`` frozen
    shard entry.
    """
    n = view.num_nodes
    for a, b in pairs:
        if not (0 <= a < n):
            raise NodeNotFoundError(a)
        if not (0 <= b < n):
            raise NodeNotFoundError(b)
    return view.scores.gather(
        [min(a, b) for a, b in pairs], [max(a, b) for a, b in pairs]
    )


def batched_single_source(view, nodes: Sequence[int]) -> np.ndarray:
    """Single-source scores for many sources in one stacked pass.

    Returns an ``(n, len(nodes))`` matrix whose column ``j`` is
    bit-identical to ``view.single_source(nodes[j])`` — the stacked
    sparse products accumulate each column in the same order as the
    vector path (see the module docstring).  Duplicate sources are
    fine (each gets its own column).
    """
    transitions = view.transitions
    config = view.config
    n = transitions.shape[0]
    for node in nodes:
        if not (0 <= node < n):
            raise NodeNotFoundError(node)
    if len(nodes) == 1:
        # Single column: the vector path *is* the batched path.
        return single_source_simrank(
            transitions, nodes[0], config
        ).reshape(n, 1)
    stacked = np.zeros((n, len(nodes)))
    for column, node in enumerate(nodes):
        stacked[node, column] = 1.0
    walk_stack = [stacked]
    for _ in range(config.iterations):
        stacked = transitions.rmatvec(stacked)
        walk_stack.append(stacked)
    result = walk_stack[-1].copy()
    for t_matrix in reversed(walk_stack[:-1]):
        result = t_matrix + config.damping * (transitions @ result)
    return (1.0 - config.damping) * result


def execute_batch(view, requests: Sequence[QueryRequest]) -> List[QueryResult]:
    """Run one admitted batch against one pinned view, demultiplexed.

    Only batchable kinds (``similarity``, ``single_source``) may
    appear; a request whose node ids are invalid gets its exception
    *in its own slot* via a sentinel re-raise at demux time, so one bad
    query never fails its batch-mates.
    """
    started = time.perf_counter()
    sim_slots: List[int] = []
    sim_pairs: List[tuple] = []
    source_slots: List[int] = []
    source_nodes: List[int] = []
    failures: Dict[int, BaseException] = {}
    for index, request in enumerate(requests):
        n = view.num_nodes
        if request.kind == "similarity":
            if not (0 <= request.node_a < n):
                failures[index] = NodeNotFoundError(request.node_a)
            elif not (0 <= request.node_b < n):
                failures[index] = NodeNotFoundError(request.node_b)
            else:
                sim_slots.append(index)
                sim_pairs.append((request.node_a, request.node_b))
        else:  # single_source (the batcher admits nothing else)
            if not (0 <= request.node < n):
                failures[index] = NodeNotFoundError(request.node)
            else:
                source_slots.append(index)
                source_nodes.append(request.node)

    values: Dict[int, object] = {}
    if sim_pairs:
        for slot, score in zip(
            sim_slots, batched_similarity(view, sim_pairs)
        ):
            values[slot] = score
    if source_nodes:
        columns = batched_single_source(view, source_nodes)
        for position, slot in enumerate(source_slots):
            values[slot] = columns[:, position].copy()
    elapsed = time.perf_counter() - started

    results: List[QueryResult] = []
    for index, request in enumerate(requests):
        if index in failures:
            results.append(failures[index])
            continue
        results.append(
            QueryResult(
                kind=request.kind,
                value=values[index],
                version=view.version,
                elapsed_seconds=elapsed,
                id=request.id,
                batched=True,
                batch_size=len(requests),
            )
        )
    return results


class AdmissionBatcher:
    """Group-commit admission in front of the batched executors.

    At most one batch is in flight.  ``await run(request)`` executes at
    once when the batcher is idle (a batch of one, no future, no task);
    while a batch executes, callers park on futures.  When a batch
    settles — answered or failed wholesale — whatever has parked, up to
    ``max_batch`` queries, becomes the next batch as one task, so a
    failed batch still hands over.  Every batch pins one freshly taken
    snapshot.  A batch holding a ``single_source`` walk runs **in the
    executor thread pool** (via ``run_blocking``), so the event loop
    keeps admitting during the sparse products.  A batch of only
    ``similarity`` queries runs inline on the loop when
    ``pin_never_waits()`` is true, i.e. when ``pin_view`` is an
    attribute read that no drain can hold up; otherwise (the default)
    it takes the pool too.
    """

    def __init__(
        self,
        pin_view,
        max_batch: int,
        run_blocking,
        telemetry=None,
        pin_never_waits=None,
    ) -> None:
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        self._pin_view = pin_view
        self.max_batch = int(max_batch)
        self._run_blocking = run_blocking
        self._pin_never_waits = pin_never_waits or (lambda: False)
        self._pending: List[tuple] = []
        self._busy = False
        #: The settle task of the batch in flight, if parked queries
        #: formed it (the event loop holds tasks only weakly).
        self._task = None
        self.max_batch_seen = 0
        self._telemetry = telemetry
        registry = telemetry.registry
        self._execute_hist = registry.histogram(
            "repro_admission_execute_seconds",
            help="Batched admission execute time (pin + vectorized pass)",
        )
        self._batch_hist = registry.histogram(
            "repro_admission_batch_size",
            buckets=ADMISSION_BATCH_BUCKETS,
            help="Queries per executed admission batch",
        )
        gauges = GaugeGroup(registry, "repro_admission")
        gauges.expose("max_batch", lambda: self.max_batch)
        gauges.expose("max_batch_seen", lambda: self.max_batch_seen)
        self._gauges = gauges

    async def run(self, request: QueryRequest) -> QueryResult:
        loop = asyncio.get_running_loop()
        if self._busy:
            future = loop.create_future()
            self._pending.append((request, future, loop.time()))
            return self._unwrap(await future)
        self._busy = True
        try:
            results = await self._execute([(request, None, loop.time())])
        finally:
            self._hand_over()
        return self._unwrap(results[0])

    def _hand_over(self) -> None:
        """Start the next batch from whatever parked, or go idle."""
        batch = self._pending[: self.max_batch]
        if not batch:
            self._busy = False
            self._task = None
            return
        del self._pending[: self.max_batch]
        self._task = asyncio.get_running_loop().create_task(
            self._settle(batch)
        )

    async def _settle(self, batch: List[tuple]) -> None:
        try:
            results = await self._execute(batch)
        except BaseException as exc:  # pin/execute failed wholesale
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise  # cancellation or interpreter exit
            return
        finally:
            self._hand_over()
        for (_, future, _), result in zip(batch, results):
            if not future.done():
                future.set_result(result)

    async def _execute(self, batch: List[tuple]):
        requests = [request for request, _, _ in batch]
        size = len(requests)
        tracer = self._telemetry.tracer
        now = asyncio.get_running_loop().time()
        traced = []
        for request, _, enqueued in batch:
            if tracer.sampled(request.trace_id):
                traced.append(request.trace_id)
                tracer.record(
                    "admission.wait",
                    request.trace_id,
                    now - enqueued,
                    batch_size=size,
                )

        def work():
            pin_started = time.perf_counter()
            view = self._pin_view()
            pin_elapsed = time.perf_counter() - pin_started
            exec_started = time.perf_counter()
            results = execute_batch(view, requests)
            exec_elapsed = time.perf_counter() - exec_started
            self._execute_hist.observe(pin_elapsed + exec_elapsed)
            self._batch_hist.observe(size)
            if size > self.max_batch_seen:
                self.max_batch_seen = size
            # The whole batch shares one pin and one vectorized pass, so
            # every traced member gets the same span timings tagged with
            # the fan-in it rode along with.
            for trace_id in traced:
                tracer.record(
                    "admission.pin",
                    trace_id,
                    pin_elapsed,
                    batch_size=size,
                    version=view.version,
                )
                tracer.record(
                    "admission.execute",
                    trace_id,
                    exec_elapsed,
                    batch_size=size,
                )
            return results

        if self._pin_never_waits() and all(
            request.kind == "similarity" for request in requests
        ):
            return work()
        return await self._run_blocking(work)

    @staticmethod
    def _unwrap(result):
        if isinstance(result, BaseException):
            raise result
        return result

    def drain(self) -> None:
        """Cancel every parked query (service shutting down)."""
        pending, self._pending = self._pending, []
        for _, future, _ in pending:
            if not future.done():
                future.cancel()

    def report(self) -> dict:
        """Admission counters for the metrics endpoint.

        ``batches``, ``batched_queries`` and ``mean_batch_size`` are
        read off the ``repro_admission_batch_size`` histogram (its
        count and sum), so they read zero when telemetry is off.
        """
        batches = self._batch_hist.count
        queries = int(self._batch_hist.sum)
        return {
            **self._gauges.report(),
            "batches": batches,
            "batched_queries": queries,
            "mean_batch_size": queries / batches if batches else 0.0,
        }
