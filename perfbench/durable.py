"""dblp-durable: a sync ``SimRankService`` writing to a data dir.

DBLP-like graphs are served with durability on (fsync ``interval``,
default checkpoint cadence).  Eight updates are submitted per
``drain()`` and a ``top_k(100)`` follows every drain, as a dashboard
reading each new version would.  Each run draws several independent
graphs from its seed, one service and data dir each, and pools their
samples.  After each graph its service is closed and the data dir
reopened.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import time

import numpy as np

from repro.durability.manager import DurabilityManager
from repro.metrics.topk import top_k_pairs
from repro.serving import DurabilityConfig, SimRankService

from . import inproc
from .common import Report, filesystem_of, p50_ms, peak_rss_mb_self
from .inputs import SIMRANK_CONFIG, evolving_citation
from .layers import LayerTimer, accumulate, difference

SCALES = {
    # ``drain_rate`` sizes the fixed drain count: about ``drain_rate``
    # drains (each followed by a top-k read) per second of ``--seconds``
    # on a 2-core x86 box.
    "full": {"nodes": 2000, "drain_rate": 6.4},
    "smoke": {"nodes": 300, "drain_rate": 64.0},
}
GRAPHS = 4
REFERENCES = 7
RECENCY = 0.55
DELETE_SHARE = 0.2
BATCH = 8
WARMUP_DRAINS = 2
TOP_K = 100
UPDATE_TAIL = 90
#: Below the usual highest-percentile rule on purpose: most top-k reads
#: find clean heaps and about one in eight rescans dirty shards, so p90
#: sits on the boundary between the two and flips from seed to seed.
QUERY_TAIL = 80


def _open(base, data_dir, initial=None) -> SimRankService:
    return SimRankService(
        base,
        SIMRANK_CONFIG,
        initial_scores=initial,
        durability=DurabilityConfig(data_dir=data_dir),
    )


def _durability_counts(service):
    registry = service.telemetry.registry
    return {
        "wal_bytes": int(registry.counter("repro_wal_bytes_total").value),
        "checkpoints": int(registry.counter("repro_checkpoints_total").value),
    }


def _leg(service, batches, report, counter, timer=None, deadline=None):
    """Drain every batch, reading top-k after each; return the samples."""
    for batch in batches[:WARMUP_DRAINS]:
        service.submit_many(batch)
        service.drain()
        service.top_k(TOP_K)
    before = dict(counter.counts(), **_durability_counts(service))
    counter.counting = True
    if timer is not None:
        timer.recording = True
    drains, queries, groups, updates = [], [], 0, 0
    started = time.perf_counter()
    for batch in batches[WARMUP_DRAINS:]:
        submitted = time.perf_counter()
        service.submit_many(batch)
        groups += service.drain()
        drained = time.perf_counter()
        service.top_k(TOP_K)
        drains.append(drained - submitted)
        queries.append(time.perf_counter() - drained)
        updates += len(batch)
        if deadline is not None and submitted - started > deadline:
            break
    wall = time.perf_counter() - started
    if timer is not None:
        timer.recording = False
    counter.counting = False
    timed = len(batches) - WARMUP_DRAINS
    report.attempted += timed * (BATCH + 1)
    report.failed += (timed - len(drains)) * (BATCH + 1)
    after = dict(counter.counts(), **_durability_counts(service))
    work = difference(after, before)
    work.update(updates=updates, drains=len(drains), row_groups=groups)
    return drains, queries, wall, work


def _check_final(service, base, stream, part, report):
    expected = base.copy()
    for update in stream:
        update.apply_to(expected)
    report.check(
        f"graph {part}: final graph equals base plus the stream",
        service.engine.graph.edge_set() == expected.edge_set(),
    )
    served = service.top_k(TOP_K)
    exact = top_k_pairs(service.engine.similarities(), TOP_K)
    report.check(
        f"graph {part}: final top_k(100) equals top_k_pairs", served == exact
    )


def _close_and_reopen(service, base, report) -> float:
    """Close the service and reopen its data dir; seconds the reopen took."""
    data_dir = service.durability.data_dir
    live, version = service.engine.similarities(), service.version
    service.close()
    gc.collect()
    started = time.perf_counter()
    reopened = _open(base, data_dir)
    seconds = time.perf_counter() - started
    report.check(
        "recovered state is bit-identical to the live state",
        reopened.version == version
        and np.array_equal(reopened.engine.similarities(), live),
        f"recovered v{reopened.version}, live v{version}",
    )
    reopened.close()
    return seconds


def run(ctx, report: Report) -> None:
    scale = SCALES[ctx.scale]
    per_graph = math.ceil(scale["drain_rate"] * ctx.seconds / GRAPHS)
    deadline = (4.0 * ctx.seconds + 30.0) / GRAPHS
    counter = inproc.plan_counter()
    timer = inproc.layer_timer() if ctx.trace else None
    # Calls outside the timed phase: the base checkpoint of a fresh
    # data dir, and recovery when a data dir is reopened.
    base_checkpoints = LayerTimer(
        [(DurabilityManager, "checkpoint", "durability.checkpoint")]
    )
    recoveries = LayerTimer(
        [(DurabilityManager, "recover", "durability.recover")]
    )
    setups, drains, queries, reopens = [], [], [], []
    traced_drains, traced_queries = [], []
    wall = traced_wall = 0.0
    work, traced_work = {}, {}
    try:
        for part in range(GRAPHS):
            base, stream = evolving_citation(
                scale["nodes"], REFERENCES, RECENCY, ctx.seed,
                (WARMUP_DRAINS + per_graph) * BATCH, DELETE_SHARE, part,
            )
            batches = [stream[i:i + BATCH]
                       for i in range(0, len(stream), BATCH)]
            gc.collect()
            data_dir = os.path.join(ctx.workdir, f"data-{part}")
            started = time.perf_counter()
            service = _open(base, data_dir)
            setups.append(time.perf_counter() - started)
            policy = service.durability.config
            initial = service.engine.similarities() if timer else None
            leg_drains, leg_queries, leg_wall, counts = _leg(
                service, batches, report, counter, deadline=deadline
            )
            drains += leg_drains
            queries += leg_queries
            wall += leg_wall
            accumulate(work, counts)
            _check_final(service, base, stream, part, report)
            if timer is None:
                # Reopening after every graph samples the machine across
                # the whole run rather than at one moment.
                reopens.append(_close_and_reopen(service, base, report))
            else:
                service.close()
            service = None
            shutil.rmtree(data_dir)
            if timer is None:
                continue
            # The traced leg replays the identical stream from the
            # identical start state, right after the untraced one.
            data_dir = os.path.join(ctx.workdir, f"traced-{part}")
            timer.install()
            try:
                with base_checkpoints.active():
                    service = _open(base, data_dir, initial=initial)
                leg_drains, leg_queries, leg_wall, counts = _leg(
                    service, batches, report, counter, timer=timer
                )
                traced_drains += leg_drains
                traced_queries += leg_queries
                traced_wall += leg_wall
                accumulate(traced_work, counts)
                accumulate(traced_work, {
                    "cow_copies": service.engine.score_store.cow_copies
                })
                with recoveries.active():
                    _close_and_reopen(service, base, report)
            finally:
                timer.restore()
            shutil.rmtree(data_dir)
    finally:
        counter.restore()
    report.info.update(
        nodes=scale["nodes"],
        graphs=GRAPHS,
        timed_drains_per_graph=per_graph,
        updates_per_drain=BATCH,
        setup_runs_s=setups,
        fsync=policy.fsync,
        fsync_interval_s=policy.fsync_interval,
        checkpoint_interval_drains=policy.checkpoint_interval,
        data_dir_filesystem=filesystem_of(ctx.workdir),
    )
    report.work.update(work)
    if timer is not None:
        report.layers["durability.checkpoint_ms"] = (
            p50_ms(base_checkpoints.walls("durability.checkpoint")), "ms"
        )
        report.layers["durability.recover_ms"] = (
            p50_ms(recoveries.walls("durability.recover")), "ms"
        )
        _traced_metrics(report, timer, work, traced_work, scale["nodes"],
                        (drains, queries), (traced_drains, traced_queries),
                        traced_wall)
        return
    report.info["recover_runs_s"] = reopens
    report.e2e["setup_s"] = (float(np.median(setups)), "s")
    report.e2e["updates_per_s"] = (work["updates"] / wall, "1/s")
    report.latency("update", drains, UPDATE_TAIL)
    report.latency("query", queries, QUERY_TAIL)
    report.e2e["recover_s"] = (float(np.median(reopens)), "s")
    report.e2e["peak_rss_mb"] = (peak_rss_mb_self(), "MB")


def _traced_metrics(report, timer, work, traced_work, num_nodes, untraced,
                    traced, wall):
    cow_copies = traced_work.pop("cow_copies")
    report.check(
        "traced and untraced legs did identical work",
        traced_work == work,
        f"{traced_work} vs {work}",
    )
    updates = work["updates"]
    drain_walls = timer.total("serving.drain")
    drain_selfs = sum(timer.selfs("serving.drain"))
    report.layers.update(inproc.count_metrics(work, updates, num_nodes))
    # No periodic checkpoint falls inside a graph's timed drains at the
    # default cadence; the caller reports the base checkpoint each
    # traced service writes into its fresh data dir instead.
    report.layers.update(inproc.layer_metrics(timer, wall))
    report.layers.update({
        "durability.wal_bytes_per_update": (work["wal_bytes"] / updates, "B"),
        "durability.checkpoints": (work["checkpoints"], "count"),
        "serving.row_groups_per_update": (
            work["row_groups"] / updates, "ratio"
        ),
        "executor.cow_copies_per_drain": (
            cow_copies / work["drains"], "count"
        ),
        "trace.coverage_pct": (
            100.0 * (drain_walls - drain_selfs) / drain_walls, "%"
        ),
        "trace.update_overhead_pct": (
            100.0 * (np.median(traced[0]) / np.median(untraced[0]) - 1.0),
            "%",
        ),
        "trace.query_overhead_pct": (
            100.0 * (np.median(traced[1]) / np.median(untraced[1]) - 1.0),
            "%",
        ),
    })
