"""cith-unit: the paper's Fig. 2a protocol through ``DynamicSimRank.apply``.

CITH-like citation graphs are snapshot mid-evolution, SimRank is
precomputed once per graph, and the following arrivals (with a seeded
share of deletions) are applied one unit update at a time on one
thread, with no reads and no durability.  Each run draws several
independent graphs from its seed and pools their samples, so one
unusual graph cannot move the run's medians.  A read phase on the final
state and a save/load reopen follow each graph's timed phase, so every
end-to-end metric has a value.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

from repro.incremental.engine import DynamicSimRank
from repro.simrank.queries import single_source_simrank

from . import inproc
from .common import Report, peak_rss_mb_self
from .inputs import SIMRANK_CONFIG, evolving_citation, seeded_nodes
from .layers import accumulate, difference

SCALES = {
    # ``rate`` sizes the fixed update count: about ``rate`` updates per
    # second of ``--seconds`` on a 2-core x86 box.
    "full": {"nodes": 2000, "rate": 40.0},
    "smoke": {"nodes": 300, "rate": 400.0},
}
GRAPHS = 4
REFERENCES = 12
RECENCY = 0.7
DELETE_SHARE = 0.2
WARMUP = 5
READS_PER_GRAPH = 500
READ_BURST = 64
REOPENS_PER_GRAPH = 2
UPDATE_TAIL = 95
QUERY_TAIL = 95
CHECK_NODES = 3
TOLERANCE = 1e-10


def _leg(engine, stream, report, counter, timer=None, deadline=None):
    """Apply the stream; return ``(update seconds, wall seconds, counts)``."""
    for update in stream[:WARMUP]:
        engine.apply(update)
    before = counter.counts()
    counter.counting = True
    if timer is not None:
        timer.recording = True
    samples = []
    started = time.perf_counter()
    for update in stream[WARMUP:]:
        applied = time.perf_counter()
        engine.apply(update)
        samples.append(time.perf_counter() - applied)
        if deadline is not None and applied - started > deadline:
            break
    wall = time.perf_counter() - started
    if timer is not None:
        timer.recording = False
    counter.counting = False
    report.attempted += len(stream) - WARMUP
    report.failed += len(stream) - WARMUP - len(samples)
    return samples, wall, difference(counter.counts(), before)


def _reads(engine, seed, part, report):
    """Bursts of point and single-source reads; seconds per burst."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7, part]))
    n = engine.graph.num_nodes
    store = engine.score_store
    samples = []
    for _ in range(READS_PER_GRAPH):
        pairs = rng.integers(n, size=(READ_BURST, 2)).tolist()
        rows = rng.random(READ_BURST) >= 0.7
        started = time.perf_counter()
        for (a, b), row in zip(pairs, rows):
            if row:
                store.row(a)
            else:
                engine.similarity(a, b)
        samples.append(time.perf_counter() - started)
    report.attempted += READS_PER_GRAPH
    return samples


def _check_final(engine, base, stream, seed, part, report):
    expected = base.copy()
    for update in stream:
        update.apply_to(expected)
    report.check(
        f"graph {part}: final graph equals base plus the stream",
        engine.graph.edge_set() == expected.edge_set(),
    )
    store = engine.score_store
    worst = 0.0
    for node in seeded_nodes(seed, expected.num_nodes, CHECK_NODES, part):
        exact = single_source_simrank(expected, node, SIMRANK_CONFIG)
        worst = max(worst, float(np.max(np.abs(store.column(node) - exact))))
    report.check(
        f"graph {part}: seeded columns of S match exact single-source "
        "SimRank",
        worst <= TOLERANCE,
        f"max |S - exact| = {worst:.3e} (tolerance {TOLERANCE:g})",
    )
    report.info["max_abs_error_vs_exact"] = max(
        worst, report.info.get("max_abs_error_vs_exact", 0.0)
    )


def _reopen(engine, ctx, report):
    """Save the session, then time ``DynamicSimRank.load`` on it."""
    path = os.path.join(ctx.workdir, "session.npz")
    engine.save(path)
    live = engine.similarities()
    seconds = []
    identical = True
    for _ in range(REOPENS_PER_GRAPH):
        gc.collect()
        started = time.perf_counter()
        loaded = DynamicSimRank.load(path)
        seconds.append(time.perf_counter() - started)
        identical = identical and np.array_equal(loaded.similarities(), live)
        del loaded
    report.check("reopened session is bit-identical", identical)
    return seconds


def run(ctx, report: Report) -> None:
    scale = SCALES[ctx.scale]
    per_graph = round(scale["rate"] * ctx.seconds / GRAPHS)
    deadline = (4.0 * ctx.seconds + 30.0) / GRAPHS
    counter = inproc.plan_counter()
    timer = inproc.layer_timer() if ctx.trace else None
    setups, samples, traced_samples, reads, reopens = [], [], [], [], []
    wall = traced_wall = 0.0
    work, traced_work = {}, {}
    try:
        for part in range(GRAPHS):
            base, stream = evolving_citation(
                scale["nodes"], REFERENCES, RECENCY, ctx.seed,
                WARMUP + per_graph, DELETE_SHARE, part,
            )
            engine = None  # free the previous graph's engine first
            gc.collect()
            started = time.perf_counter()
            engine = DynamicSimRank(base, SIMRANK_CONFIG, algorithm="inc-sr")
            setups.append(time.perf_counter() - started)
            initial = engine.similarities() if timer else None
            leg, leg_wall, counts = _leg(
                engine, stream, report, counter, deadline=deadline
            )
            samples += leg
            wall += leg_wall
            accumulate(work, counts)
            _check_final(engine, base, stream, ctx.seed, part, report)
            if timer is None:
                # Reads and reopens follow every graph, so they sample
                # the machine across the whole run, not one moment.
                reads += _reads(engine, ctx.seed, part, report)
                reopens += _reopen(engine, ctx, report)
                continue
            # The traced leg replays the identical stream from the
            # identical start state, right after the untraced one.
            engine = None  # free the untraced engine first
            engine = DynamicSimRank(
                base, SIMRANK_CONFIG, algorithm="inc-sr",
                initial_scores=initial,
            )
            timer.install()
            try:
                leg, leg_wall, counts = _leg(
                    engine, stream, report, counter, timer=timer
                )
            finally:
                timer.restore()
            traced_samples += leg
            traced_wall += leg_wall
            accumulate(traced_work, counts)
            accumulate(traced_work, {
                "cow_copies": engine.score_store.cow_copies
            })
    finally:
        counter.restore()
    report.info.update(
        nodes=scale["nodes"],
        graphs=GRAPHS,
        timed_updates_per_graph=per_graph,
        reads_per_query=READ_BURST,
        setup_runs_s=setups,
    )
    report.work.update(work, updates=len(samples))
    if timer is not None:
        _traced_metrics(report, timer, work, traced_work, samples,
                        traced_samples, traced_wall, scale["nodes"])
        return
    report.info["recover_runs_s"] = reopens
    report.e2e["setup_s"] = (float(np.median(setups)), "s")
    report.e2e["updates_per_s"] = (len(samples) / wall, "1/s")
    report.latency("update", samples, UPDATE_TAIL)
    report.latency("query", reads, QUERY_TAIL)
    report.e2e["recover_s"] = (float(np.median(reopens)), "s")
    report.e2e["peak_rss_mb"] = (peak_rss_mb_self(), "MB")


def _traced_metrics(report, timer, work, traced_work, untraced, traced, wall,
                    num_nodes):
    cow_copies = traced_work.pop("cow_copies")
    report.check(
        "traced and untraced legs did identical work",
        traced_work == work,
        f"{traced_work} vs {work}",
    )
    updates = len(traced)
    report.layers.update(inproc.layer_metrics(timer, wall))
    report.layers.update(inproc.count_metrics(work, updates, num_nodes))
    covered = sum(timer.total(name) for name in inproc.UNIT_UPDATE_PARTS)
    report.layers["trace.coverage_pct"] = (100.0 * covered / sum(traced), "%")
    report.layers["trace.update_overhead_pct"] = (
        100.0 * (np.median(traced) / np.median(untraced) - 1.0),
        "%",
    )
    report.layers["executor.cow_copies_per_drain"] = (
        cow_copies / updates, "count"
    )
