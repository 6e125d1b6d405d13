"""Tests for repro.telemetry: registry, tracing, flight, exposition.

The contracts the telemetry subsystem promises:

* **typed registry** — idempotent factories, thread-safe instruments,
  callback gauges that re-bind to the latest owner;
* **no-op mode** — a disabled registry hands out shared null
  singletons whose hot-path methods allocate *nothing* (asserted with
  ``tracemalloc``);
* **deterministic sampling** — the CRC32 sampler gives every process
  the same keep/drop verdict for a given trace id, and explicit ids
  are always kept;
* **exposition round-trip** — ``render_prometheus`` output parses back
  through the minimal parser and survives ``validate_scrape``;
* **flight recorder** — events ring-buffer, dumps are well-formed JSON
  files, I/O failure is absorbed;
* **report compatibility** — ``SimRankService.metrics_report()`` keeps
  every pre-telemetry key (names asserted exactly) and only *adds* the
  ``telemetry`` section; the front-door stats dicts rendered through
  :class:`GaugeGroup` keep their historical key sets.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
import uuid

import numpy as np
import pytest

from repro import SimRankConfig
from repro.exceptions import BackpressureError, GraphError
from repro.executor import ScoreStore
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate
from repro.incremental.plan import UpdatePlan
from repro.serving import (
    BackgroundWriter,
    DurabilityConfig,
    ServiceConfig,
    SimRankService,
    TelemetryConfig,
    UpdateScheduler,
)
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_TELEMETRY,
    FlightRecorder,
    GaugeGroup,
    MetricRegistry,
    Telemetry,
    Tracer,
    parse_prometheus_text,
    render_prometheus,
    trace_sampled,
    validate_scrape,
)

CFG = SimRankConfig(damping=0.6, iterations=7)


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi_digraph(30, 0.1, seed=11)
    scores = matrix_simrank(graph, CFG)
    return graph, scores


# ------------------------------------------------------------------ #
# Registry
# ------------------------------------------------------------------ #


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricRegistry()
        counter = registry.counter("c", help="a counter")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        gauge = registry.gauge("g")
        gauge.set(7.0)
        assert gauge.value == 7.0
        hist = registry.histogram("h")
        hist.observe(0.002)
        hist.observe(0.003)
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.005)

    def test_factories_idempotent_by_name(self):
        registry = MetricRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")
        names = [i.name for i in registry.collect()]
        assert names == sorted(names) == ["x", "y", "z"]

    def test_callback_gauge_rebinds_to_latest_owner(self):
        registry = MetricRegistry()
        registry.gauge("depth", fn=lambda: 1.0)
        assert registry.gauge("depth").value == 1.0
        # A restarted owner re-registers under the same name; the gauge
        # must read the live object, not the dead one.
        registry.gauge("depth", fn=lambda: 2.0)
        assert registry.gauge("depth").value == 2.0

    def test_callback_failure_reads_nan_not_raises(self):
        registry = MetricRegistry()

        def broken():
            raise RuntimeError("owner is gone")

        gauge = registry.gauge("dead", fn=broken)
        assert np.isnan(gauge.value)

    def test_histogram_percentiles_bracket_the_data(self):
        hist = MetricRegistry().histogram("lat")
        for value in np.linspace(0.001, 0.1, 500):
            hist.observe(float(value))
        digest = hist.summary()
        assert digest["count"] == 500
        # Interpolated percentiles are bucket-approximate; they must be
        # ordered and inside the observed range.
        assert 0.001 <= digest["p50"] <= digest["p95"] <= digest["p99"]
        assert digest["p99"] <= digest["max"] == pytest.approx(0.1)
        assert digest["p50"] == pytest.approx(0.05, rel=0.6)

    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = MetricRegistry(enabled=False)
        counter = registry.counter("a")
        assert counter is registry.counter("b")
        counter.inc()
        assert counter.value == 0.0
        hist = registry.histogram("h")
        hist.observe(1.0)
        assert hist.count == 0
        assert registry.collect() == []

    def test_noop_hot_path_allocates_nothing(self):
        registry = NULL_TELEMETRY.registry
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h")
        tracer = NULL_TELEMETRY.tracer
        flight = NULL_TELEMETRY.flight

        def hot_loop():
            for _ in range(1000):
                counter.inc()
                gauge.set(1.0)
                hist.observe(0.5)
                tracer.record("span", None, 0.5)
                flight.record("event")

        assert _retained_bytes(hot_loop) == 0

    def test_noop_owners_retain_nothing_per_call(self):
        """The instrumented owners on disabled telemetry keep no record
        per call: a scheduler, a drop-coalesce writer at capacity 1
        (never started; submit needs no drain thread) and a score store
        applying one plan.  Their own work allocates transients, and
        numpy's and the interpreter's free lists keep a few blocks
        between windows, so the bound is under one byte per call."""
        scheduler = UpdateScheduler()
        queue = UpdateScheduler()
        writer = BackgroundWriter(
            None, queue, max_pending=1, policy="drop-coalesce"
        )
        store = ScoreStore(np.zeros((8, 8)), shard_rows=4)
        rows = np.array([1, 2, 5], dtype=np.int64)
        cols = np.array([0, 3, 4, 6], dtype=np.int64)
        plan = UpdatePlan(
            0, rows, cols, np.ones((3, 2)), np.ones((4, 2)), affected=None
        )
        insert, delete = EdgeUpdate.insert(1, 7), EdgeUpdate.delete(1, 7)
        other = EdgeUpdate.insert(2, 5)
        rounds, applies = 1000, 300

        def owners_loop():
            for _ in range(rounds):
                scheduler.submit(insert)
                scheduler.submit(delete)  # cancels
                scheduler.submit(other)
                scheduler.drain()
                writer.submit(insert)  # fills the queue
                writer.submit(other)  # a new target at capacity: dropped
                writer.submit(delete)  # coalesces, cancelling the insert
                queue.drain()
            # Past 256 applies the store's version is a heap int, so
            # the warm-up run leaves it one.
            for _ in range(applies):
                store.apply_plan(plan)

        calls = 8 * rounds + applies
        assert _retained_bytes(owners_loop) < calls


def _retained_bytes(loop) -> int:
    """Bytes still allocated after a second run of ``loop``.

    The first run warms code objects and caches under tracing, so
    objects it leaves behind are not charged to the measured run.
    """
    tracemalloc.start()
    try:
        loop()
        before, _ = tracemalloc.get_traced_memory()
        loop()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before


class TestGaugeGroup:
    def test_report_matches_registry_gauges(self):
        registry = MetricRegistry()

        class Stats:
            hits = 3
            misses = 1

        stats = Stats()
        group = GaugeGroup(registry, "repro_test")
        group.expose("hits", lambda: stats.hits)
        group.expose("misses", lambda: stats.misses)
        assert group.report() == {"hits": 3, "misses": 1}
        assert registry.get("repro_test_hits").value == 3
        stats.hits = 9  # one set of readers backs both surfaces
        assert group.report()["hits"] == 9
        assert registry.get("repro_test_hits").value == 9


# ------------------------------------------------------------------ #
# Tracing
# ------------------------------------------------------------------ #


class TestSampling:
    def test_deterministic_and_boundary_rates(self):
        trace_id = "abc123"
        assert trace_sampled(trace_id, 1.0)
        assert not trace_sampled(trace_id, 0.0)
        verdicts = {trace_sampled(trace_id, 0.5) for _ in range(10)}
        assert len(verdicts) == 1  # same id, same verdict, every time

    def test_sample_rate_is_roughly_honored(self):
        kept = sum(
            trace_sampled(uuid.uuid4().hex, 0.25) for _ in range(2000)
        )
        assert 0.15 < kept / 2000 < 0.35

    def test_explicit_ids_bypass_sampling(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.admit("user-named-trace") == "user-named-trace"
        assert tracer.sampled("user-named-trace")
        # Minted ids at rate 0.0 are dropped entirely.
        assert tracer.admit(None) is None


class TestTracer:
    def test_span_and_record_export(self):
        tracer = Tracer()
        with tracer.span("work", "t1", stage="test"):
            pass
        tracer.record("apply", "t1", 0.25, worker=3)
        tracer.record("other", "t2", 0.1)
        spans = tracer.export("t1")
        assert [span["name"] for span in spans] == ["work", "apply"]
        assert spans[1]["duration_ms"] == pytest.approx(250.0)
        assert spans[1]["attrs"] == {"worker": 3, "plans": 1} or spans[1][
            "attrs"
        ] == {"worker": 3}
        assert len(tracer.export()) == 3

    def test_ring_is_bounded(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            tracer.record("s", f"t{index}", 0.001)
        assert len(tracer.export()) == 4
        assert tracer.spans_recorded == 10
        assert tracer.spans_dropped == 6


# ------------------------------------------------------------------ #
# Prometheus exposition
# ------------------------------------------------------------------ #


class TestPrometheus:
    def test_render_parse_validate_round_trip(self):
        registry = MetricRegistry()
        registry.counter("repro_reqs", help="requests").inc(5)
        registry.gauge("repro_depth", fn=lambda: 3.0)
        hist = registry.histogram("repro_lat", help="latency")
        for value in (0.0002, 0.004, 0.004, 2.0):
            hist.observe(value)
        text = render_prometheus(registry)
        families = parse_prometheus_text(text)
        assert families["repro_reqs"]["type"] == "counter"
        assert families["repro_reqs"]["samples"][("repro_reqs", ())] == 5.0
        assert families["repro_depth"]["samples"][("repro_depth", ())] == 3.0
        lat = families["repro_lat"]
        assert lat["type"] == "histogram"
        assert lat["samples"][("repro_lat_count", ())] == 4.0
        assert lat["samples"][("repro_lat_sum", ())] == pytest.approx(
            2.0082
        )
        # Buckets are cumulative and the +Inf bucket equals the count.
        inf = lat["samples"][("repro_lat_bucket", (("le", "+Inf"),))]
        assert inf == 4.0
        summary = validate_scrape(text)
        assert summary == {"families": 3, "histograms": 1}

    def test_bucket_counts_are_cumulative(self):
        registry = MetricRegistry()
        hist = registry.histogram("h", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            hist.observe(value)
        samples = parse_prometheus_text(render_prometheus(registry))["h"][
            "samples"
        ]
        by_bound = {
            labels[0][1]: value
            for (name, labels), value in samples.items()
            if name == "h_bucket"
        }
        assert by_bound["0.001"] == 1.0
        assert by_bound["0.01"] == 2.0
        assert by_bound["0.1"] == 3.0
        assert by_bound["+Inf"] == 4.0

    def test_unparseable_scrape_fails_loudly(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is { not prometheus")


# ------------------------------------------------------------------ #
# Flight recorder
# ------------------------------------------------------------------ #


class TestFlightRecorder:
    def test_dump_file_format(self, tmp_path):
        flight = FlightRecorder(capacity=8, directory=str(tmp_path))
        for index in range(12):  # overflow the ring
            flight.record("tick", index=index)
        path = flight.dump("unit-test")
        assert path is not None and os.path.exists(path)
        assert os.path.basename(path).startswith("flight-")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["reason"] == "unit-test"
        assert payload["pid"] == os.getpid()
        assert len(payload["events"]) == 8  # bounded ring
        assert payload["events"][-1] == {
            "time": payload["events"][-1]["time"],
            "kind": "tick",
            "fields": {"index": 11},
        }
        second = flight.dump("unit-test")
        assert second != path  # sequence number advances
        assert flight.report()["dumps"] == 2

    def test_unwritable_directory_is_absorbed(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        flight = FlightRecorder(directory=str(target))
        flight.record("tick")
        assert flight.dump("unit-test") is None
        assert flight.report()["dump_errors"] == 1

    def test_disabled_recorder_is_inert(self, tmp_path):
        flight = FlightRecorder(directory=str(tmp_path), enabled=False)
        flight.record("tick")
        assert flight.events() == []
        assert flight.dump("nope") is None
        assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ #
# Service integration: report compatibility + config plumbing
# ------------------------------------------------------------------ #


class TestDrainExtent:
    @pytest.mark.parametrize("writer", ["sync", "background"])
    def test_drain_histogram_covers_the_wal_append(
        self, workload, tmp_path, monkeypatch, writer
    ):
        """``repro_drain_apply_seconds`` times apply, WAL append and
        publish in both writer modes: a 20 ms append shows in its mean."""
        from repro.durability.manager import DurabilityManager
        from repro.graph.generators import random_insertions

        append = DurabilityManager.append_drain

        def slow_append(self, *args, **kwargs):
            time.sleep(0.02)
            return append(self, *args, **kwargs)

        monkeypatch.setattr(DurabilityManager, "append_drain", slow_append)
        graph, scores = workload
        service = SimRankService(
            graph.copy(),
            CFG,
            initial_scores=scores.copy(),
            writer=writer,
            durability=DurabilityConfig(data_dir=str(tmp_path), fsync="off"),
        )
        try:
            for update in random_insertions(graph, 3, seed=5):
                service.submit(update)
                assert service.flush(timeout=30)
            hist = service.telemetry.registry.get("repro_drain_apply_seconds")
        finally:
            service.close()
        assert hist.count == 3
        assert hist.sum / hist.count >= 0.02


class TestServiceIntegration:
    def test_metrics_report_keys_unchanged_plus_telemetry(self, workload):
        graph, scores = workload
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy()
        )
        try:
            service.submit(EdgeUpdate.insert(0, 7))
            service.drain()
            report = service.metrics_report()
            # The pre-telemetry surface, exactly — consumers parse these.
            # ("topk" joins only when a top-k index is configured.)
            assert set(report) == {
                "version",
                "queue_depth",
                "pending_targets",
                "scheduler",
                "executor",
                "precision",
                "telemetry",
                "durability",
            }
            assert set(report["scheduler"]) == {
                "submitted",
                "cancelled_pairs",
                "drained_updates",
                "drained_batches",
                "drained_groups",
                "max_drained_groups",
                "coalescing_ratio",
            }
            telemetry = report["telemetry"]
            assert telemetry["enabled"] is True
            assert set(telemetry) == {
                "enabled",
                "tracing",
                "flight",
                "histograms",
            }
            # The executor stage digest rides the new bounded window.
            recent = report["executor"]["recent_plan_ms"]
            assert recent["count"] >= 1
            assert recent["p50"] <= recent["p99"]
        finally:
            service.close()

    def test_json_and_prometheus_counts_agree(self, workload):
        """Every scheduler, writer and executor count in the JSON report
        is the sample the Prometheus scrape renders off the same
        instrument — after sync drains and background writers that saw a
        drop-coalesce drop, an error-policy reject and a rejected batch
        that auto-resumed."""
        graph, scores = workload
        fresh = {}
        for source in range(graph.num_nodes):
            for target in range(graph.num_nodes):
                if source != target and not graph.has_edge(source, target):
                    fresh.setdefault(target, EdgeUpdate.insert(source, target))
        fresh = list(fresh.values())  # one absent edge per target
        existing = next(iter(graph.edges()))
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy()
        )
        try:
            # Two sync drains; the second folds in one cancelled pair.
            service.submit_many(fresh[0:3])
            service.drain()
            service.submit_many(fresh[3:6])
            service.submit(EdgeUpdate.delete(*fresh[5].edge))
            service.drain()
            # Queue two targets, then a drop-coalesce writer at capacity
            # 2 drops an update for a third.
            service.submit_many(fresh[6:8])
            writer = service.start_background_writer(
                drain_interval=60.0, max_pending=2, policy="drop-coalesce"
            )
            assert not writer.submit(fresh[8])
            assert service.flush(timeout=30)
            service.stop_background_writer()
            # An error-policy writer at capacity 1 refuses a submit.
            service.submit(fresh[9])
            writer = service.start_background_writer(
                drain_interval=60.0, max_pending=1, policy="error"
            )
            with pytest.raises(BackpressureError):
                writer.submit(fresh[10])
            assert service.flush(timeout=30)
            service.stop_background_writer()
            # The engine rejects a batch; cancelling the poison insert
            # lets the writer's own auto-resume go through.
            writer = service.start_background_writer(drain_interval=0.001)
            writer.submit(EdgeUpdate.insert(*existing))
            with pytest.raises(GraphError):
                service.flush(timeout=30)
            writer.submit(EdgeUpdate.delete(*existing))
            deadline = time.monotonic() + 20
            while writer.paused and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not writer.paused
            writer.submit(fresh[11])
            assert service.flush(timeout=30)

            report = service.metrics_report()
            scrape = render_prometheus(service.telemetry.registry)
        finally:
            service.close()
        validate_scrape(scrape)
        samples = {
            name: value
            for family in parse_prometheus_text(scrape).values()
            for (name, labels), value in family["samples"].items()
            if not labels
        }
        scrape_names = {
            "scheduler": {
                "submitted": "repro_scheduler_submitted_total",
                "cancelled_pairs": "repro_scheduler_cancelled_pairs_total",
                "drained_updates": "repro_scheduler_drained_updates_total",
                "drained_batches": "repro_scheduler_drain_groups_count",
                "drained_groups": "repro_scheduler_drain_groups_sum",
            },
            "writer": {
                "queue_depth": "repro_writer_queue_depth",
                "drains": "repro_drain_apply_seconds_count",
                "drained_updates": "repro_scheduler_drained_updates_total",
                "row_groups": "repro_scheduler_drain_groups_sum",
                "publishes": "repro_writer_publishes_total",
                "blocked_submits": "repro_writer_blocked_seconds_count",
                "blocked_seconds": "repro_writer_blocked_seconds_sum",
                "dropped_updates": "repro_writer_dropped_updates_total",
                "rejected_updates": "repro_writer_rejected_updates_total",
                "max_queue_depth": "repro_writer_max_queue_depth",
                "errors": "repro_writer_errors_total",
                "resume_attempts": "repro_writer_resume_attempts_total",
            },
            "executor": {
                "plans": "repro_executor_apply_plan_seconds_count",
                "apply_seconds": "repro_executor_apply_plan_seconds_sum",
            },
        }
        # Settings, ratios and maxima: derived, or not in the scrape.
        derived = {
            "coalescing_ratio",
            "max_drained_groups",
            "policy",
            "drain_interval_seconds",
            "max_pending",
            "running",
            "writer_paused",
            "max_row_groups",
            "mean_row_groups",
            "mean_apply_seconds",
            "max_apply_seconds",
            "mean_plan_seconds",
            "recent_plan_ms",
            "score_dtype",
            "score_dtype_bytes",
        }
        for section, names in scrape_names.items():
            assert set(report[section]) - derived == set(names), section
            for key, name in names.items():
                assert report[section][key] == samples[name], (section, key)

        scheduler, writer = report["scheduler"], report["writer"]
        assert writer["dropped_updates"] == 1
        assert writer["rejected_updates"] == 1
        assert writer["errors"] == 1
        assert writer["resume_attempts"] == 1
        # Sync drains and the writers' drains: 2 + 1 + 1 + 1 applied.
        assert writer["drains"] == 5
        # The scheduler's record survives for drained counts: the
        # rejected batch was popped (and its retry re-queued), so it is
        # drained but never an applied drain.
        assert scheduler["drained_batches"] == writer["drains"] + 1
        assert scheduler["drained_updates"] == 3 + 2 + 2 + 1 + 1 + 1
        # Every submit, the re-queue included, is cancelled, drained or
        # still pending.
        assert scheduler["cancelled_pairs"] == 2
        assert scheduler["submitted"] == (
            2 * scheduler["cancelled_pairs"]
            + scheduler["drained_updates"]
            + report["queue_depth"]
        )
        assert report["executor"]["plans"] >= 1

    def test_topk_report_renders_registry_counters(self, workload):
        graph, scores = workload
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy()
        )
        try:
            service.top_k(3)
            service.submit(EdgeUpdate.insert(0, 7))
            service.drain()
            service.top_k(3)
            topk = service.metrics_report()["topk"]
            assert set(topk) == {
                "k",
                "capacity",
                "heap_hit_rate",
                "clean_query_rate",
                "queries",
                "shard_rescans",
                "patched_entries",
                "floor_invalidations",
                "dirty_shards",
            }
            registry = service.telemetry.registry

            def count(name):
                return int(registry.get(f"repro_topk_{name}_total").value)

            assert topk["queries"] == count("queries") == 2
            assert topk["shard_rescans"] == count("shard_rescans") >= 1
            assert topk["patched_entries"] == count("promoted_pairs")
            assert topk["floor_invalidations"] == count("untracked_pairs")
            assert topk["clean_query_rate"] == count("clean_queries") / 2
            scrape = render_prometheus(registry)
            assert "repro_topk_queries_total 2" in scrape
            validate_scrape(scrape)
        finally:
            service.close()

    def test_disabled_telemetry_via_config(self, workload):
        graph, scores = workload
        config = ServiceConfig(
            damping=CFG.damping,
            iterations=CFG.iterations,
            telemetry=TelemetryConfig(enabled=False),
        )
        service = SimRankService(
            graph.copy(), config, initial_scores=scores.copy()
        )
        try:
            service.submit(EdgeUpdate.insert(0, 9))
            service.drain()
            service.start_background_writer()
            service.submit(EdgeUpdate.insert(1, 9))
            assert service.flush(timeout=30)
            metrics = service.metrics_report()
            report = metrics["telemetry"]
            assert report["enabled"] is False
            assert report["histograms"] == {}
            assert service.telemetry.tracer.export() == []
            # The scheduler, writer and executor counts are registry
            # instruments too, so they read zero while disabled.
            assert service.version == 2
            scheduler = metrics["scheduler"]
            assert scheduler["submitted"] == scheduler["drained_updates"] == 0
            assert scheduler["drained_batches"] == 0
            writer = metrics["writer"]
            assert writer["drains"] == writer["drained_updates"] == 0
            assert writer["publishes"] == writer["max_queue_depth"] == 0
            executor = metrics["executor"]
            assert executor["plans"] == executor["apply_seconds"] == 0
        finally:
            service.close()

    def test_telemetry_config_round_trips(self):
        config = ServiceConfig(
            telemetry=TelemetryConfig(
                trace_sample_rate=0.25, flight_dir="/tmp/flights"
            )
        )
        loaded = ServiceConfig.from_dict(config.to_dict())
        assert loaded.telemetry == config.telemetry

    def test_drain_span_lands_under_origin_trace(self, workload):
        graph, scores = workload
        service = SimRankService(
            graph.copy(), CFG, initial_scores=scores.copy()
        )
        try:
            service.note_origin_trace("origin-1")
            service.submit(EdgeUpdate.insert(1, 8))
            service.drain()
            spans = service.telemetry.tracer.export("origin-1")
            names = [span["name"] for span in spans]
            assert "drain.apply" in names
            drain = spans[names.index("drain.apply")]
            assert drain["attrs"]["fan_in"] == 1
            assert drain["attrs"]["updates"] >= 1
        finally:
            service.close()
