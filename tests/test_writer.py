"""Tests for repro.serving.writer (background drain loop + backpressure).

The contract under test:

* **threaded stress / no torn reads** — N reader threads pin snapshots
  and query them while the background writer drains 200+ updates; every
  pinned view must stay bit-identical to its pin-time matrix, versions
  must be monotone, and each published view must be internally
  consistent (symmetric, matching its own re-reads).
* **backpressure policies** — ``block`` waits for space, ``error``
  raises :class:`BackpressureError`, ``drop-coalesce`` accepts only
  coalescing updates at capacity.
* **equivalence** — the final state after background draining matches
  the exact batch recomputation within the shared truncation bound.
"""

import threading
import time

import numpy as np
import pytest

from repro import SimRankConfig
from repro.exceptions import BackpressureError, ConfigError
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.serving import BackgroundWriter, SimRankService
from repro.simrank.exact import truncation_error_bound
from repro.simrank.matrix import matrix_simrank

from _streams import random_update_stream as _random_stream


@pytest.fixture
def config():
    return SimRankConfig(damping=0.6, iterations=12)


class TestLifecycle:
    def test_constructor_starts_and_close_stops(self, config):
        graph = erdos_renyi_digraph(20, 0.1, seed=1)
        service = SimRankService(graph, config, writer="background")
        assert service.background
        assert service.writer.running
        assert service.snapshot() is not None
        service.close()
        assert not service.background

    def test_context_manager(self, config):
        graph = erdos_renyi_digraph(20, 0.1, seed=1)
        with SimRankService(graph, config, writer="background") as service:
            service.submit_many(_random_stream(graph, 10, seed=2))
            assert service.flush(timeout=30)
            assert service.version >= 1
        assert not service.background

    def test_drain_is_writer_owned_in_background_mode(self, config):
        graph = erdos_renyi_digraph(15, 0.1, seed=3)
        with SimRankService(graph, config, writer="background") as service:
            with pytest.raises(ConfigError):
                service.drain()

    def test_unknown_modes_rejected(self, config):
        graph = erdos_renyi_digraph(10, 0.1, seed=3)
        with pytest.raises(ConfigError):
            SimRankService(graph, config, writer="async")
        with pytest.raises(ConfigError):
            SimRankService(
                graph, config, writer="background", backpressure="shed"
            )

    def test_double_start_rejected(self, config):
        graph = erdos_renyi_digraph(10, 0.1, seed=3)
        with SimRankService(graph, config, writer="background") as service:
            with pytest.raises(ConfigError):
                service.start_background_writer()

    def test_writer_restarts_after_stop(self, config):
        graph = erdos_renyi_digraph(20, 0.1, seed=4)
        service = SimRankService(graph, config)
        writer = BackgroundWriter(service.engine, service.scheduler)
        writer.start()
        writer.stop()
        # A stopped writer can be started again and actually drains.
        writer.start()
        try:
            assert writer.running
            writer.submit_many(_random_stream(graph, 5, seed=6))
            assert writer.flush(timeout=30)
            assert service.engine.version >= 1
        finally:
            writer.stop()

    def test_stop_drains_leftovers(self, config):
        graph = erdos_renyi_digraph(25, 0.1, seed=4)
        service = SimRankService(
            graph, config, writer="background", drain_interval=5.0
        )
        # Long interval: nothing drains until stop() forces it.
        service.submit_many(_random_stream(graph, 12, seed=5))
        service.close()
        assert service.engine.version >= 1
        assert len(service.scheduler) == 0


class TestThreadedStress:
    def test_readers_stay_bit_stable_under_200_update_drain(self, config):
        """N reader threads pin/query while the writer drains 200+ updates."""
        graph = erdos_renyi_digraph(60, 0.06, seed=11)
        stream = _random_stream(graph, 220, seed=12)
        service = SimRankService(
            graph,
            config,
            shard_rows=16,
            writer="background",
            drain_interval=0.001,
        )
        errors = []
        stop = threading.Event()

        def reader(seed):
            rng = np.random.default_rng(seed)
            last_version = -1
            try:
                while not stop.is_set():
                    view = service.snapshot()
                    # Published versions may only move forward.
                    if view.version < last_version:
                        raise AssertionError(
                            f"version went backwards: {view.version} < "
                            f"{last_version}"
                        )
                    last_version = view.version
                    pinned = view.similarities()
                    # Internal consistency: a published view is a real
                    # version — symmetric, and stable across re-reads.
                    if not np.allclose(pinned, pinned.T, atol=1e-12):
                        raise AssertionError("torn read: asymmetric matrix")
                    a = int(rng.integers(view.num_nodes))
                    b = int(rng.integers(view.num_nodes))
                    # Pair reads serve the canonical (min, max) entry.
                    if view.similarity(a, b) != pinned[min(a, b), max(a, b)]:
                        raise AssertionError("torn read: entry vs matrix")
                    # Bit-stability: the pin never moves, even after the
                    # writer has advanced past it.
                    time.sleep(0.002)
                    if not np.array_equal(view.similarities(), pinned):
                        raise AssertionError("pinned view mutated")
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(100 + i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        # Writer side: feed the whole stream in chunks while readers run.
        for begin in range(0, len(stream), 20):
            service.submit_many(stream[begin : begin + 20])
            time.sleep(0.001)
        assert service.flush(timeout=60)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        service.close()
        assert not errors, errors[0]
        assert service.writer is None
        assert service.scheduler.report()["drained_updates"] > 0
        # The full stream really went through the engine.
        expected = UpdateBatch(stream).applied(graph)
        assert set(service.engine.graph.edges()) == set(expected.edges())

    def test_final_scores_match_batch_truth(self, config):
        graph = erdos_renyi_digraph(40, 0.07, seed=21)
        stream = _random_stream(graph, 60, seed=22)
        config = SimRankConfig(damping=0.6, iterations=25)
        with SimRankService(
            graph,
            config,
            shard_rows=8,
            writer="background",
            drain_interval=0.001,
        ) as service:
            for begin in range(0, len(stream), 10):
                service.submit_many(stream[begin : begin + 10])
                time.sleep(0.002)
            assert service.flush(timeout=60)
            truth = matrix_simrank(UpdateBatch(stream).applied(graph), config)
            bound = truncation_error_bound(config)
            np.testing.assert_allclose(
                service.engine.similarities(), truth, atol=4 * bound
            )


class TestBackpressure:
    def test_error_policy_raises_at_capacity(self, config):
        graph = erdos_renyi_digraph(30, 0.05, seed=31)
        service = SimRankService(
            graph,
            config,
            writer="background",
            drain_interval=60.0,  # effectively: nothing drains on its own
            max_pending=5,
            backpressure="error",
        )
        try:
            stream = _random_stream(graph, 10, seed=32)
            for update in stream[:5]:
                service.submit(update)
            with pytest.raises(BackpressureError):
                service.submit(stream[5])
            assert service.writer.report()["rejected_updates"] == 1
        finally:
            service.close()

    def test_drop_coalesce_accepts_only_coalescing_updates(self, config):
        graph = erdos_renyi_digraph(30, 0.05, seed=41)
        service = SimRankService(
            graph,
            config,
            writer="background",
            drain_interval=60.0,
            max_pending=3,
            backpressure="drop-coalesce",
        )
        try:
            writer = service.writer
            # Fill the queue with three distinct targets.
            assert writer.submit(EdgeUpdate.insert(1, 7))
            assert writer.submit(EdgeUpdate.insert(2, 8))
            assert writer.submit(EdgeUpdate.insert(3, 9))
            # At capacity: a new target row is dropped...
            assert not writer.submit(EdgeUpdate.insert(4, 10))
            assert writer.report()["dropped_updates"] == 1
            # ...but same-target coalescing and cancellation still land.
            assert writer.submit(EdgeUpdate.insert(5, 7))
            assert writer.submit(EdgeUpdate.delete(1, 7))  # cancels pending
            assert service.pending == 3
        finally:
            service.close()

    def test_block_policy_waits_for_drain(self, config):
        graph = erdos_renyi_digraph(40, 0.06, seed=51)
        service = SimRankService(
            graph,
            config,
            writer="background",
            drain_interval=0.001,
            max_pending=4,
            backpressure="block",
        )
        try:
            stream = _random_stream(graph, 40, seed=52)
            # Submitting far more than max_pending must succeed (blocking
            # submitters ride out drains) and lose nothing.
            service.submit_many(stream)
            assert service.flush(timeout=60)
            expected = UpdateBatch(stream).applied(graph)
            assert set(service.engine.graph.edges()) == set(expected.edges())
            assert service.writer.report()["max_queue_depth"] <= 4
        finally:
            service.close()


class TestErrorHandling:
    def test_poison_batch_pauses_and_requeues(self, config):
        graph = erdos_renyi_digraph(20, 0.1, seed=61)
        service = SimRankService(
            graph, config, writer="background", drain_interval=0.001
        )
        try:
            existing = next(iter(graph.edges()))
            service.submit(EdgeUpdate.insert(*existing))  # invalid: exists
            with pytest.raises(Exception):
                service.flush(timeout=30)
            writer = service.writer
            assert writer.last_error is not None
            assert writer.report()["errors"] == 1
            # Nothing lost: the poison update is back in the queue, and
            # the loop is paused rather than spinning on it.
            assert service.pending == 1
            drains_before = writer.report()["drains"]
            time.sleep(0.05)
            assert writer.report()["drains"] == drains_before
            # Repair the queue (cancel the poison insert) and resume.
            writer.submit(EdgeUpdate.delete(*existing))
            writer.clear_error()
            assert service.flush(timeout=30)
            assert service.pending == 0
        finally:
            service.stop_background_writer(drain=False)

    def test_submit_after_stop_rejected(self, config):
        graph = erdos_renyi_digraph(15, 0.1, seed=71)
        service = SimRankService(graph, config, writer="background")
        writer = service.writer
        service.close()
        with pytest.raises(ConfigError):
            writer.submit(EdgeUpdate.insert(0, 1))


class TestWriterUnit:
    def test_invalid_parameters(self, config):
        graph = erdos_renyi_digraph(10, 0.1, seed=81)
        service = SimRankService(graph, config)
        with pytest.raises(ConfigError):
            BackgroundWriter(
                service.engine, service.scheduler, policy="backoff"
            )
        with pytest.raises(ConfigError):
            BackgroundWriter(
                service.engine, service.scheduler, drain_interval=0.0
            )
        with pytest.raises(ConfigError):
            BackgroundWriter(
                service.engine, service.scheduler, max_pending=0
            )

    def test_report_shape(self, config):
        graph = erdos_renyi_digraph(15, 0.1, seed=91)
        with SimRankService(graph, config, writer="background") as service:
            service.submit_many(_random_stream(graph, 8, seed=92))
            assert service.flush(timeout=30)
            report = service.writer.report()
            for key in (
                "policy",
                "queue_depth",
                "drains",
                "drained_updates",
                "max_queue_depth",
                "publishes",
                "mean_apply_seconds",
            ):
                assert key in report
            metrics = service.metrics_report()
            assert metrics["writer"]["drains"] >= 1
            assert metrics["queue_depth"] == 0

    def test_add_node_republishes(self, config):
        graph = erdos_renyi_digraph(12, 0.15, seed=93)
        with SimRankService(
            graph, config, shard_rows=4, writer="background"
        ) as service:
            before = service.snapshot()
            node = service.add_node()
            after = service.snapshot()
            assert node == 12
            assert before.num_nodes == 12
            assert after.num_nodes == 13
            assert after.similarity(node, node) == pytest.approx(
                1.0 - config.damping
            )
