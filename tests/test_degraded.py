"""Graceful degradation of the in-process service.

A drain that fails requeues its batch losslessly and pauses the
background writer, which auto-resumes on a capped exponential backoff
once the queue is repaired.  There are no degraded-mode policies to
choose from: asking for one must fail loudly rather than be ignored.
"""

from __future__ import annotations

import time

import pytest

from repro import SimRankConfig
from repro.cli import main
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.io import save_edge_list
from repro.graph.updates import EdgeUpdate
from repro.serving import SimRankService

CFG = SimRankConfig(damping=0.6, iterations=7)


class TestPolicySurface:
    def test_unknown_policy_rejected(self, tmp_path, capsys):
        graph = erdos_renyi_digraph(20, 0.1, seed=17)
        edges = str(tmp_path / "graph.txt")
        save_edge_list(graph, edges)
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 0 19\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "serve",
                    edges,
                    str(updates),
                    "--degraded-policy",
                    "panic",
                ]
            )
        assert excinfo.value.code == 2
        assert "--degraded-policy" in capsys.readouterr().err


class TestWriterAutoResume:
    def test_transient_error_resumes_with_backoff(self):
        """A failed drain requeues the batch and auto-resumes on a
        capped exponential backoff once the queue is repaired."""
        graph = erdos_renyi_digraph(20, 0.1, seed=61)
        service = SimRankService(
            graph, CFG, writer="background", drain_interval=0.001
        )
        try:
            existing = next(iter(graph.edges()))
            service.submit(EdgeUpdate.insert(*existing))  # invalid: exists
            with pytest.raises(Exception):
                service.flush(timeout=30)
            writer = service.writer
            assert writer.paused
            assert service.pending == 1  # requeued losslessly
            # Repair the queue: the inverse update cancels the poison
            # insert, so the retried drain is a no-op that succeeds.
            writer.submit(EdgeUpdate.delete(*existing))
            deadline = time.monotonic() + 20
            while writer.paused and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not writer.paused
            assert service.flush(timeout=30)
            report = writer.report()
            assert report["resume_attempts"] >= 1
            assert report["writer_paused"] is False
        finally:
            service.stop_background_writer(drain=False)
            service.close()
