"""cith-wire: the HTTP front door in its own process, with the background writer.

``python -m repro serve <edges> <empty-updates> --writer background
--http 0`` serves a CITH-like graph.  One generator process (this one)
holds two keep-alive connections: a closed-loop query client mixing
``similarity`` and ``single_source`` reads, and an update sender that
sends a batch on a fixed schedule below the writer's capacity.  Each
batch is timed from when it was due until ``POST /flush`` returns; the
sender records how late it ran.  Each run serves several independent
graphs from its seed, one server each (each spawn is one timed
set-up), and pools their samples.

The traced run starts the server with a ``--config`` that enlarges the
span ring, runs an untraced leg and then a leg that sends
``X-Trace-Id`` on every request, and reads the per-layer numbers from
the server's own spans (``GET /traces``).  The reopen probe restarts a
durable server (``--data-dir``) of each graph after SIGKILL.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.graph.io import save_edge_list
from repro.serving.config import ServiceConfig, TelemetryConfig
from repro.simrank.queries import single_source_simrank

from .common import Report, p50_ms, peak_rss_mb_pid
from .inputs import SIMRANK_CONFIG, held_out_citation, seeded_nodes

SCALES = {
    "full": {"nodes": 800, "batch": 2, "interval": 0.1},
    "smoke": {"nodes": 200, "batch": 2, "interval": 0.02},
}
REFERENCES = 12
RECENCY = 0.7
DELETE_SHARE = 0.4
PAIR_SHARE = 0.7
#: Pause between a query's reply and the next query.  Keeps the two
#: processes' demand below two cores, so a slower machine does not tip
#: the server into queueing and amplify its noise.
THINK_SECONDS = 0.005
WARMUP_SECONDS = 1.0
GRAPHS = 3
RESTARTS_PER_GRAPH = 4
#: Updates applied to the durable server before the reopen probe kills it.
REOPEN_UPDATES = 64
#: Tails sit well below the highest percentile with ten samples beyond
#: it: when the host slows, the upper end of both distributions
#: stretches more than their middle (the update p90 moved 1.7 times as
#: much as the p50 between runs, the p75 1.3 times), so a p90/p95 swings
#: far more between runs than the p75/p80 does.
UPDATE_TAIL = 75
QUERY_TAIL = 80
CHECK_NODES = 3
TOLERANCE = 1e-10
SPAN_RING = 200_000
START_TIMEOUT = 120.0
#: Server spans and the per-layer metric each feeds.
SPANS = {
    "frontdoor.query": "frontdoor.query",
    "admission.wait": "frontdoor.admission_wait",
    "admission.pin": "frontdoor.pin",
    "admission.execute": "frontdoor.execute",
    "updates.submit": "frontdoor.submit",
    "drain.apply": "serving.wire_drain",
}


class Server:
    """One ``python -m repro serve --http 0`` child process."""

    def __init__(self, ctx, args: List[str], log_name: str) -> None:
        self.ctx = ctx
        self.args = args
        self.log_path = os.path.join(ctx.workdir, log_name)
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the listening line; seconds it took."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.ctx.root, "src")
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *self.args,
                 "--writer", "background", "--http", "0"],
                stdout=subprocess.PIPE,
                stderr=log,
                stdin=subprocess.DEVNULL,
                cwd=self.ctx.workdir,
                env=env,
            )
        line = self._await_listening(started + START_TIMEOUT)
        elapsed = time.perf_counter() - started
        address = line.rsplit(" ", 1)[1]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        return elapsed

    def _await_listening(self, deadline: float) -> str:
        stream = self.process.stdout
        with selectors.DefaultSelector() as selector:
            selector.register(stream, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("server did not start in time")
                line = stream.readline().decode("utf-8", "replace")
                if not line:
                    raise RuntimeError(
                        f"server exited early; see {self.log_path}"
                    )
                if line.startswith("front door listening on "):
                    return line.strip()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.process.pid)

    def stop(self, sig=signal.SIGINT) -> None:
        """Signal the server and wait until it has exited."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(sig)
                try:
                    process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            process.stdout.close()


class Client:
    """One keep-alive HTTP/1.1 connection; JSON in, JSON out."""

    def __init__(self, server: Server) -> None:
        self.connection = http.client.HTTPConnection(
            server.host, server.port, timeout=60
        )

    def call(self, method: str, path: str, payload=None,
             trace_id: Optional[str] = None):
        headers = {"Content-Type": "application/json"}
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        body = None if payload is None else json.dumps(payload)
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def close(self) -> None:
        self.connection.close()


class Leg:
    """Samples of one load phase.

    The query thread writes only the query fields and the update sender
    only the update fields, so neither needs a lock.
    """

    def __init__(self) -> None:
        self.query_attempts = 0
        self.update_attempts = 0
        self.queries: List[float] = []
        self.query_ids: List[Optional[str]] = []
        self.batch_sizes: List[int] = []
        self.updates: List[float] = []
        self.lateness: List[float] = []
        self.applied = 0
        self.wall = 0.0


class Load:
    """Drives the query client and the update schedule against one server."""

    def __init__(self, server: Server, num_nodes: int, stream, batch: int,
                 interval: float, seed: int, part: int,
                 report: Report) -> None:
        self.num_nodes = num_nodes
        self.stream = stream
        self.batch = batch
        self.interval = interval
        self.report = report
        self.position = 0
        self.flushed_version = -1
        self.last_read_version = -1
        self.rng = np.random.default_rng(
            np.random.SeedSequence([seed, 7, part])
        )
        self.errors: List[str] = []
        self._errors_lock = threading.Lock()
        self.queries = Client(server)
        self.writes = Client(server)

    def close(self) -> None:
        self.queries.close()
        self.writes.close()

    def fail(self, message: str) -> None:
        """Count a failed operation (called from both threads)."""
        with self._errors_lock:
            self.report.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
                print(f"perfbench: {message}", file=sys.stderr)

    def _query_loop(self, leg: Leg, stop_at: float, prefix) -> None:
        sequence = 0
        while time.perf_counter() < stop_at:
            if self.rng.random() < PAIR_SHARE:
                a, b = (int(x) for x in self.rng.integers(self.num_nodes, size=2))
                payload = {"kind": "similarity", "node_a": a, "node_b": b}
            else:
                node = int(self.rng.integers(self.num_nodes))
                payload = {"kind": "single_source", "node": node}
            trace_id = None if prefix is None else f"{prefix}q{sequence}"
            sequence += 1
            floor = self.flushed_version
            leg.query_attempts += 1
            started = time.perf_counter()
            try:
                status, body = self.queries.call(
                    "POST", "/query", payload, trace_id
                )
            except (OSError, http.client.HTTPException, ValueError) as exc:
                self.fail(f"query failed: {exc!r}")
                return
            elapsed = time.perf_counter() - started
            if status != 200:
                self.fail(f"query returned {status}: {body}")
                continue
            version = int(body["version"])
            if version < max(floor, self.last_read_version):
                self.fail(
                    f"fresh read went back to v{version} after "
                    f"v{max(floor, self.last_read_version)}"
                )
            self.last_read_version = max(self.last_read_version, version)
            leg.queries.append(elapsed)
            leg.query_ids.append(trace_id)
            leg.batch_sizes.append(int(body.get("batch_size", 1)))
            time.sleep(THINK_SECONDS)

    def _send_batch(self, leg: Leg, due: float, trace_id) -> bool:
        chunk = self.stream[self.position:self.position + self.batch]
        self.position += len(chunk)
        payload = {
            "updates": [
                ["insert" if u.is_insert else "delete", u.source, u.target]
                for u in chunk
            ],
            "validate": True,
        }
        leg.update_attempts += len(chunk)
        leg.lateness.append(max(0.0, time.perf_counter() - due))
        try:
            status, body = self.writes.call("POST", "/updates", payload,
                                            trace_id)
            if status != 200:
                self.fail(f"updates returned {status}: {body}")
                return False
            if body["accepted"] != len(chunk) or body["rejected"]:
                self.fail(f"updates refused: {body['rejected']}")
                return False
            status, body = self.writes.call("POST", "/flush", {})
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.fail(f"update batch failed: {exc!r}")
            return False
        if status != 200:
            self.fail(f"flush returned {status}: {body}")
            return False
        leg.updates.append(time.perf_counter() - due)
        leg.applied += len(chunk)
        self.flushed_version = max(self.flushed_version, int(body["version"]))
        return True

    def run(self, seconds: float, prefix: Optional[str] = None) -> Leg:
        """One phase of ``seconds``: queries closed-loop, updates on schedule."""
        leg = Leg()
        started = time.perf_counter()
        stop_at = started + seconds
        reader = threading.Thread(
            target=self._query_loop, args=(leg, stop_at, prefix), daemon=True
        )
        reader.start()
        try:
            sequence = 0
            while True:
                due = started + sequence * self.interval
                if due >= stop_at:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                trace_id = None if prefix is None else f"{prefix}u{sequence}"
                sequence += 1
                if not self._send_batch(leg, due, trace_id):
                    break
        finally:
            reader.join(timeout=120)
        if reader.is_alive():
            raise RuntimeError("query client did not finish")
        leg.wall = time.perf_counter() - started
        self.report.attempted += leg.query_attempts + leg.update_attempts
        return leg


def _final_graph(base, stream, applied: int):
    graph = base.copy()
    for update in stream[:applied]:
        update.apply_to(graph)
    return graph


def _check_scores(load: Load, graph, seed: int, part: int,
                  report: Report) -> None:
    """Seeded single-source and pair reads against exact SimRank."""
    status, body = load.writes.call("POST", "/flush", {})
    report.check("final flush returns 200", status == 200, str(status))
    worst = 0.0
    for node in seeded_nodes(seed, graph.num_nodes, CHECK_NODES, part):
        exact = single_source_simrank(graph, node, SIMRANK_CONFIG)
        status, body = load.queries.call(
            "POST", "/query", {"kind": "single_source", "node": node}
        )
        if not report.check("final single_source returns 200",
                            status == 200, str(status)):
            continue
        served = np.asarray(body["value"])
        worst = max(worst, float(np.max(np.abs(served - exact))))
        others = exact.copy()
        others[node] = -1.0
        other = int(np.argmax(others))
        status, body = load.queries.call(
            "POST", "/query",
            {"kind": "similarity", "node_a": node, "node_b": other},
        )
        if report.check("final similarity returns 200", status == 200,
                        str(status)):
            worst = max(worst, abs(float(body["value"]) - float(exact[other])))
    report.check(
        f"graph {part}: seeded final scores match exact single-source "
        "SimRank",
        worst <= TOLERANCE,
        f"max |served - exact| = {worst:.3e} (tolerance {TOLERANCE:g})",
    )
    report.info["max_abs_error_vs_exact"] = max(
        worst, report.info.get("max_abs_error_vs_exact", 0.0)
    )


def _reopen_probe(ctx, edges_path, empty_path, stream, part,
                  report) -> List[float]:
    """Crash-restart a durable server; seconds until it listens again."""
    data_dir = os.path.join(ctx.workdir, f"wire-data-{part}")
    args = [edges_path, empty_path, "--data-dir", data_dir]
    server = Server(ctx, args, "reopen.log")
    try:
        server.start()
        client = Client(server)
        try:
            updates = stream[:REOPEN_UPDATES]
            status, body = client.call("POST", "/updates", {
                "updates": [["insert" if u.is_insert else "delete",
                             u.source, u.target] for u in updates],
                "validate": True,
            })
            report.check("durable server accepts the updates",
                         status == 200 and body["accepted"] == len(updates))
            status, body = client.call("POST", "/flush", {})
            version = int(body["version"])
        finally:
            client.close()
    finally:
        server.stop(signal.SIGKILL)
    seconds = []
    for _ in range(RESTARTS_PER_GRAPH):
        server = Server(ctx, args, "reopen.log")
        try:
            seconds.append(server.start())
            client = Client(server)
            try:
                status, body = client.call("GET", "/health")
            finally:
                client.close()
            report.check(
                "restarted server recovers the last acked version",
                status == 200 and int(body["version"]) == version,
                f"recovered v{body.get('version')}, acked v{version}",
            )
        finally:
            server.stop(signal.SIGKILL)
    return seconds


class Traces:
    """Server spans and counters gathered over the traced legs."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {name: [] for name in SPANS}
        self.wire: List[float] = []
        self.covered = 0.0
        self.round_trips = 0.0
        self.drained = self.groups = self.plans = 0
        self.dropped = 0

    def collect(self, load: Load, prefix: str, leg: Leg, before: dict,
                report: Report) -> None:
        """Fold one traced leg's spans and counter deltas in."""
        status, body = load.queries.call("GET", "/traces")
        report.check("GET /traces returns 200", status == 200, str(status))
        query_span = {}
        for span in body["spans"]:
            name, trace_id = span["name"], str(span["trace_id"])
            if name not in SPANS or not trace_id.startswith(prefix):
                continue
            seconds = span["duration_ms"] / 1e3
            self.spans[name].append(seconds)
            if name == "frontdoor.query":
                query_span[trace_id] = seconds
        for rtt, trace_id in zip(leg.queries, leg.query_ids):
            if trace_id in query_span:
                self.wire.append(rtt - query_span[trace_id])
                self.covered += query_span[trace_id]
                self.round_trips += rtt
        status, after = load.queries.call("GET", "/metrics")
        report.check("GET /metrics returns 200", status == 200, str(status))
        writer, writer_before = after["writer"], before["writer"]
        self.drained += writer["drained_updates"] - writer_before["drained_updates"]
        self.groups += writer["row_groups"] - writer_before["row_groups"]
        self.plans += after["executor"]["plans"] - before["executor"]["plans"]
        self.dropped += after["telemetry"]["tracing"]["spans_dropped"]

    def metrics(self, traced: Leg, untraced: Leg) -> Dict[str, tuple]:
        metrics = {}
        for span_name, metric in SPANS.items():
            seconds = self.spans[span_name]
            metrics[f"{metric}_ms"] = (p50_ms(seconds), "ms")
            metrics[f"{metric}_pct"] = (100.0 * sum(seconds) / traced.wall, "%")
        metrics["frontdoor.wire_ms"] = (p50_ms(self.wire), "ms")
        metrics["frontdoor.wire_pct"] = (
            100.0 * sum(self.wire) / traced.wall, "%"
        )
        metrics["frontdoor.batch_size"] = (
            float(np.mean(traced.batch_sizes)), "count"
        )
        metrics["trace.coverage_pct"] = (
            100.0 * self.covered / self.round_trips, "%"
        )
        metrics["trace.update_overhead_pct"] = (
            100.0 * (np.median(traced.updates) / np.median(untraced.updates)
                     - 1.0),
            "%",
        )
        metrics["trace.query_overhead_pct"] = (
            100.0 * (np.median(traced.queries) / np.median(untraced.queries)
                     - 1.0),
            "%",
        )
        metrics["serving.row_groups_per_update"] = (
            self.groups / self.drained, "ratio"
        )
        metrics["incremental.plans_per_update"] = (
            self.plans / self.drained, "ratio"
        )
        return metrics


def _pooled(legs: List[Leg]) -> Leg:
    pooled = Leg()
    for leg in legs:
        pooled.queries += leg.queries
        pooled.query_ids += leg.query_ids
        pooled.batch_sizes += leg.batch_sizes
        pooled.updates += leg.updates
        pooled.lateness += leg.lateness
        pooled.applied += leg.applied
        pooled.wall += leg.wall
    return pooled


def run(ctx, report: Report) -> None:
    scale = SCALES[ctx.scale]
    leg_seconds = ctx.seconds / GRAPHS
    batches_per_leg = int(np.ceil(leg_seconds / scale["interval"]))
    warm_batches = int(np.ceil(WARMUP_SECONDS / scale["interval"]))
    # Sized for the traced run's two legs, so both modes see one graph.
    count = scale["batch"] * (warm_batches + 2 * batches_per_leg)
    empty_path = os.path.join(ctx.workdir, "updates.txt")
    open(empty_path, "w", encoding="utf-8").close()
    config_args = []
    if ctx.trace:
        config_path = os.path.join(ctx.workdir, "service.json")
        ServiceConfig(
            damping=SIMRANK_CONFIG.damping,
            iterations=SIMRANK_CONFIG.iterations,
            writer="background",
            telemetry=TelemetryConfig(trace_capacity=SPAN_RING),
        ).save(config_path)
        config_args = ["--config", config_path]
    traces = Traces() if ctx.trace else None
    setups, rss, legs, traced_legs, reopens = [], [], [], [], []
    for part in range(GRAPHS):
        base, stream = held_out_citation(
            scale["nodes"], REFERENCES, RECENCY, ctx.seed, count,
            DELETE_SHARE, part,
        )
        edges_path = os.path.join(ctx.workdir, f"edges-{part}.txt")
        save_edge_list(base, edges_path)
        server = Server(ctx, [edges_path, empty_path, *config_args],
                        f"server-{part}.log")
        try:
            setups.append(server.start())
            load = Load(server, base.num_nodes, stream, scale["batch"],
                        scale["interval"], ctx.seed, part, report)
            try:
                load.run(WARMUP_SECONDS)
                legs.append(load.run(leg_seconds))
                if traces is not None:
                    _, before = load.queries.call("GET", "/metrics")
                    prefix = f"t{part}-"
                    traced_legs.append(load.run(leg_seconds, prefix=prefix))
                    traces.collect(load, prefix, traced_legs[-1], before,
                                   report)
                report.check(f"graph {part}: no request failed",
                             not load.errors, "; ".join(load.errors[:3]))
                graph = _final_graph(base, stream, load.position)
                _check_scores(load, graph, ctx.seed, part, report)
                rss.append(server.peak_rss_mb())
            finally:
                load.close()
        finally:
            server.stop()
        if traces is None:
            # A restart probe after every graph samples the machine
            # across the whole run rather than at one moment.
            reopens += _reopen_probe(ctx, edges_path, empty_path, stream,
                                     part, report)

    leg = _pooled(legs)
    report.info.update(
        nodes=scale["nodes"],
        graphs=GRAPHS,
        updates_per_batch=scale["batch"],
        batch_interval_s=scale["interval"],
        query_think_s=THINK_SECONDS,
        query_mix={"similarity": PAIR_SHARE, "single_source": 1 - PAIR_SHARE},
        connections=2,
        setup_runs_s=setups,
        server_peak_rss_mb=rss,
        generator_lateness_p50_ms=p50_ms(leg.lateness),
        generator_lateness_max_ms=max(leg.lateness) * 1e3,
        queries_per_s=len(leg.queries) / leg.wall,
    )
    report.work.update(
        updates=leg.applied, batches=len(leg.updates), queries=len(leg.queries)
    )
    if traces is not None:
        report.layers.update(traces.metrics(_pooled(traced_legs), leg))
        report.info.update(span_ring=SPAN_RING, spans_dropped=traces.dropped)
        return
    report.info["recover_runs_s"] = reopens
    report.e2e["setup_s"] = (float(np.median(setups)), "s")
    report.e2e["updates_per_s"] = (leg.applied / leg.wall, "1/s")
    report.latency("update", leg.updates, UPDATE_TAIL)
    report.latency("query", leg.queries, QUERY_TAIL)
    report.e2e["recover_s"] = (float(np.median(reopens)), "s")
    report.e2e["peak_rss_mb"] = (max(rss), "MB")
