"""The single-writer / many-readers serving session.

:class:`SimRankService` wires the three layers together for the
link-evolving serving workload the paper targets: precompute once, then
serve reads while edges arrive.  It runs in one of two writer modes:

* **sync** (default) — the original single-threaded session.  Writers
  call :meth:`submit` (updates land in the coalescing
  :class:`~repro.serving.scheduler.UpdateScheduler`), the caller drives
  :meth:`drain` explicitly, and :meth:`snapshot` pins the live stores.
  Reads (:meth:`snapshot`, :meth:`similarity`, :meth:`top_k`) take the
  drain lock, so a read on another thread waits for an in-flight drain
  instead of seeing it half-applied.
* **background** — a dedicated
  :class:`~repro.serving.writer.BackgroundWriter` thread owns the drain
  loop: it wakes on a configurable interval (or when the bounded queue
  hits its cap), applies one coalesced batch through the consolidated
  row path, and publishes a fresh immutable
  :class:`~repro.serving.snapshot.SnapshotView`.  Readers pin the
  published view with a single attribute read, so they **never block on
  a drain**; submitters feel the bounded queue through the configured
  backpressure policy (``block`` / ``drop-coalesce`` / ``error``).

Pinned views are bit-stable under any number of subsequent drains
(copy-on-write shards), so a query fleet can keep answering from a
consistent version while updates stream in, then re-pin at its own
cadence.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Optional, Union

import numpy as np

from ..exceptions import (
    ConfigError,
    HistoryUnavailableError,
    ServiceClosedError,
)
from ..executor.score_store import DEFAULT_SHARD_ROWS
from ..graph.digraph import DynamicDiGraph
from ..graph.updates import EdgeUpdate, UpdateBatch
from ..incremental.engine import DynamicSimRank
from .config import (  # noqa: F401  (re-exported for compatibility)
    PRECISION_MODES,
    WRITER_MODES,
    DurabilityConfig,
    ServiceConfig,
    resolve_service_config,
)
from ..telemetry import Telemetry
from .envelopes import QueryRequest, QueryResult, run_query
from .scheduler import UpdateScheduler
from .snapshot import SnapshotView
from .writer import (
    DEFAULT_DRAIN_INTERVAL,
    DEFAULT_MAX_PENDING,
    DRAIN_HELP,
    BackgroundWriter,
)

#: Sentinel distinguishing "kwarg not passed" from any real value, so
#: the legacy-kwarg compatibility layer only reports *explicitly*
#: passed arguments to :func:`resolve_service_config` (an untouched
#: default can never conflict with an explicit :class:`ServiceConfig`).
_UNSET = object()


def _coerce_durability(value):
    """Accept a data-dir string, a wire dict, or a DurabilityConfig."""
    if value is None or isinstance(value, DurabilityConfig):
        return value
    if isinstance(value, str):
        return DurabilityConfig(data_dir=value)
    if isinstance(value, dict):
        return DurabilityConfig.from_dict(value)
    raise ConfigError(
        "durability must be a data-dir path, a DurabilityConfig, or a "
        f"config dict, not {type(value).__name__}"
    )


class SimRankService:
    """Versioned SimRank serving over a link-evolving graph.

    Parameters
    ----------
    graph:
        The live :class:`DynamicDiGraph` this service owns.
    config:
        The deployment shape: a :class:`ServiceConfig`, its
        ``to_dict()`` payload, a path to a saved config file, a bare
        :class:`~repro.config.SimRankConfig` (the historical second
        positional argument), or None.  The remaining keyword
        arguments are the historical per-knob surface; they still work
        and build a :class:`ServiceConfig` under the hood.  Passing an
        explicit :class:`ServiceConfig` *and* a conflicting keyword
        raises :class:`~repro.exceptions.ConfigError` — see
        :func:`resolve_service_config`.
    initial_scores, shard_rows:
        Forwarded to the underlying :class:`DynamicSimRank` engine.
    writer:
        ``"sync"`` (caller-driven drains) or ``"background"`` (start a
        :class:`BackgroundWriter` immediately).
    drain_interval, max_pending, backpressure:
        Background-writer knobs; ignored in sync mode (start one later
        with :meth:`start_background_writer`).
    precision:
        The score store's storage dtype, one of :data:`PRECISION_MODES`
        (default ``"float64"``).  ``"float32"`` halves the score memory;
        planning and GEMM arithmetic stay float64.
    durability:
        A data-dir path, a
        :class:`~repro.serving.config.DurabilityConfig`, or its
        ``to_dict()`` payload.  When set, the service recovers any
        state already in the data dir (the recovered graph/scores win
        over the ``graph``/``initial_scores`` arguments), appends every
        acked drain to a checksummed write-ahead log before the ack is
        released, writes periodic checkpoints, and serves time-travel
        reads (:meth:`score_at`, :meth:`top_k_at`, :meth:`view_at`)
        over the retained history.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        config=None,
        initial_scores: Optional[np.ndarray] = None,
        shard_rows=_UNSET,
        writer=_UNSET,
        drain_interval=_UNSET,
        max_pending=_UNSET,
        backpressure=_UNSET,
        precision=_UNSET,
        durability=_UNSET,
    ) -> None:
        if durability is not _UNSET:
            durability = _coerce_durability(durability)
        legacy = {
            "shard_rows": shard_rows,
            "writer": writer,
            "drain_interval": drain_interval,
            "max_pending": max_pending,
            "backpressure": backpressure,
            "precision": precision,
            "durability": durability,
        }
        overrides = {
            name: value
            for name, value in legacy.items()
            if value is not _UNSET
        }
        cfg = resolve_service_config(config, overrides)
        self._config = cfg
        #: The service's telemetry spine, shared by every layer below
        #: (engine, executor, durability) and above (front door): one metric
        #: registry, one trace ring, one flight recorder.
        self.telemetry = Telemetry.from_config(cfg.telemetry)
        self._query_hist = self.telemetry.registry.histogram(
            "repro_service_query_seconds",
            help="In-process query latency (snapshot pin + execute)",
        )
        self._drain_hist = self.telemetry.registry.histogram(
            "repro_drain_apply_seconds", help=DRAIN_HELP
        )
        #: Trace ids of traced update submissions awaiting the drain
        #: that folds them in (bounded; drained by the next apply).
        self._origin_traces: list = []
        simrank_config = cfg.simrank_config()
        self._precision = cfg.precision
        self._closed = False
        self._close_lock = threading.RLock()
        #: Serializes the engine mutations that run on caller threads (a
        #: sync drain, ``add_node``) with close's checkpoint and with
        #: sync-mode reads, so neither sees a half-applied drain.
        self._mutation_lock = threading.Lock()
        self._durability = None
        if cfg.durability is not None:
            from ..durability.manager import DurabilityManager

            self._durability = DurabilityManager(
                cfg.durability, telemetry=self.telemetry
            )
        shard_rows = cfg.shard_rows or DEFAULT_SHARD_ROWS
        try:
            recovered = None
            if self._durability is not None:
                # A data dir holding a valid manifest wins over the
                # caller's graph/scores: the durable history *is* the
                # service state, restored bit-identical to the last
                # acked drain.  The arguments seed only a fresh dir.
                recovered = self._durability.recover(shard_rows=shard_rows)
            if recovered is None:
                self._engine = DynamicSimRank(
                    graph,
                    simrank_config,
                    algorithm="inc-sr",
                    initial_scores=initial_scores,
                    shard_rows=shard_rows,
                    score_dtype=self._precision,
                    telemetry=self.telemetry,
                )
            else:
                stored = recovered.store.dtype.name
                if stored != self._precision:
                    # Widening or narrowing here would make the
                    # recovered scores differ from the live ones.
                    raise ConfigError(
                        f"data dir {cfg.durability.data_dir!r} holds "
                        f"{stored} scores but precision is "
                        f"{self._precision}; reopen it with "
                        f"precision={stored!r}"
                    )
                self._engine = DynamicSimRank._from_state(
                    recovered.graph,
                    recovered.store,
                    simrank_config,
                    version=recovered.version,
                    telemetry=self.telemetry,
                )
            if self._durability is not None:
                self._durability.attach(self._engine)
        except BaseException:
            # Never leak the data-dir lock on a failed construction.
            if self._durability is not None:
                self._durability.close()
            raise
        self._scheduler = UpdateScheduler(self.telemetry.registry)
        self._writer: Optional[BackgroundWriter] = None
        if cfg.writer == "background":
            self.start_background_writer(
                drain_interval=cfg.drain_interval,
                max_pending=cfg.max_pending,
                policy=cfg.backpressure,
            )

    # -------------------------------------------------------------- #
    # Writer lifecycle
    # -------------------------------------------------------------- #

    def start_background_writer(
        self,
        drain_interval: float = DEFAULT_DRAIN_INTERVAL,
        max_pending: int = DEFAULT_MAX_PENDING,
        policy: str = "block",
    ) -> BackgroundWriter:
        """Hand the drain loop to a dedicated writer thread."""
        self._ensure_open()
        if self._writer is not None:
            raise ConfigError("background writer already running")
        self._writer = BackgroundWriter(
            self._engine,
            self._scheduler,
            drain_interval=drain_interval,
            max_pending=max_pending,
            policy=policy,
            on_drained=self._durable_on_drain,
            telemetry=self.telemetry,
            trace_source=self._take_origin_traces,
        )
        self._writer.start()
        return self._writer

    def stop_background_writer(self, drain: bool = True) -> None:
        """Stop the writer thread (draining leftovers by default)."""
        if self._writer is None:
            return
        self._writer.stop(drain=drain)
        self._writer = None

    def close(self, drain: bool = True) -> None:
        """Stop the writer and release the data dir — idempotent.

        Safe to call from several threads at once and any number of
        times: the whole teardown runs under one lock, the first caller
        does the work, every later (or concurrent) caller waits for it
        and returns.  After close every read/write entry point raises
        :class:`~repro.exceptions.ServiceClosedError` instead of
        touching a closed service — that is what lets a network front
        door shut down while requests are still in flight.  With
        durability configured this also checkpoints the last acked
        version (when drains were WAL'd since the last checkpoint, so the
        next open replays nothing), flushes the WAL and releases the
        data-dir lock, so always close (or use the context manager) when
        done serving.  A sync drain or :meth:`add_node` already applying
        finishes, WAL append included, before that checkpoint is taken.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            try:
                self.stop_background_writer(drain=drain)
            finally:
                if self._durability is not None:
                    # A writer that failed to stop may still be applying:
                    # checkpoint only an engine nothing mutates.
                    stopped = self._writer is None
                    with self._mutation_lock:
                        self._durability.close(
                            self._engine if stopped else None
                        )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (requests now raise 503-class)."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                "SimRankService is closed and no longer accepts requests"
            )

    def __enter__(self) -> "SimRankService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    @property
    def engine(self) -> DynamicSimRank:
        """The underlying engine (kernel/executor facade)."""
        return self._engine

    @property
    def service_config(self) -> ServiceConfig:
        """The resolved deployment shape (whatever surface built it)."""
        return self._config

    @property
    def scheduler(self) -> UpdateScheduler:
        """The write-side queue."""
        return self._scheduler

    @property
    def writer(self) -> Optional[BackgroundWriter]:
        """The background writer, or None in sync mode."""
        return self._writer

    @property
    def background(self) -> bool:
        """Whether a background writer currently owns the drain loop."""
        return self._writer is not None

    @property
    def precision(self) -> str:
        """The score store's storage dtype name (:data:`PRECISION_MODES`)."""
        return self._precision

    @property
    def version(self) -> int:
        """Current state version (bumped once per drained batch)."""
        return self._engine.version

    @property
    def num_nodes(self) -> int:
        return self._engine.graph.num_nodes

    @property
    def pending(self) -> int:
        """Net queued updates not yet applied."""
        return len(self._scheduler)

    # -------------------------------------------------------------- #
    # Write path
    # -------------------------------------------------------------- #

    def note_origin_trace(self, trace_id: Optional[str]) -> None:
        """Remember a traced update submission until the next drain.

        The drain that folds the submission in records a
        ``drain.apply`` span under each remembered id (with the fan-in
        count as an attribute).  Bounded: beyond 64 pending ids
        new ones are dropped (the span ring is best-effort anyway).
        """
        if not trace_id or not self.telemetry.tracer.sampled(trace_id):
            return
        if len(self._origin_traces) < 64:
            self._origin_traces.append(trace_id)

    def _take_origin_traces(self) -> list:
        """Pop every pending origin trace id (called by the drain)."""
        if not self._origin_traces:
            return []
        taken, self._origin_traces = self._origin_traces, []
        return taken

    def submit(self, update: Union[EdgeUpdate, UpdateBatch]) -> None:
        """Queue an update (or a whole batch) for the next drain.

        In background mode the bounded queue's backpressure policy
        applies: the call may block, silently drop non-coalescing
        updates, or raise :class:`~repro.exceptions.BackpressureError`.
        """
        updates = [update] if isinstance(update, EdgeUpdate) else update
        self.submit_many(updates)

    def submit_many(self, updates: Iterable[EdgeUpdate]) -> None:
        """Queue a stream of updates for the next drain."""
        self._ensure_open()
        if self._writer is not None:
            self._writer.submit_many(updates)
        else:
            self._scheduler.submit_many(updates)

    def drain(self) -> int:
        """Apply everything queued as one coalesced consolidated batch.

        Sync mode only — in background mode the writer thread owns the
        drain loop; use :meth:`flush` to wait for it.  Returns the
        number of row groups processed (0 when the queue was empty).

        If the batch is invalid against the live graph (e.g. a queued
        insert of an edge that already exists), the engine raises
        before touching any state; the drained updates are re-queued
        first, so nothing pending is lost and the caller can repair the
        queue and drain again.
        """
        self._ensure_open()
        if self._writer is not None:
            raise ConfigError(
                "the background writer owns the drain loop; use flush() "
                "to wait for it (or stop_background_writer() first)"
            )
        with self._mutation_lock:
            # Re-checked under the lock: a close that took it first has
            # checkpointed and released the data dir.
            self._ensure_open()
            batch = self._scheduler.drain()
            if not len(batch):
                return 0
            traces = self._take_origin_traces()
            started = time.perf_counter()
            try:
                groups = self._engine.apply_consolidated(batch)
            except Exception:
                self._scheduler.submit_many(batch)
                raise
            # The same extent the background writer times: apply and
            # WAL append (and any checkpoint).
            self._durable_on_drain()
            elapsed = time.perf_counter() - started
        tracer = self.telemetry.tracer
        self._drain_hist.observe(elapsed)
        for trace_id in traces:
            tracer.record(
                "drain.apply",
                trace_id,
                elapsed,
                fan_in=len(traces),
                updates=len(batch),
                groups=groups,
            )
        return groups

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Ensure everything queued so far is applied.

        Background mode blocks until the writer has drained and
        published (False on timeout); sync mode simply drains inline.
        """
        self._ensure_open()
        if self._writer is not None:
            return self._writer.flush(timeout=timeout)
        self.drain()
        return True

    def add_node(self) -> int:
        """Grow the node universe by one isolated node (applied live)."""
        self._ensure_open()
        with self._mutation_lock:
            self._ensure_open()
            writer = self._writer
            if writer is None:
                node = self._engine.add_node()
                self._durable_add_node(node)
                return node
            with writer.apply_lock:
                node = self._engine.add_node()
                self._durable_add_node(node)
                writer.publish()
            return node

    # -------------------------------------------------------------- #
    # Durability hooks
    # -------------------------------------------------------------- #

    def _durable_on_drain(self) -> None:
        """Append the just-applied drain to the WAL, then maybe checkpoint.

        Runs on the draining thread — under the writer's apply lock in
        background mode, inline in sync mode — *between* the engine
        apply and the publish/ack.  Ack-after-append is the durability
        contract: a version a client observed is a version a restart
        recovers bit-identically.
        """
        if self._durability is None:
            return
        drained = self._engine.take_last_drain()
        if drained is None:
            return
        row_updates, plan = drained
        self._durability.append_drain(self._engine.version, row_updates, plan)
        self._durability.maybe_checkpoint(self._engine)

    def _durable_add_node(self, node: int) -> None:
        """WAL one live node arrival (same ack-after-append seam)."""
        if self._durability is None:
            return
        self._durability.append_add_node(
            self._engine.version, node, self._engine.graph.num_nodes
        )
        self._durability.maybe_checkpoint(self._engine)

    @property
    def durability(self):
        """The :class:`DurabilityManager`, or None when not configured."""
        return self._durability

    # -------------------------------------------------------------- #
    # Read path
    # -------------------------------------------------------------- #

    def snapshot(self) -> SnapshotView:
        """Pin the current version as an immutable :class:`SnapshotView`.

        Background mode returns the writer's latest *published* view —
        one attribute read, so readers never block on an in-flight
        drain.  Sync mode pins the live stores under the drain lock, so
        a pin waits for a drain running on another thread.
        """
        self._ensure_open()
        writer = self._writer
        if writer is not None:
            return writer.current_view
        with self._mutation_lock:
            return self._pin_live()

    def _pin_live(self) -> SnapshotView:
        return SnapshotView(
            scores=self._engine.score_store.snapshot(),
            transitions=self._engine.transition_store.snapshot(),
            config=self._engine.config,
            version=self._engine.version,
        )

    def similarity(self, node_a: int, node_b: int) -> float:
        """Latest-version score of one pair.

        Background mode reads the latest published view (consistent,
        at most one drain behind); sync mode reads the live store under
        the drain lock.
        """
        self._ensure_open()
        writer = self._writer
        if writer is not None:
            return writer.current_view.similarity(node_a, node_b)
        with self._mutation_lock:
            return self._engine.similarity(node_a, node_b)

    def top_k(self, k: int, include_self: bool = False):
        """Top-``k`` pairs at the latest version via the shard-local index.

        Served by the engine's incremental
        :class:`~repro.executor.topk_index.ShardTopK`: a merge of each
        shard's tracked best pairs, with no dense ``S`` scan and a shard
        rescan only when a shard tracks too few pairs for ``k``.  The
        query never interleaves with a drain: it takes the writer's
        apply lock in background mode and the drain lock in sync mode.
        """
        self._ensure_open()
        writer = self._writer
        if writer is not None:
            with writer.apply_lock:
                return self._engine.top_k(k, include_self=include_self)
        with self._mutation_lock:
            return self._engine.top_k(k, include_self=include_self)

    def view_at(self, version: int) -> SnapshotView:
        """Pin a historical version as an immutable snapshot.

        ``version`` must be the live version (served directly) or one
        reachable from a retained checkpoint plus WAL replay; anything
        older than the retention horizon (or newer than the live state)
        raises :class:`~repro.exceptions.HistoryUnavailableError`.
        Requires durability to be configured.
        """
        self._ensure_open()
        version = int(version)
        live = self._engine.version
        if version == live:
            return self.snapshot()
        if version > live:
            raise HistoryUnavailableError(
                f"version {version} is in the future (live version is "
                f"{live})"
            )
        if self._durability is None:
            raise HistoryUnavailableError(
                "time-travel reads need durability= configured"
            )
        return self._durability.view_at(version, self._engine.config)

    def score_at(self, node_a: int, node_b: int, version: int) -> float:
        """One pair's score as of ``version`` (time-travel read)."""
        return self.view_at(version).similarity(node_a, node_b)

    def top_k_at(self, k: int, version: int, include_self: bool = False):
        """Top-``k`` pairs as of ``version`` (time-travel read)."""
        return self.view_at(version).top_k(k, include_self=include_self)

    def query(self, request: Union[QueryRequest, dict]) -> QueryResult:
        """Run one typed :class:`QueryRequest` and wrap the answer.

        The in-process twin of the front door's ``POST /query``: the
        same envelope in, the same envelope out, the same arithmetic
        (``similarity``/``single_pair``/``single_source`` read a pinned
        snapshot; ``top_k`` rides the shard-local index under the apply
        lock).  Accepts a raw wire dict as a convenience.
        """
        if isinstance(request, dict):
            request = QueryRequest.from_dict(request)
        self._ensure_open()
        started = time.perf_counter()
        if request.kind == "top_k":
            value = self.top_k(request.k)
            result = QueryResult(
                kind=request.kind,
                value=value,
                version=self.version,
                elapsed_seconds=time.perf_counter() - started,
                id=request.id,
            )
        else:
            result = run_query(self.snapshot(), request)
        self._query_hist.observe(time.perf_counter() - started)
        return result

    def memory_report(self) -> dict:
        """Layered memory accounting including scheduler state."""
        self._ensure_open()
        if self._writer is not None:
            with self._writer.apply_lock:
                report = self._engine.memory_report()
        else:
            report = self._engine.memory_report()
        report["scheduler_pending"] = len(self._scheduler)
        return report

    def metrics_report(self) -> dict:
        """Serving-side observability: queue, writer, and top-k gauges."""
        self._ensure_open()
        store = self._engine.score_store
        report = {
            "version": self.version,
            "queue_depth": len(self._scheduler),
            "pending_targets": self._scheduler.pending_targets,
            "scheduler": self._scheduler.report(),
            "executor": {**store.apply_report(), **store.dtype_report()},
            "precision": {"mode": self._precision},
        }
        if self._writer is not None:
            report["writer"] = self._writer.report()
        index = self._engine.topk_index
        if index is not None:
            report["topk"] = index.report()
        report["durability"] = (
            self._durability.report()
            if self._durability is not None
            else {"enabled": False}
        )
        # New section only — every pre-telemetry key above is unchanged
        # (asserted by tests/test_telemetry.py).
        report["telemetry"] = self.telemetry.report()
        return report

    def __repr__(self) -> str:
        mode = "background" if self.background else "sync"
        return (
            f"SimRankService(n={self.num_nodes}, version={self.version}, "
            f"pending={self.pending}, writer={mode})"
        )
