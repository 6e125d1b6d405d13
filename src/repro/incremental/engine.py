"""High-level incremental SimRank session: :class:`DynamicSimRank`.

The engine is now a thin **facade** over a three-layer architecture:

* **kernel** (:mod:`repro.incremental.plan`, :mod:`~repro.incremental.gamma`,
  :mod:`~repro.incremental.row_update`) — pure functions that read the
  old ``(Q, S)`` state and emit explicit
  :class:`~repro.incremental.plan.UpdatePlan` objects: a factored
  low-rank delta (the per-iteration ``ξ_k``/``η_k`` factor pairs of
  Algorithm 2) plus the affected support sets of Theorem 4.  Nothing is
  mutated at this layer.
* **executor** (:mod:`repro.executor.score_store`,
  :mod:`repro.linalg.qstore`) — the state owners.  ``Q`` lives in a
  :class:`~repro.linalg.qstore.TransitionStore` (one packed CSR,
  copy-on-write row surgery); ``S`` lives in a
  :class:`~repro.executor.score_store.ScoreStore` (row-block shards,
  per-shard application of a plan's union-support GEMM, copy-on-write
  snapshots).  Dense per-update scratch comes from a pooled
  :class:`~repro.incremental.workspace.UpdateWorkspace`.
* **service** (:mod:`repro.serving`) — versioned reads and coalesced
  writes on top of the engine: readers pin
  :class:`~repro.serving.snapshot.SnapshotView` objects at a frozen
  version while a single writer drains an
  :class:`~repro.serving.scheduler.UpdateScheduler`.

The facade keeps the original public API: ``apply`` dispatches to the
configured algorithm (``"inc-sr"`` — Algorithm 2, pruned, default;
``"inc-usr"`` — Algorithm 1; ``"batch"`` — full recomputation),
``apply_consolidated`` groups a batch into per-target rank-one row
updates, and every unit update is timed into :class:`UpdateStats`.
Per-update score work is affected-area-sized on ``S`` (``Q``'s O(nnz)
row splice is small beside it) — update cost tracks the affected area
rather than the graph size (the paper's headline claim) — while the
plan/apply split is what lets the serving layer keep readers on frozen
versions for free.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..config import SimRankConfig
from ..exceptions import ConfigError, GraphError
from ..executor.score_store import DEFAULT_SHARD_ROWS, ScoreStore
from ..executor.topk_index import ShardTopK, top_k_from_blocks
from ..graph.digraph import DynamicDiGraph
from ..graph.transition import verify_transition_matrix
from ..graph.updates import EdgeUpdate, UpdateBatch
from ..linalg.qstore import TransitionStore
from ..simrank.base import default_config
from ..simrank.matrix import matrix_simrank
from .affected import AffectedAreaStats
from .workspace import UpdateWorkspace

ALGORITHMS = ("inc-sr", "inc-usr", "batch")


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )


@dataclass
class UpdateStats:
    """Per-unit-update bookkeeping produced by the engine."""

    update: EdgeUpdate
    seconds: float
    algorithm: str
    affected: Optional[AffectedAreaStats] = field(default=None)


class DynamicSimRank:
    """A live SimRank index over a link-evolving graph.

    Typical use::

        engine = DynamicSimRank(graph, config=SimRankConfig(0.6, 15))
        engine.apply(EdgeUpdate.insert(3, 7))
        engine.similarity(3, 7)

    Parameters
    ----------
    graph:
        Initial graph; copied, so the caller's object is never mutated.
    config:
        Damping/iterations shared by the initial batch computation and
        all incremental updates.
    algorithm:
        One of ``"inc-sr"`` (default), ``"inc-usr"``, ``"batch"``.
    initial_scores:
        Optional precomputed ``S`` for the initial graph (skips the batch
        precomputation — the paper's "precompute SimRank on the old
        entire graph once" step).
    paranoid:
        When True, re-derive ``Q`` from the graph after every update and
        assert consistency (slow; for tests/debugging).
    shard_rows:
        Row-block size of the sharded score store (default
        :data:`~repro.executor.score_store.DEFAULT_SHARD_ROWS`).
    score_dtype:
        Storage dtype of the score shards (``"float64"`` default,
        ``"float32"`` opt-in).  Planning and the union-support GEMM stay
        float64 everywhere; reduced precision applies only where blocks
        are scattered into shard storage.  The float64 default is the
        bit-identity reference.
    telemetry:
        A :class:`repro.telemetry.Telemetry` facade threaded through to
        the score executor (apply-latency histograms, drain trace
        spans).  ``None`` (the default) uses
        the shared disabled instance — standalone engines pay one no-op
        method call per instrumentation point.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        config: SimRankConfig = None,
        algorithm: str = "inc-sr",
        initial_scores: Optional[np.ndarray] = None,
        paranoid: bool = False,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        score_dtype: Optional[str] = None,
        telemetry=None,
    ) -> None:
        _check_algorithm(algorithm)
        self._setup(graph.copy(), default_config(config), algorithm, paranoid)
        if initial_scores is None:
            scores = matrix_simrank(self._store.csr_matrix(), self._config)
        else:
            scores = np.asarray(initial_scores, dtype=np.float64)
            n = self._graph.num_nodes
            if scores.shape != (n, n):
                raise GraphError(
                    f"initial_scores shape {scores.shape} != ({n}, {n})"
                )
        self._scores = ScoreStore(
            scores,
            shard_rows=shard_rows,
            dtype=score_dtype,
            telemetry=telemetry,
        )

    @classmethod
    def _from_state(
        cls,
        graph: DynamicDiGraph,
        scores: ScoreStore,
        config: SimRankConfig,
        algorithm: str = "inc-sr",
        version: int = 0,
        telemetry=None,
    ) -> "DynamicSimRank":
        """An engine that takes ownership of a loaded graph and store.

        The loading path (:meth:`load`, durable recovery): no graph
        copy, no batch precomputation and no dense ``S`` round trip.
        ``telemetry``, when given, is bound to the store.
        """
        _check_algorithm(algorithm)
        if telemetry is not None:
            scores.bind_telemetry(telemetry)
        engine = cls.__new__(cls)
        engine._setup(graph, default_config(config), algorithm)
        engine._scores = scores
        engine.restore_version(version)
        return engine

    def _setup(
        self,
        graph: DynamicDiGraph,
        config: SimRankConfig,
        algorithm: str,
        paranoid: bool = False,
    ) -> None:
        """Everything but the score store, which the caller sets."""
        self._config = config
        self._graph = graph
        self._algorithm = algorithm
        self._paranoid = bool(paranoid)
        self._store = TransitionStore.from_graph(graph)
        self._workspace = UpdateWorkspace(graph.num_nodes)
        self._topk_index = None
        self._history: List[UpdateStats] = []
        #: Running wall-clock sum over unit updates and drains alike.
        self._update_seconds = 0.0
        self._version = 0
        # The most recent successful consolidated drain as
        # ``(row_updates, plan)`` — what the durability layer frames
        # into its write-ahead log (see :meth:`take_last_drain`).
        self._last_drain = None

    # ------------------------------------------------------------------ #
    # Read API
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> SimRankConfig:
        """The shared configuration."""
        return self._config

    @property
    def algorithm(self) -> str:
        """The configured update algorithm."""
        return self._algorithm

    @property
    def score_dtype(self) -> np.dtype:
        """The storage dtype of the score shards."""
        return self._scores.dtype

    @property
    def graph(self) -> DynamicDiGraph:
        """The live graph (internal copy; do not mutate)."""
        return self._graph

    @property
    def version(self) -> int:
        """Monotone state version; bumped once per applied update/batch."""
        return self._version

    @property
    def transition_matrix(self) -> sp.csr_matrix:
        """The live backward transition matrix ``Q`` as scipy CSR.

        The store's current CSR: repeated reads between updates return
        the same object without copying, and a mutation publishes a new
        one, leaving this one frozen.  Treat it as read-only.
        """
        return self._store.csr_matrix()

    @property
    def transition_store(self) -> TransitionStore:
        """The live packed-CSR ``Q`` store (the update hot path)."""
        return self._store

    @property
    def score_store(self) -> ScoreStore:
        """The live sharded ``S`` store (the executor layer)."""
        return self._scores

    @property
    def history(self) -> List[UpdateStats]:
        """Per-unit-update statistics in application order.

        Only :meth:`apply` records here; consolidated drains keep no
        per-update record (their time is in :meth:`total_update_seconds`).
        """
        return list(self._history)

    def similarities(self) -> np.ndarray:
        """A copy of the full similarity matrix ``S``."""
        return self._scores.to_array()

    def similarity(self, node_a: int, node_b: int) -> float:
        """The SimRank score of one node pair.

        Reads the canonical ``(min, max)`` entry: the stored ``S`` is
        symmetric only up to round-off, and this makes
        ``similarity(a, b) == similarity(b, a)`` bitwise.
        """
        if node_a > node_b:
            node_a, node_b = node_b, node_a
        return self._scores.entry(node_a, node_b)

    @property
    def topk_index(self):
        """The lazily built shard-local top-k index (or None)."""
        return self._topk_index

    def top_k(self, k: int, include_self: bool = False):
        """Top-``k`` most similar node pairs, served shard-locally.

        Ranking and tie order are bit-identical to
        :func:`repro.metrics.topk.top_k_pairs` on the dense matrix, but
        the dense ``n × n`` scan is gone: a lazily built
        :class:`~repro.executor.topk_index.ShardTopK` keeps each shard's
        exact best pairs, patched from the promotion hits the score
        store finds while applying each plan, and a query merges them.
        A ``k`` above the index's capacity replaces the index with a
        larger one.  ``include_self`` rankings (rare) fall back to the
        block-at-a-time shard merge, which still never materializes
        ``S``.
        """
        from ..exceptions import DimensionError

        if k < 0:
            raise DimensionError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        if include_self:
            return top_k_from_blocks(
                self._scores.iter_shard_blocks(), k, include_self=True
            )
        if self._topk_index is None or k > self._topk_index.capacity:
            self._topk_index = ShardTopK(self._scores, k=k)
        return self._topk_index.top_k(k)

    # ------------------------------------------------------------------ #
    # Update API
    # ------------------------------------------------------------------ #

    def apply(
        self, change: Union[EdgeUpdate, UpdateBatch]
    ) -> List[UpdateStats]:
        """Apply a unit update or a batch; return the new stats entries."""
        updates = [change] if isinstance(change, EdgeUpdate) else list(change)
        produced: List[UpdateStats] = []
        for update in updates:
            produced.append(self._apply_unit(update))
        return produced

    def _apply_unit(self, update: EdgeUpdate) -> UpdateStats:
        started = time.perf_counter()
        affected: Optional[AffectedAreaStats] = None

        if self._algorithm == "batch":
            update.apply_to(self._graph)
            self._store.replace_from_graph(self._graph)
            self._scores.replace_dense(
                matrix_simrank(self._store.csr_matrix(), self._config)
            )
        elif self._algorithm == "inc-sr":
            # Fast path: the kernel plans the factored delta from the
            # old state (Theorems 1-4), then the executor applies it —
            # per-shard union-support GEMM on S, copy-on-write row
            # surgery on the packed Q.  No S copies, no format
            # conversions.
            from .gamma import compute_update_vectors
            from .plan import plan_rank_one

            vectors = compute_update_vectors(
                self._store,
                self._scores,
                update,
                self._graph,
                self._config,
                workspace=self._workspace,
            )
            update.apply_to(self._graph)
            plan = plan_rank_one(
                self._store, update.target, vectors, self._config
            )
            affected = plan.affected
            self._scores.apply_plan(plan)
            self._store.apply_update(update)
        else:
            from .inc_usr import inc_usr_delta

            delta_s, _ = inc_usr_delta(
                self._graph,
                self._store,
                self._scores,
                update,
                self._config,
                workspace=self._workspace,
            )
            self._scores.add_dense(delta_s)
            update.apply_to(self._graph)
            self._store.apply_update(update)

        if self._paranoid:
            problem = verify_transition_matrix(
                self._store.csr_matrix(), self._graph
            )
            if problem is not None:
                raise GraphError(f"paranoid check failed: {problem}")

        self._version += 1
        stats = UpdateStats(
            update=update,
            seconds=time.perf_counter() - started,
            algorithm=self._algorithm,
            affected=affected,
        )
        self._history.append(stats)
        self._update_seconds += stats.seconds
        return stats

    def apply_consolidated(self, batch: UpdateBatch) -> int:
        """Apply a batch as per-target row groups fused into one plan.

        Groups the batch by target node (cancelling inverse pairs); each
        group is a *single* generalized rank-one update — see
        :mod:`repro.incremental.row_update`.  Returns the number of row
        groups.  Only available with the ``inc-sr`` algorithm.

        Every group is planned first, in ascending target order: against
        ``Q`` after the earlier groups' copy-on-write row surgery, and
        against ``S`` plus the earlier groups' pending deltas (a
        :class:`~repro.incremental.row_update.PendingScores` view; the
        planner's one read of ``S`` is a column-sparse ``S·v``).  The
        groups' plans are then fused into one plan of their summed rank
        (:func:`~repro.incremental.plan.fuse_plans`) and applied through
        one :meth:`ScoreStore.apply_plan`: one GEMM, one pass of slice
        adds and one top-k patch per drain.  The sum is the same delta
        as applying the groups one at a time, but not bit for bit (the
        rounding order differs); replaying the fused plan from the WAL
        is bitwise.
        """
        if self._algorithm != "inc-sr":
            raise ConfigError(
                "apply_consolidated requires the 'inc-sr' algorithm, "
                f"engine uses {self._algorithm!r}"
            )
        from .plan import fuse_plans
        from .row_update import (
            PendingScores,
            consolidate_batch,
            plan_composite_row_update,
        )

        started = time.perf_counter()
        self._last_drain = None
        row_updates = consolidate_batch(batch, self._graph)
        pending = PendingScores(self._scores)
        for row_update in row_updates:
            pending.add(
                plan_composite_row_update(
                    self._graph,
                    self._store,
                    pending,
                    row_update,
                    self._config,
                    workspace=self._workspace,
                )
            )
            row_update.apply_to(self._graph)
            # Copy-on-write surgery of the target's Q row.
            self._store.set_row_from_graph(self._graph, row_update.target)
        fused = fuse_plans(pending.plans)
        if fused is not None:
            self._scores.apply_plan(fused)
        self._update_seconds += time.perf_counter() - started
        self._version += 1
        # Kept for the durability layer, which frames the drain's one
        # plan (None when it changed no score) into the WAL.
        self._last_drain = (tuple(row_updates), fused)
        if self._paranoid:
            problem = verify_transition_matrix(
                self._store.csr_matrix(), self._graph
            )
            if problem is not None:
                raise GraphError(f"paranoid check failed: {problem}")
        return len(row_updates)

    def take_last_drain(self):
        """Pop the last drain's ``(row_updates, plan)`` record, if any.

        ``plan`` is the drain's fused plan as applied, or None when the
        drain changed no score.

        Consumed by the durability layer right after a successful
        :meth:`apply_consolidated` (under the apply lock) to frame the
        drain into the write-ahead log; cleared on read so a later
        failure can never re-log a stale drain.  Returns None when no
        unconsumed drain record exists.
        """
        drained, self._last_drain = self._last_drain, None
        return drained

    def restore_version(self, version: int) -> None:
        """Reset the monotone version counter (load and recovery).

        Called once, when an engine is built around loaded state (a
        saved session, or a durability checkpoint + WAL replay) — the
        restored state *is* the state at ``version``, and every
        downstream consumer (acks, time travel, the front door's version
        header) keys off this counter matching the durable history.
        """
        self._version = int(version)

    def add_node(self) -> int:
        """Grow the node universe by one isolated node; return its id.

        Node arrival is the paper's other update type (handled in [8] by
        He et al.); here it is exact and amortized O(n): an isolated
        node has an all-zero ``Q`` row/column (one empty segment appended
        to each store layout), and its only nonzero similarity is the
        matrix-form self-score ``1 − C``.  ``S`` grows inside the
        sharded store — at most the tail shard's rows and each shard's
        column capacity (doubling), never a wholesale ``n²`` copy.
        Subsequent edges to/from the node flow through the normal
        incremental path.
        """
        node = self._graph.add_node()
        n = self._graph.num_nodes
        self._store.add_node()
        self._workspace.ensure_capacity(n)
        self._scores.add_node()
        self._scores.set_entry(node, node, 1.0 - self._config.damping)
        self._version += 1
        return node

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str) -> None:
        """Persist the session (graph, ``S``, config, version) at ``path``.

        The paper's workflow precomputes SimRank once and then serves
        updates; persisting the state lets that precomputation survive
        process restarts.  ``path`` (used exactly as given, ``.npz``
        suffix or not) becomes a durability data dir holding one
        checkpoint and no WAL, so ``SimRankService(durability=path)``
        can serve it too; see
        :func:`~repro.durability.checkpoint.save_session`.  Saving again
        replaces the session.
        """
        from ..durability.checkpoint import save_session

        save_session(path, self)

    @classmethod
    def load(cls, path: str) -> "DynamicSimRank":
        """Restore a session previously written by :meth:`save`.

        A directory is read through the checkpoint loader shared with
        durable recovery: the score store adopts the saved blocks, and
        the engine resumes at the saved version.  Only the newest
        checkpoint is read; a durable data dir's WAL is recovered by
        opening it with ``SimRankService(durability=...)`` instead.  A
        regular file is a legacy compressed ``.npz`` session (read-only;
        it restarts at version 0).
        """
        if os.path.isfile(path):
            return cls._load_legacy(path)
        from ..durability.checkpoint import load_session, restore_stores

        data = load_session(path)
        graph, scores = restore_stores(data, shard_rows=DEFAULT_SHARD_ROWS)
        config = SimRankConfig(
            damping=float(data.meta["damping"]),
            iterations=int(data.meta["iterations"]),
        )
        return cls._from_state(
            graph,
            scores,
            config,
            algorithm=data.meta.get("algorithm", "inc-sr"),
            version=data.version,
        )

    @classmethod
    def _load_legacy(cls, path: str) -> "DynamicSimRank":
        """Read a single-file session written before sessions were dirs."""
        with np.load(path, allow_pickle=False) as payload:
            graph = DynamicDiGraph.from_edges(
                int(payload["num_nodes"][0]), payload["edges"].tolist()
            )
            config = SimRankConfig(
                damping=float(payload["damping"][0]),
                iterations=int(payload["iterations"][0]),
            )
            score_dtype = (
                str(payload["score_dtype"][0])
                if "score_dtype" in payload.files
                else None
            )
            return cls(
                graph,
                config,
                algorithm=str(payload["algorithm"][0]),
                initial_scores=payload["scores"],
                score_dtype=score_dtype,
            )

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def total_update_seconds(self) -> float:
        """Wall-clock seconds over all applied updates and drains."""
        return self._update_seconds

    def aggregate_affected(self) -> Optional[AffectedAreaStats]:
        """Merged affected-area stats across all Inc-SR updates (or None)."""
        merged: Optional[AffectedAreaStats] = None
        for stats in self._history:
            if stats.affected is None:
                continue
            merged = (
                stats.affected
                if merged is None
                else merged.merged_with(stats.affected)
            )
        return merged

    def intermediate_bytes(self) -> int:
        """Rough bytes held by the engine beyond the S output (Fig. 3).

        Counts the packed-CSR ``Q`` store (``indptr``, ``indices``,
        ``data`` and ``row_weight``) plus the pooled per-update vector
        workspace; the ``n²`` score store is excluded, mirroring the
        paper's "intermediate space" definition.
        """
        return self._store.buffer_bytes() + self._workspace.nbytes()

    def memory_report(self) -> dict:
        """Layered memory accounting: Q store, workspace, score shards."""
        report = {
            "transition_store_bytes": self._store.buffer_bytes(),
            "workspace_bytes": self._workspace.nbytes(),
            "score_buffer_bytes": self._scores.buffer_bytes(),
            "score_logical_bytes": self._scores.nbytes(),
            "score_shards": self._scores.shard_report(),
            "score_shared_shards": self._scores.shared_shard_count(),
            "score_cow_copies": self._scores.cow_copies,
        }
        report.update(self._scores.dtype_report())
        return report
