"""PROSE-style precision autotuning for the sharded score store.

The score store's dtype seam (:mod:`repro.dtypes`) makes reduced
precision a *storage* property: planning and the union-support GEMM
stay float64, and float32 only enters where blocks are scattered into
shard buffers.  That keeps the arithmetic deterministic — which is what
makes an accuracy-gated search meaningful: replaying the same seeded
calibration stream against the same initial state always produces the
same scores, so a demotion decision is reproducible.

:class:`PrecisionAutotuner` searches the demotion space the way
profile-guided precision tuners (PROSE, Precimonious-style delta
debugging) do:

1. Replay a seeded calibration update stream at full float64 — the
   reference leg.
2. Try demoting the *whole* store to float32 and replay the identical
   stream.  If NDCG@k and top-k overlap against the reference stay
   above the configured gates, accept the uniform demotion (the common
   case: SimRank top-k rankings are separated by far more than
   float32's epsilon).
3. Otherwise bisect: split the shard set in half and recursively try
   demoting each subset on top of what has already been accepted,
   keeping every subset that passes the gates and splitting every
   subset that fails.  The result is a maximal *accepted* per-shard
   demotion set under the greedy order.

The output is a :class:`PrecisionPlan` — a small, JSON-serializable
record of the decision (store dtype, per-shard overrides, gates, seed,
measured accuracy) that
:class:`repro.serving.service.SimRankService` consumes via
``precision="auto"`` and that survives service restarts on disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..config import SimRankConfig
from ..dtypes import dtype_name, resolve_dtype
from ..exceptions import ConfigError
from ..executor.score_store import DEFAULT_SHARD_ROWS
from ..graph.digraph import DynamicDiGraph
from ..graph.updates import EdgeUpdate
from ..incremental.engine import DynamicSimRank
from ..linalg.qstore import TransitionStore
from ..metrics.ndcg import ndcg_at_k
from ..metrics.topk import top_k_overlap
from ..simrank.base import default_config
from ..simrank.matrix import matrix_simrank

__all__ = [
    "PrecisionGates",
    "PrecisionPlan",
    "PrecisionAutotuner",
    "calibration_updates",
    "DEFAULT_CALIBRATION_UPDATES",
]

#: Length of the default seeded calibration stream.  Small on purpose:
#: each candidate evaluation replays the whole stream, and the gates
#: compare *final* matrices, so a couple dozen updates already walk the
#: incremental kernel through enough affected-area scatter to expose
#: float32 drift.
DEFAULT_CALIBRATION_UPDATES = 24


@dataclass(frozen=True)
class PrecisionGates:
    """Accuracy floors a demotion must clear against the float64 leg."""

    #: Ranking depth for the NDCG gate.
    ndcg_k: int = 100
    #: Minimum NDCG@``ndcg_k`` (approximate ranking graded by the
    #: reference scores).
    min_ndcg: float = 0.99
    #: Ranking depth for the top-k set-overlap gate.
    topk_k: int = 100
    #: Minimum fraction of the reference top-``topk_k`` pairs the
    #: demoted store must retain.
    min_topk_overlap: float = 0.98

    def passes(self, ndcg: float, overlap: float) -> bool:
        return ndcg >= self.min_ndcg and overlap >= self.min_topk_overlap

    def to_dict(self) -> dict:
        return {
            "ndcg_k": self.ndcg_k,
            "min_ndcg": self.min_ndcg,
            "topk_k": self.topk_k,
            "min_topk_overlap": self.min_topk_overlap,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PrecisionGates":
        return cls(
            ndcg_k=int(payload["ndcg_k"]),
            min_ndcg=float(payload["min_ndcg"]),
            topk_k=int(payload["topk_k"]),
            min_topk_overlap=float(payload["min_topk_overlap"]),
        )


@dataclass
class PrecisionPlan:
    """A reproducible record of an accepted precision configuration.

    ``store_dtype`` is the uniform storage dtype; ``shard_dtypes`` maps
    shard index -> dtype name for per-shard overrides on top of it.
    ``metrics`` records the measured accuracy
    of every candidate the search evaluated plus the accepted
    configuration's numbers.
    """

    store_dtype: str = "float64"
    shard_dtypes: Dict[int, str] = field(default_factory=dict)
    gates: PrecisionGates = field(default_factory=PrecisionGates)
    seed: int = 7
    calibration_updates: int = DEFAULT_CALIBRATION_UPDATES
    num_nodes: int = 0
    shard_rows: int = DEFAULT_SHARD_ROWS
    metrics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        resolve_dtype(self.store_dtype)
        for name in self.shard_dtypes.values():
            resolve_dtype(name)

    @property
    def uniform(self) -> bool:
        """Whether the plan is a single store-wide dtype (no overrides)."""
        return not self.shard_dtypes

    def demoted_shards(self) -> List[int]:
        """Shard indices the plan stores below float64."""
        return sorted(
            index
            for index, name in self.shard_dtypes.items()
            if resolve_dtype(name).itemsize < 8
        )

    def apply_to(self, store) -> int:
        """Apply the per-shard overrides to a score store.

        The uniform ``store_dtype`` must already have been chosen at
        store construction; this only retypes the override shards.
        Returns the number of shards whose dtype changed.
        """
        changed = 0
        for index, name in sorted(self.shard_dtypes.items()):
            if store.set_shard_dtype(index, name):
                changed += 1
        return changed

    # ---------------------------------------------------------- #
    # Serialization
    # ---------------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "store_dtype": self.store_dtype,
            "shard_dtypes": {
                str(index): name
                for index, name in sorted(self.shard_dtypes.items())
            },
            "gates": self.gates.to_dict(),
            "seed": self.seed,
            "calibration_updates": self.calibration_updates,
            "num_nodes": self.num_nodes,
            "shard_rows": self.shard_rows,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PrecisionPlan":
        return cls(
            store_dtype=str(payload.get("store_dtype", "float64")),
            shard_dtypes={
                int(index): str(name)
                for index, name in payload.get("shard_dtypes", {}).items()
            },
            gates=PrecisionGates.from_dict(
                payload.get("gates", PrecisionGates().to_dict())
            ),
            seed=int(payload.get("seed", 7)),
            calibration_updates=int(
                payload.get("calibration_updates", DEFAULT_CALIBRATION_UPDATES)
            ),
            num_nodes=int(payload.get("num_nodes", 0)),
            shard_rows=int(payload.get("shard_rows", DEFAULT_SHARD_ROWS)),
            metrics=dict(payload.get("metrics", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PrecisionPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "PrecisionPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def calibration_updates(
    graph: DynamicDiGraph, count: int, seed: int
) -> List[EdgeUpdate]:
    """A seeded stream of valid edge insertions for calibration replay.

    Deterministic for a (graph, count, seed) triple: candidate pairs are
    drawn from one :func:`numpy.random.default_rng` stream, skipping
    self-loops, existing edges, and earlier picks.  Raises
    :class:`~repro.exceptions.ConfigError` if the graph is too small or
    too dense to host ``count`` new edges.
    """
    n = graph.num_nodes
    if n < 2:
        raise ConfigError("calibration needs a graph with >= 2 nodes")
    existing = {(int(a), int(b)) for a, b in graph.edges()}
    capacity = n * (n - 1) - len(existing)
    if capacity < count:
        raise ConfigError(
            f"graph has room for only {capacity} new edges, "
            f"calibration wants {count}"
        )
    rng = np.random.default_rng(seed)
    updates: List[EdgeUpdate] = []
    while len(updates) < count:
        source = int(rng.integers(n))
        target = int(rng.integers(n))
        if source == target or (source, target) in existing:
            continue
        existing.add((source, target))
        updates.append(EdgeUpdate.insert(source, target))
    return updates


class PrecisionAutotuner:
    """Accuracy-gated search over score-store precision configurations.

    Parameters
    ----------
    graph:
        The initial graph (copied by every replay engine; never
        mutated).
    config:
        SimRank damping/iterations shared by every leg.
    initial_scores:
        Optional precomputed ``S`` for ``graph``; computed once with the
        batch algorithm when omitted (and exposed as
        :attr:`initial_scores` so callers can reuse it).
    shard_rows:
        Row-block size of the replay stores — per-shard decisions are
        made at this granularity, so it should match the store the plan
        will be applied to.
    gates:
        Accuracy floors (:class:`PrecisionGates`; defaults match the
        repo's CI gates: NDCG@100 >= 0.99, top-100 overlap >= 0.98).
    seed:
        Seeds the calibration stream; recorded in the plan so the
        search is reproducible.
    num_updates:
        Calibration stream length.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        config: SimRankConfig = None,
        initial_scores: Optional[np.ndarray] = None,
        shard_rows: int = DEFAULT_SHARD_ROWS,
        gates: Optional[PrecisionGates] = None,
        seed: int = 7,
        num_updates: int = DEFAULT_CALIBRATION_UPDATES,
    ) -> None:
        self._graph = graph.copy()
        self._config = default_config(config)
        self._shard_rows = int(shard_rows)
        self.gates = gates if gates is not None else PrecisionGates()
        self.seed = int(seed)
        self.num_updates = int(num_updates)
        if initial_scores is None:
            store = TransitionStore.from_graph(self._graph)
            initial_scores = matrix_simrank(store.csr_matrix(), self._config)
        self._initial_scores = np.asarray(initial_scores, dtype=np.float64)
        self._updates = calibration_updates(
            self._graph, self.num_updates, self.seed
        )
        self._reference: Optional[np.ndarray] = None

    @property
    def initial_scores(self) -> np.ndarray:
        """The (possibly just computed) initial score matrix."""
        return self._initial_scores

    @property
    def num_shards(self) -> int:
        n = self._graph.num_nodes
        return (n + self._shard_rows - 1) // self._shard_rows

    # ---------------------------------------------------------- #
    # Replay legs
    # ---------------------------------------------------------- #

    def _replay(self, store_dtype, shard_dtypes: Dict[int, str]) -> np.ndarray:
        """Final scores after the calibration stream at one configuration."""
        engine = DynamicSimRank(
            self._graph,
            self._config,
            initial_scores=self._initial_scores,
            shard_rows=self._shard_rows,
            score_dtype=dtype_name(resolve_dtype(store_dtype)),
        )
        for index, name in sorted(shard_dtypes.items()):
            engine.score_store.set_shard_dtype(index, name)
        for update in self._updates:
            engine.apply(update)
        return engine.similarities()

    def _reference_scores(self) -> np.ndarray:
        if self._reference is None:
            self._reference = np.asarray(
                self._replay("float64", {}), dtype=np.float64
            )
        return self._reference

    def _measure(self, approximate: np.ndarray) -> dict:
        reference = self._reference_scores()
        ndcg = float(ndcg_at_k(approximate, reference, k=self.gates.ndcg_k))
        overlap = float(
            top_k_overlap(approximate, reference, k=self.gates.topk_k)
        )
        return {
            "ndcg": ndcg,
            "topk_overlap": overlap,
            "passed": self.gates.passes(ndcg, overlap),
        }

    # ---------------------------------------------------------- #
    # Search
    # ---------------------------------------------------------- #

    def run(self) -> PrecisionPlan:
        """Search for the largest demotion the gates accept.

        Fully deterministic: the calibration stream is seeded, replay
        arithmetic is deterministic at every dtype, and the bisection
        visits subsets in a fixed order — the same inputs always yield
        the same plan.
        """
        self._reference_scores()
        attempts: List[dict] = []

        # Leg 1: whole-store float32 (the common acceptance).
        uniform = self._measure(self._replay("float32", {}))
        attempts.append({"candidate": "store:float32", **uniform})
        if uniform["passed"]:
            return self._plan("float32", {}, uniform, attempts)

        # Leg 2: PROSE-style bisection over shard subsets — keep every
        # subset that passes on top of the accepted set, split every
        # subset that fails.
        accepted: Dict[int, str] = {}
        accepted_metrics: Optional[dict] = None
        stack: List[List[int]] = [list(range(self.num_shards))]
        while stack:
            group = stack.pop()
            trial = dict(accepted)
            trial.update({index: "float32" for index in group})
            measured = self._measure(self._replay("float64", trial))
            attempts.append(
                {"candidate": f"shards:{group}", **measured}
            )
            if measured["passed"]:
                accepted = trial
                accepted_metrics = measured
            elif len(group) > 1:
                middle = len(group) // 2
                stack.append(group[middle:])
                stack.append(group[:middle])
        return self._plan("float64", accepted, accepted_metrics, attempts)

    def _plan(
        self,
        store_dtype: str,
        shard_dtypes: Dict[int, str],
        accepted: Optional[dict],
        attempts: List[dict],
    ) -> PrecisionPlan:
        metrics = {
            "reference_dtype": "float64",
            "attempts": attempts,
            "accepted": (
                {key: accepted[key] for key in ("ndcg", "topk_overlap")}
                if accepted is not None
                else None
            ),
        }
        return PrecisionPlan(
            store_dtype=store_dtype,
            shard_dtypes=dict(shard_dtypes),
            gates=self.gates,
            seed=self.seed,
            calibration_updates=self.num_updates,
            num_nodes=self._graph.num_nodes,
            shard_rows=self._shard_rows,
            metrics=metrics,
        )
