"""repro — reproduction of *Fast Incremental SimRank on Link-Evolving Graphs*.

Yu, Lin, Zhang (ICDE 2014).  The package implements:

* the **Inc-uSR** and **Inc-SR** incremental SimRank algorithms
  (rank-one Sylvester characterization + lossless affected-area pruning),
* the **Inc-SVD** baseline of Li et al. (EDBT 2010) with its inherent
  approximation,
* batch SimRank in four flavors (naive, partial sums, matrix form, exact),
* the graph substrate (dynamic digraphs, transition matrices, update
  streams, synthetic evolving datasets), and
* the metrics and benchmark harness that regenerate every figure/table of
  the paper's evaluation.

Quickstart::

    from repro import DynamicSimRank, EdgeUpdate, SimRankConfig
    from repro.graph.generators import preferential_attachment_digraph

    graph = preferential_attachment_digraph(200, out_degree=3, seed=7)
    engine = DynamicSimRank(graph, SimRankConfig(damping=0.6, iterations=15))
    engine.apply(EdgeUpdate.insert(5, 9))
    print(engine.similarity(5, 9))
"""

from .config import SimRankConfig, iterations_for_accuracy
from .exceptions import (
    BackpressureError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
    ReproError,
)
from .graph import (
    DynamicDiGraph,
    EdgeUpdate,
    TimestampedGraph,
    UpdateBatch,
    UpdateKind,
    backward_transition_matrix,
    graph_delta,
)
from .executor import ScoreSnapshot, ScoreStore
from .incremental import (
    DynamicSimRank,
    IncSVDSimRank,
    UnitUpdateResult,
    UpdatePlan,
    inc_sr_update,
    inc_usr_update,
    rank_one_decomposition,
)
from .serving import SimRankService, SnapshotView, UpdateScheduler
from .simrank import (
    batch_simrank,
    exact_simrank,
    matrix_simrank,
    naive_simrank,
    partial_sums_simrank,
    svd_batch_simrank,
    single_pair_simrank,
    single_source_simrank,
    top_k_similar_nodes,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SimRankConfig",
    "iterations_for_accuracy",
    # errors
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeExistsError",
    "EdgeNotFoundError",
    "ConfigError",
    "DimensionError",
    "ConvergenceError",
    "BackpressureError",
    # graph substrate
    "DynamicDiGraph",
    "EdgeUpdate",
    "UpdateBatch",
    "UpdateKind",
    "TimestampedGraph",
    "backward_transition_matrix",
    "graph_delta",
    # batch algorithms
    "batch_simrank",
    "matrix_simrank",
    "naive_simrank",
    "partial_sums_simrank",
    "exact_simrank",
    "svd_batch_simrank",
    "single_pair_simrank",
    "single_source_simrank",
    "top_k_similar_nodes",
    # incremental algorithms
    "DynamicSimRank",
    "IncSVDSimRank",
    "inc_sr_update",
    "inc_usr_update",
    "rank_one_decomposition",
    "UnitUpdateResult",
    "UpdatePlan",
    # executor layer
    "ScoreStore",
    "ScoreSnapshot",
    # serving layer
    "SimRankService",
    "SnapshotView",
    "UpdateScheduler",
]
