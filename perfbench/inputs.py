"""Seeded workload inputs: citation graphs and their update streams.

The same seed always yields the same graph and the same stream; the
program under test only ever sees these generated inputs.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.config import SimRankConfig
from repro.datasets.citation import citation_network
from repro.graph.digraph import DynamicDiGraph
from repro.graph.updates import EdgeUpdate

#: The paper's settings (C = 0.6, K = 15), as ``perf_gate`` uses them.
SIMRANK_CONFIG = SimRankConfig(damping=0.6, iterations=15)

Edge = Tuple[int, int]


def _seed(seed: int, *keys: int) -> int:
    """An independent integer seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def mixed_stream(
    graph: DynamicDiGraph,
    arrivals: Sequence[Edge],
    count: int,
    delete_share: float,
    rng: np.random.Generator,
) -> List[EdgeUpdate]:
    """``count`` updates: the next arrivals, with deletions mixed in.

    Each step deletes a uniformly chosen live edge with probability
    ``delete_share`` and otherwise inserts the next arrival, so the
    stream is valid when applied in order from ``graph``.
    """
    live = list(graph.edges())
    pending = iter(arrivals)
    stream: List[EdgeUpdate] = []
    while len(stream) < count:
        if rng.random() < delete_share:
            # Swap-remove a uniformly chosen live edge.
            index = int(rng.integers(len(live)))
            edge = live[index]
            last = live.pop()
            if last != edge:
                live[index] = last
            stream.append(EdgeUpdate.delete(*edge))
        else:
            edge = next(pending)
            live.append(edge)
            stream.append(EdgeUpdate.insert(*edge))
    return stream


def evolving_citation(
    num_papers: int,
    references: int,
    recency: float,
    seed: int,
    count: int,
    delete_share: float,
    part: int = 0,
):
    """Fig. 2a protocol: the mid-evolution snapshot and the next arrivals.

    Returns ``(base_graph, stream)``.  The generator is the one
    ``repro.bench.perf_gate`` uses (ten yearly cohorts, snapshot at the
    middle year); the stream is the following arrivals in order, with a
    ``delete_share`` of deletions of live edges mixed in.  ``part``
    selects one of several independent graphs drawn from one seed.
    """
    timestamped = citation_network(
        num_papers,
        num_years=10,
        references_per_paper=references,
        recency_bias=recency,
        seed=_seed(seed, 1, part),
    )
    times = timestamped.timestamps()
    middle = times[len(times) // 2]
    base = timestamped.snapshot_at(middle)
    arrivals = [
        update.edge
        for update in timestamped.delta_between(middle, times[-1])
        if update.is_insert
    ]
    stream = mixed_stream(
        base, arrivals, count, delete_share, _rng(seed, 2, part)
    )
    return base, stream


def held_out_citation(
    num_papers: int,
    references: int,
    recency: float,
    seed: int,
    count: int,
    delete_share: float,
    part: int = 0,
):
    """A whole citation graph with a held-out share of its edges.

    Returns ``(base_graph, stream)`` where the stream re-inserts held-out
    edges and deletes live ones.  Every node keeps at least one edge in
    the base graph, so an edge-list file of it names all nodes.
    ``part`` selects one of several independent graphs of one seed.
    """
    timestamped = citation_network(
        num_papers,
        num_years=10,
        references_per_paper=references,
        recency_bias=recency,
        seed=_seed(seed, 3, part),
    )
    full = timestamped.snapshot_at(max(timestamped.timestamps()))
    rng = _rng(seed, 4, part)
    edges = sorted(full.edges())
    order = rng.permutation(len(edges))
    held = int(count * (1.0 - delete_share) * 1.25) + 64
    base = DynamicDiGraph(full.num_nodes)
    held_out: List[Edge] = []
    degree = np.zeros(full.num_nodes, dtype=np.int64)
    for index in order[held:]:
        source, target = edges[index]
        base.add_edge(source, target)
        degree[source] += 1
        degree[target] += 1
    for index in order[:held]:
        source, target = edges[index]
        if degree[source] == 0 or degree[target] == 0:
            base.add_edge(source, target)
            degree[source] += 1
            degree[target] += 1
        else:
            held_out.append((source, target))
    stream = mixed_stream(base, held_out, count, delete_share, _rng(seed, 5, part))
    return base, stream


def seeded_nodes(seed: int, num_nodes: int, count: int, part: int = 0) -> List[int]:
    """Distinct nodes whose exact scores the correctness checks compare."""
    rng = _rng(seed, 6, part)
    return sorted(int(node) for node in rng.choice(num_nodes, count, replace=False))
