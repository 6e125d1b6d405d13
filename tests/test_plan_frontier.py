"""The dense-frontier planner against a dense Algorithm-2 reference.

:func:`plan_rank_one` advances ``[ξ η]`` through CSR products plus the
one-entry Theorem-1 correction.  The reference here materialises
``Q̃ = Q + u·vᵀ`` and iterates ``ξ_{k+1} = C·Q̃·ξ_k``, ``η_{k+1} = Q̃·η_k``
densely, so it shares no code with the planner.  Per-round supports
(Theorem 4's affected areas) must be equal and values must agree to
round-off; :func:`_dusty` names the one round-off exception.  The last
test pins the live-vs-WAL-replay invariant: a plan read back from its
WAL frame feeds the score store bit-identical panels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimRankConfig
from repro.executor.score_store import ScoreStore
from repro.graph.digraph import DynamicDiGraph
from repro.graph.transition import backward_transition_matrix
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.incremental.engine import DynamicSimRank
from repro.incremental.gamma import compute_update_vectors
from repro.durability.wal import decode_frames, encode_drain_frame
from repro.incremental.plan import (
    apply_plan_dense,
    plan_rank_one,
    plan_unit_update,
)
from repro.incremental.row_update import (
    RowUpdate,
    general_update_vectors,
    row_rank_one_vectors,
)
from repro.linalg.qstore import TransitionStore
from repro.simrank.matrix import matrix_simrank

CFG = SimRankConfig(damping=0.6, iterations=6)
BRANCHES = ("insert-d0", "insert-d>0", "delete-d1", "delete-d>1", "row")


def _reference(q_dense, vectors, target, config, tolerance):
    """Dense Algorithm 2: the kept rounds and every round's support sizes."""
    n = q_dense.shape[0]
    q_tilde = q_dense + np.outer(vectors.u, vectors.v)
    xi = np.zeros(n)
    xi[target] = config.damping
    eta = np.where(np.abs(vectors.gamma) > tolerance, vectors.gamma, 0.0)
    rounds, sizes = [], []
    for k in range(config.iterations + 1):
        if k:
            xi = config.damping * (q_tilde @ xi)
            eta = q_tilde @ eta
            xi[np.abs(xi) <= tolerance] = 0.0
            eta[np.abs(eta) <= tolerance] = 0.0
        sizes.append((np.count_nonzero(xi), np.count_nonzero(eta)))
        if not all(sizes[-1]):
            break
        rounds.append((xi, eta))
    return rounds, sizes


@st.composite
def _cases(draw):
    """A graph (some nodes added through ``add_node``) plus one update."""
    n = draw(st.integers(3, 12))
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    graph = DynamicDiGraph.from_edges(n, edges)
    store = TransitionStore.from_graph(graph)
    for _ in range(draw(st.integers(0, 2))):
        node = graph.add_node()
        assert store.add_node() == node
        source = draw(st.integers(0, node - 1))
        graph.add_edge(source, node)
        store.insert_edge(source, node)
    branch = draw(st.sampled_from(BRANCHES))
    nodes = range(graph.num_nodes)

    def missing_source(target):
        choices = [
            s for s in nodes if s != target and not graph.has_edge(s, target)
        ]
        return draw(st.sampled_from(choices)) if choices else None

    def grow(target, degree):
        # Insert edges into ``target`` (graph and store) up to ``degree``.
        while graph.in_degree(target) < degree:
            source = missing_source(target)
            graph.add_edge(source, target)
            store.insert_edge(source, target)

    target = draw(st.sampled_from(list(nodes)))
    if branch == "insert-d0":
        for source in list(graph.in_neighbors(target)):
            graph.remove_edge(source, target)
            store.remove_edge(source, target)
        change = EdgeUpdate.insert(missing_source(target), target)
    elif branch == "insert-d>0":
        grow(target, 1)
        source = missing_source(target)
        if source is None:  # every other node already links in
            source = next(iter(graph.in_neighbors(target)))
            graph.remove_edge(source, target)
            store.remove_edge(source, target)
            grow(target, 1)
        change = EdgeUpdate.insert(source, target)
    elif branch == "delete-d1":
        for source in list(graph.in_neighbors(target)):
            graph.remove_edge(source, target)
            store.remove_edge(source, target)
        grow(target, 1)
        change = EdgeUpdate.delete(next(iter(graph.in_neighbors(target))), target)
    elif branch == "delete-d>1":
        grow(target, 2)
        sources = sorted(graph.in_neighbors(target))
        change = EdgeUpdate.delete(draw(st.sampled_from(sources)), target)
    else:
        old = set(graph.in_neighbors(target))
        others = [s for s in nodes if s != target]
        new = set(draw(st.lists(st.sampled_from(others), max_size=4)))
        change = RowUpdate(
            target=target,
            added=tuple(sorted(new - old)),
            removed=tuple(sorted(old - new)),
        )
    tolerance = draw(st.sampled_from([0.0, 0.0, 1e-3, 0.02]))
    return graph, store, change, tolerance


def _vectors(graph, store, scores, change):
    if isinstance(change, RowUpdate):
        u, v = row_rank_one_vectors(graph, change)
        return general_update_vectors(store, scores, u, v, change.target, CFG)
    return compute_update_vectors(store, scores, change, graph, CFG)


#: Round-off dust: entries a cancelled Q̃ entry leaves behind (below).
DUST = 1e-14


def _dusty(graph, change):
    """True when the update drops one of several in-edges of row ``j``.

    Then ``Q̃ = Q + u·vᵀ`` cancels row ``j``'s entry for that source, and
    the planner's ``(Q·x)_j + u_j·(vᵀ·x)`` (like the reference's own
    float ``Q + u·vᵀ``) may leave ~1e-17 of dust instead of an exact
    zero, which then spreads along ``j``'s out-links.  Both planners
    before and after the dense frontier do this; the dust is far below
    any real factor value, so there supports are compared above it.
    """
    if graph.in_degree(change.target) < 2:
        return False
    if isinstance(change, RowUpdate):
        return bool(change.removed)
    return not change.is_insert


class TestAgainstDenseReference:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_cases())
    def test_supports_and_values_match(self, case):
        graph, store, change, tolerance = case
        q_dense = backward_transition_matrix(graph).toarray()
        np.testing.assert_array_equal(store.toarray(), q_dense)
        scores = matrix_simrank(graph, CFG)
        vectors = _vectors(graph, store, scores, change)
        plan = plan_rank_one(store, change.target, vectors, CFG, tolerance)
        rounds, sizes = _reference(
            q_dense, vectors, change.target, CFG, tolerance
        )
        left, right = plan.panels()
        dusty = _dusty(graph, change)
        if not dusty:
            assert plan.affected.row_sizes == [s[0] for s in sizes]
            assert plan.affected.col_sizes == [s[1] for s in sizes]
            assert plan.rank == len(rounds)
        for k, (xi, eta) in enumerate(rounds[: plan.rank]):
            for panel, union, expected in (
                (left, plan.rows_union, xi),
                (right, plan.cols_union, eta),
            ):
                got = np.zeros_like(expected)
                got[union] = panel[:, k]
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
                if dusty:
                    np.testing.assert_array_equal(
                        np.flatnonzero(np.abs(got) > DUST),
                        np.flatnonzero(np.abs(expected) > DUST),
                    )
                else:
                    np.testing.assert_array_equal(
                        np.flatnonzero(got), np.flatnonzero(expected)
                    )
        # Theorem 4: each kept round's factor supports, read off the
        # panel columns, are the affected areas the planner recorded.
        for k in range(plan.rank):
            rows = plan.rows_union[np.flatnonzero(left[:, k])]
            cols = plan.cols_union[np.flatnonzero(right[:, k])]
            assert rows.size == plan.affected.row_sizes[k]
            assert cols.size == plan.affected.col_sizes[k]

    @settings(max_examples=100, deadline=None)
    @given(_cases())
    def test_scipy_csr_plans_like_the_store(self, case):
        graph, store, change, tolerance = case
        scores = matrix_simrank(graph, CFG)
        vectors = _vectors(graph, store, scores, change)
        live = plan_rank_one(store, change.target, vectors, CFG, tolerance)
        plain = plan_rank_one(
            backward_transition_matrix(graph),
            change.target,
            vectors,
            CFG,
            tolerance,
        )
        for a, b in zip(live.panels(), plain.panels()):
            np.testing.assert_array_equal(a, b)


def _random_graph(rng, n=40, draws=160):
    edges = {(int(s), int(t)) for s, t in rng.integers(n, size=(draws, 2)) if s != t}
    return DynamicDiGraph.from_edges(n, sorted(edges))


def _drained_plans(seed):
    """Live plans from consolidated drains of an engine."""
    rng = np.random.default_rng(seed)
    engine = DynamicSimRank(_random_graph(rng), CFG, algorithm="inc-sr")
    initial = engine.similarities().copy()
    plans = []
    for _ in range(3):
        live = engine.graph
        batch = []
        for s, t in rng.integers(live.num_nodes, size=(12, 2)):
            s, t = int(s), int(t)
            if s == t or any(u.edge == (s, t) for u in batch):
                continue
            kind = EdgeUpdate.delete if live.has_edge(s, t) else EdgeUpdate.insert
            batch.append(kind(s, t))
        engine.apply_consolidated(UpdateBatch(batch))
        plan = engine.take_last_drain()[1]
        if plan is not None:
            plans.append(plan)
    return initial, plans


def _unit_plans(seed):
    """Live unit-update plans on a sparse graph, every branch included.

    Every other update deletes the only in-edge of its target (d_j = 1):
    then ``γ = −Q·S[:, i]`` holds ``-0.0`` wherever the product is 0,
    and on a sparse graph later rounds reach some of those nodes.
    """
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, draws=60)
    store = TransitionStore.from_graph(graph)
    scores = matrix_simrank(graph, CFG)
    initial = scores.copy()
    plans = []
    for step in range(24):
        lone = [t for t in range(graph.num_nodes) if graph.in_degree(t) == 1]
        if step % 2 and lone:
            t = lone[int(rng.integers(len(lone)))]
            update = EdgeUpdate.delete(next(iter(graph.in_neighbors(t))), t)
        else:
            s, t = (int(x) for x in rng.integers(graph.num_nodes, size=2))
            if s == t:
                continue
            kind = EdgeUpdate.delete if graph.has_edge(s, t) else EdgeUpdate.insert
            update = kind(s, t)
        plans.append(plan_unit_update(store, scores, update, graph, CFG))
        apply_plan_dense(scores, plans[-1])
        update.apply_to(graph)
        store.apply_update(update)
    return initial, plans


class TestWalReplay:
    @pytest.mark.parametrize("source", [_drained_plans, _unit_plans])
    def test_replayed_panels_and_apply_are_bitwise_live(self, source):
        initial, plans = source(seed=3)
        assert plans and not all(plan.is_noop for plan in plans)
        frames, _ = decode_frames(b"".join(
            encode_drain_frame(version, (), plan)
            for version, plan in enumerate(plans, start=1)
        ))
        replayed = [plan for frame in frames for plan in frame.plans]
        assert len(replayed) == len(plans)
        live_store = ScoreStore(initial.copy(), shard_rows=8)
        replay_store = ScoreStore(initial.copy(), shard_rows=8)
        for live, replay in zip(plans, replayed):
            for a, b in zip(live.panels(), replay.panels()):
                assert a.shape == b.shape
                assert a.flags.c_contiguous and b.flags.c_contiguous
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            live_store.apply_plan(live)
            replay_store.apply_plan(replay)
        assert np.array_equal(
            live_store.to_array().view(np.int64),
            replay_store.to_array().view(np.int64),
        )
