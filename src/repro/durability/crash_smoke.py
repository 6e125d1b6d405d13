"""Crash-restart smoke harness: SIGKILL mid-drain, recover, compare.

``python -m repro.durability.crash_smoke --data-dir DIR --seed 7`` runs
the whole drill in one command:

1. Spawn a child process (``--child``) serving a seeded deterministic
   update workload through :class:`~repro.serving.SimRankService` with
   durability enabled, printing ``acked <version>`` after every drain.
2. Sleep a seeded random interval, then ``SIGKILL`` the child — no
   shutdown hook runs, so whatever the WAL holds is all there is.
3. Reopen the data dir, recover, and compare the recovered scores
   **bit-identically** against an in-memory oracle that replays the
   same seeded workload up to the recovered version.  The recovered
   version must also cover every ack the parent managed to read off
   the child's stdout before the kill (ack-after-append means an ack
   that escaped the process is durable by contract).

Repeats for ``--rounds`` kills against the *same* data dir, so later
rounds recover through a checkpoint + WAL chain written across several
process lifetimes.  Exit code 0 means every round recovered
bit-identically; any divergence or recovery failure is a hard error.

Used by the CI crash-restart leg and by
``tests/test_durability.py`` (subprocess variant).
"""

from __future__ import annotations

import argparse
import random
import subprocess
import sys
import threading
import time

import numpy as np

NUM_NODES = 32
INITIAL_EDGES = 64
BATCH_UPDATES = 4


def build_graph(seed: int):
    """The seeded starting graph (same on every participant)."""
    from ..graph.digraph import DynamicDiGraph

    rng = random.Random(seed)
    edges = set()
    while len(edges) < INITIAL_EDGES:
        a, b = rng.randrange(NUM_NODES), rng.randrange(NUM_NODES)
        if a != b:
            edges.add((a, b))
    return DynamicDiGraph.from_edges(NUM_NODES, sorted(edges)), edges


def workload(seed: int):
    """An infinite deterministic stream of update batches."""
    from ..graph.updates import EdgeUpdate

    _, edges = build_graph(seed)
    rng = random.Random(seed + 1)
    while True:
        batch = []
        seen = set()
        while len(batch) < BATCH_UPDATES:
            a, b = rng.randrange(NUM_NODES), rng.randrange(NUM_NODES)
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            if (a, b) in edges:
                batch.append(EdgeUpdate.delete(a, b))
                edges.discard((a, b))
            else:
                batch.append(EdgeUpdate.insert(a, b))
                edges.add((a, b))
        yield batch


def run_child(data_dir: str, seed: int) -> int:
    """Serve the seeded workload durably until killed."""
    from ..serving import DurabilityConfig, SimRankService

    graph, _ = build_graph(seed)
    config = DurabilityConfig(
        data_dir=data_dir, checkpoint_interval=5, fsync="off"
    )
    service = SimRankService(graph, durability=config)
    base = service.version  # a later round resumes mid-history
    for step, batch in enumerate(workload(seed)):
        if step < base:
            continue  # fast-forward the stream to the recovered point
        service.submit_many(batch)
        service.drain()
        print(f"acked {service.version}", flush=True)
    return 0


def oracle_scores(seed: int, version: int) -> np.ndarray:
    """In-memory replay of the first ``version`` batches (no disk)."""
    from ..serving import SimRankService

    graph, _ = build_graph(seed)
    service = SimRankService(graph)
    for step, batch in enumerate(workload(seed)):
        if step >= version:
            break
        service.submit_many(batch)
        service.drain()
    scores = service.engine.similarities().copy()
    service.close()
    return scores


def run_round(data_dir: str, seed: int, round_index: int) -> int:
    """One kill/recover/compare cycle; returns the recovered version."""
    from ..serving import DurabilityConfig, SimRankService
    from .manager import DurabilityManager

    rng = random.Random((seed << 8) + round_index)
    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.durability.crash_smoke",
            "--child",
            "--data-dir",
            data_dir,
            "--seed",
            str(seed),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    acked = [-1]

    def _consume() -> None:
        # A reader thread keeps the pipe drained (the child must never
        # block on a full pipe) and records the last ack that escaped.
        for line in child.stdout:
            if line.startswith("acked "):
                acked[0] = int(line.split()[1])

    reader = threading.Thread(target=_consume, daemon=True)
    reader.start()
    time.sleep(rng.uniform(0.5, 2.0))
    child.kill()
    child.wait()
    reader.join(timeout=5.0)
    child.stdout.close()
    last_acked = acked[0]

    config = DurabilityConfig(data_dir=data_dir, fsync="off")
    manager = DurabilityManager(config)
    try:
        recovered = manager.recover()
    finally:
        manager.close()
    if recovered is None:
        raise SystemExit(
            f"round {round_index}: nothing recoverable in {data_dir}"
        )
    if recovered.version < last_acked:
        raise SystemExit(
            f"round {round_index}: recovered v{recovered.version} but the "
            f"child acked v{last_acked} before the kill — durability "
            "contract violated"
        )
    reference = oracle_scores(seed, recovered.version)
    scores = recovered.store.to_array()
    if not np.array_equal(scores, reference):
        diff = float(np.max(np.abs(scores - reference)))
        raise SystemExit(
            f"round {round_index}: recovered scores diverge from the "
            f"oracle at v{recovered.version} (max |delta| = {diff:.3e})"
        )
    print(
        f"round {round_index}: killed at ack v{last_acked}, recovered "
        f"v{recovered.version} bit-identical",
        flush=True,
    )
    # Reopen as a full service too: construction must replay cleanly
    # (the placeholder graph is ignored when a manifest exists).
    from ..graph.digraph import DynamicDiGraph

    service = SimRankService(
        DynamicDiGraph.from_edges(1, []), durability=config
    )
    assert service.version == recovered.version
    service.close()
    return recovered.version


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--child", action="store_true")
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args.data_dir, args.seed)
    for round_index in range(args.rounds):
        run_round(args.data_dir, args.seed, round_index)
    print(f"crash smoke OK: {args.rounds} SIGKILL rounds recovered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
