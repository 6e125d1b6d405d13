"""Long-horizon drift soak: fused drains against a batch recompute.

``python -m repro.bench.soak --updates 10000 --seed 1`` drives one
seeded stream of edge inserts and deletes, with an occasional node
arrival, through durable :class:`~repro.serving.SimRankService` drains
of eight updates, once into a float64 score store and once into a
float32 one.  Halfway through, both services are closed and reopened
from their data dirs, and the recovered scores must equal the live ones
bit for bit.  Every tenth of the run (at least one drain), each store is
compared with a :func:`~repro.simrank.matrix.matrix_simrank` recompute
of the current graph, and the max ``|drift|`` is printed.

A drain applies its row groups as one fused plan, which rounds
differently from applying them one at a time, so bit-identity with
unit-order application is not an invariant; bounded drift is.  The run
fails (exit code 1) if any drift exceeds ``DRIFT_FACTOR`` times the
per-entry truncation bound ``C^{K+1}/(1-C)``, if a store's last drift
is more than ``GROWTH_FACTOR`` times its first (errors compounding), or
if the reopen or the final graph disagree with the stream.
"""

from __future__ import annotations

import argparse
import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..graph.digraph import DynamicDiGraph
from ..graph.updates import EdgeUpdate
from ..simrank.base import default_config
from ..simrank.exact import truncation_error_bound
from ..simrank.matrix import matrix_simrank

#: Drift may reach this many truncation bounds before the soak fails.
DRIFT_FACTOR = 10.0
#: A store's last interval may drift this many times its first at most.
GROWTH_FACTOR = 10.0
BATCH = 8
NODES = 50
#: A node arrives once every this many drains.
ADD_NODE_EVERY = 40
DELETE_SHARE = 0.4
DTYPES = ("float64", "float32")


@dataclass
class SoakResult:
    """Per-dtype drift at each interval end, plus any failed checks."""

    bound: float
    #: dtype -> ``[(updates applied, max |drift|), ...]``.
    drift: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def check(self) -> List[str]:
        """Failed checks, the drift bound and growth included."""
        problems = list(self.failures)
        limit = DRIFT_FACTOR * self.bound
        for dtype, points in self.drift.items():
            worst = max(value for _, value in points)
            if worst > limit:
                problems.append(
                    f"{dtype}: drift {worst:.3e} exceeds {limit:.3e}"
                )
            first, last = points[0][1], points[-1][1]
            if last > GROWTH_FACTOR * first:
                problems.append(
                    f"{dtype}: drift grew {last / first:.1f}x "
                    f"({first:.3e} -> {last:.3e})"
                )
        return problems


def _initial_graph(nodes: int, rng: random.Random) -> DynamicDiGraph:
    graph = DynamicDiGraph(nodes)
    while graph.num_edges < 3 * nodes:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b)
    return graph


def _batches(mirror: DynamicDiGraph, rng: random.Random) -> Iterator[list]:
    """Batches valid against ``mirror``, which they are applied to."""
    while True:
        batch = []
        while len(batch) < BATCH:
            n = mirror.num_nodes
            if rng.random() < DELETE_SHARE and mirror.num_edges:
                source = rng.randrange(n)
                targets = sorted(mirror.out_neighbors(source))
                if not targets:
                    continue
                update = EdgeUpdate.delete(source, rng.choice(targets))
            else:
                a, b = rng.randrange(n), rng.randrange(n)
                if a == b or mirror.has_edge(a, b):
                    continue
                update = EdgeUpdate.insert(a, b)
            update.apply_to(mirror)
            batch.append(update)
        yield batch


def run_soak(updates: int = 2000, seed: int = 1, echo=None) -> SoakResult:
    """Run the soak; ``echo`` (e.g. ``print``) receives one line per interval."""
    from ..serving import DurabilityConfig, SimRankService

    cfg = default_config()
    interval = max(BATCH, updates // 10)
    rng = random.Random(seed)
    base = _initial_graph(NODES, rng)
    mirror = base.copy()
    result = SoakResult(bound=truncation_error_bound(cfg))
    with tempfile.TemporaryDirectory() as root:

        def open_service(dtype):
            return SimRankService(
                base,
                cfg,
                precision=dtype,
                durability=DurabilityConfig(
                    data_dir=os.path.join(root, dtype)
                ),
            )

        services = {dtype: open_service(dtype) for dtype in DTYPES}
        result.drift = {dtype: [] for dtype in DTYPES}
        applied = drains = 0
        reopened = False
        next_check = interval
        stream = _batches(mirror, rng)
        try:
            while applied < updates:
                drains += 1
                if drains % ADD_NODE_EVERY == 0:
                    mirror.add_node()
                    for service in services.values():
                        service.add_node()
                batch = next(stream)
                for service in services.values():
                    service.submit_many(batch)
                    service.drain()
                applied += len(batch)
                if not reopened and applied >= updates // 2:
                    reopened = True
                    services = _reopen(services, open_service, result)
                if applied < next_check and applied < updates:
                    continue
                next_check += interval
                exact = matrix_simrank(mirror, cfg)
                line = [f"updates {applied:6d}  n={mirror.num_nodes}"]
                for dtype, service in services.items():
                    scores = service.engine.similarities().astype(np.float64)
                    drift = float(np.abs(scores - exact).max())
                    result.drift[dtype].append((applied, drift))
                    line.append(f"{dtype} {drift:.3e}")
                if echo is not None:
                    echo("  ".join(line))
            for dtype, service in services.items():
                if service.engine.graph != mirror:
                    result.failures.append(
                        f"{dtype}: final graph differs from the stream"
                    )
        finally:
            for service in services.values():
                service.close()
    return result


def _reopen(services, open_service, result):
    """Close and reopen every service; the recovery must be bitwise."""
    reopened = {}
    for dtype, service in services.items():
        live, version = service.engine.similarities(), service.version
        service.close()
        again = open_service(dtype)
        if again.version != version or not np.array_equal(
            again.engine.similarities(), live
        ):
            result.failures.append(
                f"{dtype}: reopened v{again.version} differs from live "
                f"v{version}"
            )
        reopened[dtype] = again
    return reopened


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.soak", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--updates", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    result = run_soak(updates=args.updates, seed=args.seed, echo=print)
    problems = result.check()
    print(
        f"truncation bound {result.bound:.3e}; drift limit "
        f"{DRIFT_FACTOR * result.bound:.3e}"
    )
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
