"""Top-level command line: ``python -m repro <command>``.

Commands
--------
``info <edges.txt>``
    Print structural statistics of an edge-list graph.
``compute <edges.txt> [-o scores.npy]``
    Batch SimRank; optionally save the dense score matrix.
``update <edges.txt> <updates.txt> [-o scores.npy]``
    Load a graph, precompute SimRank, apply updates incrementally with
    Inc-SR, and report timing plus top pairs.  The updates file has one
    ``+ source target`` or ``- source target`` per line.
``similar <edges.txt> <node> [-k 10]``
    Top-k most similar nodes to one node (single-source query).
``serve <edges.txt> <updates.txt> [-k 10] [--writer background] [--precision float64|float32] [--config service.json] [--http PORT] [--data-dir DIR]``
    Serving-layer demo: precompute scores, pin a read snapshot, queue
    the updates through the coalescing scheduler, drain them (inline,
    or via the background writer thread with ``--writer background``),
    and show that the pinned snapshot kept serving the frozen version
    while a fresh snapshot sees the new one.  Top-k rankings are served
    by the shard-local top-k index — the dense score matrix is never
    materialized for ranking.

All commands accept ``--damping`` and ``--iterations``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .config import SimRankConfig
from .exceptions import GraphError, ReproError
from .graph.io import load_edge_list
from .graph.stats import graph_stats
from .graph.updates import EdgeUpdate, UpdateBatch
from .incremental.engine import DynamicSimRank
from .metrics.topk import top_k_pairs
from .simrank.matrix import matrix_simrank
from .simrank.queries import top_k_similar_nodes


def load_update_file(path: str) -> UpdateBatch:
    """Parse a ``± source target`` update file into an UpdateBatch."""
    updates: List[EdgeUpdate] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3 or fields[0] not in {"+", "-"}:
                raise GraphError(
                    f"{path}:{line_number}: expected '+|- source target', "
                    f"got {line!r}"
                )
            source, target = int(fields[1]), int(fields[2])
            if fields[0] == "+":
                updates.append(EdgeUpdate.insert(source, target))
            else:
                updates.append(EdgeUpdate.delete(source, target))
    return UpdateBatch(updates)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Incremental SimRank on link-evolving graphs "
        "(Yu, Lin, Zhang; ICDE 2014).",
    )
    parser.add_argument("--damping", type=float, default=0.6)
    parser.add_argument("--iterations", type=int, default=15)
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="graph statistics")
    info.add_argument("edges", help="edge-list file")

    compute = commands.add_parser("compute", help="batch SimRank")
    compute.add_argument("edges", help="edge-list file")
    compute.add_argument("-o", "--output", help="save scores as .npy")
    compute.add_argument("-k", "--top", type=int, default=10)

    update = commands.add_parser("update", help="incremental updates")
    update.add_argument("edges", help="edge-list file")
    update.add_argument("updates", help="update file (+/- source target)")
    update.add_argument("-o", "--output", help="save scores as .npy")
    update.add_argument("-k", "--top", type=int, default=10)
    update.add_argument(
        "--consolidate",
        action="store_true",
        help="group updates by target row before processing",
    )

    similar = commands.add_parser("similar", help="single-source query")
    similar.add_argument("edges", help="edge-list file")
    similar.add_argument("node", type=int)
    similar.add_argument("-k", "--top", type=int, default=10)

    serve = commands.add_parser(
        "serve", help="snapshot/scheduler serving demo"
    )
    serve.add_argument("edges", help="edge-list file")
    serve.add_argument("updates", help="update file (+/- source target)")
    serve.add_argument("-k", "--top", type=int, default=10)
    serve.add_argument(
        "--writer",
        choices=("sync", "background"),
        default="sync",
        help="drain inline (sync) or via the background writer thread",
    )
    serve.add_argument(
        "--backpressure",
        choices=("block", "drop-coalesce", "error"),
        default="block",
        help="bounded-queue policy for the background writer",
    )
    serve.add_argument(
        "--precision",
        choices=("float64", "float32"),
        default="float64",
        help="score-store storage dtype: float64 (bit-identity "
        "reference) or float32 (half the score memory)",
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="after queueing the updates, serve the network front door "
        "on PORT (0 = ephemeral) until interrupted instead of running "
        "the one-shot demo",
    )
    serve.add_argument(
        "--config",
        default=None,
        metavar="SERVICE_JSON",
        help="build the service from a ServiceConfig JSON file; "
        "explicitly passed flags (including the root --damping and "
        "--iterations) must agree with it (conflicts are a hard error)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="enable durable persistence in DIR: every acked drain is "
        "WAL'd before it is published, periodic checkpoints bound "
        "recovery time, and a restart with the same DIR resumes "
        "bit-identical to the last acked drain",
    )
    serve.add_argument(
        "--fsync",
        choices=("always", "interval", "off"),
        default="interval",
        help="WAL fsync policy (--data-dir only): per-append, on a "
        "timer, or OS page cache only",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=int,
        default=64,
        metavar="DRAINS",
        help="checkpoint every N WAL'd drains (--data-dir only)",
    )

    return parser


def _config(args: argparse.Namespace) -> SimRankConfig:
    return SimRankConfig(damping=args.damping, iterations=args.iterations)


def _print_top_pairs(scores: np.ndarray, k: int) -> None:
    print(f"top-{k} similar pairs:")
    for a, b, score in top_k_pairs(scores, k):
        print(f"  ({a}, {b})  {score:.6f}")


def _save_scores(path: str, scores: np.ndarray) -> None:
    # Through a handle: np.save would append ``.npy`` to a bare name.
    with open(path, "wb") as handle:
        np.save(handle, scores)
    print(f"scores saved to {path}")


def command_info(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    stats = graph_stats(graph)
    for key, value in stats.as_dict().items():
        formatted = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{key:>20}: {formatted}")
    return 0


def command_compute(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    scores = matrix_simrank(graph, _config(args))
    _print_top_pairs(scores, args.top)
    if args.output:
        _save_scores(args.output, scores)
    return 0


def command_update(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    batch = load_update_file(args.updates)
    config = _config(args)
    engine = DynamicSimRank(graph, config, algorithm="inc-sr")
    if args.consolidate:
        groups = engine.apply_consolidated(batch)
        print(
            f"applied {len(batch)} updates as {groups} consolidated "
            f"row updates in {engine.total_update_seconds() * 1e3:.1f} ms"
        )
    else:
        engine.apply(batch)
        affected = engine.aggregate_affected()
        print(
            f"applied {len(batch)} unit updates in "
            f"{engine.total_update_seconds() * 1e3:.1f} ms "
            f"({100 * affected.pruned_fraction():.1f}% of pairs pruned)"
        )
    _print_top_pairs(engine.similarities(), args.top)
    if args.output:
        _save_scores(args.output, engine.similarities())
    return 0


def command_similar(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    neighbors = top_k_similar_nodes(graph, args.node, args.top, _config(args))
    print(f"top-{args.top} nodes similar to {args.node}:")
    for other, score in neighbors:
        print(f"  {other}  {score:.6f}")
    return 0


def _build_service(args: argparse.Namespace, graph):
    """Build the service from ``--config`` and/or the per-knob flags.

    Only flags that differ from their argparse defaults count as
    explicit, so a config file and untouched flags coexist — while an
    explicitly conflicting flag raises the resolver's ConfigError.
    """
    from .serving import SimRankService, resolve_service_config

    flag_kwargs = {}
    if args.data_dir is not None:
        from .serving import DurabilityConfig

        flag_kwargs["durability"] = DurabilityConfig(
            data_dir=args.data_dir,
            fsync=args.fsync,
            checkpoint_interval=args.checkpoint_interval,
        )
    if args.config is not None:
        # Flag defaults live on two parsers (root and serve), so recover
        # them by parsing a placeholder command line.
        defaults = build_parser().parse_args(["serve", "_", "_"])
        for name in (
            "damping", "iterations", "writer", "backpressure", "precision"
        ):
            value = getattr(args, name)
            if value != getattr(defaults, name):
                flag_kwargs[name] = value
        config = resolve_service_config(args.config, flag_kwargs)
        return SimRankService(graph, config=config)
    return SimRankService(
        graph, _config(args), precision=args.precision, **flag_kwargs
    )


def _serve_http(service, args: argparse.Namespace) -> int:
    """Run the network front door until interrupted (``serve --http``)."""
    import asyncio
    from dataclasses import replace

    from .frontdoor import FrontDoor
    from .serving.config import FrontDoorConfig

    base = service.service_config.frontdoor or FrontDoorConfig()
    fd_config = replace(base, port=args.http)

    async def run():
        door = FrontDoor(service, fd_config)
        await door.start()
        print(
            f"front door listening on {door.host}:{door.port}",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await door.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("front door stopped")
    finally:
        service.close()
    return 0


def command_serve(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    batch = load_update_file(args.updates)
    service = _build_service(args, graph)
    if service.durability is not None:
        manager = service.durability
        print(
            f"durability: data dir {manager.data_dir} "
            f"(fsync={manager.config.fsync}, "
            f"state version v{service.version})",
            flush=True,
        )
    if args.precision != "float64":
        print(
            f"precision {args.precision}: score store dtype "
            f"{service.engine.score_store.dtype.name}"
        )

    if args.http is not None:
        if args.writer == "background" and not service.background:
            service.start_background_writer(policy=args.backpressure)
        service.submit(batch)
        print(
            f"queued {len(batch)} updates "
            f"({'background' if service.background else 'sync'} writer)"
        )
        return _serve_http(service, args)

    pinned = service.snapshot()
    frozen_top = pinned.top_k(args.top)

    if args.writer == "background":
        writer = service.writer or service.start_background_writer(
            policy=args.backpressure
        )
        service.submit(batch)
        print(
            f"queued {len(batch)} updates behind the background writer "
            f"(policy={args.backpressure})"
        )
        service.flush()
        stats = writer.report()
        scheduler = service.scheduler.report()
        print(
            f"background writer drained {stats['drained_updates']} net "
            f"updates as {stats['row_groups']} consolidated row updates "
            f"over {stats['drains']} drain(s) "
            f"(coalescing ratio {scheduler['coalescing_ratio']:.2f}, "
            f"{scheduler['cancelled_pairs']} inverse pairs cancelled, "
            f"max queue depth {stats['max_queue_depth']}) "
            f"in {service.engine.total_update_seconds() * 1e3:.1f} ms"
        )
        service.stop_background_writer()
    else:
        service.submit(batch)
        print(
            f"queued {len(batch)} updates "
            f"({service.scheduler.pending_targets} target rows after "
            f"coalescing)"
        )
        groups = service.drain()
        stats = service.scheduler.report()
        print(
            f"writer drained {stats['drained_updates']} net updates as "
            f"{groups} consolidated row updates "
            f"(coalescing ratio {stats['coalescing_ratio']:.2f}, "
            f"{stats['cancelled_pairs']} inverse pairs cancelled) "
            f"in {service.engine.total_update_seconds() * 1e3:.1f} ms"
        )

    fresh = service.snapshot()
    isolated = pinned.top_k(args.top) == frozen_top
    print(
        f"pinned snapshot v{pinned.version} still serves the frozen "
        f"version: {'yes' if isolated else 'NO (bug!)'}"
    )
    print(f"\npinned snapshot v{pinned.version} top pairs:")
    for a, b, score in frozen_top:
        print(f"  ({a}, {b})  {score:.6f}")
    print(f"\nfresh snapshot v{fresh.version} top pairs:")
    for a, b, score in fresh.top_k(args.top):
        print(f"  ({a}, {b})  {score:.6f}")

    drift = float(
        np.max(
            np.abs(fresh.similarities() - pinned.similarities()),
            initial=0.0,
        )
    )
    print(f"\nmax score movement across versions: {drift:.6f}")
    service.close()
    return 0 if isolated else 1


_COMMANDS = {
    "info": command_info,
    "compute": command_compute,
    "update": command_update,
    "similar": command_similar,
    "serve": command_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns a process exit code.

    A library error (any :class:`~repro.exceptions.ReproError`) prints
    one ``error: <message>`` line to stderr and returns 1; argparse
    usage errors still exit 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
