"""Atomic factored checkpoints: base score shards + packed ``Q``.

A checkpoint is the replay base the WAL's delta frames build on: the
score shards exactly as the :class:`~repro.executor.score_store.ScoreStore`
holds them (in the store's storage dtype, so a float32 store restores
bit-identically) plus the packed CSR structure of
``Q`` (:meth:`~repro.linalg.qstore.TransitionStore.export_packed`),
from which both ``Q`` *and* the graph are rebuilt (row ``i`` of the
backward CSR lists ``i``'s in-neighbors; ``TransitionStore.from_graph``
is deterministic, so the rebuilt ``Q`` is bit-identical too).
Older checkpoints may also carry ``col_indices``/``col_indptr``/
``row_weight`` (from before the store was one CSR) or a
``history.npz`` factor summary; recovery never reads them.

:func:`restore_stores` is the one loader from a checkpoint to live
state: the graph is rebuilt from the CSR arrays in bulk and the score
store adopts the loaded shard blocks as its buffers, so neither
recovery nor :meth:`DynamicSimRank.load
<repro.incremental.engine.DynamicSimRank.load>` copies ``S``.  A saved
session (:func:`save_session`) is a data dir in the same layout with
one checkpoint and no WAL.

Publication is atomic at two levels: each checkpoint is written into a
``checkpoints/tmp-*`` scratch directory, fsynced, and ``os.rename``d
to its final ``ckpt-<version>`` name; the data dir's ``MANIFEST`` is
then rewritten via the tmp + ``os.replace`` pattern.  A crash at any
byte offset leaves either the old manifest (pointing at complete
checkpoints) or the new one — never a half-written checkpoint that a
restart could load.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigError, CorruptLogError
from ..executor.score_store import ScoreStore
from ..graph import DynamicDiGraph

__all__ = [
    "CheckpointData",
    "checkpoint_path",
    "graph_from_packed",
    "list_checkpoints",
    "load_checkpoint",
    "load_session",
    "read_manifest",
    "restore_stores",
    "save_session",
    "write_checkpoint",
    "write_manifest",
]

MANIFEST_NAME = "MANIFEST"
CHECKPOINT_DIRNAME = "checkpoints"
_CKPT_PREFIX = "ckpt-"
_TMP_PREFIX = "tmp-"
MANIFEST_FORMAT = 1


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def checkpoint_path(data_dir: str, version: int) -> str:
    return os.path.join(
        data_dir, CHECKPOINT_DIRNAME, f"{_CKPT_PREFIX}{version:016d}"
    )


def list_checkpoints(data_dir: str) -> List[Tuple[int, str]]:
    """``(version, path)`` of every published checkpoint, ascending."""
    root = os.path.join(data_dir, CHECKPOINT_DIRNAME)
    out: List[Tuple[int, str]] = []
    try:
        names = os.listdir(root)
    except OSError:
        return out
    for name in names:
        if not name.startswith(_CKPT_PREFIX):
            continue
        try:
            version = int(name[len(_CKPT_PREFIX) :])
        except ValueError:
            continue
        out.append((version, os.path.join(root, name)))
    out.sort()
    return out


# ------------------------------------------------------------------ #
# Manifest
# ------------------------------------------------------------------ #


def read_manifest(data_dir: str) -> Optional[dict]:
    """The published manifest, or None when the dir is fresh/unused."""
    path = os.path.join(data_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        # The manifest is written atomically, so a damaged one is not
        # crash residue — refuse to guess, like a mid-log CRC failure.
        raise CorruptLogError(
            f"unreadable durability manifest {path}: {exc}", path=path
        ) from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise CorruptLogError(
            f"unsupported manifest format {manifest.get('format')!r} "
            f"in {path}",
            path=path,
        )
    return manifest


def write_manifest(data_dir: str, retained_versions: List[int]) -> None:
    """Atomically publish the retained-checkpoint list."""
    payload = {
        "format": MANIFEST_FORMAT,
        "latest": max(retained_versions),
        "retained": sorted(retained_versions),
        "written_at": time.time(),
    }
    path = os.path.join(data_dir, MANIFEST_NAME)
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(data_dir)


# ------------------------------------------------------------------ #
# Checkpoint write / load
# ------------------------------------------------------------------ #


@dataclass
class CheckpointData:
    """One loaded checkpoint, ready to seed a replay."""

    version: int
    meta: dict
    #: Shard blocks in saved order, each in its storage dtype.
    shards: List[np.ndarray] = field(default_factory=list)
    #: ``TransitionStore.export_packed()`` payload.
    packed_q: Dict[str, np.ndarray] = field(default_factory=dict)


def write_checkpoint(
    data_dir: str,
    *,
    version: int,
    score_store,
    transition_store,
    damping: float,
    iterations: int,
    algorithm: str = "inc-sr",
) -> str:
    """Write and atomically publish one checkpoint; returns its path.

    Caller must hold the apply lock (or otherwise guarantee the stores
    are quiescent) for the whole write: the shard blocks are serialized
    straight from the live store (``np.ascontiguousarray`` of a
    C-contiguous block is the block itself, not a copy).
    """
    root = os.path.join(data_dir, CHECKPOINT_DIRNAME)
    os.makedirs(root, exist_ok=True)
    final = checkpoint_path(data_dir, version)
    tmp = os.path.join(root, f"{_TMP_PREFIX}{os.getpid()}-{version:016d}")
    os.makedirs(tmp, exist_ok=True)

    shard_arrays = {
        f"shard_{index:05d}": np.ascontiguousarray(block)
        for index, (_base, block) in enumerate(score_store.iter_shard_blocks())
    }
    _savez(os.path.join(tmp, "scores.npz"), shard_arrays)

    packed = transition_store.export_packed()
    _savez(
        os.path.join(tmp, "transitions.npz"),
        {key: np.asarray(value) for key, value in packed.items()},
    )

    meta = {
        "version": int(version),
        "num_nodes": int(score_store.num_nodes),
        "shard_rows": int(score_store.shard_rows),
        "damping": float(damping),
        "iterations": int(iterations),
        # Read back by DynamicSimRank.load only; recovery ignores it.
        "algorithm": str(algorithm),
        "created_at": time.time(),
    }
    meta_path = os.path.join(tmp, "meta.json")
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    _fsync_dir(tmp)

    # Publish: one rename flips the whole directory from scratch to
    # final.  A stale final dir (a retried version) is replaced.
    if os.path.isdir(final):
        _remove_tree(final)
    os.rename(tmp, final)
    _fsync_dir(root)
    return final


def _savez(path: str, arrays: Dict[str, np.ndarray]) -> None:
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())


def _remove_tree(path: str) -> None:
    for dirpath, dirnames, filenames in os.walk(path, topdown=False):
        for name in filenames:
            try:
                os.unlink(os.path.join(dirpath, name))
            except OSError:
                pass
        for name in dirnames:
            try:
                os.rmdir(os.path.join(dirpath, name))
            except OSError:
                pass
    try:
        os.rmdir(path)
    except OSError:
        pass


def load_checkpoint(path: str) -> CheckpointData:
    """Load one published checkpoint directory."""
    try:
        with open(os.path.join(path, "meta.json"), "r", encoding="utf-8") as f:
            meta = json.load(f)
    except (OSError, ValueError) as exc:
        raise CorruptLogError(
            f"unreadable checkpoint meta in {path}: {exc}", path=path
        ) from None
    try:
        with np.load(os.path.join(path, "scores.npz")) as archive:
            shards = [
                archive[name] for name in sorted(archive.files)
            ]
        with np.load(os.path.join(path, "transitions.npz")) as archive:
            packed_q = {name: archive[name] for name in archive.files}
    except (OSError, ValueError) as exc:
        raise CorruptLogError(
            f"unreadable checkpoint arrays in {path}: {exc}", path=path
        ) from None
    return CheckpointData(
        version=int(meta["version"]),
        meta=meta,
        shards=shards,
        packed_q=packed_q,
    )


def graph_from_packed(packed_q: Dict[str, np.ndarray]) -> DynamicDiGraph:
    """Rebuild the graph from the packed backward-CSR structure.

    Row ``i`` of ``Q`` lists the in-neighbors of ``i``: every column
    ``j`` in row ``i`` is an edge ``j → i``.  The edge *weights* are
    redundant (``1/indegree``, re-derived by
    :meth:`~repro.linalg.qstore.TransitionStore.from_graph`), so
    structure alone reproduces the store.  Both adjacency directions
    are sliced out of CSR arrays (the out-lists from a stable sort of
    the edges by source), not added one edge at a time.
    """
    num_nodes = int(np.asarray(packed_q["num_nodes"]))
    indptr = np.asarray(packed_q["indptr"], dtype=np.int64)
    sources = np.asarray(packed_q["indices"], dtype=np.int64)
    if (
        indptr.shape != (num_nodes + 1,)
        or indptr[0] != 0
        or indptr[-1] != sources.size
        or np.any(np.diff(indptr) < 0)
        or (sources.size and (sources.min() < 0 or sources.max() >= num_nodes))
    ):
        raise CorruptLogError("checkpoint Q structure is not a valid CSR")
    targets = np.repeat(np.arange(num_nodes), np.diff(indptr))
    order = np.argsort(sources, kind="stable")
    out_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_nodes), out=out_ptr[1:])
    return DynamicDiGraph.from_adjacency(
        _slices(sources.tolist(), indptr.tolist()),
        _slices(targets[order].tolist(), out_ptr.tolist()),
    )


def _slices(values: list, bounds: list) -> list:
    return [set(values[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]


def restore_stores(
    data: CheckpointData, shard_rows: Optional[int] = None
) -> Tuple[DynamicDiGraph, ScoreStore]:
    """The live graph and score store of one loaded checkpoint.

    The store adopts the checkpoint's shard blocks (see
    :meth:`ScoreStore.from_blocks`); it re-shards only when
    ``shard_rows`` differs from the saved one (None keeps the saved
    one).  It has no telemetry bound: WAL replay into it is not counted
    as served work.
    """
    if shard_rows is None:
        shard_rows = int(data.meta["shard_rows"])
    store = ScoreStore.from_blocks(data.shards, shard_rows=shard_rows)
    return graph_from_packed(data.packed_q), store


# ------------------------------------------------------------------ #
# Saved sessions
# ------------------------------------------------------------------ #


def save_session(path: str, engine) -> None:
    """Write ``engine``'s state to ``path`` as a session: one checkpoint.

    A session is a data dir with one checkpoint and no WAL.  An earlier
    session at ``path`` is replaced (its checkpoint is removed once the
    manifest points at the new one), and so is a legacy single-file
    session.  A durable data dir, which has a WAL, is refused: its log
    would replay onto the saved state.
    """
    if os.path.isdir(os.path.join(path, "wal")):
        raise ConfigError(
            f"{path!r} is a durable data dir with a write-ahead log; "
            "save the session to another path"
        )
    if os.path.isfile(path):
        os.unlink(path)
    os.makedirs(path, exist_ok=True)
    version = int(engine.version)
    write_checkpoint(
        path,
        version=version,
        score_store=engine.score_store,
        transition_store=engine.transition_store,
        damping=engine.config.damping,
        iterations=engine.config.iterations,
        algorithm=engine.algorithm,
    )
    write_manifest(path, [version])
    for other, other_path in list_checkpoints(path):
        if other != version:
            _remove_tree(other_path)


def load_session(path: str) -> CheckpointData:
    """The newest checkpoint of the data dir at ``path``."""
    manifest = read_manifest(path)
    if manifest is None:
        raise ConfigError(f"{path!r} holds no saved session (no MANIFEST)")
    return load_checkpoint(checkpoint_path(path, int(manifest["latest"])))
