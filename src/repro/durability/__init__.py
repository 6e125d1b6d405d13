"""Durable low-rank persistence for the serving stack.

Three pieces, one data directory:

* :mod:`repro.durability.wal` — the checksummed append-only
  write-ahead log of factored deltas (each acked drain's consolidated
  row updates plus its fused plan's support unions and dense panels as
  raw words, framed with length + CRC32, with configurable fsync and
  rotation).
* :mod:`repro.durability.checkpoint` — atomic base checkpoints: the
  score shards dtype-exact and the packed ``Q`` snapshot, published by
  manifest rename.
* :mod:`repro.durability.manager` — the orchestration: recovery on
  startup (bit-identical to the last acked drain), per-drain appends
  on the ack path, periodic checkpoints with retention, and
  time-travel materialization of any retained historical version.

Enable it with ``SimRankService(graph, durability="/path/to/dir")``
(or a full :class:`~repro.serving.config.DurabilityConfig`), or
``python -m repro serve ... --data-dir /path/to/dir``.
"""

from .checkpoint import (
    CheckpointData,
    graph_from_packed,
    list_checkpoints,
    load_checkpoint,
    load_session,
    read_manifest,
    restore_stores,
    save_session,
    write_checkpoint,
    write_manifest,
)
from .manager import DurabilityManager, RecoveredState
from .wal import (
    FSYNC_POLICIES,
    KIND_ADD_NODE,
    KIND_BATCH,
    KIND_DRAIN,
    WalFrame,
    WriteAheadLog,
    decode_frames,
    encode_add_node_frame,
    encode_drain_frame,
)

__all__ = [
    "CheckpointData",
    "DurabilityManager",
    "FSYNC_POLICIES",
    "KIND_ADD_NODE",
    "KIND_BATCH",
    "KIND_DRAIN",
    "RecoveredState",
    "WalFrame",
    "WriteAheadLog",
    "decode_frames",
    "encode_add_node_frame",
    "encode_drain_frame",
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
