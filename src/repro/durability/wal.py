"""Checksummed append-only write-ahead log of factored score deltas.

The WAL is the crash-consistency half of :mod:`repro.durability`: every
acked drain appends one frame carrying (a) the drain's consolidated
:class:`~repro.incremental.row_update.RowUpdate` list — the graph/``Q``
surgery — and (b) the drain's one fused
:class:`~repro.incremental.plan.UpdatePlan` as it was applied: its
support unions and its two dense panels, as raw 8-byte words.  Replay
wraps those bytes with ``np.frombuffer``, so the GEMM gets the live
operands bit for bit and a frame reproduces exactly the state
transition the live drain performed.

Frame layout (little-endian)::

    +------+-------------+------------+-----------------------------+
    | RWFR | length: u32 | crc32: u32 | payload (`length` bytes)    |
    +------+-------------+------------+-----------------------------+

    payload = kind: u32 | flags: u32 | version: u64 | body

Body of a ``KIND_DRAIN`` frame::

    row_words: u64                  # int64 words describing RowUpdates
    <row_words * 8 bytes>           # n; then per row: target,
                                    #   n_added, n_removed, added..., removed...
    target: i64                     # the plan's target row
    rank, rows, cols: u64           # all 0 when the drain changed no score
    <rows int64>                    # rows_union
    <cols int64>                    # cols_union
    <rows * rank float64>           # L, row-major
    <cols * rank float64>           # R, row-major

Body of a ``KIND_ADD_NODE`` frame: ``node: u64 | num_nodes: u64``.

``KIND_BATCH`` frames, which older versions wrote, carry the same row
words followed by a batch of plans stored as sparse factors; only
:func:`_decode_legacy_plans` reads them, and nothing writes them.

Damage semantics — the load-bearing distinction of the whole module:

* **Torn tail**: the *last* frame in the *last* segment is incomplete
  or fails its CRC, and no valid frame follows it.  That is the
  expected residue of a crash mid-append; the reader truncates at the
  last good frame boundary and recovery proceeds (the torn frame was
  never acked — acks happen after the append returns).
* **Mid-log corruption**: a frame fails but a *valid* frame exists
  after the damage (in this segment or a later one).  Truncating there
  would silently drop drains the service acknowledged, so the reader
  raises :class:`~repro.exceptions.CorruptLogError` instead — never
  silent divergence.

Fsync policy: ``always`` fsyncs every append (survives power loss),
``interval`` fsyncs at most once per configured window (bounded loss
on power failure), ``off`` never fsyncs.  All three policies flush to
the OS page cache on every append, so a SIGKILL — process death, not
machine death — loses nothing under any policy.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from time import monotonic
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigError, CorruptLogError
from ..incremental.plan import UpdatePlan
from ..incremental.row_update import RowUpdate

__all__ = [
    "FSYNC_POLICIES",
    "KIND_ADD_NODE",
    "KIND_BATCH",
    "KIND_DRAIN",
    "WalFrame",
    "WriteAheadLog",
    "decode_frames",
    "encode_add_node_frame",
    "encode_drain_frame",
]

MAGIC = b"RWFR"
_HEADER = struct.Struct("<4sII")  # magic, payload length, crc32(payload)
_PAYLOAD_HEAD = struct.Struct("<IIQ")  # kind, flags, version
_U64 = struct.Struct("<Q")
_PLAN_HEAD = struct.Struct("<qQQQ")  # target, rank, |rows|, |cols|
_LEGACY_HEAD = struct.Struct("<QQQQ")  # count, lens_len, idx_len, val_len

KIND_BATCH = 1  # legacy: read, never written
KIND_ADD_NODE = 2
KIND_DRAIN = 3

#: ``always`` → fsync every append; ``interval`` → fsync at most once
#: per ``fsync_interval`` seconds; ``off`` → flush to the OS only.
FSYNC_POLICIES = ("always", "interval", "off")

#: Segment files are ``wal-<seq>-v<start>.log``: every frame in the
#: segment has ``version > start`` (the version the log was at when the
#: segment was opened), which is what lets retention delete whole
#: segments against checkpoint versions without reading them.
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


@dataclass(frozen=True)
class WalFrame:
    """One decoded log record."""

    kind: int
    version: int
    #: Drain frames only: the drain's consolidated graph surgery.
    row_updates: Tuple[RowUpdate, ...] = ()
    #: Drain frames only: the plans to apply, in order — at most one,
    #: except in legacy frames that hold one plan per row group.
    plans: Tuple[UpdatePlan, ...] = ()
    #: ``KIND_ADD_NODE`` only.
    node: int = -1
    num_nodes: int = -1


# ------------------------------------------------------------------ #
# Frame encoding
# ------------------------------------------------------------------ #


def _frame(kind: int, version: int, body: bytes) -> bytes:
    payload = _PAYLOAD_HEAD.pack(kind, 0, version) + body
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(MAGIC, len(payload), crc) + payload


def _encode_row_updates(row_updates) -> np.ndarray:
    words: List[int] = [len(row_updates)]
    for update in row_updates:
        words.append(update.target)
        words.append(len(update.added))
        words.append(len(update.removed))
        words.extend(update.added)
        words.extend(update.removed)
    return np.asarray(words, dtype=np.int64)


def _decode_row_updates(words: np.ndarray) -> Tuple[RowUpdate, ...]:
    out: List[RowUpdate] = []
    cursor = 1
    for _ in range(int(words[0])):
        target = int(words[cursor])
        n_added = int(words[cursor + 1])
        n_removed = int(words[cursor + 2])
        cursor += 3
        added = tuple(int(v) for v in words[cursor : cursor + n_added])
        cursor += n_added
        removed = tuple(int(v) for v in words[cursor : cursor + n_removed])
        cursor += n_removed
        out.append(RowUpdate(target=target, added=added, removed=removed))
    return tuple(out)


def encode_drain_frame(
    version: int, row_updates, plan: Optional[UpdatePlan]
) -> bytes:
    """Serialize one acked drain and its plan (None: no score changed)."""
    row_words = _encode_row_updates(row_updates)
    parts = [_U64.pack(row_words.size), row_words.tobytes()]
    if plan is None:
        parts.append(_PLAN_HEAD.pack(-1, 0, 0, 0))
    else:
        rows, cols = plan.rows_union, plan.cols_union
        left, right = plan.panels()
        parts += [
            _PLAN_HEAD.pack(plan.target, plan.rank, rows.size, cols.size),
            rows.astype(np.int64, copy=False).tobytes(),
            cols.astype(np.int64, copy=False).tobytes(),
            left.tobytes(),
            right.tobytes(),
        ]
    return _frame(KIND_DRAIN, version, b"".join(parts))


def encode_add_node_frame(version: int, node: int, num_nodes: int) -> bytes:
    """Serialize one live ``add_node`` as a framed record."""
    return _frame(KIND_ADD_NODE, version, _U64.pack(node) + _U64.pack(num_nodes))


def _decode_payload(payload: bytes) -> WalFrame:
    kind, _flags, version = _PAYLOAD_HEAD.unpack_from(payload, 0)
    at = _PAYLOAD_HEAD.size
    if kind == KIND_ADD_NODE:
        node = _U64.unpack_from(payload, at)[0]
        num_nodes = _U64.unpack_from(payload, at + 8)[0]
        return WalFrame(
            kind=kind, version=version, node=int(node), num_nodes=int(num_nodes)
        )
    if kind not in (KIND_DRAIN, KIND_BATCH):
        raise ValueError(f"unknown WAL frame kind {kind}")
    row_words = _U64.unpack_from(payload, at)[0]
    at += 8
    rows = np.frombuffer(payload, dtype=np.int64, count=row_words, offset=at)
    at += row_words * 8
    decode_plans = _decode_plan if kind == KIND_DRAIN else _decode_legacy_plans
    return WalFrame(
        kind=kind,
        version=version,
        row_updates=_decode_row_updates(rows),
        plans=decode_plans(payload, at),
    )


def _decode_plan(payload: bytes, at: int) -> Tuple[UpdatePlan, ...]:
    """A ``KIND_DRAIN`` frame's plan: views of the frame's bytes."""
    target, rank, rows_len, cols_len = _PLAN_HEAD.unpack_from(payload, at)
    if rank == 0:
        return ()
    at += _PLAN_HEAD.size
    rows = np.frombuffer(payload, np.int64, count=rows_len, offset=at)
    at += rows.nbytes
    cols = np.frombuffer(payload, np.int64, count=cols_len, offset=at)
    at += cols.nbytes
    left = np.frombuffer(payload, np.float64, count=rows_len * rank, offset=at)
    at += left.nbytes
    right = np.frombuffer(payload, np.float64, count=cols_len * rank, offset=at)
    return (
        UpdatePlan(
            target,
            rows,
            cols,
            left.reshape(rows_len, rank),
            right.reshape(cols_len, rank),
            affected=None,
        ),
    )


def _decode_legacy_plans(payload: bytes, at: int) -> Tuple[UpdatePlan, ...]:
    """A legacy ``KIND_BATCH`` frame's plans, densified into panels.

    The batch is one block of 8-byte words: ``targets`` and ``ranks``
    (one word per plan), then ``lens``, ``idx`` and ``val`` sections.
    Per plan, ``lens`` holds ``|rows_union|, |cols_union|`` then per
    factor pair ``|left|, |right|``; ``idx`` holds the unions then per
    pair the left and right support indices; ``val`` (float64) holds
    per pair the left and right values.  Each factor lands in its
    panel column at its support, zeros elsewhere — the panels the
    writing version built, bit for bit.  Applying the returned plans
    in order replays the frame.
    """
    count, lens_len, idx_len, val_len = _LEGACY_HEAD.unpack_from(payload, at)
    words = np.frombuffer(
        payload,
        dtype=np.int64,
        count=2 * count + lens_len + idx_len + val_len,
        offset=at + _LEGACY_HEAD.size,
    )
    targets = words[:count].tolist()
    ranks = words[count : 2 * count].tolist()
    lens = iter(words[2 * count : 2 * count + lens_len].tolist())
    idx = words[2 * count + lens_len : 2 * count + lens_len + idx_len]
    val = words[2 * count + lens_len + idx_len :].view(np.float64)
    idx_at = val_at = 0
    plans = []
    for target, rank in zip(targets, ranks):
        unions = []
        for _ in range(2):
            size = next(lens)
            unions.append(idx[idx_at : idx_at + size])
            idx_at += size
        panels = [np.zeros((union.size, rank)) for union in unions]
        for term in range(rank):
            for panel, union in zip(panels, unions):
                size = next(lens)
                support = idx[idx_at : idx_at + size]
                panel[np.searchsorted(union, support), term] = val[
                    val_at : val_at + size
                ]
                idx_at += size
                val_at += size
        plans.append(UpdatePlan(target, *unions, *panels, affected=None))
    return tuple(plans)


# ------------------------------------------------------------------ #
# Segment scanning
# ------------------------------------------------------------------ #


def _scan(buffer: bytes) -> Tuple[List[WalFrame], int, Optional[int]]:
    """Decode frames from one segment's bytes.

    Returns ``(frames, good_bytes, bad_offset)`` where ``good_bytes``
    is the end of the last frame that decoded cleanly and
    ``bad_offset`` is where decoding stopped (None when the whole
    buffer was consumed).
    """
    frames: List[WalFrame] = []
    offset = 0
    size = len(buffer)
    while offset < size:
        if size - offset < _HEADER.size:
            return frames, offset, offset
        magic, length, crc = _HEADER.unpack_from(buffer, offset)
        if magic != MAGIC:
            return frames, offset, offset
        end = offset + _HEADER.size + length
        if end > size:
            return frames, offset, offset
        payload = buffer[offset + _HEADER.size : end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            return frames, offset, offset
        try:
            frames.append(_decode_payload(payload))
        except Exception:
            return frames, offset, offset
        offset = end
    return frames, offset, None


def _valid_frame_after(buffer: bytes, start: int) -> bool:
    """Whether any byte range after ``start`` parses as a valid frame.

    The mid-log-corruption probe: a flipped byte inside one frame must
    not silently swallow the (still intact) frames behind it, so the
    reader hunts for the next ``MAGIC`` whose header, length, and CRC
    all check out before deciding the damage was merely a torn tail.
    """
    cursor = buffer.find(MAGIC, start + 1)
    while cursor != -1:
        frames, _good, bad = _scan(buffer[cursor:])
        if frames:
            return True
        if bad is None:
            return False
        cursor = buffer.find(MAGIC, cursor + 1)
    return False


def decode_frames(
    buffer: bytes, *, path: str = "", final_segment: bool = True
) -> Tuple[List[WalFrame], int]:
    """Decode a whole segment, applying the damage semantics.

    Returns ``(frames, good_bytes)``.  Raises
    :class:`~repro.exceptions.CorruptLogError` on mid-log corruption —
    damage in a non-final segment, or damage in the final segment with
    a valid frame after it.  A torn tail (final segment, nothing valid
    after the damage) is reported via ``good_bytes < len(buffer)``.
    """
    frames, good, bad = _scan(buffer)
    if bad is None:
        return frames, good
    if not final_segment or _valid_frame_after(buffer, bad):
        raise CorruptLogError(
            f"corrupt WAL frame at byte {bad} of {path or 'segment'}: "
            "valid frames follow the damage, refusing to truncate "
            "acknowledged history",
            path=path,
            offset=bad,
        )
    return frames, good


# ------------------------------------------------------------------ #
# The log
# ------------------------------------------------------------------ #


def _segment_name(seq: int, start_version: int) -> str:
    return f"{_SEGMENT_PREFIX}{seq:08d}-v{start_version:016d}{_SEGMENT_SUFFIX}"


def _parse_segment_name(name: str) -> Optional[Tuple[int, int]]:
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    stem = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    try:
        seq_text, version_text = stem.split("-v", 1)
        return int(seq_text), int(version_text)
    except ValueError:
        return None


class WriteAheadLog:
    """Rotating segmented WAL under ``<directory>``.

    Single-writer by contract (the durability manager holds the data
    dir lock); reads for recovery and time travel may run concurrently
    with appends because appends only ever extend the newest segment
    and readers stop at their target version.
    """

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.05,
        rotate_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        self.directory = directory
        self.fsync = fsync
        self.fsync_interval = float(fsync_interval)
        self.rotate_bytes = int(rotate_bytes)
        self._handle = None
        self._segment_path: Optional[str] = None
        self._segment_bytes = 0
        self._last_fsync = monotonic()
        self.appends = 0
        self.bytes_appended = 0
        # ``interval`` policy: the periodic fsync runs on this timer
        # thread, never inline in append(), so the drain path only pays
        # write + flush.  The handle lock serializes the timer's fsync
        # against rotate/close swapping the handle out from under it.
        self._handle_lock = threading.Lock()
        self._dirty = False
        self._syncer: Optional[threading.Thread] = None
        self._syncer_stop = threading.Event()
        os.makedirs(directory, exist_ok=True)
        self._segments: List[Tuple[int, int, str]] = self._discover()
        self._repair_tail()

    # -------------------------------------------------------------- #
    # Discovery / recovery-side reads
    # -------------------------------------------------------------- #

    def _discover(self) -> List[Tuple[int, int, str]]:
        found = []
        for name in os.listdir(self.directory):
            parsed = _parse_segment_name(name)
            if parsed is not None:
                found.append((*parsed, os.path.join(self.directory, name)))
        found.sort()
        return found

    def _repair_tail(self) -> None:
        """Truncate a torn tail in the newest segment (crash residue).

        Earlier segments are validated too — but lazily, by
        :meth:`frames`, because reading them here would make startup
        O(log size) even when no replay is needed.  The newest segment
        is the only one a crash mid-append can tear.
        """
        if not self._segments:
            return
        _seq, _start, path = self._segments[-1]
        with open(path, "rb") as handle:
            buffer = handle.read()
        _frames, good = decode_frames(buffer, path=path, final_segment=True)
        if good < len(buffer):
            with open(path, "r+b") as handle:
                handle.truncate(good)

    @property
    def segments(self) -> List[str]:
        """Segment paths, oldest first."""
        return [path for _seq, _start, path in self._segments]

    def total_bytes(self) -> int:
        """On-disk WAL footprint across all live segments."""
        total = 0
        for _seq, _start, path in self._segments:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def tail_offset(self) -> int:
        """Byte offset of the append cursor in the newest segment."""
        return self._segment_bytes

    def frames(
        self,
        *,
        after_version: int = -1,
        through_version: Optional[int] = None,
    ) -> Iterator[WalFrame]:
        """Yield frames with ``after_version < version``, in order.

        Stops after ``through_version`` when given.  A segment whose
        successor starts at or before ``after_version`` is not opened:
        every frame in a segment has a version at most its successor's
        start, under today's naming and the older one alike, so it
        holds nothing to yield.  Damage in such a skipped segment shows
        only when a read from an earlier version (a :meth:`view_at
        <repro.durability.manager.DurabilityManager.view_at>` from an
        older checkpoint) needs it.  Every segment opened is read and
        decoded whole (each frame CRC-checked) before the version
        filter runs, so frames past ``through_version`` in the same
        segment are decoded too.  Reading concurrently with an appender
        is still safe: a half-written frame at the end of the live final
        segment reads as a torn tail and is skipped, so only frames
        appended in full are ever yielded.
        """
        segments = list(self._segments)
        for position, (_seq, start, path) in enumerate(segments):
            # ``>`` rather than ``>=``: older versions named a segment
            # opened by size after its first frame's version, so a
            # segment starting at ``through_version`` may hold it.
            if through_version is not None and start > through_version:
                break
            # A successor starts at the version durable when it opened
            # (or, in older logs, at its own first frame), so it bounds
            # every version in this segment from above.
            final = position == len(segments) - 1
            if not final and segments[position + 1][1] <= after_version:
                continue
            with open(path, "rb") as handle:
                buffer = handle.read()
            decoded, _good = decode_frames(
                buffer, path=path, final_segment=final
            )
            for frame in decoded:
                if frame.version <= after_version:
                    continue
                if (
                    through_version is not None
                    and frame.version > through_version
                ):
                    return
                yield frame

    # -------------------------------------------------------------- #
    # Append side
    # -------------------------------------------------------------- #

    def _open_segment(self, start_version: int) -> None:
        seq = self._segments[-1][0] + 1 if self._segments else 1
        name = _segment_name(seq, start_version)
        path = os.path.join(self.directory, name)
        # Unbuffered: one write() syscall per append puts the frame in
        # the page cache directly (SIGKILL-safe), no userspace copy.
        self._handle = open(path, "ab", buffering=0)
        self._segment_path = path
        self._segment_bytes = 0
        self._segments.append((seq, start_version, path))

    def open_for_append(self, start_version: int) -> None:
        """Position the append cursor (resuming the newest segment)."""
        self._start_syncer()
        if self._handle is not None:
            return
        if self._segments:
            _seq, _start, path = self._segments[-1]
            self._handle = open(path, "ab", buffering=0)
            self._segment_path = path
            self._segment_bytes = os.path.getsize(path)
        else:
            self._open_segment(start_version)

    def append(self, record: bytes, last_version: int) -> int:
        """Append one framed record; returns the post-append tail offset.

        Every append flushes to the OS (SIGKILL-safe under any policy);
        the fsync policy decides when the bytes are forced to stable
        storage — inline for ``always``, on the background timer thread
        for ``interval`` (so a drain never stalls on the disk; the
        power-loss exposure stays bounded by ``fsync_interval`` plus
        one fsync duration).  Rotation happens *before* the append so a
        frame never straddles segments; ``last_version`` names the
        version already durable when the fresh segment opens.
        """
        if self._handle is None:
            self.open_for_append(last_version)
        if self._segment_bytes >= self.rotate_bytes:
            self.rotate(last_version)
        self._handle.write(record)
        self._handle.flush()
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
            self._last_fsync = monotonic()
        elif self.fsync == "interval":
            self._dirty = True
        self._segment_bytes += len(record)
        self.appends += 1
        self.bytes_appended += len(record)
        return self._segment_bytes

    def _start_syncer(self) -> None:
        if self.fsync != "interval" or self._syncer is not None:
            return
        self._syncer_stop.clear()
        self._syncer = threading.Thread(
            target=self._syncer_loop, name="wal-fsync", daemon=True
        )
        self._syncer.start()

    def _syncer_loop(self) -> None:
        while not self._syncer_stop.wait(self.fsync_interval):
            if not self._dirty:
                continue
            with self._handle_lock:
                if self._handle is None:
                    continue
                self._dirty = False
                try:
                    os.fsync(self._handle.fileno())
                except OSError:
                    # Surfacing happens on the append path (write will
                    # fail too); the timer must never crash the process.
                    pass
            self._last_fsync = monotonic()

    def _stop_syncer(self) -> None:
        if self._syncer is None:
            return
        self._syncer_stop.set()
        self._syncer.join(timeout=5.0)
        self._syncer = None

    def rotate(self, last_version: int) -> None:
        """Close the live segment and open a fresh one."""
        with self._handle_lock:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync != "off":
                    os.fsync(self._handle.fileno())
                self._dirty = False
                self._handle.close()
                self._handle = None
        self._open_segment(last_version)

    def prune(self, keep_after_version: int) -> int:
        """Delete whole segments no retained checkpoint still needs.

        A segment is deletable when the *next* segment starts at or
        before ``keep_after_version`` — every frame a replay from that
        version could want then lives in a later segment.  Returns the
        number of segments removed.
        """
        removed = 0
        while len(self._segments) > 1:
            _next_seq, next_start, _next_path = self._segments[1]
            if next_start > keep_after_version:
                break
            _seq, _start, path = self._segments.pop(0)
            try:
                os.unlink(path)
            except OSError:
                pass
            removed += 1
        return removed

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        with self._handle_lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._dirty = False
                self._last_fsync = monotonic()

    def close(self) -> None:
        self._stop_syncer()
        with self._handle_lock:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync != "off":
                    os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
