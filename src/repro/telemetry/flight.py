"""Crash flight recorder: a bounded event ring snapshotted on failure.

Every process keeps a ``deque(maxlen=N)`` of recent telemetry events —
drains, backpressure trips, WAL failures, anything a layer
cares to :meth:`FlightRecorder.record`.  Appends are single bytecode
deque operations (atomic under the GIL, no lock on the hot path).

When something goes wrong — e.g. a WAL append or checkpoint fails —
the owning layer calls :meth:`FlightRecorder.dump` and the whole ring
is written to a JSON file, so the post-mortem has the last N events
*leading up to* the failure.

Dump files are named ``flight-<pid>-<reason>-<seq>.json`` and contain::

    {
      "reason": "durability",
      "pid": 12345,
      "dumped_at": 1754650000.123,
      "context": {"durable_version": 41, "wal_offset": 18204, ...},
      "events": [
        {"time": ..., "kind": "drain", "fields": {...}},
        ...
      ]
    }

``context`` holds slow-changing facts layers push with
:meth:`FlightRecorder.set_context` — e.g. the durability layer's last
durable version and WAL byte offset — so a dump pins *where the
on-disk history ends* next to the events that led to the failure.

Dumping is best-effort: an unwritable directory must never turn a
handled failure into a crash, so I/O errors are swallowed
and surfaced only via the ``dump_errors`` counter.  Files land in
``TelemetryConfig.flight_dir`` when configured, otherwise the system
temp directory.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["FlightRecorder", "NullFlightRecorder"]


class FlightRecorder:
    def __init__(
        self,
        capacity: int = 256,
        directory: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        # Dumps default to the system temp dir: post-mortems must work
        # out of the box without littering the working directory of
        # every process that merely *survived* a failure.
        self.directory = directory or tempfile.gettempdir()
        self._ring: deque = deque(maxlen=self.capacity)
        self._seq_lock = threading.Lock()
        self._seq = 0
        self.events_recorded = 0
        self.dumps = 0
        self.dump_errors = 0
        self._context: Dict = {}

    def set_context(self, **fields) -> None:
        """Merge slow-changing facts into every future dump's payload."""
        if not self.enabled:
            return
        self._context.update(fields)

    def context(self) -> Dict:
        return dict(self._context)

    def record(self, kind: str, **fields) -> None:
        """Append one event to the ring (lock-free hot path)."""
        if not self.enabled:
            return
        self._ring.append(
            {"time": time.time(), "kind": kind, "fields": fields}
        )
        self.events_recorded += 1

    def events(self) -> List[Dict]:
        return list(self._ring)

    def dump(self, reason: str) -> Optional[str]:
        """Snapshot the ring to a JSON file; returns its path (or None).

        Best-effort by design: failures to write increment
        ``dump_errors`` and return ``None`` rather than raising into a
        crash-recovery path that must keep going.
        """
        if not self.enabled:
            return None
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        payload = {
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "context": self.context(),
            "events": self.events(),
        }
        name = f"flight-{os.getpid()}-{reason}-{seq}.json"
        path = os.path.join(self.directory, name)
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, default=repr)
                handle.write("\n")
        except OSError:
            self.dump_errors += 1
            return None
        self.dumps += 1
        return path

    def report(self) -> Dict[str, float]:
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "events_recorded": self.events_recorded,
            "events_buffered": len(self._ring),
            "dumps": self.dumps,
            "dump_errors": self.dump_errors,
        }


class NullFlightRecorder:
    """Disabled flight recorder: record/dump are no-ops."""

    __slots__ = ()

    enabled = False
    capacity = 0
    directory = "."
    events_recorded = 0
    dumps = 0
    dump_errors = 0

    def record(self, kind: str, **fields) -> None:
        pass

    def set_context(self, **fields) -> None:
        pass

    def context(self) -> Dict:
        return {}

    def events(self) -> List[Dict]:
        return []

    def dump(self, reason: str) -> Optional[str]:
        return None

    def report(self) -> Dict[str, float]:
        return {
            "enabled": False,
            "capacity": 0,
            "events_recorded": 0,
            "events_buffered": 0,
            "dumps": 0,
            "dump_errors": 0,
        }
