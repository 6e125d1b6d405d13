"""Orphan reaper for durability sessions killed without closing.

Each live :class:`~repro.durability.manager.DurabilityManager` records a
tiny JSON manifest ``{pid, kind: "durability", data_dir}`` in
:data:`MANIFEST_DIR`.  A SIGKILL'd owner never removes it, nor its
``wal.lock`` or any ``checkpoints/tmp-*`` scratch directory a checkpoint
was writing.  The next manager to start calls :func:`reap_orphans`,
which probes each recorded pid and reclaims the residue of dead owners,
so stale state is cleaned by the next session rather than by chance.
"""

from __future__ import annotations

import json
import os
import tempfile

#: One manifest file per live durability session.
MANIFEST_DIR = os.path.join(tempfile.gettempdir(), "repro-shm")


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists (owned by anyone)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def register_durability(data_dir: str) -> str:
    """Record a live durability session's data dir; returns the path.

    A dead owner's residue — its ``wal.lock`` and any
    ``checkpoints/tmp-*`` scratch dirs a SIGKILL interrupted
    mid-checkpoint — is reclaimed by :func:`reap_orphans`.
    """
    os.makedirs(MANIFEST_DIR, exist_ok=True)
    token = f"durability{os.getpid():x}x{os.urandom(4).hex()}"
    path = os.path.join(MANIFEST_DIR, f"{token}.json")
    payload = {
        "pid": os.getpid(),
        "kind": "durability",
        "data_dir": os.path.abspath(data_dir),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
    return path


def unregister_durability(manifest_path: str) -> None:
    """Remove a session's manifest at orderly close."""
    try:
        os.unlink(manifest_path)
    except OSError:
        pass


def _sweep_durability(data_dir: str, owner_pid: int) -> int:
    """Reclaim a dead durability owner's lock + checkpoint scratch dirs.

    Only removes the ``wal.lock`` when it still names a dead pid (the
    dead owner's, or a successor's that also died) — a live successor
    process may already hold a fresh lock in the same data dir, and
    that one must survive the sweep.  Returns the number of filesystem
    entries reclaimed.
    """
    removed = 0
    lock_path = os.path.join(data_dir, "wal.lock")
    try:
        with open(lock_path, "r", encoding="utf-8") as fh:
            lock_pid = int(fh.read().strip() or -1)
    except (OSError, ValueError):
        lock_pid = None
    if lock_pid is not None and not pid_alive(lock_pid):
        try:
            os.unlink(lock_path)
            removed += 1
        except OSError:
            pass
    tmp_root = os.path.join(data_dir, "checkpoints")
    try:
        entries = os.listdir(tmp_root)
    except OSError:
        entries = []
    for entry in entries:
        if not entry.startswith("tmp-"):
            continue
        scratch = os.path.join(tmp_root, entry)
        for dirpath, dirnames, filenames in os.walk(scratch, topdown=False):
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
            os.rmdir(scratch)
            removed += 1
        except OSError:
            pass
    return removed


def reap_orphans() -> int:
    """Sweep the residue of durability sessions whose owner is gone.

    Scans every manifest in :data:`MANIFEST_DIR`; for each one whose
    recorded pid no longer exists, reclaims the stale ``wal.lock`` and
    orphaned ``checkpoints/tmp-*`` scratch dirs of a durability
    manifest, and removes the manifest (dead-pid manifests of any other
    kind are removed without a sweep).  Returns the number of entries
    reclaimed.  Called at durability startup.
    """
    removed = 0
    if not os.path.isdir(MANIFEST_DIR):
        return removed
    for entry in os.listdir(MANIFEST_DIR):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(MANIFEST_DIR, entry)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            pid = int(payload["pid"])
            data_dir = (
                str(payload["data_dir"])
                if payload.get("kind") == "durability"
                else None
            )
        except (OSError, ValueError, KeyError):
            # Unreadable manifest: drop it, but never guess a data dir.
            unregister_durability(path)
            continue
        if pid_alive(pid):
            continue
        if data_dir is not None:
            removed += _sweep_durability(data_dir, pid)
        unregister_durability(path)
    return removed
