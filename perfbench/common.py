"""Shared pieces of the benchmark: the run report, latency summaries,
peak memory, the machine-drift calibration kernel and the environment
record.

Nothing here imports the program (``repro``); the workload modules do.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: A tail percentile is valid only with at least this many samples
#: strictly above it.
MIN_BEYOND = 10


@dataclass
class Report:
    """Everything one run produces, before it is printed.

    ``e2e`` and ``layers`` map metric names to ``(value, unit)``;
    ``work`` holds the exact-repeat work counts and ``info`` the
    environment and workload settings.
    """

    attempted: int = 0
    failed: int = 0
    e2e: Dict[str, tuple] = field(default_factory=dict)
    layers: Dict[str, tuple] = field(default_factory=dict)
    work: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    checks: List[dict] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failed check is a failed op."""
        self.attempted += 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(entry["ok"] for entry in self.checks)

    def latency(
        self,
        prefix: str,
        samples_s: Sequence[float],
        percentile: float,
    ) -> None:
        """Record ``<prefix>_p50_ms`` and ``<prefix>_tail_ms``.

        The tail is the workload's fixed percentile; the run checks that
        at least :data:`MIN_BEYOND` samples lie beyond it and that it is
        not below the median, so a tail drawn from too few samples fails
        the run instead of being reported.
        """
        values = np.asarray(samples_s, dtype=np.float64) * 1e3
        if values.size == 0:
            self.check(f"{prefix} samples", False, "no samples")
            return
        p50 = float(np.percentile(values, 50))
        tail = float(np.percentile(values, percentile))
        beyond = int(np.count_nonzero(values > tail))
        self.e2e[f"{prefix}_p50_ms"] = (p50, "ms")
        self.e2e[f"{prefix}_tail_ms"] = (tail, "ms")
        self.info[f"{prefix}_samples"] = int(values.size)
        self.info[f"{prefix}_percentiles_ms"] = {
            str(q): float(np.percentile(values, q))
            for q in (75, 80, 90, 95, 99)
        }
        self.info[f"{prefix}_tail_percentile"] = percentile
        self.info[f"{prefix}_beyond_tail"] = beyond
        self.check(
            f"{prefix} tail has {MIN_BEYOND} samples beyond p{percentile:g}",
            beyond >= MIN_BEYOND,
            f"{beyond} of {values.size} samples beyond",
        )
        self.check(
            f"{prefix} tail >= p50",
            tail >= p50,
            f"p50 {p50:.4f} ms, tail {tail:.4f} ms",
        )


def p50_ms(samples_s: Sequence[float]) -> float:
    """Median of a list of seconds, in ms (0.0 when empty)."""
    if not samples_s:
        return 0.0
    return float(statistics.median(samples_s)) * 1e3


def peak_rss_mb_self() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------- #
# Machine-drift calibration
# ---------------------------------------------------------------------- #


def _calibration_once(scores, rows, cols, block) -> float:
    started = time.perf_counter()
    for _ in range(4):
        scores[np.ix_(rows, cols)] += block
    total = 0
    for value in range(150_000):
        total += value * value
    return time.perf_counter() - started


def calibrate(repeats: int = 5) -> List[float]:
    """Time a fixed numpy-scatter plus pure-Python kernel; ms per repeat.

    The kernel has the shape of the update hot path (a fancy-index
    scatter-add of a dense block) plus interpreter work, and never
    changes, so its drift between and within runs is machine drift.
    """
    rng = np.random.default_rng(0)
    scores = np.zeros((1200, 1200))
    rows = np.sort(rng.choice(1200, size=400, replace=False))
    cols = np.sort(rng.choice(1200, size=700, replace=False))
    block = rng.random((400, 700))
    _calibration_once(scores, rows, cols, block)  # warm the caches
    return [
        _calibration_once(scores, rows, cols, block) * 1e3
        for _ in range(repeats)
    ]


# ---------------------------------------------------------------------- #
# Environment record
# ---------------------------------------------------------------------- #


def blas_threads() -> Optional[int]:
    """The thread count the loaded OpenBLAS reports, or None if unknown."""
    paths = set()
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            for line in handle:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        return None
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def filesystem_of(path: str) -> str:
    """The filesystem type of the mount holding ``path`` (from mountinfo)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4]
                if (
                    target == mount_point
                    or target.startswith(mount_point.rstrip("/") + "/")
                ) and len(mount_point) >= len(best):
                    best, fstype = mount_point, right.split()[0]
    except (OSError, IndexError):
        pass
    return fstype


def environment() -> Dict[str, object]:
    """Interpreter, library and machine facts recorded with every run."""
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
