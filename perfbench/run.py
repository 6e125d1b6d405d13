"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cith-unit --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (a separate run that also repeats the timed phase untraced and
reports the tracing overhead).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the two lines before
it record the run environment and the exact work counts.  The exit code
is 0 only when every correctness check passed.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cith-unit", "dblp-durable", "cith-wire")
#: Scratch space for data dirs, session files and temp files; removed
#: at the end of every run.
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
#: Environment variables that would pin BLAS threading.
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="smoke shrinks the graphs for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _metrics(report, spec: dict, trace: int) -> dict:
    """The metric set the spec asks for, in spec order.

    Every end-to-end metric must be measured; a per-layer metric the
    workload does not exercise reads 0 and is listed in the environment
    line under ``not_exercised``.
    """
    produced = report.layers if trace else report.e2e
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in produced:
            value, produced_unit = produced[name]
            if produced_unit != unit:
                raise RuntimeError(f"{name}: unit {produced_unit} != {unit}")
        elif trace:
            value = 0.0
            missing.append(name)
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        metrics[name] = {"value": float(value), "unit": unit}
    extra = set(produced) - {entry["name"] for entry in wanted}
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    report.info["not_exercised"] = missing
    return metrics


def _terminate(signum, frame) -> None:
    # Unwind normally so every started server is stopped and the
    # scratch space removed.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            "perfbench: src/repro not found next to perfbench/; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # BLAS reads its thread settings when numpy loads, so clear any
    # inherited pinning before anything imports numpy: both sides of a
    # comparison run the library default.
    cleared = {name: os.environ.pop(name) for name in BLAS_ENV_VARS
               if name in os.environ}
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    scratch = os.path.join(workdir, "tmp")
    os.makedirs(scratch)
    # The program keeps reaper manifests and flight dumps under the
    # system temp dir; keep them inside the run's scratch space.
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        return _run(args, workdir, cleared)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass


def _run(args, workdir: str, cleared: dict) -> int:
    import numpy as np

    from perfbench import common

    spec = _load_spec()
    if args.workload == "cith-unit":
        from perfbench import unit as workload
    elif args.workload == "dblp-durable":
        from perfbench import durable as workload
    else:
        from perfbench import wire as workload

    ctx = argparse.Namespace(
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        workdir=workdir,
        root=ROOT,
    )
    report = common.Report()
    calibration_start = common.calibrate()
    workload.run(ctx, report)
    calibration_end = common.calibrate()
    report.layers["box.calibration_ms"] = (
        float(np.median(calibration_start + calibration_end)),
        "ms",
    )
    metrics = _metrics(report, spec, args.trace)
    report.info.update(common.environment())
    report.info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        blas_env_cleared=cleared,
        calibration_start_ms=float(np.median(calibration_start)),
        calibration_end_ms=float(np.median(calibration_end)),
        checks=report.checks,
    )
    print(json.dumps({"environment": report.info}, sort_keys=True))
    print(json.dumps({"work": report.work}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": int(report.attempted),
                "failed": int(report.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
