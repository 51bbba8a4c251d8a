#!/usr/bin/env python3
"""The fair-experts benchmark.

    python3 perfbench/run.py --workload fpl_roundtrip --seed 12345 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload closed-loop and serially: it repeats the
workload's iteration for about ``--seconds`` (at least three times), checks
every output, and prints a readable summary followed, as the last line, by
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics. ``--workload all`` runs every workload once, each in its own process,
and prints every metric prefixed with its workload. See README.md beside this
file for the metrics and workloads.

The run needs ``src/fair_experts`` beside this directory and exits with code
2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_ORDER = ("theorem2_bait", "theorem3_reps", "theorem5_dp", "fpl_roundtrip")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> dict:
    """Pin this process, and so every child it starts, to one CPU; cap
    BLAS/OpenMP threads at that one CPU and unset FAIR_EXPERTS_THREADS, so
    the harness runs repetitions serially. Must run before numpy is imported.

    On a shared VM the CPUs can run at different speeds: on a 2-CPU host the
    calibration loop took 0.10 s on one and 0.17 s on the other, and an
    unpinned theorem5_dp iteration took 2.3-3.8 s as it moved between them.
    On one CPU, the workload and the calibration loop see the same host.
    """
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ.pop("FAIR_EXPERTS_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {"nproc": nproc, "cpu": cpu, **{v: os.environ[v] for v in THREAD_VARS},
            "FAIR_EXPERTS_THREADS": None}


def run_all(args) -> int:
    """Each workload once, in its own process, in a fixed order."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_ORDER:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.horizon is not None:
            cmd += ["--horizon", str(args.horizon)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fair-experts benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_ORDER, "all"))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, default=None,
                        help="override T for smoke runs; reference comparisons are skipped")
    args = parser.parse_args(argv)
    if not (SRC / "fair_experts" / "__init__.py").is_file():
        print(f"error: no fair_experts sources under {SRC}", file=sys.stderr)
        return 2
    env = pin_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, args.trace, args.horizon, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
