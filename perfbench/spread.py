#!/usr/bin/env python3
"""Run the benchmark several times and report its run-to-run spread.

    python3 perfbench/spread.py --runs 10 --out .perfbench/set_a.json
    python3 perfbench/spread.py --runs 10 --out .perfbench/set_b.json --against .perfbench/set_a.json

Round r runs every workload once, round-robin, with seed ``--first-seed + r``,
each as its own ``run.py`` process. For each end-to-end metric of each
workload it prints the median and the quartile spread, (Q3 - Q1) / median
with ``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. With ``--against``, it also prints how far each median moved
from the saved set's median, in the worse direction, as a share of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_rounds(runs: int, first_seed: int, workloads: list[str], seconds: int) -> dict:
    results: dict = {w: [] for w in workloads}
    for r in range(runs):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(first_seed + r), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {first_seed + r} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            result["seed"] = first_seed + r
            results[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"round {r} {w}: correct={result['correct']} wall={wall:.1f}s {values}",
                  flush=True)
    return results


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def report(results: dict, against: dict | None, end_to_end: list) -> bool:
    """Print spreads (and shifts against a saved set); True if all within bounds."""
    ok = True
    for w, runs in results.items():
        print(f"{w}: {len(runs)} runs, wall {sum(r['wall_s'] for r in runs):.0f} s, "
              f"all correct {all(r['correct'] for r in runs)}")
        for m in end_to_end:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = statistics.median(values), spread(values)
            line = f"  {name:14s} median {med:12.6g}  spread {sp:6.3f}  bound {bound}"
            if name != "setup_s" and sp > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if against is not None and w in against:
                base = statistics.median(r["metrics"][name]["value"] for r in against[w])
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                line += f"  worse than saved set by {worse:+.3f}"
                if worse > bound:
                    ok = False
                    line += "  OVER BOUND"
            print(line)
    return ok


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description="benchmark run-to-run spread")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", help="save the results as JSON")
    parser.add_argument("--against", help="saved results to compare medians with")
    args = parser.parse_args(argv)
    results = run_rounds(args.runs, args.first_seed, args.workloads, benchmark["run_seconds"])
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1))
    against = json.loads(Path(args.against).read_text()) if args.against else None
    return 0 if report(results, against, benchmark["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main())
