"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs each workload once at the default and the held-out seed and writes
``reference.json``: per workload and seed, the digest of report.json without
its seed fields, the digests of the trace files, each run's world, and the
report values compared within tolerance. For workloads that draw no scenario
randomness it also asserts that both seeds give the same record.

The record belongs to the commit that defined the benchmark. The script
refuses to overwrite an existing record: re-recording after a library change
would hide exactly the output changes the checks exist to catch.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    if workloads.REFERENCE_PATH.exists():
        print(f"error: {workloads.REFERENCE_PATH} exists; not overwriting", file=sys.stderr)
        return 1
    out: dict = {}
    for wl in workloads.WORKLOADS.values():
        out[wl.name] = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            cfg = wl.experiment(seed, HERE.parent / ".perfbench" / "reference" / wl.name)
            it = workloads.run_iteration(wl, cfg)
            chk = workloads.check_iteration(wl, cfg, it, None)
            if chk.failures:
                print(f"error: {wl.name} seed {seed}: {chk.failures}", file=sys.stderr)
                return 1
            out[wl.name][str(seed)] = workloads.record(wl, Path(cfg["out_dir"]))
            print(f"recorded {wl.name} seed {seed}", file=sys.stderr)
        if wl.seed_independent:
            a, b = out[wl.name].values()
            if a != b:
                print(f"error: {wl.name} differs between seeds", file=sys.stderr)
                return 1
            del out[wl.name][str(workloads.HELD_OUT_SEED)]
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
