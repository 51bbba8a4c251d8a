"""Calibration loop: fixed work that tracks how fast the host runs right now.

Run in its own process, so its memory stays out of the benchmark process's
peak RSS; it inherits the benchmark's CPU pinning, so it runs on the same CPU
as the workload. For each line read on stdin it times three fixed parts and
writes one JSON line:

- ``python_s``: a pure-Python loop of calls and dict updates;
- ``json_s``: a JSON encode and decode of 10,000 records;
- ``numpy_s``: cumulative sums, exponentials, arg-maxes and a broadcast
  reduction over arrays of 100,000 floats, the shape of the block kernels.

The host's CPU slows different work by different amounts, so each workload
names the parts that move as it does (``Workload.host_signal``), and
bench.py scales its times by those (see ``host_scaled`` there). The work
never calls fair_experts, so a change to the library cannot move it.
"""

import json
import sys
import time

import numpy as np

RECORDS = [
    {"t": i, "group": i % 2, "p": [0.25, 0.75], "loss": 0.125 * i, "world": "a"}
    for i in range(10_000)
]
ARRAY = np.random.default_rng(0).random(100_000)
ONES = np.ones(4)


def _step(x: float) -> float:
    return x * 0.5 + 1.0


def calibrate() -> dict:
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(400_000):
        k = i & 255
        table[k] = table.get(k, 0.0) + _step(i)
    t1 = time.perf_counter()
    json.loads(json.dumps(RECORDS))
    t2 = time.perf_counter()
    for _ in range(25):
        x = np.cumsum(ARRAY)
        y = np.exp(-0.1 * x / x[-1])
        np.argmax(y + ARRAY)
        (ARRAY[:, None] * ONES).sum(1)
    t3 = time.perf_counter()
    return {"python_s": t1 - t0, "json_s": t2 - t1, "numpy_s": t3 - t2}


if __name__ == "__main__":
    for _ in sys.stdin:
        print(json.dumps(calibrate()), flush=True)
