"""Measurement loops of the benchmark: one workload, one seed, one process.

``--trace 0`` (``measure_end_to_end``) repeats the workload's iteration and
reports the mean, set-up time from fresh interpreters, and the peak RSS of
this process, which runs nothing but this workload. Each time is scaled to
the reference host speed by the calibration loop run right after it
(``host_scaled``). ``--trace 1`` (``measure_per_layer``) alternates
untraced and traced iterations, derives per-layer metrics from the spans,
then runs one more iteration with tracemalloc around the memory-measured
calls.

Raw samples, calibration-loop timings, thread settings and spans are written
under ``.perfbench/``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rounds_per_s": "1/s",
    "iteration_s": "s",
    "peak_rss_mb": "MB",
}
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 7
# No iteration starts after this much wall time, so a run ends within 180 s.
MAX_MEASURE_S = 100.0
# Median time of each calibration part (calibrate.py) on the reference host,
# a 2-CPU shared VM. Times reported with --trace 0 are in seconds of that host.
CAL_REF_S = {"python_s": 0.105, "json_s": 0.055, "numpy_s": 0.13}
# Set-up is interpreter start-up and imports, so it is scaled by these parts.
SETUP_SIGNAL = ("python_s", "json_s")
# After each iteration the calibration loop runs for at least this share of
# the iteration's time, so that each iteration has its own host-speed sample.
CAL_SHARE = 0.15


class Calibrator:
    """The calibration loop (calibrate.py) in a child process, timed on
    request next to each sample. Its memory stays out of this process's
    peak RSS."""

    def __enter__(self) -> "Calibrator":
        self.samples: list[dict] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def sample(self, at_least_s: float = 0.0) -> list[dict]:
        """Run the loop once, or until it took at_least_s; return the
        timings of the loops run."""
        first = len(self.samples)
        while True:
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            self.samples.append(json.loads(self._proc.stdout.readline()))
            taken = self.samples[first:]
            if sum(sum(c.values()) for c in taken) >= at_least_s:
                return taken

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def slowness(samples: list[dict], parts: tuple[str, ...]) -> float:
    """How many times slower than on the reference host the named
    calibration parts ran, averaged over the samples."""
    ref = sum(CAL_REF_S[p] for p in parts)
    return statistics.fmean(sum(c[p] for p in parts) for c in samples) / ref


def host_scaled(times: list[float], slows: list[float]) -> float:
    """Mean of the times, each divided by the host's slowness measured right
    after it, as the ratio of the two means.

    The host is a shared VM whose CPU switches between a fast and a slow
    state for seconds at a time; the calibration loop's Python part took
    0.09 s in one and 0.16 s in the other within one run. A change to the
    library moves only the workload. Means, not medians: a median of a
    two-state mixture jumps between the states, while the ratio of the two
    means weighs both by the same share of the run. In eight runs of
    theorem5_dp the quartile spread was 0.22 raw, 0.10 for the median over
    the median calibration, and 0.06 for this ratio.
    """
    return sum(times) / sum(slows)


def setup_probe(cfg: dict) -> float:
    """Wall time of a fresh interpreter that sets the workload up.

    Bytecode caching is allowed whatever the caller's environment says, as
    for an installed CLI. No timeout: with one, subprocess polls the child
    in sleeps of up to 50 ms, which quantizes the measurement.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), json.dumps(cfg)],
        check=True, stdout=subprocess.DEVNULL, env=env,
    )
    return time.perf_counter() - t0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


class Measurement:
    """One benchmark process: a workload, a seed, and what its checks found."""

    def __init__(self, name: str, seed: int, seconds: float, horizon: int | None,
                 calibrator: Calibrator) -> None:
        self.wl = workloads.WORKLOADS[name]
        self.calibrator = calibrator
        self.seed = seed
        self.seconds = seconds
        self.horizon = horizon
        self.workdir = OUT / "work" / name
        self.cfg = self.wl.experiment(seed, self.workdir, horizon)
        self.reference = workloads.reference_for(
            workloads.load_reference(), self.wl, seed, horizon
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def iterate(self, recorder=None):
        """One checked iteration; returns (Iteration, CheckResult)."""
        it = workloads.run_iteration(self.wl, self.cfg, recorder)
        chk = self._check(self.cfg, it, self.reference)
        if not chk.failures:
            self.digests.append(chk.report_digest)
        return it, chk

    def _check(self, cfg, it, reference):
        chk = workloads.check_iteration(self.wl, cfg, it, reference)
        self.attempted += 1
        if chk.failures:
            self.failed += 1
            self.failures.append("; ".join(chk.failures))
        return chk

    def warm_up(self) -> None:
        """Fill caches and finish lazy imports on a small horizon, unchecked."""
        small = self.wl.experiment(self.seed, self.workdir, min(self.cfg["T"], self.wl.smoke_T))
        workloads.run_iteration(self.wl, small)

    def reference_check(self) -> bool:
        """For a seed with no recorded reference, also check one iteration
        at the default seed against its record; True if it ran."""
        if self.reference is not None or self.horizon is not None:
            return False
        seed = workloads.DEFAULT_SEED
        reference = workloads.reference_for(workloads.load_reference(), self.wl, seed)
        if reference is None:
            return False
        cfg = self.wl.experiment(seed, self.workdir)
        self._check(cfg, workloads.run_iteration(self.wl, cfg), reference)
        return True

    def keep_going(self, t_start: float, passes: int, min_passes: int) -> bool:
        """Whether another pass fits in --seconds at the mean pass time so far."""
        elapsed = time.perf_counter() - t_start
        if passes < min_passes:
            return elapsed < MAX_MEASURE_S
        return elapsed + elapsed / passes <= self.seconds and elapsed < MAX_MEASURE_S

    def finish(self) -> None:
        """A report that differs between iterations of one seed is a failure."""
        mismatched = sum(d != self.digests[0] for d in self.digests)
        if mismatched:
            self.failed += mismatched
            self.failures.append(f"{mismatched} report(s) differ from the first iteration's")


def measure_end_to_end(s: Measurement) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    if not s.reference_check():
        s.warm_up()
    setup_probe(s.cfg)  # writes bytecode caches; not counted
    runs, iterations, run_slow, setups, setup_slow = [], [], [], [], []
    while True:
        it, _ = s.iterate()
        runs.append(it.run_s)
        iterations.append(it.run_s + it.audit_s)
        cal = s.calibrator.sample(CAL_SHARE * iterations[-1])
        run_slow.append(slowness(cal, s.wl.host_signal))
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(s.cfg))
            setup_slow.append(slowness(s.calibrator.sample(), SETUP_SIGNAL))
        if not s.keep_going(t_start, len(runs), MIN_ITERATIONS):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(s.cfg))
        setup_slow.append(slowness(s.calibrator.sample(), SETUP_SIGNAL))
    run_s = host_scaled(runs, run_slow)
    metrics = {
        "setup_s": host_scaled(setups, setup_slow),
        "run_s": run_s,
        "rounds_per_s": s.wl.rounds(s.horizon) / run_s,
        "iteration_s": host_scaled(iterations, run_slow),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"run_s": runs, "iteration_s": iterations, "run_slowness": run_slow,
                     "setup_s": setups, "setup_slowness": setup_slow}


def measure_per_layer(s: Measurement) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    if not s.reference_check():
        s.warm_up()
    tracer = spans.Tracer()
    names = tracer.recorder.names
    untraced, traced, remainders, layer_runs, kept = [], [], [], [], []
    while True:
        it, _ = s.iterate()
        untraced.append(it.run_s)
        tracer.recorder.run_id = len(traced)
        tracer.install()
        try:
            it, chk = s.iterate(tracer.recorder)
        finally:
            tracer.uninstall()
        sp = tracer.recorder.take()
        kept.append(sp)
        traced.append(it.run_s)
        s.calibrator.sample()
        layers = spans.per_layer_metrics(sp, names)
        layers["harness.output_bytes"] = chk.output_bytes
        layers["harness.report_identical"] = chk.report_identical
        layers["types.traces_identical"] = chk.traces_identical
        layer_runs.append(layers)
        remainders.append(it.run_s - spans.run_root_self_sum(sp, names))
        if not s.keep_going(t_start, len(traced), MIN_TRACED_PAIRS):
            break
    memory = spans.MemoryTracer()
    memory.install()
    try:
        s.iterate()
    finally:
        memory.uninstall()

    metrics = memory.metrics()
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if name in spans.EXACT_COUNTS:
            if len(set(values)) > 1:
                s.failed += 1
                s.failures.append(f"{name} differs between runs of one seed: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = _median(values)
    metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
    metrics["trace.remainder_s"] = _median(remainders)
    metrics = {name: metrics[name] for name in spans.PER_LAYER}

    np.savez(
        _results_path(s, "spans.npz"),
        names=np.array(names),
        **{k: np.concatenate([sp[k] for sp in kept])
           for k in ("name", "parent", "run", "start", "end")},
    )
    return metrics, {"untraced_run_s": untraced, "traced_run_s": traced, "layers": layer_runs}


def _results_path(s: Measurement, suffix: str) -> Path:
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    return OUT / "results" / f"{s.wl.name}-seed{s.seed}-{suffix}"


def _print_summary(s: Measurement, trace: int, metrics: dict, units: dict, samples: dict) -> None:
    print(f"workload {s.wl.name}  seed {s.seed}  trace {trace}  attempted {s.attempted}  "
          f"failed {s.failed}  failed_share {s.failed / s.attempted:.3f}")
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:30s} {shown} {units[name]}")
    if trace == 0:
        for name in ("run_s", "iteration_s", "setup_s"):
            raw = samples[name]
            print(f"  raw {name} over {len(raw)} samples: min {min(raw):.4f} "
                  f"median {_median(raw):.4f} max {max(raw):.4f}")
    else:
        print(f"  run_s {_median(samples['untraced_run_s']):.4f} untraced vs "
              f"{_median(samples['traced_run_s']):.4f} traced, "
              f"{len(samples['traced_run_s'])} of each")
    for part in CAL_REF_S:
        cal = [c[part] for c in s.calibrator.samples]
        print(f"  calibration {part}: median {_median(cal):.5f} over {len(cal)} samples "
              f"(min {min(cal):.5f}, max {max(cal):.5f})")
    for failure in s.failures:
        print(f"  FAILED: {failure}")


def run(name: str, seed: int, seconds: float, trace: int, horizon: int | None,
        environment: dict) -> dict:
    """Measure one workload and return the benchmark's result object."""
    with Calibrator() as calibrator:
        s = Measurement(name, seed, seconds, horizon, calibrator)
        if trace:
            metrics, samples = measure_per_layer(s)
            units = spans.PER_LAYER
        else:
            metrics, samples = measure_end_to_end(s)
            units = END_TO_END
    s.finish()
    _print_summary(s, trace, metrics, units, samples)
    _results_path(s, f"trace{trace}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "horizon": horizon, "environment": environment, "metrics": metrics,
        "samples": samples, "calibration_s": calibrator.samples, "failures": s.failures,
    }, indent=1))
    return {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
