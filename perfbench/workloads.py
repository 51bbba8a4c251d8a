"""The four benchmark workloads, how one iteration runs, and its output checks.

Each workload is a fixed experiment config (frozen here, so a later change to
the library's presets does not silently change the benchmark), a reason for
being in the set, and the acceptance-criterion quantities its output must
meet. ``--seed`` becomes the experiment's ``base_seed``.

An iteration is what a user of the workload does: ``run_experiment`` into a
fresh output directory and, for ``fpl_roundtrip``, ``fair-experts audit`` on
the saved JSONL called in-process through ``fair_experts.cli.main``.

Checks come in two kinds. Criterion checks and reference-value comparisons
(within ``REL_TOL``/``ABS_TOL`` of the values recorded at the commit that
defined the benchmark) decide ``failed``. Digest comparisons against the same
record are exact counts (``harness.report_identical``,
``types.traces_identical``), not failures, because a kernel may change float
rounding within the tolerance.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from fair_experts import cli, harness

DEFAULT_SEED = 12345
HELD_OUT_SEED = 54321

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Report values may move by float rounding only, within these tolerances.
REL_TOL = 1e-7
ABS_TOL = 1e-9

# Keys whose values are the seed itself; dropped before comparing reports
# across seeds.
_SEED_KEYS = ("seed", "base_seed")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    smoke_T: int
    audit: bool = False
    # True when no scenario randomness is drawn, so every seed yields the
    # same report values and the same trace bytes.
    seed_independent: bool = True
    trace_files: tuple = ()
    # The calibration parts (calibrate.py) whose time moves with this
    # workload's as the host's speed changes; bench.py scales by them.
    host_signal: tuple = ("python_s", "json_s")

    def experiment(self, seed: int, out_dir: Path, T: int | None = None) -> dict:
        cfg = copy.deepcopy(self.config)
        cfg["base_seed"] = int(seed)
        cfg["out_dir"] = str(out_dir)
        if T is not None:
            cfg["T"] = int(T)
        return cfg

    def rounds(self, T: int | None = None) -> int:
        return (T or self.config["T"]) * self.config["reps"]


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="theorem2_bait",
            why=(
                "theorem2 at T=4M, 2 reps, no trace files: the 39,603-round adaptive "
                "loop plus numpy over 3.96M rows; sets peak memory; no I/O, no DP"
            ),
            config={
                "scenario": {"kind": "t2", "b": 0.25, "epsilon": 0.01},
                "learner": {"kind": "single_mw", "eta": 0.005},
                "T": 4_000_000,
                "epsilon": 0.01,
                "reps": 2,
                "retain": "summary",
                "formats": [],
            },
            smoke_T=101_000,
            seed_independent=False,
        ),
        Workload(
            name="theorem3_reps",
            why=(
                "theorem3 as is, 20 reps x 50k rounds: per-run fixed costs, build_report "
                "and aggregation; the only per-group run_block path; no DP, no I/O"
            ),
            config={
                "scenario": {
                    "kind": "t3_synthetic",
                    "rates": [0.1, 0.3, 0.5, 0.7],
                    "groups": 2,
                    "schedule": "blocks",
                    "kappa": 0.0,
                },
                "learner": {"kind": "per_group_mw", "eta": 0.05},
                "T": 50_000,
                "epsilon": 0.1,
                "alpha": 0.3,
                "reps": 20,
                "retain": "summary",
            },
            smoke_T=1_000,
        ),
        Workload(
            name="theorem5_dp",
            why=(
                "theorem5 with formats []: 100k rounds through the per-round loop and "
                "the K=2 shifting-comparator DP; no trace I/O, no block path"
            ),
            config={
                "scenario": {"kind": "t5"},
                "learner": {"kind": "per_group_fixed_share", "eta": 0.05, "switches": 2},
                "T": 100_000,
                "reps": 1,
                "retain": "full",
                "shifting_K": 2,
                "formats": [],
            },
            smoke_T=2_000,
        ),
        Workload(
            name="fpl_roundtrip",
            why=(
                "FPL on t4 at T=100k with JSONL and CSV traces, then audit of the "
                "JSONL: FPL block kernel, trace write and read; no round loop, no DP"
            ),
            config={
                "scenario": {"kind": "t4"},
                "learner": {"kind": "fpl", "eta": 0.1},
                "T": 100_000,
                "reps": 1,
                "retain": "full",
                "formats": ["jsonl", "csv"],
            },
            smoke_T=2_000,
            audit=True,
            trace_files=("runs/run_000.jsonl", "runs/run_000.csv"),
            # Over 18 iterations on a shared host, log iteration time
            # against log calibration time had slope 0.98 for the numpy
            # part and 0.52 for the Python part.
            host_signal=("numpy_s",),
        ),
    )
}


# -- one iteration ------------------------------------------------------------


@dataclass
class Iteration:
    """Timings and outputs of one iteration; ``error`` is set if it raised."""

    run_s: float = 0.0
    audit_s: float = 0.0
    audit: dict | None = None
    error: str | None = None


def run_iteration(wl: Workload, cfg: dict, recorder=None) -> Iteration:
    """Run one iteration into a fresh ``cfg["out_dir"]``.

    With a recorder, the ``run_experiment`` and ``cli.main`` calls are the
    root spans of the traced layers.
    """
    out = Path(cfg["out_dir"])
    shutil.rmtree(out, ignore_errors=True)
    it = Iteration()
    span = recorder.span if recorder is not None else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter()
    try:
        with span("harness.run_experiment"):
            harness.run_experiment(cfg)
        it.run_s = time.perf_counter() - t0
        if wl.audit:
            buf = io.StringIO()
            argv = ["audit", "--trace", str(out / wl.trace_files[0]), "--metric", "eer"]
            t1 = time.perf_counter()
            with span("cli.main"), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            it.audit_s = time.perf_counter() - t1
            if code != 0:
                raise RuntimeError(f"audit exited with code {code}")
            it.audit = json.loads(buf.getvalue())
    except Exception as exc:  # an iteration that raises is counted as failed
        elapsed = time.perf_counter() - t0
        if it.run_s == 0.0:
            it.run_s = elapsed
        it.error = f"{type(exc).__name__}: {exc}"
    return it


# -- checks -------------------------------------------------------------------


def report_digest(report: dict) -> str:
    """Digest of a report with the seed fields removed."""
    return hashlib.sha256(
        json.dumps(_strip_seeds(report), sort_keys=True).encode()
    ).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _strip_seeds(obj):
    if isinstance(obj, dict):
        return {k: _strip_seeds(v) for k, v in obj.items() if k not in _SEED_KEYS}
    if isinstance(obj, list):
        return [_strip_seeds(v) for v in obj]
    return obj


def _numeric_leaves(obj, prefix=""):
    """Flatten nested dicts/lists to {path: number} for numeric leaves."""
    out = {}
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.update(_numeric_leaves(obj[k], f"{prefix}/{k}"))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_numeric_leaves(v, f"{prefix}/{i}"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = obj
    return out


def reference_values(report: dict) -> dict:
    """The report values recorded as the reference: every number in the
    aggregate, plus each run's world and shifting-comparator result."""
    values = _numeric_leaves(report["aggregate"], "aggregate")
    for i, run in enumerate(report["runs"]):
        if run["shifting"] is not None:
            values.update(_numeric_leaves(run["shifting"], f"runs/{i}/shifting"))
    return values


def _worlds(report: dict) -> list:
    return [run["scenario_info"].get("world") for run in report["runs"]]


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(ref: dict, wl: Workload, seed: int, T: int | None = None) -> dict | None:
    """The record to compare against, or None when none applies."""
    if T is not None and T != wl.config["T"]:
        return None
    entry = ref.get(wl.name, {})
    key = str(DEFAULT_SEED) if wl.seed_independent else str(seed)
    return entry.get(key)


def record(wl: Workload, out_dir: Path) -> dict:
    """Reference record for the output of one iteration in ``out_dir``."""
    report = json.loads((out_dir / "report.json").read_text())
    return {
        "report_digest": report_digest(report),
        "trace_digests": {f: file_digest(out_dir / f) for f in wl.trace_files},
        "worlds": _worlds(report),
        "values": reference_values(report),
    }


@dataclass
class CheckResult:
    failures: list
    report_identical: int
    traces_identical: int
    report_digest: str
    output_bytes: int


def check_iteration(
    wl: Workload, cfg: dict, it: Iteration, reference: dict | None
) -> CheckResult:
    """Check one iteration's outputs; any failure makes the iteration failed."""
    out = Path(cfg["out_dir"])
    failures: list[str] = []
    if it.error is not None:
        return CheckResult([it.error], 0, 0, "", 0)
    expected_files = ["config.json", "report.json", "summary.csv", *wl.trace_files]
    missing = [f for f in expected_files if not (out / f).is_file()]
    runs_dir = out / "runs"
    extra = sorted(
        str(p.relative_to(out))
        for p in (runs_dir.iterdir() if runs_dir.is_dir() else ())
        if str(p.relative_to(out)) not in wl.trace_files
    )
    if missing:
        failures.append(f"missing output files {missing}")
    if extra:
        failures.append(f"unexpected trace files {extra}")
    if missing:
        return CheckResult(failures, 0, 0, "", 0)
    report = json.loads((out / "report.json").read_text())
    failures += _criterion_failures(wl, cfg, report, it)

    report_identical = traces_identical = 0
    if reference is not None:
        got = reference_values(report)
        want = reference["values"]
        if sorted(got) != sorted(want):
            failures.append("report value set differs from the reference")
        else:
            for key, w in want.items():
                g = got[key]
                if not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    failures.append(f"{key}: {g!r} vs reference {w!r}")
        if _worlds(report) != reference["worlds"]:
            failures.append(f"worlds {_worlds(report)} vs reference {reference['worlds']}")
        report_identical = int(report_digest(report) == reference["report_digest"])
        traces_identical = sum(
            file_digest(out / f) == d for f, d in reference["trace_digests"].items()
        )
    output_bytes = sum((out / f).stat().st_size for f in ("config.json", "report.json", "summary.csv"))
    return CheckResult(
        failures, report_identical, traces_identical, report_digest(report), output_bytes
    )


def _criterion_failures(wl: Workload, cfg: dict, report: dict, it: Iteration) -> list[str]:
    """The acceptance-criterion quantities of the workload's preset."""
    fails: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            fails.append(what)

    agg = report["aggregate"]
    runs = report["runs"]
    rates = agg["learner_metrics"]
    need(len(runs) == cfg["reps"], f"{len(runs)} runs for {cfg['reps']} reps")
    need(all(r["T"] == cfg["T"] for r in runs), "a run's T differs from the config")
    if wl.name == "theorem2_bait":
        # criterion 4
        b, T = cfg["scenario"]["b"], cfg["T"]
        needed = 0.5 * b * T / (101.0 * 101.0)
        qualifying = [r["subpopulation_sizes"]["fnr"]["A"] for r in runs]
        fnr_a, fnr_b = rates["fnr"]["A"]["mean"], rates["fnr"]["B"]["mean"]
        need(all(w == "b" for w in _worlds(report)), f"worlds {_worlds(report)} not all b")
        need(min(qualifying) >= needed, f"qualifying rounds {qualifying} < {needed:.2f}")
        need(fnr_a >= 0.9, f"mean FNR(A) {fnr_a} < 0.9")
        need(fnr_b <= 0.51 / (1 - b) + 0.05, f"mean FNR(B) {fnr_b} too high")
        need(fnr_a - fnr_b >= 0.2, f"FNR gap {fnr_a - fnr_b} < 0.2")
    elif wl.name == "theorem3_reps":
        # criterion 1
        alpha, eta = cfg["alpha"], cfg["learner"]["eta"]
        d, groups = len(cfg["scenario"]["rates"]), cfg["scenario"]["groups"]
        gap = agg["gaps"]["eer"]["mean_run_gap"]["mean"]
        worst = max(max(r["approx_regret"]) for r in runs)
        bound = 6 * groups * math.log(d) / eta
        need(gap <= alpha, f"mean EER gap {gap} > alpha {alpha}")
        need(worst <= bound, f"approx regret {worst} > {bound}")
    elif wl.name == "theorem5_dp":
        # criterion 6, on what the report carries
        run = runs[0]
        info = run["scenario_info"]
        eer_a, eer_b = run["learner_metrics"]["eer"]["A"], run["learner_metrics"]["eer"]["B"]
        shifting = run["shifting"]
        need(shifting is not None and shifting["K"] == 2, "no K=2 shifting comparator")
        if shifting is not None:
            need(shifting["switches"] <= 2, f"comparator uses {shifting['switches']} switches")
        need(
            info["phase2_rounds"] + info["phase3_rounds"] == cfg["T"] // 2,
            "phase identity broken",
        )
        need(eer_a >= 0.45, f"EER(A) {eer_a} < 0.45")
        need(eer_b <= 0.1, f"EER(B) {eer_b} > 0.1")
        need(eer_a - eer_b >= 0.35, f"EER gap {eer_a - eer_b} < 0.35")
    elif wl.name == "fpl_roundtrip":
        # criterion 5, and the audit read-back must reproduce the report
        eer = runs[0]["learner_metrics"]["eer"]
        need(eer["B"] - eer["A"] >= 0.5, f"EER(B)-EER(A) {eer['B'] - eer['A']} < 0.5")
        audit = it.audit or {}
        need(audit.get("T") == cfg["T"], f"audit read {audit.get('T')} rounds")
        per_group = audit.get("learner", {}).get("per_group")
        need(per_group == eer, f"audit EER {per_group} != report EER {eer}")
        for f, entry in enumerate(audit.get("experts", [])):
            want = runs[0]["expert_metrics"][f]["eer"]
            need(entry["per_group"] == want, f"audit expert {f} EER differs from report")
    return fails
