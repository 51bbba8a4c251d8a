"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_bench.py

Tiny-horizon smoke runs of all four workloads through run.py in both modes,
exact counts that repeat across traced runs of one seed, the output checks,
and the failure exit in a directory without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fair_experts import cli, harness, learners, metrics, types  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _run_cli(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_code():
    assert run.WORKLOAD_ORDER == tuple(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_prints_every_metric(name, trace):
    horizon = workloads.WORKLOADS[name].smoke_T
    proc = _run_cli("--workload", name, "--seed", "3", "--seconds", "0.1",
                    "--trace", str(trace), "--horizon", str(horizon))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced(name, tmp_path, seed=5):
    """Per-layer metrics and spans of one traced tiny-horizon iteration."""
    wl = workloads.WORKLOADS[name]
    cfg = wl.experiment(seed, tmp_path / name, wl.smoke_T)
    tracer = spans.Tracer()
    tracer.install()
    try:
        it = workloads.run_iteration(wl, cfg, tracer.recorder)
    finally:
        tracer.uninstall()
    assert it.error is None
    sp = tracer.recorder.take()
    chk = workloads.check_iteration(wl, cfg, it, None)
    assert chk.failures == []
    return spans.per_layer_metrics(sp, tracer.recorder.names), sp, tracer.recorder.names, it


@pytest.mark.parametrize("name", NAMES)
def test_exact_counts_repeat_for_one_seed(name, tmp_path):
    first, _, _, _ = _traced(name, tmp_path)
    second, _, _, _ = _traced(name, tmp_path)
    for count in spans.EXACT_COUNTS:
        if count in first:
            assert first[count] == second[count], count


def test_layer_counts_match_the_workload_shapes(tmp_path):
    t5 = workloads.WORKLOADS["theorem5_dp"]
    T = t5.smoke_T
    got, _, _, _ = _traced("theorem5_dp", tmp_path)
    assert got["adversaries.step_calls"] == T // 2
    # every round is one next_distribution and one observe, each timed once
    # although PerGroupFixedShare inherits observe from FixedShare
    assert got["learners.round_calls"] == 2 * T
    assert got["learners.block_rows"] == 0
    assert got["metrics.shifting_dp_cells"] == T * 3 * 2

    fpl = workloads.WORKLOADS["fpl_roundtrip"]
    got, _, _, _ = _traced("fpl_roundtrip", tmp_path)
    runs = tmp_path / "fpl_roundtrip" / "runs"
    assert got["learners.block_rows"] == fpl.smoke_T
    assert got["learners.round_calls"] == 0
    assert got["types.rows_read"] == fpl.smoke_T
    assert got["types.bytes_written"] == sum(p.stat().st_size for p in runs.iterdir())
    assert got["types.retained_mb"] > 0


def test_self_times_partition_the_run(tmp_path):
    _, sp, names, it = _traced("theorem2_bait", tmp_path)
    root = names.index("harness.run_experiment")
    root_dur = float((sp["end"] - sp["start"])[sp["name"] == root].sum())
    assert spans.run_root_self_sum(sp, names) == pytest.approx(root_dur, rel=1e-9)
    assert 0.0 <= it.run_s - root_dur < 0.01


def test_uninstall_restores_every_original():
    owners = [harness, metrics, cli, types.Trace, types.TraceBuilder, types.Accumulators,
              learners.FixedShare, learners.FollowPerturbedLeader]
    before = [dict(vars(o)) for o in owners]
    for tracer in (spans.Tracer(), spans.MemoryTracer()):
        tracer.install()
        assert harness.run is not before[0]["run"]
        tracer.uninstall()
    assert [dict(vars(o)) for o in owners] == before


def test_checks_fail_on_wrong_values_and_count_digests(tmp_path):
    wl = workloads.WORKLOADS["fpl_roundtrip"]
    cfg = wl.experiment(1, tmp_path / "out", wl.smoke_T)
    it = workloads.run_iteration(wl, cfg)
    out = Path(cfg["out_dir"])
    reference = workloads.record(wl, out)
    chk = workloads.check_iteration(wl, cfg, it, reference)
    assert chk.failures == [] and chk.report_identical == 1 and chk.traces_identical == 2

    # a changed trace file is counted, not failed
    csv_path = out / "runs" / "run_000.csv"
    csv_path.write_text(csv_path.read_text() + "\n")
    chk = workloads.check_iteration(wl, cfg, it, reference)
    assert chk.failures == [] and chk.traces_identical == 1

    # a report value outside the tolerance fails
    report = json.loads((out / "report.json").read_text())
    report["aggregate"]["regret"]["mean"] += 1e-3
    (out / "report.json").write_text(json.dumps(report))
    chk = workloads.check_iteration(wl, cfg, it, reference)
    assert any("regret" in f for f in chk.failures)
    assert chk.report_identical == 0

    # the audit read-back must agree with the report
    it.audit["learner"]["per_group"]["A"] += 0.5
    assert any("audit EER" in f for f in workloads.check_iteration(wl, cfg, it, None).failures)


def test_raising_iteration_is_a_failure(tmp_path):
    wl = workloads.WORKLOADS["theorem3_reps"]
    cfg = wl.experiment(1, tmp_path / "out", wl.smoke_T)
    cfg["learner"] = {"kind": "no_such_learner"}
    it = workloads.run_iteration(wl, cfg)
    assert it.error is not None
    assert workloads.check_iteration(wl, cfg, it, None).failures


def test_reference_applies_to_seed_independent_workloads_only():
    ref = workloads.load_reference()
    for wl in workloads.WORKLOADS.values():
        assert workloads.reference_for(ref, wl, workloads.DEFAULT_SEED) is not None
        assert workloads.reference_for(ref, wl, workloads.HELD_OUT_SEED) is not None
        assert workloads.reference_for(ref, wl, workloads.DEFAULT_SEED, T=wl.smoke_T) is None
        assert (workloads.reference_for(ref, wl, 777) is None) == (not wl.seed_independent)


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "theorem3_reps", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
