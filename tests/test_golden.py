"""Golden outputs: SHA-256 digests of what the presets write, held in
``tests/data/golden_outputs.json`` and compared byte for byte.

The manifest covers ``config.json``, ``report.json``, ``summary.csv`` and
``run`` stdout of the five presets (``theorem2`` at ``--reps 2``, and again
at T = 2,000,000, whose 19,801 adaptive rounds MW plays in summary mode),
the ``runs/`` JSONL and CSV traces of ``theorem4``, ``theorem5`` and FPL on
t4, of ``theorem2`` at T = 60,600 (its 600 adaptive rounds cross the
two-expert kernel's chunk edge), of ``theorem3`` at ``--reps 2``, of
``per_group_mw`` on ``random_iid`` with d = 3 and 3 groups (per-group chunk
edges fall mid-block) and of t5 at T = 40,000 against ``single_mw``,
``per_group_mw`` and ``fpl`` (20,000 adaptive rounds, which cross two
8192-row chunks), ``fair-experts audit`` of the first three JSONL traces
and of a labeled one (``theorem1`` at ``--reps 1 --retain full``) with
``--metric`` ``eer``, ``fnr`` and ``fpr``, and ``fair-experts preset`` for
all five. An audit runs inside its run directory, so the ``"trace"`` path
it prints is ``runs/run_000.jsonl`` wherever the outputs are written. It also holds a
grid of ``protocol.run`` calls: each of six scenarios (t1, t2, t3_synthetic,
t4, t5 and ``random_iid`` with d = 3 and 3 groups) against each learner kind,
at T = 0, 1, 7 and 5050, two seeds and both retain modes, one digest per
(scenario, learner) pair over every run's columns, plays, losses (so the
adaptive choices), accumulators and scenario info. The bytes depend
on numpy's ``exp``, so the manifest names the numpy version and the
platform it was recorded with, and the comparison is skipped on another
one.

A change that moves outputs on purpose re-records the manifest and says
which digests moved, and why. Re-recording prints each digest added,
removed or changed against the manifest it replaces:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from fair_experts import cli
from fair_experts.learners import LEARNER_KINDS
from fair_experts.protocol import run

MANIFEST = Path(__file__).resolve().parent / "data" / "golden_outputs.json"

# output name -> ``fair-experts run`` arguments; every preset run writes
# config.json, report.json and summary.csv, and a full one its runs/ traces
RUNS = {
    "theorem1": ["--preset", "theorem1"],
    "theorem2": ["--preset", "theorem2", "--reps", "2"],
    "theorem3": ["--preset", "theorem3"],
    "theorem4": ["--preset", "theorem4"],
    "theorem5": ["--preset", "theorem5"],
    "fpl_t4": ["--preset", "theorem4", "--learner", '{"kind": "fpl", "eta": 0.1}', "--retain", "full"],
    # a labeled trace, for the audits that need labels
    "theorem1_full": ["--preset", "theorem1", "--reps", "1", "--retain", "full"],
    # the adaptive plays themselves, and per-group tables over several chunks
    "theorem2_full": ["--preset", "theorem2", "--T", "60600", "--reps", "1", "--retain", "full"],
    "theorem3_full": ["--preset", "theorem3", "--reps", "2", "--retain", "full"],
    "per_group_mw_iid": ["--preset", "theorem3", "--scenario", '{"kind": "random_iid", "d": 3, "groups": 3}',
                         "--T", "30000", "--reps", "1", "--retain", "full"],
    # declared steps played by the cumulative-loss kinds: t5's 20,000
    # adaptive rounds cross two 8192-row chunks, and t2's 19,801 in summary mode
    **{f"t5_{kind}": ["--preset", "theorem5", "--learner", f'{{"kind": "{kind}", "eta": 0.05}}',
                      "--T", "40000", "--retain", "full"] for kind in ("single_mw", "per_group_mw", "fpl")},
    "theorem2_2m": ["--preset", "theorem2", "--T", "2000000", "--reps", "1"],
}
PRESETS = ("theorem1", "theorem2", "theorem3", "theorem4", "theorem5")
# runs whose JSONL trace is audited, and the metrics it is audited with;
# t4 and t5 label no round, so their fnr and fpr audits are refused
AUDITS = ("theorem4", "theorem5", "fpl_t4", "theorem1_full")
AUDIT_METRICS = ("eer", "fnr", "fpr")
# the protocol.run grid: scenario name -> config, each played by every
# learner kind at every horizon, seed and retain mode below
GRID_SCENARIOS = {
    "t1": {"kind": "t1", "epsilon": 0.01},
    "t2": {"kind": "t2", "b": 0.25, "epsilon": 0.01},
    "t3_synthetic": {"kind": "t3_synthetic", "rates": [0.1, 0.3]},
    "t4": {"kind": "t4"},
    "t5": {"kind": "t5"},
    "random_iid": {"kind": "random_iid", "d": 3, "groups": 3},
}
GRID_T = (0, 1, 7, 5050)
GRID_SEEDS = (0, 1)
GRID_RETAIN = ("summary", "full")


def recorded_with() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(), "system": platform.system()}


def _cli(args) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``fair-experts`` with the given args."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _cli_stdout(args) -> bytes:
    code, out, _ = _cli(args)
    assert code == 0, f"fair-experts {' '.join(args)} exited {code}"
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _grid_digest(scenario: dict, learner: str) -> str:
    """One digest over the grid's runs of a scenario and a learner kind: each
    array's dtype, shape and bytes, and the scenario info, run by run."""
    h = hashlib.sha256()
    for T in GRID_T:
        for seed in GRID_SEEDS:
            for retain in GRID_RETAIN:
                trace = run({"kind": learner, "eta": 0.1}, scenario, T, seed, retain)
                acc = trace.accumulators
                for a in (trace.groups, trace.outcome_codes, trace.expected_loss, trace.distributions,
                          trace.losses, acc.counts, acc.learner_loss, acc.expert_loss):
                    if a is None:
                        h.update(b"none")
                    else:
                        h.update(f"{a.dtype.str} {a.shape}".encode())
                        h.update(np.ascontiguousarray(a).tobytes())
                h.update(json.dumps(trace.scenario_info, sort_keys=True).encode())
    return h.hexdigest()


def golden_digests(workdir: Path) -> dict:
    """Digest of every golden output, written under ``workdir``."""
    digests = {}
    for name in PRESETS:
        digests[f"preset/{name}"] = _sha(_cli_stdout(["preset", name]))
    for name, args in RUNS.items():
        out = workdir / name
        digests[f"{name}/stdout"] = _sha(_cli_stdout(["run", *args, "--out", str(out)]))
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digests[f"{name}/{path.relative_to(out).as_posix()}"] = _sha(path.read_bytes())
    for name in AUDITS:
        with contextlib.chdir(workdir / name):
            for metric in AUDIT_METRICS:
                code, out, err = _cli(["audit", "--trace", "runs/run_000.jsonl", "--metric", metric])
                # stdout of an audit that succeeds, the exit code and the
                # error line of one that is refused
                digests[f"{name}/audit_{metric}"] = _sha(out if code == 0 else b"exit %d\n%s" % (code, err))
    for name, scenario in GRID_SCENARIOS.items():
        for learner in LEARNER_KINDS:
            digests[f"grid/{name}/{learner}"] = _grid_digest(scenario, learner)
    return digests


def moved_digests(old: dict, new: dict) -> list[str]:
    """One line for each digest added, removed or changed from old to new."""
    lines = [f"added {name}" for name in sorted(new.keys() - old.keys())]
    lines += [f"removed {name}" for name in sorted(old.keys() - new.keys())]
    lines += [f"changed {name}" for name in sorted(old.keys() & new.keys()) if old[name] != new[name]]
    return lines


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["recorded_with"] != recorded_with():
        pytest.skip(f"manifest recorded with {manifest['recorded_with']}, running {recorded_with()}")
    assert moved_digests(manifest["digests"], golden_digests(tmp_path)) == []


def test_moved_digests_names_each_change():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "c": "4", "d": "5"}
    assert moved_digests(old, new) == ["added d", "removed b", "changed c"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    old = json.loads(MANIFEST.read_text())["digests"] if MANIFEST.exists() else {}
    for line in moved_digests(old, digests):
        print(line, file=sys.stderr)
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST.write_text(json.dumps({"recorder": "PYTHONPATH=src python tests/test_golden.py",
                                    "recorded_with": recorded_with(), "digests": digests},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
