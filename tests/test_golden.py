"""Golden outputs: SHA-256 digests of what the presets write, held in
``tests/data/golden_outputs.json`` and compared byte for byte.

The manifest covers ``config.json``, ``report.json``, ``summary.csv`` and
``run`` stdout of the five presets (``theorem2`` at ``--reps 2``), the
``runs/`` JSONL and CSV traces of ``theorem4``, ``theorem5`` and FPL on t4,
and ``fair-experts preset`` for all five. The bytes depend on numpy's
``exp``, so the manifest names the numpy version and the platform it was
recorded with, and the comparison is skipped on another one.

A change that moves outputs on purpose re-records the manifest and says
which digests moved, and why:

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
}
PRESETS = ("theorem1", "theorem2", "theorem3", "theorem4", "theorem5")


def recorded_with() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(), "system": platform.system()}


def _cli_stdout(args) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    assert code == 0, f"fair-experts {' '.join(args)} exited {code}"
    return out.getvalue().encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    return digests


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["recorded_with"] != recorded_with():
        pytest.skip(f"manifest recorded with {manifest['recorded_with']}, running {recorded_with()}")
    got = golden_digests(tmp_path)
    want = manifest["digests"]
    assert sorted(got) == sorted(want)
    moved = sorted(name for name in want if got[name] != want[name])
    assert moved == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_digests(Path(tmp))
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST.write_text(json.dumps({"recorder": "PYTHONPATH=src python tests/test_golden.py",
                                    "recorded_with": recorded_with(), "digests": digests},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)
