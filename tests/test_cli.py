import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fair_experts.cli import main
from fair_experts.harness import ExperimentConfig, run_experiment

SRC = Path(__file__).resolve().parent.parent / "src"


def _small_config_file(tmp_path, **over):
    data = dict(
        scenario={"kind": "t3_synthetic", "rates": [0.2, 0.6], "groups": 2},
        learner={"kind": "per_group_mw", "eta": 0.1},
        T=40,
        reps=2,
    )
    data.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


class TestPresetCommand:
    def test_stdout(self, capsys):
        assert main(["preset", "theorem3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T"] == 50000
        assert payload["learner"] == {"eta": 0.05, "kind": "per_group_mw"}
        assert "out_dir" not in payload and "keep_traces" not in payload

    def test_saved_file_is_runnable(self, tmp_path, capsys):
        assert main(["preset", "theorem4", "--out", str(tmp_path)]) == 0
        saved = json.loads((tmp_path / "config.json").read_text())
        cfg = ExperimentConfig.from_dict(saved)
        cfg.validate()
        assert cfg.scenario == {"kind": "t4"}

    def test_unknown_name(self):
        with pytest.raises(SystemExit) as exc:
            main(["preset", "theorem9"])
        assert exc.value.code == 2

    def test_out_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["preset", "theorem4", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and str(taken) in err


class TestRunCommand:
    def test_from_config_file(self, tmp_path, capsys):
        cfg = _small_config_file(tmp_path)
        out = tmp_path / "exp"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        agg = json.loads(capsys.readouterr().out)
        assert agg["runs"] == 2
        assert (out / "report.json").is_file()
        assert (out / "summary.csv").is_file()

    def test_from_preset_with_overrides(self, capsys):
        rc = main(["run", "--preset", "theorem3", "--T", "60", "--reps", "2",
                   "--seed", "7"])
        assert rc == 0
        agg = json.loads(capsys.readouterr().out)
        assert agg["runs"] == 2
        assert "eer" in agg["gaps"]

    def test_scenario_override_replaces_block(self, tmp_path, capsys):
        cfg = _small_config_file(tmp_path)
        rc = main([
            "run", "--config", str(cfg),
            "--scenario", '{"kind": "t4"}',
            "--learner", '{"kind": "single_mw", "eta": 0.2}',
        ])
        assert rc == 0
        capsys.readouterr()

    def test_config_and_preset_are_exclusive(self, tmp_path):
        cfg = _small_config_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--preset", "theorem3"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("case, reason", [
        ("config_is_a_directory", "Is a directory"),
        ("config_not_utf8", "config file is not valid JSON: 'utf-8' codec can't decode"),
        ("out_is_a_file", "File exists"),
    ])
    def test_unusable_path(self, tmp_path, capsys, case, reason):
        cfg = _small_config_file(tmp_path)
        args = ["run", "--config", str(cfg)]
        if case == "config_is_a_directory":
            args = ["run", "--config", str(tmp_path)]
        elif case == "config_not_utf8":
            cfg.write_bytes(b"\xff" + cfg.read_bytes())
        else:
            (tmp_path / "taken").write_text("")
            args += ["--out", str(tmp_path / "taken")]
        assert main(args) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and reason in last

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = _small_config_file(tmp_path, horizon=10)
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("over", [{"T": "100"}, {"T": 1000.0}])
    def test_mistyped_config_value(self, tmp_path, capsys, over):
        cfg = _small_config_file(tmp_path, **over)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("over, match", [
        ({"T": 2.5}, "T must be an integer, got 2.5"),
        ({"T": "4"}, "T must be an integer, got '4'"),
        ({"T": True}, "T must be an integer, got True"),
        ({"base_seed": -3}, "base_seed must be >= 0, got -3"),
        ({"base_seed": 1.7}, "base_seed must be an integer, got 1.7"),
    ])
    def test_bad_horizon_or_seed_in_the_config(self, tmp_path, capsys, over, match):
        cfg = _small_config_file(tmp_path, **over)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {match}\n"

    @pytest.mark.parametrize("flag, value, match", [
        ("--seed", "-3", "base_seed must be >= 0, got -3"),
        ("--T", "-1", "T must be >= 0, got -1"),
    ])
    def test_bad_horizon_or_seed_on_the_command_line(self, capsys, flag, value, match):
        # --seed -3 ended in numpy's ValueError and a traceback, exit 1
        assert main(["run", "--preset", "theorem4", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {match}\n"

    @pytest.mark.parametrize("over", [
        {"scenario": "t4"},
        {"learner": "single_mw"},
        {"out_dir": 5},
        {"formats": 5},
        {"keep_traces": "no"},
    ], ids=["scenario-str", "learner-str", "out_dir-int", "formats-int", "keep_traces-str"])
    def test_config_of_wrong_shape(self, tmp_path, capsys, over):
        cfg = _small_config_file(tmp_path, **over)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_config_file_holding_a_list(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"scenario": {"kind": "t4"}}]))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("learner", [
        '{"kind": "fpl", "eta": "0.1", "grid_m": 2.5}',
        '{"kind": "fpl", "eta": 0.1, "grid_m": 2.5}',
        '{"kind": "per_group_fixed_share", "eta": 0.1, "switches": 1.5}',
        '{"kind": "per_group_fixed_share", "eta": 0.1, "rho": true}',
    ])
    def test_mistyped_learner_value(self, tmp_path, capsys, learner):
        cfg = _small_config_file(tmp_path)
        assert main(["run", "--config", str(cfg), "--learner", learner]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("scenario", [
        '{"kind": "random_iid", "d": 2.5, "groups": 2}',
        '{"kind": "random_iid", "d": true, "groups": 2}',
        '{"kind": "t3_synthetic", "rates": ["0.2", "0.6"]}',
        '{"kind": "random_iid", "groups": 2, "group_probs": [0.5, "0.5"]}',
    ], ids=["d-float", "d-bool", "rates-str", "group_probs-str"])
    def test_mistyped_scenario_value(self, tmp_path, capsys, scenario):
        cfg = _small_config_file(tmp_path)
        assert main(["run", "--config", str(cfg), "--scenario", scenario]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_invalid_override_value(self, tmp_path, capsys):
        cfg = _small_config_file(tmp_path)
        assert main(["run", "--config", str(cfg), "--epsilon", "1.5"]) == 2
        assert main(["run", "--config", str(cfg), "--scenario", "[1,2]"]) == 2

    def test_progress_goes_to_stderr(self, tmp_path, capsys):
        cfg = _small_config_file(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "running 2 repetition(s)" in captured.err
        json.loads(captured.out)


class TestAuditCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        cfg = ExperimentConfig(
            scenario={"kind": "t1", "epsilon": 0.01},
            learner={"kind": "single_mw", "eta": 0.1},
            T=2000,
            reps=1,
            retain="full",
            out_dir=str(tmp_path / "exp"),
        )
        run_experiment(cfg)
        return tmp_path / "exp" / "runs" / "run_000.jsonl"

    def test_audit_output(self, trace_path, capsys):
        assert main(["audit", "--trace", str(trace_path), "--metric", "fnr",
                     "--tolerance", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T"] == 2000
        assert payload["learner"]["metric"] == "fnr"
        assert set(payload["learner"]["per_group"]) == {"A", "B"}
        assert len(payload["experts"]) == 2
        # the all-negative expert has FNR 1 on both groups, hence gap 0
        e0 = payload["experts"][0]
        assert e0["per_group"] == {"A": 1.0, "B": 1.0}
        assert e0["gap"] == 0.0 and e0["passed"] is True

    def test_default_metric_is_eer(self, trace_path, capsys):
        assert main(["audit", "--trace", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["learner"]["metric"] == "eer"

    def test_missing_trace(self, tmp_path, capsys):
        assert main(["audit", "--trace", str(tmp_path / "gone.jsonl")]) == 2

    def test_trace_path_is_a_directory(self, tmp_path, capsys):
        assert main(["audit", "--trace", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path) in err

    @pytest.mark.parametrize("line,edit", [
        pytest.param(1, None, id="empty"),
        pytest.param(2, lambda row: "{not json", id="not-json"),
        pytest.param(3, lambda row: json.dumps({k: v for k, v in json.loads(row).items() if k != "p"}),
                     id="no-p"),
        pytest.param(2, lambda row: json.dumps({**json.loads(row), "p": [0.9, 0.9]}), id="off-simplex"),
        pytest.param(3, lambda row: json.dumps({**json.loads(row), "losses": [0.0, 2.0]}),
                     id="loss-range"),
        pytest.param(2, lambda row: json.dumps({**json.loads(row), "t": 7}), id="t-order"),
        pytest.param(3, lambda row: "[1, 2]", id="not-object"),
        pytest.param(2, lambda row: row + ", " + row, id="two-values"),
    ])
    def test_malformed_trace(self, trace_path, tmp_path, capsys, line, edit):
        rows = trace_path.read_text().splitlines()[:4]
        bad = tmp_path / "bad.jsonl"
        if edit is None:
            bad.write_text("")
        else:
            rows[line - 1] = edit(rows[line - 1])
            bad.write_text("\n".join(rows) + "\n")
        assert main(["audit", "--trace", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(bad) in err
        if edit is not None:
            assert f"line {line}:" in err


def test_module_entry_point():
    # the subprocess does not inherit pytest's pythonpath setting
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fair_experts.cli", "preset", "theorem5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["shifting_K"] == 2


def _closed_stdout(args, read=0):
    """Exit code and stderr of ``fair-experts`` whose stdout is a pipe that
    its reader closes after ``read`` bytes, or before the command starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r, w = os.pipe()
    if not read:
        os.close(r)
    proc = subprocess.Popen([sys.executable, "-m", "fair_experts.cli", *args],
                            stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    if read:
        assert len(os.read(r, read)) > 0
        os.close(r)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head -c 100`` does, ends the
    command with code 141 and no traceback."""

    def test_audit_closed_after_a_few_bytes(self, tmp_path):
        # 40 experts and 100 groups print about 150 kB, more than a pipe holds,
        # so the command is still writing when the reader goes
        cfg = ExperimentConfig(
            scenario={"kind": "random_iid", "d": 40, "groups": 100},
            learner={"kind": "single_mw", "eta": 0.1},
            T=2000, reps=1, retain="full", out_dir=str(tmp_path / "exp"),
        )
        run_experiment(cfg)
        code, err = _closed_stdout(["audit", "--trace", str(tmp_path / "exp" / "runs" / "run_000.jsonl")],
                                   read=100)
        assert (code, err) == (141, "")

    @pytest.mark.parametrize("args", [["preset", "theorem5"], ["run", "--config", None]],
                             ids=["preset", "run"])
    def test_closed_before_the_first_write(self, tmp_path, args):
        args = [str(_small_config_file(tmp_path)) if a is None else a for a in args]
        code, err = _closed_stdout(args)
        assert code == 141
        assert "Traceback" not in err and "BrokenPipeError" not in err
