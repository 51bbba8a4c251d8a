import csv
import filecmp
import json

import pytest

from fair_experts.harness import (
    DEFAULT_BASE_SEED,
    ExperimentConfig,
    get_preset,
    preset_names,
    run_experiment,
)
from fair_experts.types import ConfigError


def _small_config(**over):
    base = dict(
        scenario={"kind": "t3_synthetic", "rates": [0.2, 0.6], "groups": 2},
        learner={"kind": "per_group_mw", "eta": 0.1},
        T=40,
        reps=2,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = _small_config(epsilon=0.25, retain="full", shifting_K=3)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        d = _small_config().to_dict()
        d["reserve"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_required_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": {"kind": "t4"}, "T": 10})

    @pytest.mark.parametrize("over", [
        {"reps": 0},
        {"T": -1},
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"alpha": 0.0},
        {"retain": "most"},
        {"world_mode": "three_pass"},
        {"shifting_K": -1},
        {"formats": ("parquet",)},
        {"T": "100"},
        {"T": 1000.0},
        {"T": True},
        {"reps": 2.0},
        {"base_seed": "7"},
        {"shifting_K": 1.5},
        {"epsilon": "0.1"},
        {"alpha": None},
        {"scenario": "t4"},
        {"learner": "single_mw"},
        {"out_dir": 5},
        {"formats": 5},
        {"keep_traces": "no"},
    ])
    def test_validation(self, over):
        # the dataclass itself stays permissive, validate() is the gate
        with pytest.raises(ConfigError):
            _small_config(**over).validate()
        # from_dict runs the same gate on the file form of the config
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**_small_config().to_dict(), **over})

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict([_small_config().to_dict()])

    def test_run_experiment_validates(self):
        with pytest.raises(ConfigError):
            run_experiment(_small_config(reps=0))


class TestPresets:
    def test_names(self):
        assert preset_names() == (
            "theorem1", "theorem2", "theorem3", "theorem4", "theorem5"
        )

    def test_unknown(self):
        with pytest.raises(ConfigError):
            get_preset("theorem6")

    def test_contents(self):
        p3 = get_preset("theorem3")
        assert p3.learner == {"kind": "per_group_mw", "eta": 0.05}
        assert tuple(p3.scenario["rates"]) == (0.1, 0.3, 0.5, 0.7)
        assert p3.T == 50000 and p3.reps == 20
        p5 = get_preset("theorem5")
        assert p5.shifting_K == 2 and p5.retain == "full"
        assert get_preset("theorem2").scenario["b"] == 0.25

    def test_overrides_do_not_mutate(self):
        p = get_preset("theorem3", reps=2, T=100)
        assert p.reps == 2 and p.T == 100
        assert get_preset("theorem3").reps == 20

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            get_preset("theorem3", repetitions=2)


class TestRunExperiment:
    def test_in_memory_run(self):
        res = run_experiment(_small_config())
        assert res.aggregate["runs"] == 2
        assert [r.seed for r in res.reports] == [DEFAULT_BASE_SEED, DEFAULT_BASE_SEED + 1]
        assert res.traces is None
        assert res.paths == {}

    def test_keep_traces(self):
        res = run_experiment(_small_config(keep_traces=True))
        assert len(res.traces) == 2
        assert len(res.traces[0]) == 40

    def test_zero_rounds(self):
        res = run_experiment(_small_config(T=0, reps=1))
        assert res.aggregate["runs"] == 1
        assert res.reports[0].to_dict()["regret"] == 0.0

    @pytest.mark.parametrize("T", [0, 1, 2])
    def test_theorem5_short_horizons(self, T):
        # fixed share derives rho = (switches + 1) / T, capped at 1
        res = run_experiment(get_preset("theorem5", T=T, reps=1))
        assert res.aggregate["runs"] == 1
        assert res.reports[0].to_dict()["T"] == T
        assert res.config["learner"]["rho"] == 1.0

    def test_output_files(self, tmp_path):
        out = tmp_path / "exp"
        res = run_experiment(_small_config(out_dir=str(out), retain="full"))
        for name in ("config.json", "report.json", "summary.csv"):
            assert (out / name).is_file()
        assert sorted(p.name for p in (out / "runs").iterdir()) == [
            "run_000.csv", "run_000.jsonl", "run_001.csv", "run_001.jsonl",
        ]
        report = json.loads((out / "report.json").read_text())
        assert report["aggregate"] == json.loads(json.dumps(res.aggregate))
        assert len(report["runs"]) == 2
        # echoed config reproduces the run when fed back in
        cfg_echo = json.loads((out / "config.json").read_text())
        again = ExperimentConfig.from_dict({**cfg_echo, "retain": "summary"})
        res2 = run_experiment(again)
        assert json.dumps(res2.aggregate, sort_keys=True) == json.dumps(
            res.aggregate, sort_keys=True
        )

    def test_summary_csv_shape(self, tmp_path):
        out = tmp_path / "exp"
        run_experiment(_small_config(out_dir=str(out), reps=3))
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header[:3] == ["run", "seed", "world"]
        assert "eer_gap" in header and "regret" in header
        assert len(body) == 4
        assert [r[0] for r in body] == ["0", "1", "2", "mean"]

    def test_jsonl_only_format(self, tmp_path):
        out = tmp_path / "exp"
        run_experiment(
            _small_config(out_dir=str(out), retain="full", formats=("jsonl",))
        )
        names = {p.name for p in (out / "runs").iterdir()}
        assert names == {"run_000.jsonl", "run_001.jsonl"}

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_experiment(_small_config(out_dir=str(out), retain="full"))
        files = ["config.json", "report.json", "summary.csv",
                 "runs/run_000.jsonl", "runs/run_001.csv"]
        match, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == sorted(files)


class TestWorldModes:
    def test_two_pass_forces_majority_world(self):
        cfg = ExperimentConfig(
            scenario={"kind": "t1", "epsilon": 0.01},
            learner={"kind": "single_mw", "eta": 0.01},
            T=2000,
            reps=3,
            world_mode="two_pass",
        )
        res = run_experiment(cfg)
        worlds = {r.scenario_info["world"] for r in res.reports}
        assert len(worlds) == 1

    def test_two_pass_rejects_worldless_scenarios(self):
        cfg = _small_config(world_mode="two_pass")
        with pytest.raises(ConfigError):
            run_experiment(cfg)
