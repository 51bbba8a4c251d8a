import csv
import filecmp
import json
import tracemalloc

import numpy as np
import pytest

from fair_experts.harness import (
    DEFAULT_BASE_SEED,
    ExperimentConfig,
    get_preset,
    preset_names,
    run_experiment,
)
from fair_experts.learners import SingleMW
from fair_experts.protocol import run
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
        {"base_seed": -3},
        {"base_seed": 1.7},
        {"base_seed": True},
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


# (T, seed) pairs that are refused, each with its error: T=2.5 blamed the
# scenario, T=True played one round, T="4" raised TypeError, seed 1.7 was
# floored to 1 and seed -1 raised numpy's ValueError
_BAD_HORIZONS_AND_SEEDS = [
    (2.5, 1, "T must be an integer, got 2.5"),
    (True, 1, "T must be an integer, got True"),
    ("4", 1, "T must be an integer, got '4'"),
    (-1, 1, "T must be >= 0, got -1"),
    (4, 1.7, "seed must be an integer, got 1.7"),
    (4, True, "seed must be an integer, got True"),
    (4, "3", "seed must be an integer, got '3'"),
    (4, -1, "seed must be >= 0, got -1"),
]


class _Unstarted:
    """A scenario that fails the test if the protocol starts it."""

    id, d, num_groups = "unstarted", 2, 2

    def start(self, T, seed_seq):
        raise AssertionError("the scenario started")


class TestHorizonAndSeed:
    @pytest.mark.parametrize("T, seed, match", _BAD_HORIZONS_AND_SEEDS)
    def test_run_refuses_them_before_the_scenario_starts(self, T, seed, match):
        with pytest.raises(ConfigError, match=match):
            run(SingleMW(0.1), _Unstarted(), T, seed)
        for learner in ({"kind": "single_mw", "eta": 0.1}, {"kind": "fixed_share", "eta": 0.1}):
            with pytest.raises(ConfigError, match=match):
                run(learner, {"kind": "t4"}, T, seed)

    @pytest.mark.parametrize("T, seed, match", _BAD_HORIZONS_AND_SEEDS)
    def test_run_experiment_refuses_them(self, T, seed, match):
        with pytest.raises(ConfigError, match=match.replace("seed", "base_seed")):
            run_experiment(_small_config(T=T, base_seed=seed))

    def test_integer_types_are_taken(self):
        base = run(SingleMW(0.1), {"kind": "t4"}, 5, 3)
        for T, seed in [(np.int64(5), np.uint8(3)), (np.int8(5), np.int64(3))]:
            trace = run(SingleMW(0.1), {"kind": "t4"}, T, seed)
            assert trace.rng_seed == 3 and type(trace.rng_seed) is int
            assert np.array_equal(trace.distributions, base.distributions)


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


class TestOneTraceAtATime:
    def test_summary_peak_does_not_grow_with_reps(self):
        # each repetition's trace is dropped once its report is built; a
        # sweep that held them all peaked 17 bytes a row higher for each
        # repetition after the first
        T = 300_000

        def traced_peak(reps):
            cfg = ExperimentConfig(
                scenario={"kind": "t2", "b": 0.25, "epsilon": 0.01},
                learner={"kind": "single_mw", "eta": 0.005},
                T=T, epsilon=0.01, reps=reps,
            )
            tracemalloc.start()
            try:
                run_experiment(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(1)  # imports and caches
        one, three = traced_peak(1), traced_peak(3)
        assert three - one < 17 * T / 2, (one, three)

    def test_files_match_the_kept_traces(self, tmp_path):
        kept, dropped = tmp_path / "kept", tmp_path / "dropped"
        res = run_experiment(_small_config(out_dir=str(kept), retain="full", reps=3,
                                           keep_traces=True))
        again = run_experiment(_small_config(out_dir=str(dropped), retain="full", reps=3))
        assert again.traces is None and len(res.traces) == 3
        names = [f"run_{i:03d}.{fmt}" for i in range(3) for fmt in ("jsonl", "csv")]
        assert list(res.paths) == list(again.paths) == ["config", "report", "summary", "runs"]
        assert res.paths["runs"] == [kept / "runs" / name for name in names]
        assert again.paths["runs"] == [dropped / "runs" / name for name in names]
        for i, tr in enumerate(res.traces):
            tr.to_files(jsonl=tmp_path / "t.jsonl", csv=tmp_path / "t.csv")
            for fmt in ("jsonl", "csv"):
                want = (tmp_path / f"t.{fmt}").read_bytes()
                assert (kept / "runs" / f"run_{i:03d}.{fmt}").read_bytes() == want
                assert (dropped / "runs" / f"run_{i:03d}.{fmt}").read_bytes() == want

    def test_runs_directory_without_formats_and_none_for_a_refused_config(self, tmp_path):
        run_experiment(_small_config(out_dir=str(tmp_path / "a"), retain="full", formats=()))
        assert list((tmp_path / "a" / "runs").iterdir()) == []
        with pytest.raises(ConfigError, match="two_pass"):
            run_experiment(_small_config(out_dir=str(tmp_path / "b"), retain="full",
                                         world_mode="two_pass"))
        assert not (tmp_path / "b").exists()


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
