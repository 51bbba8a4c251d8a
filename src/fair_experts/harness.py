"""Experiment harness: seeded repetitions with summaries written to disk.

An experiment is (scenario config, learner config, horizon, repetitions).
Run i uses seed base_seed + i, so a config reruns to byte-identical output
files.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import numbers
from pathlib import Path
from typing import Mapping

import numpy as np

from .adversaries import make_scenario
from .learners import make_learner
from .metrics import METRICS, MetricReport, aggregate_reports, build_report
from .protocol import run
from .types import ConfigError, Trace, require_type

DEFAULT_BASE_SEED = 12345

RETAIN_MODES = ("summary", "full")
WORLD_MODES = ("realized", "two_pass")
TRACE_FORMATS = ("jsonl", "csv")

# Numeric fields checked by type before their ranges; shifting_K may be None.
_TYPED_FIELDS = (
    ("T", numbers.Integral, "an integer"),
    ("reps", numbers.Integral, "an integer"),
    ("base_seed", numbers.Integral, "an integer"),
    ("shifting_K", numbers.Integral, "an integer or null"),
    ("epsilon", numbers.Real, "a number"),
    ("alpha", numbers.Real, "a number"),
)


@dataclasses.dataclass
class ExperimentConfig:
    scenario: dict
    learner: dict
    T: int
    epsilon: float = 0.1
    alpha: float = 0.3
    reps: int = 1
    base_seed: int = DEFAULT_BASE_SEED
    retain: str = "summary"
    shifting_K: int | None = None
    world_mode: str = "realized"
    out_dir: str | None = None
    formats: tuple = TRACE_FORMATS
    keep_traces: bool = False

    def validate(self) -> None:
        for name in ("scenario", "learner"):
            if not isinstance(getattr(self, name), Mapping):
                raise ConfigError(f"{name} must be an object, got {getattr(self, name)!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, (str, Path)):
            raise ConfigError(f"out_dir must be a path string or null, got {self.out_dir!r}")
        if not isinstance(self.formats, (list, tuple)):
            raise ConfigError(f"formats must be a list, got {self.formats!r}")
        if not isinstance(self.keep_traces, bool):
            raise ConfigError(f"keep_traces must be true or false, got {self.keep_traces!r}")
        for name, kind, what in _TYPED_FIELDS:
            value = getattr(self, name)
            if value is None and name == "shifting_K":
                continue
            require_type(name, value, kind, what)
        if self.T < 0:
            raise ConfigError(f"T must be >= 0, got {self.T}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if self.retain not in RETAIN_MODES:
            raise ConfigError(f"retain must be one of {RETAIN_MODES}, got {self.retain!r}")
        if self.world_mode not in WORLD_MODES:
            raise ConfigError(f"world_mode must be one of {WORLD_MODES}, got {self.world_mode!r}")
        if self.shifting_K is not None and self.shifting_K < 0:
            raise ConfigError(f"shifting_K must be >= 0, got {self.shifting_K}")
        bad = [f for f in self.formats if f not in TRACE_FORMATS]
        if bad:
            raise ConfigError(f"unknown trace formats {bad}, expected subset of {TRACE_FORMATS}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        if not isinstance(data, Mapping):
            raise ConfigError(f"experiment config must be an object, got {data!r}")
        extra = set(data) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise ConfigError(f"unknown experiment config keys: {sorted(extra)}")
        for key in ("scenario", "learner", "T"):
            if key not in data:
                raise ConfigError(f"experiment config needs {key!r}")
        cfg = cls(**data)
        cfg.validate()
        cfg.scenario = dict(cfg.scenario)
        cfg.learner = dict(cfg.learner)
        cfg.formats = tuple(cfg.formats)
        return cfg

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["formats"] = list(self.formats)
        return out

    def echo(self) -> dict:
        """``to_dict`` without the runtime choices out_dir and keep_traces:
        the experiment as config.json and ``fair-experts preset`` show it."""
        out = self.to_dict()
        del out["out_dir"], out["keep_traces"]
        return out


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


@dataclasses.dataclass
class ExperimentResult:
    config: dict
    reports: list
    aggregate: dict
    traces: list | None
    paths: dict


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _summary_rows(
    reports: list[MetricReport], aggregate: dict, with_shifting: bool
) -> tuple[list[str], list[list[str]]]:
    labels = list(reports[0].learner["eer"].keys())
    header = ["run", "seed", "world"]
    for metric in METRICS:
        header += [f"{metric}_{lab}" for lab in labels] + [f"{metric}_gap"]
    header += ["regret", "min_approx_regret"]
    if with_shifting:
        header += ["shifting_approx_regret", "comparator_switches"]
    rows = []
    for i, rep in enumerate(reports):
        row = [str(i), str(rep.seed), str(rep.scenario_info.get("world", ""))]
        for metric in METRICS:
            row += [_csv_cell(rep.learner[metric][lab]) for lab in labels]
            row.append(_csv_cell(rep.gaps[metric]["gap"]))
        row.append(_csv_cell(rep.regret))
        row.append(_csv_cell(rep.min_approx_regret))
        if with_shifting:
            if rep.shifting is None:
                row += ["", ""]
            else:
                row.append(_csv_cell(rep.shifting["approx_regret"]))
                row.append(str(rep.shifting["switches"]))
        rows.append(row)
    worlds = aggregate.get("worlds", {})
    world_cell = "|".join(f"{w}={worlds[w]}" for w in sorted(worlds))
    agg_row = ["mean", "", world_cell]
    for metric in METRICS:
        for lab in labels:
            agg_row.append(_csv_cell(aggregate["learner_metrics"][metric][lab]["mean"]))
        agg_row.append(_csv_cell(aggregate["gaps"][metric]["gap_of_mean_rates"]))
    agg_row.append(_csv_cell(aggregate["regret"]["mean"]))
    min_apx = aggregate.get("min_approx_regret")
    agg_row.append(_csv_cell(min_apx["mean"] if min_apx else None))
    if with_shifting:
        sh = aggregate.get("shifting_approx_regret")
        agg_row.append(_csv_cell(sh["mean"] if sh else None))
        agg_row.append("")
    rows.append(agg_row)
    return header, rows


def _majority_world(reports: list[MetricReport]) -> str:
    counts = aggregate_reports(reports).get("worlds")
    if not counts:
        raise ConfigError("two_pass world mode needs a scenario that reports a world")
    # ties go to the alphabetically first world, for determinism
    return max(sorted(counts), key=counts.get)


def run_experiment(config: ExperimentConfig | Mapping) -> ExperimentResult:
    """Run all repetitions, aggregate, and (optionally) write the out_dir
    layout: config.json, report.json, summary.csv, and per-run traces under
    runs/ when retain is "full", made before the first repetition. Each
    repetition's trace files are written as soon as its report is built, and
    its trace is then dropped unless keep_traces is set, so a sweep holds one
    trace at a time."""
    if not isinstance(config, ExperimentConfig):
        config = ExperimentConfig.from_dict(config)
    config.validate()
    scenario = make_scenario(config.scenario)
    resolved = config.echo()
    resolved["scenario"] = scenario.config()
    resolved["learner"] = make_learner(
        config.learner, T=config.T, epsilon=config.epsilon, alpha=config.alpha
    ).config()

    if config.world_mode == "two_pass" and scenario.kind not in ("t1", "t2"):
        raise ConfigError(f"two_pass world mode applies to t1/t2 scenarios, not {scenario.kind!r}")
    out = None if config.out_dir is None else Path(config.out_dir)
    write_runs = out is not None and config.retain == "full"
    if out is not None:  # so that a path that cannot be a directory fails at once
        (out / "runs" if write_runs else out).mkdir(parents=True, exist_ok=True)

    def one_run(i: int, scn, retain: str) -> tuple[MetricReport, Trace]:
        # the echo holds every resolved default, so it builds the same learner
        learner = make_learner(resolved["learner"])
        trace = run(learner, scn, config.T, config.base_seed + i, retain=retain)
        return build_report(trace, config.epsilon, config.shifting_K), trace

    if config.world_mode == "two_pass":
        world = _majority_world([one_run(i, scenario, "summary")[0] for i in range(config.reps)])
        scenario = dataclasses.replace(scenario, forced_world=world)
        resolved["scenario"] = scenario.config()

    runs: list = []
    traces = [] if config.keep_traces else None

    def repetition(i: int) -> MetricReport:
        report, trace = one_run(i, scenario, config.retain)
        if write_runs:
            # both formats in one pass over the trace
            files = {fmt: out / "runs" / f"run_{i:03d}.{fmt}"
                     for fmt in TRACE_FORMATS if fmt in config.formats}
            trace.to_files(**files)
            runs.extend(files.values())
        if traces is not None:
            traces.append(trace)
        return report

    reports = [repetition(i) for i in range(config.reps)]
    aggregate = aggregate_reports(reports)

    paths: dict = {}
    if out is not None:
        paths["config"] = out / "config.json"
        _dump_json(paths["config"], resolved)
        paths["report"] = out / "report.json"
        _dump_json(
            paths["report"],
            {
                "config": resolved,
                "aggregate": aggregate,
                "runs": [rep.to_dict() for rep in reports],
            },
        )
        header, rows = _summary_rows(reports, aggregate, config.shifting_K is not None)
        paths["summary"] = out / "summary.csv"
        with open(paths["summary"], "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        if write_runs:
            paths["runs"] = runs

    return ExperimentResult(
        config=resolved,
        reports=reports,
        aggregate=aggregate,
        traces=traces,
        paths=paths,
    )


# Named experiment presets. Horizons and repetition counts are sized so each
# preset demonstrates its effect comfortably above the noise floor while
# finishing in seconds.
PRESETS: dict[str, dict] = {
    "theorem1": {
        "scenario": {"kind": "t1", "epsilon": 0.01},
        "learner": {"kind": "single_mw", "eta": 0.01},
        "T": 200_000,
        "epsilon": 0.01,
        "reps": 20,
        "retain": "summary",
    },
    "theorem2": {
        "scenario": {"kind": "t2", "b": 0.25, "epsilon": 0.01},
        "learner": {"kind": "single_mw", "eta": 0.005},
        "T": 4_000_000,
        "epsilon": 0.01,
        "reps": 10,
        "retain": "summary",
    },
    "theorem3": {
        "scenario": {
            "kind": "t3_synthetic",
            "rates": (0.1, 0.3, 0.5, 0.7),
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
    "theorem4": {
        "scenario": {"kind": "t4"},
        "learner": {"kind": "single_mw", "eta": 0.1},
        "T": 100_000,
        "reps": 1,
        "retain": "full",
    },
    "theorem5": {
        "scenario": {"kind": "t5"},
        "learner": {"kind": "per_group_fixed_share", "eta": 0.05, "switches": 2},
        "T": 100_000,
        "reps": 1,
        "retain": "full",
        "shifting_K": 2,
    },
}


def preset_names() -> tuple:
    return tuple(sorted(PRESETS))


def get_preset(name: str, **overrides) -> ExperimentConfig:
    """A fresh config for a named preset; keyword overrides replace fields."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of {preset_names()}")
    data = copy.deepcopy(PRESETS[name])
    data.update(overrides)
    return ExperimentConfig.from_dict(data)
