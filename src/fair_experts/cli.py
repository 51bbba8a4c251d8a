"""Command line front end.

Three subcommands:

  run     execute an experiment from a config file or a named preset
  preset  print a named preset config, or save it as a runnable config.json
  audit   recompute per-group rates and gaps from a saved trace file

Progress notes go to stderr; the machine-readable result goes to stdout.
A config, trace or output path that cannot be read or written ends the
command with an ``error:`` line and exit code 2, as a bad config does.
A reader that closes stdout early (``| head``) ends the command with exit
code 141, as a shell reports a process ended by SIGPIPE, and no traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .experts import audit_fair_in_isolation
from .harness import ExperimentConfig, get_preset, preset_names, run_experiment
from .metrics import METRICS, gap_entry, rate_table, rate_values
from .types import ConfigError, FairExpertsError, Trace, group_label


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fair-experts",
        description="Online prediction with expert advice under group contexts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write its output directory")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="path to an experiment config.json")
    src.add_argument("--preset", choices=preset_names(), help="named preset to run")
    p_run.add_argument("--scenario", help="JSON object overriding the scenario block")
    p_run.add_argument("--learner", help="JSON object overriding the learner block")
    p_run.add_argument("--T", type=int, help="horizon override")
    p_run.add_argument("--epsilon", type=float, help="approximation slack override")
    p_run.add_argument("--alpha", type=float, help="group-frequency floor override")
    p_run.add_argument("--reps", type=int, help="repetition count override")
    p_run.add_argument("--seed", type=int, help="base seed override")
    p_run.add_argument("--out", help="output directory (config/report/summary files)")
    p_run.add_argument("--retain", choices=("summary", "full"), help="trace retention override")
    p_run.add_argument("--shifting-K", type=int, dest="shifting_K", help="switch budget for the shifting comparator")
    p_run.add_argument(
        "--world-mode",
        choices=("realized", "two_pass"),
        dest="world_mode",
        help="world selection: per-run realized statistic, or a forced majority from a scouting pass",
    )

    p_preset = sub.add_parser("preset", help="show or save a named preset config")
    p_preset.add_argument("name", choices=preset_names())
    p_preset.add_argument("--out", help="directory to write config.json into")

    p_audit = sub.add_parser("audit", help="recompute per-group rates from a saved trace")
    p_audit.add_argument("--trace", required=True, help="path to a run_*.jsonl trace file")
    p_audit.add_argument("--metric", choices=METRICS, default="eer")
    p_audit.add_argument("--tolerance", type=float, default=0.0, help="largest gap still counted as fair")
    return parser


def _json_override(raw: str, what: str) -> dict:
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"--{what} must be a JSON object")
    return value


def _cmd_run(args) -> int:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        config = ExperimentConfig.from_dict(data)
    else:
        config = get_preset(args.preset)
    if args.scenario is not None:
        config.scenario = _json_override(args.scenario, "scenario")
    if args.learner is not None:
        config.learner = _json_override(args.learner, "learner")
    for field, attr in (
        ("T", "T"),
        ("epsilon", "epsilon"),
        ("alpha", "alpha"),
        ("reps", "reps"),
        ("seed", "base_seed"),
        ("out", "out_dir"),
        ("retain", "retain"),
        ("shifting_K", "shifting_K"),
        ("world_mode", "world_mode"),
    ):
        value = getattr(args, field)
        if value is not None:
            setattr(config, attr, value)
    config.validate()
    print(
        f"running {config.reps} repetition(s), T={config.T}, "
        f"scenario={config.scenario.get('kind')}, learner={config.learner.get('kind')}",
        file=sys.stderr,
    )
    result = run_experiment(config)
    if result.paths:
        print(f"wrote {result.paths['report']}", file=sys.stderr)
    print(json.dumps(result.aggregate, indent=2, sort_keys=True))
    return 0


def _cmd_preset(args) -> int:
    payload = get_preset(args.name).echo()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        target = out / "config.json"
        target.write_text(text)
        print(f"wrote {target}", file=sys.stderr)
    return 0


def _cmd_audit(args) -> int:
    trace = Trace.from_jsonl(args.trace)
    labels = [group_label(g) for g in range(trace.num_groups)]
    values = rate_values(rate_table(trace, args.metric)[0], 0)
    learner_block: dict = {
        "metric": args.metric,
        "per_group": {labels[g]: values[g] for g in range(trace.num_groups)},
        **gap_entry(values, labels),
    }
    experts = []
    for f in range(trace.d):
        audit = audit_fair_in_isolation(trace, f, args.metric, args.tolerance)
        entry = dataclasses.asdict(audit)
        entry["per_group"] = {labels[g]: v for g, v in audit.per_group.items()}
        entry["undefined_groups"] = [labels[g] for g in audit.undefined_groups]
        if audit.gap_pair is not None:
            entry["gap_pair"] = [labels[g] for g in audit.gap_pair]
        experts.append(entry)
    print(
        json.dumps(
            {
                "trace": str(args.trace),
                "T": len(trace),
                "scenario": trace.scenario_id,
                "learner_id": trace.learner_id,
                "learner": learner_block,
                "experts": experts,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"run": _cmd_run, "preset": _cmd_preset, "audit": _cmd_audit}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull, so that the
        # interpreter's last flush of what is left does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, OSError) as exc:
        # a bad config, or a file named on the command line that cannot be
        # read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FairExpertsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
