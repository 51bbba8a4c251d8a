"""Fairness metrics, regret measures, and the shifting-comparator DP.

Learner metrics average the per-round expected loss over a group's
qualifying subpopulation: positive rounds for the false-negative rate
("fnr"), negative rounds for the false-positive rate ("fpr"), every round
of the group for the overall error rate ("eer"). Rounds without labels only
count toward "eer". A metric over an empty subpopulation is undefined and
reported as None; gaps are taken over the defined groups only.

Regret compares the learner's total expected loss to the best single
expert in hindsight; the epsilon-approximate variant charges the comparator
a (1 + epsilon) factor, and the shifting variant lets the comparator switch
experts a bounded number of times, computed exactly from each expert's
cumulative loss by one prefix-minimum pass per switch level below the top.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .types import (
    ConfigError,
    ContractError,
    GroupId,
    Trace,
    _BIN_NEG,
    _BIN_POS,
    group_label,
    max_pairwise_gap,
    require_type,
)

METRICS = ("fnr", "fpr", "eer")

# Accumulator bins each metric's subpopulation is drawn from.
_METRIC_BINS = {"fnr": [_BIN_POS], "fpr": [_BIN_NEG], "eer": [0, 1, 2]}


def rate_table(trace: Trace, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-group rates of the learner and every expert, with subpopulation sizes.

    Returns a (G, 1 + d) float array, column 0 the learner and column 1 + f
    expert f, NaN where the group's subpopulation is empty; and the (G,)
    subpopulation sizes.
    """
    if metric not in _METRIC_BINS:
        raise ConfigError(f"metric must be one of {METRICS}, got {metric!r}")
    bins = _METRIC_BINS[metric]
    acc = trace.accumulators
    sums = np.concatenate([acc.learner_loss[:, bins, None], acc.expert_loss[:, bins]], axis=2)
    sizes = acc.counts[:, bins].sum(axis=1)
    rates = np.full((trace.num_groups, 1 + trace.d), np.nan)
    np.divide(sums.sum(axis=1), sizes[:, None], out=rates, where=sizes[:, None] > 0)
    return rates, sizes


def rate_values(rates: np.ndarray, column: int) -> dict[int, float | None]:
    """One column of a rate table as {group: rate}, None where undefined."""
    return {g: None if np.isnan(v) else v for g, v in enumerate(rates[:, column].tolist())}


def _rate(trace: Trace, group: GroupId, metric: str, column: int) -> float | None:
    require_type("group", group, numbers.Integral, "an integer")
    if not 0 <= group < trace.num_groups:
        raise ConfigError(f"group {group} outside 0..{trace.num_groups - 1}")
    rates, _ = rate_table(trace, metric)
    return rate_values(rates, column)[group]


def group_metric(trace: Trace, group: GroupId, metric: str) -> float | None:
    """The learner's mean expected loss over the group's subpopulation,
    or None when the subpopulation is empty."""
    return _rate(trace, group, metric, 0)


def gap_entry(values: Mapping[int, float | None], labels: Sequence[str]) -> dict:
    """Largest pairwise gap among defined values and its labelled pair, both
    None when fewer than two groups are defined."""
    if sum(v is not None for v in values.values()) < 2:
        return {"gap": None, "pair": None}
    gap, pair = max_pairwise_gap(values)
    return {"gap": gap, "pair": [labels[pair[0]], labels[pair[1]]]}


def learner_total_loss(trace: Trace) -> float:
    return float(trace.accumulators.learner_loss.sum())


def expert_total_losses(trace: Trace) -> np.ndarray:
    return trace.accumulators.expert_loss.sum(axis=(0, 1))


def regret(trace: Trace) -> float:
    """Learner's total expected loss minus the best fixed expert's total."""
    if len(trace) == 0:
        return 0.0
    return learner_total_loss(trace) - float(expert_total_losses(trace).min())


def approx_regret(trace: Trace, epsilon: float, expert: int | None = None):
    """Total expected loss minus (1 + epsilon) times an expert's total.

    With expert=None, returns the array over all experts.
    """
    if epsilon < 0.0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon!r}")
    totals = expert_total_losses(trace)
    learner = learner_total_loss(trace)
    values = learner - (1.0 + epsilon) * totals
    if expert is None:
        return values
    require_type("expert", expert, numbers.Integral, "an integer")
    if not 0 <= expert < trace.d:
        raise ConfigError(f"expert index {expert} outside 0..{trace.d - 1}")
    return float(values[expert])


@dataclass(frozen=True)
class ComparatorPath:
    """An expert sequence with a bounded number of switches, and its loss."""

    experts: np.ndarray
    loss: float
    switches: int

    def __len__(self) -> int:
        return int(self.experts.shape[0])


def switch_count(experts: Sequence[int]) -> int:
    arr = np.asarray(experts)
    if arr.shape[0] < 2:
        return 0
    return int((arr[1:] != arr[:-1]).sum())


def _level_min(sums: list, mins: list, k: int, rounds: slice, out: np.ndarray) -> np.ndarray:
    """Level k's per-round minimum over experts in ``rounds``. ``sums`` holds
    each expert's cumulative loss and ``mins[k]`` the minimum of level
    k >= 1; level 0's is the minimum of ``sums``, taken into ``out`` rather
    than held."""
    if k:
        return mins[k][rounds]
    low = sums[0][rounds]
    for column in sums[1:]:
        low = np.minimum(low, column[rounds], out=out)
    return low


def _switch_gains(sums: list, mins: list, k: int, f: int, m: int, out: np.ndarray) -> np.ndarray:
    """The gain of switching onto expert f after each of rounds 0..m-1 from
    level k: level k's per-round minimum less f's cumulative loss, written
    into out[:m]."""
    gain = out[:m]
    return np.subtract(_level_min(sums, mins, k, slice(m), gain), sums[f][:m], out=gain)


def _level_loss(sums: list, mins: list, k: int, f: int, s: int, out: np.ndarray) -> np.float64:
    """Best loss of a path with at most k switches that ends on expert f in
    round s: f's cumulative loss plus the most negative switching gain from
    level k - 1 over rounds before s. ``out`` is the gain buffer of
    ``_switch_gains``."""
    if k == 0 or s == 0:
        return sums[f][s]
    return sums[f][s] + _switch_gains(sums, mins, k - 1, f, s, out).min()


def best_shifting_comparator(
    trace_or_losses, K: int, group: GroupId | None = None
) -> ComparatorPath:
    """Minimum-loss expert sequence using at most K switches.

    Accepts a full trace (optionally restricted to one group's rounds) or a
    raw (n, d) loss matrix of finite values. Each expert's cumulative loss is
    taken once. Each switch level k below the top is one prefix-minimum pass
    per expert over the switching gains from the level below
    (``_switch_gains``); only its per-round minimum over experts is kept, and
    level 0's is derived from the cumulative losses. The top level needs
    only its last round, one minimum over the gains (``_level_loss``). No
    minimum needs a floor at 0, the gain of not switching: the gain after
    round 0 is min_g C_g(0) - C_f(0) <= 0, as every level's round 0 is the
    cumulative loss. K is capped at n - 1, and the levels stop once one
    repeats the level below, since every higher level then equals it. The
    path is rebuilt backwards: at level k the switch onto the current expert
    happens after the first round where the switching gain reaches its
    minimum, if that gain is negative, and comes from the lowest-index best
    expert of level k - 1 in that round. So on equal loss the path keeps the
    current expert rather than switching, switch sources and the final
    expert take the lowest index, and at equal loss and expert the path with
    fewer switches wins.
    """
    require_type("K", K, numbers.Integral, "an integer")
    if K < 0:
        raise ConfigError(f"switch budget K must be >= 0, got {K}")
    if isinstance(trace_or_losses, Trace):
        trace = trace_or_losses
        if not trace.is_full:
            raise ContractError("shifting comparator needs per-round losses (full trace)")
        if group is None:
            losses = trace.losses
        else:
            require_type("group", group, numbers.Integral, "an integer")
            if not 0 <= group < trace.num_groups:
                raise ConfigError(f"group {group} outside 0..{trace.num_groups - 1}")
            losses = trace.losses[trace.groups == group]
    else:
        if group is not None:
            raise ConfigError("group restriction applies to traces only")
        losses = np.asarray(trace_or_losses, dtype=np.float64)
        if not np.isfinite(losses).all():
            raise ConfigError("loss matrix must hold finite values")
    if losses.ndim != 2:
        raise ConfigError(f"loss matrix must be (rounds, experts), got shape {losses.shape}")
    n, d = losses.shape
    if n == 0:
        return ComparatorPath(np.zeros(0, dtype=np.int64), 0.0, 0)
    sums = [np.cumsum(losses[:, f]) for f in range(d)]
    gain = np.empty(n - 1)
    mins: list = [None]  # per-round minimum over experts of levels 1 .. top - 1
    finals = [[column[-1] for column in sums]]  # last-round loss of each expert, per level
    top = min(K, n - 1)
    for k in range(1, top + 1):
        if k == top:
            finals.append([_level_loss(sums, mins, k, f, n - 1, gain) for f in range(d)])
            break
        # level k's losses of each expert in rounds 1 .. n-1 pass through
        # the gain buffer; round 0's are the cumulative losses
        low = np.empty(n)
        low[:1] = _level_min(sums, mins, 0, slice(1), low[:1])
        final = []
        for f, column in enumerate(sums):
            level = _switch_gains(sums, mins, k - 1, f, n - 1, gain)
            np.minimum.accumulate(level, out=level)
            np.add(column[1:], level, out=level)
            if f:
                np.minimum(low[1:], level, out=low[1:])
            else:
                low[1:] = level
            final.append(level[-1])
        finals.append(final)
        if np.array_equal(low[1:], _level_min(sums, mins, k - 1, slice(1, n), gain)):
            break
        mins.append(low)
    # Final cell: smallest loss, then lowest expert, then fewest switches.
    finals = np.array(finals)
    f = int(finals.min(axis=0).argmin())
    k = int(finals[:, f].argmin())
    loss = float(finals[k, f])
    path = np.empty(n, dtype=np.int64)
    end = n  # path[:end] is not yet filled
    while k > 0 and end > 1:
        gains = _switch_gains(sums, mins, k - 1, f, end - 1, gain)
        s = int(gains.argmin())
        if not gains[s] < 0.0:
            break
        path[s + 1 : end] = f
        row = [_level_loss(sums, mins, k - 1, g, s, gain) for g in range(d)]
        f = int(np.argmin(row))
        k -= 1
        end = s + 1
    path[:end] = f
    return ComparatorPath(path, loss, switch_count(path))
def shifting_approx_regret(trace: Trace, epsilon: float, K: int) -> dict:
    """Learner total versus (1 + epsilon) times the best K-switch comparator."""
    path = best_shifting_comparator(trace, K)
    return {
        "K": K,
        "comparator_loss": path.loss,
        "switches": path.switches,
        "approx_regret": learner_total_loss(trace) - (1.0 + epsilon) * path.loss,
    }


@dataclass
class MetricReport:
    """Everything measured on one trace, JSON-ready via to_dict()."""

    scenario_id: str
    learner_id: str
    T: int
    seed: int | None
    learner: dict
    sizes: dict
    gaps: dict
    experts: list
    regret: float
    approx_regret: list
    min_approx_regret: float | None
    best_expert: int | None
    shifting: dict | None
    scenario_info: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "learner": self.learner_id,
            "T": self.T,
            "seed": self.seed,
            "learner_metrics": self.learner,
            "subpopulation_sizes": self.sizes,
            "gaps": self.gaps,
            "expert_metrics": self.experts,
            "regret": self.regret,
            "approx_regret": self.approx_regret,
            "min_approx_regret": self.min_approx_regret,
            "best_expert": self.best_expert,
            "shifting": self.shifting,
            "scenario_info": self.scenario_info,
        }


def build_report(
    trace: Trace,
    epsilon: float,
    shifting_K: int | None = None,
) -> MetricReport:
    """Measure one trace: per-group learner and expert metrics, gaps, and
    the regret family."""
    G = trace.num_groups
    labels = [group_label(g) for g in range(G)]
    if int(trace.accumulators.counts.sum()) != len(trace):
        raise ContractError("accumulator counts disagree with the trace length")

    learner: dict = {}
    gaps: dict = {}
    sizes: dict = {}
    experts: list = [{} for _ in range(trace.d)]
    for metric in METRICS:
        rates, n = rate_table(trace, metric)
        values = rate_values(rates, 0)
        learner[metric] = {labels[g]: values[g] for g in range(G)}
        sizes[metric] = dict(zip(labels, n.tolist()))
        gaps[metric] = gap_entry(values, labels)
        for f in range(trace.d):
            values = rate_values(rates, 1 + f)
            experts[f][metric] = {labels[g]: values[g] for g in range(G)}

    if len(trace):
        apx = approx_regret(trace, epsilon)
        totals = expert_total_losses(trace)
        best = int(totals.argmin())
        report_regret = regret(trace)
        apx_list = [float(x) for x in apx]
        min_apx = float(apx.min())
    else:
        report_regret = 0.0
        apx_list = []
        min_apx = None
        best = None

    shifting = None
    if shifting_K is not None and len(trace):
        shifting = shifting_approx_regret(trace, epsilon, shifting_K)

    return MetricReport(
        scenario_id=trace.scenario_id,
        learner_id=trace.learner_id,
        T=len(trace),
        seed=trace.rng_seed,
        learner=learner,
        sizes=sizes,
        gaps=gaps,
        experts=experts,
        regret=report_regret,
        approx_regret=apx_list,
        min_approx_regret=min_apx,
        best_expert=best,
        shifting=shifting,
        scenario_info=dict(trace.scenario_info),
    )


def _mean_se(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    out = {"mean": float(arr.mean()), "n": int(arr.size)}
    if arr.size >= 2:
        out["se"] = float(arr.std(ddof=1) / np.sqrt(arr.size))
    else:
        out["se"] = None
    return out


def aggregate_reports(reports: Sequence[MetricReport]) -> dict:
    """Combine per-run reports: mean and standard error of each rate, gaps
    of the mean rates (and the mean of per-run gaps alongside), regret
    summaries, and a tally of scenario worlds when present."""
    if not reports:
        return {"runs": 0}
    G_labels = list(reports[0].learner["eer"].keys())
    agg: dict = {"runs": len(reports)}
    learner: dict = {}
    gaps: dict = {}
    for metric in METRICS:
        per_group: dict = {}
        mean_rates: dict = {}
        for label in G_labels:
            vals = [r.learner[metric][label] for r in reports]
            defined = [v for v in vals if v is not None]
            if defined:
                stats = _mean_se(defined)
                stats["defined_runs"] = len(defined)
                per_group[label] = stats
                mean_rates[label] = stats["mean"]
            else:
                per_group[label] = {"mean": None, "se": None, "n": 0, "defined_runs": 0}
                mean_rates[label] = None
        learner[metric] = per_group
        mean_gap = gap_entry(dict(enumerate(mean_rates.values())), G_labels)
        run_gaps = [r.gaps[metric]["gap"] for r in reports if r.gaps[metric]["gap"] is not None]
        gaps[metric] = {
            "gap_of_mean_rates": mean_gap["gap"],
            "pair": mean_gap["pair"],
            "mean_run_gap": _mean_se(run_gaps) if run_gaps else None,
        }
    agg["learner_metrics"] = learner
    agg["gaps"] = gaps
    agg["regret"] = _mean_se([r.regret for r in reports])
    min_apx = [r.min_approx_regret for r in reports if r.min_approx_regret is not None]
    agg["min_approx_regret"] = _mean_se(min_apx) if min_apx else None
    shifting = [r.shifting["approx_regret"] for r in reports if r.shifting is not None]
    if shifting:
        agg["shifting_approx_regret"] = _mean_se(shifting)
    worlds: dict = {}
    for r in reports:
        w = r.scenario_info.get("world")
        if w is not None:
            worlds[w] = worlds.get(w, 0) + 1
    if worlds:
        agg["worlds"] = worlds
    return agg
