"""Expert models and the per-expert fairness audit.

An expert maps a round (index, group, outcome) to a score in [0, 1]. The
kinds here are deliberately simple decision rules: constant scores, an
outcome-reading rule that is wrong with a fixed rate, and a scripted table.
The outcome-reading rule is the interesting one for fairness audits: its
loss equals its error rate on every round regardless of the label, so it is
exactly fair in isolation under any metric.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .metrics import _rate, rate_table, rate_values
from .types import (
    ConfigError,
    EmptySubpopulationError,
    GroupId,
    HorizonMismatchError,
    POSITIVE_CODE,
    Trace,
    _check_outcome_codes,
    echo_fields,
    losses_from_scores,
    max_pairwise_gap,
    require_reals,
    require_type,
)

EXPERT_KINDS = ("always_negative", "always_positive", "unbiased", "fixed_score", "scripted")


@dataclass(frozen=True)
class ExpertModel:
    """A fixed prediction rule, declared by kind plus parameters.

    kind:
      always_negative  score 0 on every round
      always_positive  score 1 on every round
      unbiased         score beta on negatives and 1 - beta on positives,
                       so its loss is beta everywhere; with bernoulli=True it
                       instead emits a hard 0/1 prediction that is wrong with
                       probability beta (needs an rng to score)
      fixed_score      constant score s
      scripted         score table indexed by round, error past the horizon
    """

    kind: str
    beta: float | None = None
    score: float | None = None
    table: tuple[float, ...] | None = None
    bernoulli: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EXPERT_KINDS:
            raise ConfigError(f"unknown expert kind {self.kind!r}")
        for name in ("beta", "score"):
            if getattr(self, name) is not None:
                require_type(name, getattr(self, name), numbers.Real, "a number")
        if self.table is not None:
            object.__setattr__(self, "table", require_reals("table", self.table))
        if not isinstance(self.bernoulli, bool):
            raise ConfigError(f"bernoulli must be true or false, got {self.bernoulli!r}")
        if not isinstance(self.label, str):
            raise ConfigError(f"label must be a string, got {self.label!r}")
        if self.kind == "unbiased":
            if self.beta is None or not 0.0 <= self.beta <= 1.0:
                raise ConfigError(f"unbiased expert needs beta in [0, 1], got {self.beta!r}")
        if self.kind == "fixed_score":
            if self.score is None or not 0.0 <= self.score <= 1.0:
                raise ConfigError(f"fixed_score expert needs score in [0, 1], got {self.score!r}")
        if self.kind == "scripted":
            if not self.table:
                raise ConfigError("scripted expert needs a non-empty score table")
            if any(not 0.0 <= s <= 1.0 for s in self.table):
                raise ConfigError("scripted table entries must lie in [0, 1]")
        if self.bernoulli and self.kind != "unbiased":
            raise ConfigError("bernoulli mode applies to the unbiased kind only")

    @property
    def name(self) -> str:
        return self.label or self.kind

    def scores(
        self,
        t: np.ndarray,
        groups: np.ndarray,
        outcome_codes: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Scores over aligned round arrays. The unbiased kind reads the
        outcome codes, and refuses codes as ``losses_from_scores`` does."""
        n = len(t)
        if self.kind == "always_negative":
            return np.zeros(n)
        if self.kind == "always_positive":
            return np.ones(n)
        if self.kind == "fixed_score":
            return np.full(n, float(self.score))
        if self.kind == "scripted":
            t = np.asarray(t)
            if n and (t.min() < 1 or t.max() > len(self.table)):
                raise HorizonMismatchError(
                    f"scripted expert has {len(self.table)} rounds, asked for t in "
                    f"[{t.min()}, {t.max()}]"
                )
            return np.asarray(self.table, dtype=np.float64)[t - 1]
        codes = _check_outcome_codes(outcome_codes, n, "round {}", ConfigError)
        if np.any(codes < 0):
            raise ConfigError("unbiased expert needs labeled rounds")
        if self.bernoulli:
            if rng is None:
                raise ConfigError("bernoulli mode needs an rng")
            wrong = rng.random(n) < self.beta
            correct = (codes == POSITIVE_CODE).astype(np.float64)
            return np.where(wrong, 1.0 - correct, correct)
        return np.where(codes == POSITIVE_CODE, 1.0 - float(self.beta), float(self.beta))

    def losses(
        self,
        t: np.ndarray,
        groups: np.ndarray,
        outcome_codes: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        return losses_from_scores(self.scores(t, groups, outcome_codes, rng), outcome_codes)

    def to_config(self) -> dict:
        return echo_fields(self)


@dataclass(frozen=True)
class AuditResult:
    """Per-group metric values for one expert, plus the worst pairwise gap.

    Groups whose subpopulation is empty are reported as undefined and
    excluded from the gap. ``passed`` is None when fewer than two groups have
    defined values, otherwise gap <= tolerance.
    """

    expert: int
    metric: str
    per_group: dict
    gap: float | None
    gap_pair: tuple[int, int] | None
    undefined_groups: tuple[int, ...]
    tolerance: float
    passed: bool | None


def _expert_column(trace: Trace, expert: int) -> int:
    """Column of the expert in a rate table."""
    require_type("expert", expert, numbers.Integral, "an integer")
    if not 0 <= expert < trace.d:
        raise ConfigError(f"expert index {expert} outside 0..{trace.d - 1}")
    return 1 + expert


def expert_group_metric(trace: Trace, expert: int, group: GroupId, metric: str) -> float | None:
    """Mean loss of one expert over one group's subpopulation, None if empty."""
    return _rate(trace, group, metric, _expert_column(trace, expert))


def audit_fair_in_isolation(
    trace: Trace,
    expert: int,
    metric: str = "eer",
    tolerance: float = 0.0,
) -> AuditResult:
    """Check whether one expert's metric is (near) equal across groups.

    Raises EmptySubpopulationError when no group has any qualifying round.
    """
    rates, _ = rate_table(trace, metric)
    per_group = rate_values(rates, _expert_column(trace, expert))
    undefined = [g for g, v in per_group.items() if v is None]
    defined_count = trace.num_groups - len(undefined)
    if defined_count == 0:
        raise EmptySubpopulationError(
            f"metric {metric!r} is undefined for every group on this trace"
        )
    gap: float | None = None
    pair: tuple[int, int] | None = None
    passed: bool | None = None
    if defined_count >= 2:
        gap, pair = max_pairwise_gap(per_group)
        passed = gap <= tolerance
    return AuditResult(
        expert=expert,
        metric=metric,
        per_group=per_group,
        gap=gap,
        gap_pair=pair,
        undefined_groups=tuple(undefined),
        tolerance=tolerance,
        passed=passed,
    )
