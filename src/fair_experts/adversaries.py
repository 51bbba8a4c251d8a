"""Adversarial instance generators.

Each scenario fixes an expert set (or emits losses directly), a group
arrival process, and a labeling rule, and knows how to unroll itself into
protocol segments. Two of them (t1, t2) stage a bait-and-switch: a first
phase that rewards concentrating on one expert, a branch on the realized
play ("world" a or b), and a second phase that turns that concentration
into a false-negative-rate gap between groups. The rest are direct-loss
streams: a calibrated synthetic stream with per-expert error rates
(t3_synthetic), a four-quarter alternation that defeats group-unaware
deterministic rules (t4), an adaptive penalize-the-leader stream that
punishes shared state across groups (t5), and an i.i.d. baseline
(random_iid).

Scenario randomness is drawn from three child streams of the run seed
(group draws, label draws, everything else), so group draws never depend on
how many other random decisions a scenario makes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Iterator, Mapping

import numpy as np

from .experts import ExpertModel
from .protocol import AdaptiveBlock, ObliviousBlock, ThresholdStep
from .types import (
    ConfigError,
    NEGATIVE_CODE,
    POSITIVE_CODE,
    UNLABELED_CODE,
    echo_fields,
    require_reals,
    require_type,
)

GROUP_A = 0
GROUP_B = 1


class ScenarioRun:
    """Per-run unrolling state: seeded streams plus a free-form info dict."""

    def __init__(self, scenario, T: int, seed_seq: np.random.SeedSequence) -> None:
        self.scenario = scenario
        self.T = int(T)
        groups_ss, labels_ss, extra_ss = seed_seq.spawn(3)
        self.rng_groups = np.random.default_rng(groups_ss)
        self.rng_labels = np.random.default_rng(labels_ss)
        self.rng_extra = np.random.default_rng(extra_ss)
        self.info: dict = {}

    def segments(self) -> Iterator:
        if self.T:
            yield from self.scenario.unroll(self)


class Scenario:
    """Config-level scenario; ``start`` binds it to a horizon and a seed,
    and ``unroll`` turns a bound run into protocol segments."""

    kind: ClassVar[str] = "base"

    @property
    def id(self) -> str:
        return self.kind

    @property
    def experts(self) -> tuple[ExpertModel, ...] | None:
        return None

    def config(self) -> dict:
        """The echo ``make_scenario`` reads back to an equal scenario: the
        kind, the fields by ``echo_fields``, and the experts' echoes when
        the scenario fixes its expert set (t1, t2)."""
        cfg = {"kind": self.kind, **echo_fields(self)}
        if self.experts is not None:
            cfg["experts"] = [ex.to_config() for ex in self.experts]
        return cfg

    def start(self, T: int, seed_seq: np.random.SeedSequence) -> ScenarioRun:
        return ScenarioRun(self, T, seed_seq)

    def unroll(self, run: ScenarioRun) -> Iterator:
        """Yield the segments of ``run`` (T >= 1); each yield receives the
        block's (n, d) plays back."""
        raise NotImplementedError


def _expert_loss_block(
    experts: tuple[ExpertModel, ...],
    t_start: int,
    groups: np.ndarray,
    codes: np.ndarray,
    rng: np.random.Generator,
) -> ObliviousBlock:
    """Score every expert on labeled rounds and assemble the loss matrix."""
    n = groups.shape[0]
    t = np.arange(t_start, t_start + n, dtype=np.int64)
    losses = np.empty((n, len(experts)), dtype=np.float64)
    for f, ex in enumerate(experts):
        losses[:, f] = ex.losses(t, groups, codes, rng)
    return ObliviousBlock(groups, codes, losses)


def _check_bait(scenario) -> None:
    """The checks t1 and t2 share: epsilon a number in (0, 1), and
    forced_world None, 'a' or 'b'."""
    require_type("epsilon", scenario.epsilon, numbers.Real, "a number")
    if not 0.0 < scenario.epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {scenario.epsilon!r}")
    if scenario.forced_world not in (None, "a", "b"):
        raise ConfigError(f"forced_world must be 'a' or 'b', got {scenario.forced_world!r}")


# ---------------------------------------------------------------------------
# t1: stochastic groups, group-unaware learners forced into an FNR gap


@dataclass(frozen=True)
class T1Scenario(Scenario):
    """Fair-coin groups; one half of harmless labels, then a switch.

    Experts: index 0 always predicts negative, index 1 errs at the fixed
    rate beta = 1/4 + sqrt(epsilon) regardless of the label, so both are
    exactly fair in isolation. While t <= T/2, group B rounds are negative
    and group A rounds get fair-coin labels. The continuation depends on the
    realized probability mass the learner spent on expert 1 in that half:
    above sqrt(epsilon) * T the environment turns all-negative (world "a"),
    otherwise group B turns all-positive while group A keeps fair coins
    (world "b"). A learner that ignores groups and has vanishing regret
    concentrates on expert 0 early, lands in world "b", and pays most of its
    false negatives on group A.
    """

    epsilon: float
    forced_world: str | None = None
    bernoulli_experts: bool = False

    kind: ClassVar[str] = "t1"
    d: ClassVar[int] = 2
    num_groups: ClassVar[int] = 2

    def __post_init__(self) -> None:
        _check_bait(self)
        if not isinstance(self.bernoulli_experts, bool):
            raise ConfigError(
                f"bernoulli_experts must be true or false, got {self.bernoulli_experts!r}"
            )
        if self.beta > 1.0:
            raise ConfigError(
                f"epsilon={self.epsilon!r} puts the error rate 1/4 + sqrt(epsilon) above 1"
            )

    @property
    def beta(self) -> float:
        return 0.25 + math.sqrt(self.epsilon)

    @property
    def experts(self) -> tuple[ExpertModel, ...]:
        return (
            ExpertModel(kind="always_negative", label="h_neg"),
            ExpertModel(
                kind="unbiased", beta=self.beta, bernoulli=self.bernoulli_experts, label="h_err"
            ),
        )

    def unroll(self, run: ScenarioRun) -> Iterator:
        T = run.T
        experts = self.experts
        groups = run.rng_groups.integers(0, 2, size=T)
        coins = run.rng_labels.integers(0, 2, size=T).astype(np.int8)
        half = T // 2
        sqrt_eps = math.sqrt(self.epsilon)
        run.info.update(
            beta=self.beta,
            phase1_rounds=half,
            world_threshold=sqrt_eps * T,
            asymptote_fnr_gap=0.375,
            asymptote_fnr_a=0.625 - sqrt_eps,
            asymptote_fnr_b_limit=0.25 + 33.0 * sqrt_eps,
        )
        hu_mass = 0.0
        if half:
            codes1 = np.where(groups[:half] == GROUP_B, NEGATIVE_CODE, coins[:half]).astype(np.int8)
            p = yield _expert_loss_block(experts, 1, groups[:half], codes1, run.rng_extra)
            hu_mass = float(p[:, 1].sum())
        world = self.forced_world or ("a" if hu_mass > sqrt_eps * T else "b")
        run.info.update(hu_probability_mass=hu_mass, world=world)
        rest = groups[half:]
        if world == "a":
            codes2 = np.full(T - half, NEGATIVE_CODE, dtype=np.int8)
        else:
            codes2 = np.where(rest == GROUP_B, POSITIVE_CODE, coins[half:]).astype(np.int8)
        yield _expert_loss_block(experts, half + 1, rest, codes2, run.rng_extra)


# ---------------------------------------------------------------------------
# t2: minority group, group-aware learners forced into an FNR gap


@dataclass(frozen=True)
class T2Scenario(Scenario):
    """Minority group A (arrival probability b), threshold-baited labels.

    Experts: index 0 always predicts negative, index 1 always positive.
    While t <= T/101, group B rounds are negative, and a group A round is
    positive exactly when the learner currently puts probability at least
    gamma = (99 - 2 epsilon)/100 on the negative expert; those rounds are
    the only positive group A examples the whole run, and the learner books
    a near-maximal loss on every one of them. The continuation branches on
    the realized count of those baited rounds against b * T / 101^2: below
    the threshold everything turns negative (world "a"), otherwise group B
    turns all-positive and group A all-negative (world "b"), which rewards
    the bait. Any learner with vanishing approximate regret takes it,
    group-aware or not.
    """

    b: float
    epsilon: float
    forced_world: str | None = None

    kind: ClassVar[str] = "t2"
    d: ClassVar[int] = 2
    num_groups: ClassVar[int] = 2

    C: ClassVar[float] = 1.0 / (101.0 * 101.0)
    THETA: ClassVar[float] = 1.0 / 101.0

    def __post_init__(self) -> None:
        require_type("b", self.b, numbers.Real, "a number")
        if not 0.0 < self.b < 0.49:
            raise ConfigError(f"b must lie in (0, 0.49), got {self.b!r}")
        _check_bait(self)

    @property
    def gamma(self) -> float:
        return (99.0 - 2.0 * self.epsilon) / 100.0

    @property
    def experts(self) -> tuple[ExpertModel, ...]:
        return (
            ExpertModel(kind="always_negative", label="h_neg"),
            ExpertModel(kind="always_positive", label="h_pos"),
        )

    def unroll(self, run: ScenarioRun) -> Iterator:
        T = run.T
        groups = np.where(run.rng_groups.random(T) < self.b, GROUP_A, GROUP_B)
        phase1 = T // 101  # floor(THETA * T) exactly, since THETA = 1/101
        gamma = self.gamma
        count_threshold = self.C * self.b * T
        # the experts' scores depend on neither t nor group; outcome 1 is the bait
        outcomes = _expert_loss_block(
            self.experts, 1, np.full(2, GROUP_A), np.array([NEGATIVE_CODE, POSITIVE_CODE]),
            run.rng_extra,
        )
        neg_row, pos_row = outcomes.losses
        run.info.update(
            gamma=gamma,
            phase1_rounds=phase1,
            world_threshold=count_threshold,
            asymptote_fnr_a=0.99 - 0.02 * self.epsilon,
            fnr_b_limit=(0.5 + self.epsilon) / (1.0 - self.b),
            asymptote_fnr_gap=(0.49 - 0.99 * self.b) / (1.0 - self.b),
        )
        qualifying = 0
        if phase1:
            # outcome 1 on a group A round whose play puts at least gamma on
            # expert 0 (p0 * 1.0 + p1 * 0.0 is p0); group B's level is never met
            step = ThresholdStep((1.0, 0.0), (gamma, math.inf), above=1, below=0)
            p = yield AdaptiveBlock(groups[:phase1], outcomes.losses, outcomes.outcome_codes, step)
            qualifying = int(np.count_nonzero(p[groups[:phase1] == GROUP_A, 0] >= gamma))
        world = self.forced_world or ("a" if qualifying < count_threshold else "b")
        run.info.update(qualifying_rounds=qualifying, world=world)
        rest = groups[phase1:]
        n = rest.shape[0]
        if world == "a":
            codes = np.full(n, NEGATIVE_CODE, dtype=np.int8)
        else:
            codes = np.where(rest == GROUP_B, POSITIVE_CODE, NEGATIVE_CODE).astype(np.int8)
        losses = np.where((codes == POSITIVE_CODE)[:, None], pos_row[None, :], neg_row[None, :])
        if n:
            yield ObliviousBlock(rest, codes, losses)


# ---------------------------------------------------------------------------
# t3_synthetic: calibrated per-expert error rates, adversarial group order


@dataclass(frozen=True)
class T3Synthetic(Scenario):
    """Direct-loss stream with prescribed per-expert error rates.

    Expert f's losses on each group's rounds form an evenly spread 0/1
    pattern averaging rates[f] to within 1/(rounds of the group), with a
    per-group phase offset so the groups' streams are not identical copies.
    kappa > 0 additionally perturbs each (expert, group) rate upward by at
    most kappa (seeded draw). The group order is adversarial-but-fixed:
    contiguous blocks by default, or round-robin with schedule
    "alternating".
    """

    rates: tuple[float, ...]
    groups: int = 2
    schedule: str = "blocks"
    kappa: float = 0.0

    kind: ClassVar[str] = "t3_synthetic"

    def __post_init__(self) -> None:
        rates = require_reals("rates", self.rates)
        object.__setattr__(self, "rates", rates)
        require_type("groups", self.groups, numbers.Integral, "an integer")
        require_type("kappa", self.kappa, numbers.Real, "a number")
        if not rates:
            raise ConfigError("t3_synthetic needs at least one expert rate")
        for r in rates:
            if not 0.0 <= r <= 1.0:
                raise ConfigError(f"infeasible error rate {r!r}, must lie in [0, 1]")
        if self.groups < 1:
            raise ConfigError(f"need at least one group, got {self.groups}")
        if self.schedule not in ("blocks", "alternating"):
            raise ConfigError(f"schedule must be 'blocks' or 'alternating', got {self.schedule!r}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError(f"kappa must lie in [0, 1], got {self.kappa!r}")

    @property
    def d(self) -> int:
        return len(self.rates)

    @property
    def num_groups(self) -> int:
        return self.groups

    def unroll(self, run: ScenarioRun) -> Iterator:
        T = run.T
        G, d = self.num_groups, self.d
        if self.schedule == "blocks":
            base, extra = divmod(T, G)
            counts = [base + (1 if g < extra else 0) for g in range(G)]
            groups = np.repeat(np.arange(G, dtype=np.int64), counts)
        else:
            groups = np.arange(T, dtype=np.int64) % G
            counts = [int((groups == g).sum()) for g in range(G)]
        if self.kappa > 0.0:
            delta = run.rng_extra.random((G, d)) * self.kappa
        else:
            delta = np.zeros((G, d))
        target = np.clip(np.asarray(self.rates)[None, :] + delta, 0.0, 1.0)
        losses = np.empty((T, d), dtype=np.float64)
        for g in range(G):
            idx = np.flatnonzero(groups == g)
            for f in range(d):
                losses[idx, f] = _spread_pattern(counts[g], float(target[g, f]), g / G)
        run.info.update(
            group_rounds=counts,
            target_rates=[[float(x) for x in row] for row in target],
        )
        codes = np.full(T, UNLABELED_CODE, dtype=np.int8)
        yield ObliviousBlock(groups, codes, losses)


def _spread_pattern(n: int, rate: float, phase: float) -> np.ndarray:
    """0/1 sequence of length n whose mean is within 1/n of rate."""
    k = np.arange(n, dtype=np.float64)
    return np.floor((k + 1.0) * rate + phase) - np.floor(k * rate + phase)


# ---------------------------------------------------------------------------
# t4: four-quarter alternation against group-unaware deterministic rules


@dataclass(frozen=True)
class T4Scenario(Scenario):
    """Oblivious stream with per-group 50% error rates for both experts.

    Quarters: group A with losses (0, 1), group B with (1, 0), group A with
    (1, 0), group B with (0, 1). Each expert errs on exactly half of each
    group's rounds, yet any learner whose play is a deterministic function
    of the cumulative loss difference sees group B only while its favored
    expert is the wrong one: low regret then forces the error rates apart.
    """

    kind: ClassVar[str] = "t4"
    d: ClassVar[int] = 2
    num_groups: ClassVar[int] = 2

    def unroll(self, run: ScenarioRun) -> Iterator:
        T = run.T
        q = T // 4
        lengths = [q, q, q, T - 3 * q]
        run.info.update(quarter_rounds=lengths)
        groups = np.empty(T, dtype=np.int64)
        losses = np.empty((T, 2), dtype=np.float64)
        start = 0
        for (g, row), length in zip(T4_QUARTERS, lengths):
            groups[start : start + length] = g
            losses[start : start + length] = row
            start += length
        codes = np.full(T, UNLABELED_CODE, dtype=np.int8)
        yield ObliviousBlock(groups, codes, losses)


T4_QUARTERS = (
    (GROUP_A, (0.0, 1.0)),
    (GROUP_B, (1.0, 0.0)),
    (GROUP_A, (1.0, 0.0)),
    (GROUP_B, (0.0, 1.0)),
)


# ---------------------------------------------------------------------------
# t5: adaptive penalize-the-leader, then a regime shift on the other group


@dataclass(frozen=True)
class T5Scenario(Scenario):
    """Punishes shared state: leader-penalties on A, then two regimes on B.

    Phase one (t <= T/2, group A): loss 1 to the expert the learner favors
    (ties to index 0), 0 to the other, so the learner pays at least 1/2 per
    round. Phase two (group B) repeats losses (1, 0) for as many rounds as
    expert 0 was penalized in phase one; phase three (group B) repeats
    (0, 1) for as many rounds as expert 1 was penalized. The two B-phases
    therefore cover exactly T/2 rounds, and playing expert 1 then expert 0
    is a zero-loss comparator on B with a single switch.
    """

    kind: ClassVar[str] = "t5"
    d: ClassVar[int] = 2
    num_groups: ClassVar[int] = 2

    def unroll(self, run: ScenarioRun) -> Iterator:
        T = run.T
        half = T // 2
        penalties = [0, 0]
        if half:
            p = yield AdaptiveBlock(np.zeros(half, dtype=np.int64), _T5_ROWS,
                                    np.full(2, UNLABELED_CODE), _T5_LEADER)
            # the rows where the step chose expert 1; no play is NaN, as
            # every block's plays pass the simplex check before they return
            penalties[1] = int(np.count_nonzero(p[:, 0] < p[:, 1]))
            penalties[0] = half - penalties[1]
        len2 = penalties[0]
        len3 = T - half - len2
        run.info.update(
            phase1_rounds=half,
            phase2_rounds=len2,
            phase3_rounds=len3,
            penalties=list(penalties),
        )
        if len2:
            yield ObliviousBlock(
                np.ones(len2, dtype=np.int64),
                np.full(len2, UNLABELED_CODE, dtype=np.int8),
                np.tile(_T5_ROWS[0], (len2, 1)),
            )
        if len3:
            yield ObliviousBlock(
                np.ones(len3, dtype=np.int64),
                np.full(len3, UNLABELED_CODE, dtype=np.int8),
                np.tile(_T5_ROWS[1], (len3, 1)),
            )


_T5_ROWS = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
# t5's phase-one step: the expert the play favors takes loss 1, ties to
# expert 0. p0 * 1.0 + p1 * -1.0 is p0 - p1 exactly, which is >= 0.0 exactly
# when p0 >= p1.
_T5_LEADER = ThresholdStep((1.0, -1.0), (0.0, 0.0), above=0, below=1)


# ---------------------------------------------------------------------------
# random_iid: stochastic baseline


@dataclass(frozen=True)
class RandomIID(Scenario):
    """Groups i.i.d. from fixed probabilities, losses i.i.d. uniform [0, 1]."""

    d: int = 2
    groups: int = 2
    group_probs: tuple[float, ...] | None = None

    kind: ClassVar[str] = "random_iid"

    def __post_init__(self) -> None:
        require_type("d", self.d, numbers.Integral, "an integer")
        require_type("groups", self.groups, numbers.Integral, "an integer")
        if self.d < 1:
            raise ConfigError(f"need at least one expert, got d={self.d}")
        if self.groups < 1:
            raise ConfigError(f"need at least one group, got {self.groups}")
        if self.group_probs is not None:
            probs = require_reals("group_probs", self.group_probs)
            object.__setattr__(self, "group_probs", probs)
            if len(probs) != self.groups:
                raise ConfigError(
                    f"group_probs has {len(probs)} entries for {self.groups} groups"
                )
            if any(x < 0.0 for x in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise ConfigError("group_probs must be a probability vector")

    @property
    def num_groups(self) -> int:
        return self.groups

    def unroll(self, run: ScenarioRun) -> Iterator:
        T = run.T
        probs = self.group_probs
        if probs is None:
            groups = run.rng_groups.integers(0, self.groups, size=T)
        else:
            groups = run.rng_groups.choice(self.groups, size=T, p=probs)
        losses = run.rng_extra.random((T, self.d))
        codes = np.full(T, UNLABELED_CODE, dtype=np.int8)
        yield ObliviousBlock(groups, codes, losses)


# ---------------------------------------------------------------------------


_SCENARIOS = {
    cls.kind: cls
    for cls in (T1Scenario, T2Scenario, T3Synthetic, T4Scenario, T5Scenario, RandomIID)
}
SCENARIO_KINDS = tuple(_SCENARIOS)


def make_scenario(config: Mapping) -> Scenario:
    """Build a scenario from its config mapping (the 'scenario' block of an
    experiment config). Mistyped values raise ConfigError, not coerced."""
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    cfg.pop("experts", None)  # echo-only
    if not isinstance(kind, str) or kind not in _SCENARIOS:
        raise ConfigError(f"scenario kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    try:
        return _SCENARIOS[kind](**cfg)
    except TypeError as exc:
        raise ConfigError(f"bad {kind} config: {exc}") from exc
