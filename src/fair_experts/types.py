"""Core vocabulary for sequential prediction with group context.

A run lasts T rounds. Each round carries a group id, optionally a binary
outcome, one loss per expert in [0, 1], and the learner's distribution over
experts. Scores in [0, 1] are graded predictions; the loss of a score is the
score itself on a negative round and one minus the score on a positive round,
so a score and its complement always have losses summing to one.

Traces store rounds in columnar numpy arrays plus streaming accumulators
(per-group counts and loss sums split by outcome class) so that metrics can
be computed without per-round python objects even for multi-million-round
runs. ``RoundRecord`` is the per-round view used at API boundaries and for
serialization.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

# Tolerance for the simplex invariant on distributions.
SIMPLEX_ATOL = 1e-9
# Tolerance when re-deriving an expected loss from a stored distribution.
EXPECTED_LOSS_ATOL = 1e-9

# GroupId is a small non-negative index into the run's group set.
GroupId = int

# Column codes for the outcome column. UNLABELED marks direct-loss rounds
# that carry no ground-truth label.
NEGATIVE_CODE = 0
POSITIVE_CODE = 1
UNLABELED_CODE = -1

_GROUP_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class FairExpertsError(Exception):
    """Base class for errors raised by this library."""


class ConfigError(FairExpertsError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class ContractError(FairExpertsError, RuntimeError):
    """An API was used outside its contract (wrong order, wrong shape)."""


class HorizonMismatchError(FairExpertsError, ValueError):
    """A scripted lookup fell outside the declared horizon."""


class EmptySubpopulationError(FairExpertsError, ValueError):
    """A metric was requested over a subpopulation with no rounds."""


class InsufficientGroupsError(FairExpertsError, ValueError):
    """A gap needs at least two groups with defined values."""


class InvariantViolation(FairExpertsError, RuntimeError):
    """A hard protocol invariant failed during execution."""


class Outcome(Enum):
    """Binary round outcome. Exactly two states, no null member."""

    NEGATIVE = NEGATIVE_CODE
    POSITIVE = POSITIVE_CODE

    def flip(self) -> "Outcome":
        return Outcome.POSITIVE if self is Outcome.NEGATIVE else Outcome.NEGATIVE

    @property
    def code(self) -> int:
        return self.value

    @property
    def token(self) -> str:
        return "+" if self is Outcome.POSITIVE else "-"


def outcome_from_code(code: int) -> Outcome | None:
    """Map a column code back to an Outcome, with None for unlabeled."""
    if code == UNLABELED_CODE:
        return None
    if code == NEGATIVE_CODE:
        return Outcome.NEGATIVE
    if code == POSITIVE_CODE:
        return Outcome.POSITIVE
    raise ValueError(f"unknown outcome code {code!r}")


def outcome_from_token(token: str) -> Outcome | None:
    if token == "+":
        return Outcome.POSITIVE
    if token == "-":
        return Outcome.NEGATIVE
    if token == "":
        return None
    raise ValueError(f"unknown outcome token {token!r}")


def group_label(group: GroupId) -> str:
    """Human-readable group name: A, B, ... then g26, g27, ..."""
    if 0 <= group < len(_GROUP_LETTERS):
        return _GROUP_LETTERS[group]
    return f"g{group}"


def max_pairwise_gap(values: Mapping[int, float | None]) -> tuple[float, tuple[int, int]]:
    """Largest absolute difference between defined per-group values.

    Returns the gap and the attaining group pair (lowest indices on ties).
    Entries mapped to None are treated as undefined and skipped; fewer than
    two defined entries is an error.
    """
    defined = [(g, v) for g, v in sorted(values.items()) if v is not None]
    if len(defined) < 2:
        raise InsufficientGroupsError(
            f"need at least two groups with defined values, got {len(defined)}"
        )
    lo_g, lo_v = min(defined, key=lambda gv: (gv[1], gv[0]))
    hi_g, hi_v = max(defined, key=lambda gv: (gv[1], -gv[0]))
    if hi_g == lo_g:
        # All values equal: any pair attains the zero gap, report the first two.
        lo_g, hi_g = defined[0][0], defined[1][0]
    return hi_v - lo_v, (min(lo_g, hi_g), max(lo_g, hi_g))


def loss_of(score: float, outcome: Outcome) -> float:
    """Loss of a graded prediction: the score on a negative round, its
    complement on a positive round."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must lie in [0, 1], got {score!r}")
    if outcome is Outcome.POSITIVE:
        return 1.0 - score
    if outcome is Outcome.NEGATIVE:
        return float(score)
    raise TypeError(f"outcome must be an Outcome, got {outcome!r}")


def losses_from_scores(scores: np.ndarray, outcome_codes: np.ndarray) -> np.ndarray:
    """Vectorized loss_of over aligned score and outcome-code arrays.

    Every row must be labeled; unlabeled rounds have no score-based loss.
    """
    scores = np.asarray(scores, dtype=np.float64)
    codes = np.asarray(outcome_codes)
    if np.any(codes == UNLABELED_CODE):
        raise ValueError("cannot derive score losses for unlabeled rounds")
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ValueError("scores must lie in [0, 1]")
    return np.where(codes == POSITIVE_CODE, 1.0 - scores, scores)


def uniform_distribution(d: int) -> np.ndarray:
    """The uniform distribution over d experts."""
    if d < 1:
        raise ConfigError(f"need at least one expert, got d={d}")
    return np.full(d, 1.0 / d, dtype=np.float64)


def validate_distribution(p: np.ndarray, d: int | None = None) -> np.ndarray:
    """Shared simplex validator: entries >= 0 and sum within SIMPLEX_ATOL of 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"distribution must be one-dimensional, got shape {p.shape}")
    if d is not None and p.shape[0] != d:
        raise ValueError(f"distribution has {p.shape[0]} entries, expected {d}")
    if p.size == 0:
        raise ValueError("distribution must be non-empty")
    if not np.all(np.isfinite(p)):
        raise ValueError("distribution has non-finite entries")
    if p.min() < 0.0:
        raise ValueError(f"distribution has a negative entry: {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"distribution sums to {total!r}, outside 1 +/- {SIMPLEX_ATOL}")
    return p


def validate_distribution_block(p: np.ndarray, d: int) -> None:
    """Simplex check over a (n, d) block of distributions at once."""
    if p.ndim != 2 or p.shape[1] != d:
        raise InvariantViolation(f"distribution block has shape {p.shape}, expected (*, {d})")
    if p.size == 0:
        return
    if not np.all(np.isfinite(p)):
        raise InvariantViolation("distribution block has non-finite entries")
    if float(p.min()) < 0.0:
        raise InvariantViolation("distribution block has a negative entry")
    err = float(np.abs(p.sum(axis=1) - 1.0).max())
    if err > SIMPLEX_ATOL:
        raise InvariantViolation(f"distribution rows deviate from the simplex by {err!r}")


def validate_loss_vector(losses: np.ndarray, d: int | None = None) -> np.ndarray:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1:
        raise ValueError(f"loss vector must be one-dimensional, got shape {losses.shape}")
    if d is not None and losses.shape[0] != d:
        raise ValueError(f"loss vector has {losses.shape[0]} entries, expected {d}")
    if losses.size == 0:
        raise ValueError("loss vector must be non-empty")
    if not np.all(np.isfinite(losses)) or losses.min() < 0.0 or losses.max() > 1.0:
        raise ValueError("losses must lie in [0, 1]")
    return losses


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round: who arrived, what happened, what the learner played.

    ``expected_loss`` must equal the dot product of distribution and losses
    within EXPECTED_LOSS_ATOL; the constructor enforces this along with the
    simplex and loss-range invariants.
    """

    t: int
    group: GroupId
    outcome: Outcome | None
    distribution: np.ndarray
    losses: np.ndarray
    expected_loss: float

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"round index must be >= 1, got {self.t}")
        if self.group < 0:
            raise ValueError(f"group id must be >= 0, got {self.group}")
        p = validate_distribution(self.distribution)
        ell = validate_loss_vector(self.losses, d=p.shape[0])
        object.__setattr__(self, "distribution", p)
        object.__setattr__(self, "losses", ell)
        derived = float(p @ ell)
        if abs(derived - self.expected_loss) > EXPECTED_LOSS_ATOL:
            raise ValueError(
                f"expected_loss {self.expected_loss!r} disagrees with "
                f"distribution . losses = {derived!r}"
            )

    @classmethod
    def compute(
        cls,
        t: int,
        group: GroupId,
        outcome: Outcome | None,
        distribution: np.ndarray,
        losses: np.ndarray,
    ) -> "RoundRecord":
        p = np.asarray(distribution, dtype=np.float64)
        ell = np.asarray(losses, dtype=np.float64)
        return cls(t, group, outcome, p, ell, float(p @ ell))

    def to_json_obj(self) -> dict:
        return {
            "t": self.t,
            "group": int(self.group),
            "outcome": None if self.outcome is None else self.outcome.token,
            "p": [float(x) for x in self.distribution],
            "losses": [float(x) for x in self.losses],
            "expected_loss": float(self.expected_loss),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "RoundRecord":
        raw = obj.get("outcome")
        outcome = None if raw is None else outcome_from_token(raw)
        return cls(
            t=int(obj["t"]),
            group=int(obj["group"]),
            outcome=outcome,
            distribution=np.asarray(obj["p"], dtype=np.float64),
            losses=np.asarray(obj["losses"], dtype=np.float64),
            expected_loss=float(obj["expected_loss"]),
        )


# Outcome-class bins used by the accumulators: negatives, positives, unlabeled.
_BIN_NEG = 0
_BIN_POS = 1
_BIN_UNL = 2
N_BINS = 3


@dataclass
class Accumulators:
    """Streaming per-group sums split by outcome class.

    counts[g, b] is the number of rounds of group g in bin b, learner_loss
    the matching sums of the learner's expected loss, expert_loss[g, b, f]
    the sums of expert f's loss. These are exact float64 sums over the trace
    and are what the metrics consume in summary mode.
    """

    counts: np.ndarray
    learner_loss: np.ndarray
    expert_loss: np.ndarray

    @classmethod
    def zeros(cls, num_groups: int, d: int) -> "Accumulators":
        return cls(
            counts=np.zeros((num_groups, N_BINS), dtype=np.int64),
            learner_loss=np.zeros((num_groups, N_BINS), dtype=np.float64),
            expert_loss=np.zeros((num_groups, N_BINS, d), dtype=np.float64),
        )

    def add_block(
        self,
        groups: np.ndarray,
        outcome_codes: np.ndarray,
        losses: np.ndarray,
        expected: np.ndarray,
    ) -> None:
        if groups.size == 0:
            return
        num_groups, _ = self.counts.shape
        d = self.expert_loss.shape[2]
        bins = np.where(outcome_codes == UNLABELED_CODE, _BIN_UNL, outcome_codes)
        flat = groups.astype(np.int64) * N_BINS + bins
        size = num_groups * N_BINS
        self.counts += np.bincount(flat, minlength=size).reshape(num_groups, N_BINS)
        self.learner_loss += np.bincount(flat, weights=expected, minlength=size).reshape(
            num_groups, N_BINS
        )
        for f in range(d):
            self.expert_loss[:, :, f] += np.bincount(
                flat, weights=losses[:, f], minlength=size
            ).reshape(num_groups, N_BINS)


class Trace:
    """A completed run: columnar round data plus identifying metadata.

    In full retention mode the per-round distributions and loss vectors are
    kept as (T, d) arrays; in summary mode only the group, outcome, and
    expected-loss columns survive alongside the accumulators. Round indices
    are implicit: record k has t = k + 1, so they are strictly increasing
    from 1 to T by construction.
    """

    def __init__(
        self,
        *,
        d: int,
        num_groups: int,
        groups: np.ndarray,
        outcome_codes: np.ndarray,
        expected_loss: np.ndarray,
        distributions: np.ndarray | None,
        losses: np.ndarray | None,
        accumulators: Accumulators,
        rng_seed: int | None = None,
        scenario_id: str = "",
        learner_id: str = "",
        scenario_info: dict | None = None,
    ) -> None:
        self.d = d
        self.num_groups = num_groups
        self.groups = groups
        self.outcome_codes = outcome_codes
        self.expected_loss = expected_loss
        self.distributions = distributions
        self.losses = losses
        self.accumulators = accumulators
        self.rng_seed = rng_seed
        self.scenario_id = scenario_id
        self.learner_id = learner_id
        self.scenario_info = dict(scenario_info or {})

    def __len__(self) -> int:
        return int(self.groups.shape[0])

    @property
    def T(self) -> int:
        return len(self)

    @property
    def is_full(self) -> bool:
        return self.distributions is not None and self.losses is not None

    def _require_full(self, what: str) -> None:
        if not self.is_full:
            raise ContractError(
                f"{what} needs per-round distributions and losses; "
                "this trace was recorded in summary mode"
            )

    def record(self, t: int) -> RoundRecord:
        """The round record at index t (1-based)."""
        self._require_full("record access")
        if not 1 <= t <= len(self):
            raise IndexError(f"round {t} outside 1..{len(self)}")
        k = t - 1
        return RoundRecord(
            t=t,
            group=int(self.groups[k]),
            outcome=outcome_from_code(int(self.outcome_codes[k])),
            distribution=self.distributions[k],
            losses=self.losses[k],
            expected_loss=float(self.expected_loss[k]),
        )

    def records(self) -> Iterator[RoundRecord]:
        for t in range(1, len(self) + 1):
            yield self.record(t)

    def __iter__(self) -> Iterator[RoundRecord]:
        return self.records()

    def group_counts(self) -> np.ndarray:
        return self.accumulators.counts.sum(axis=1)

    # -- serialization ----------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        """One JSON round record per line."""
        self._require_full("JSONL export")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec.to_json_obj(), sort_keys=True))
                fh.write("\n")

    def to_csv(self, path: str | Path) -> None:
        """Columns: t, group, outcome, expected_loss, p_0.., loss_0..  ."""
        self._require_full("CSV export")
        header = ["t", "group", "outcome", "expected_loss"]
        header += [f"p_{f}" for f in range(self.d)]
        header += [f"loss_{f}" for f in range(self.d)]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(len(self)):
                code = int(self.outcome_codes[k])
                outcome = outcome_from_code(code)
                row = [
                    k + 1,
                    int(self.groups[k]),
                    "" if outcome is None else outcome.token,
                    repr(float(self.expected_loss[k])),
                ]
                row += [repr(float(x)) for x in self.distributions[k]]
                row += [repr(float(x)) for x in self.losses[k]]
                writer.writerow(row)

    @classmethod
    def from_records(
        cls,
        records: Sequence[RoundRecord],
        *,
        num_groups: int | None = None,
        rng_seed: int | None = None,
        scenario_id: str = "",
        learner_id: str = "",
        scenario_info: dict | None = None,
    ) -> "Trace":
        """Build a full trace from round records (t must run 1..T)."""
        if not records:
            raise ValueError("cannot infer dimensions from an empty record list")
        d = records[0].distribution.shape[0]
        for k, rec in enumerate(records):
            if rec.t != k + 1:
                raise ValueError(f"record {k} has t={rec.t}, expected {k + 1}")
        groups = np.array([r.group for r in records], dtype=np.int64)
        if num_groups is None:
            num_groups = int(groups.max()) + 1
        codes = np.array(
            [UNLABELED_CODE if r.outcome is None else r.outcome.code for r in records],
            dtype=np.int8,
        )
        dists = np.stack([r.distribution for r in records])
        losses = np.stack([r.losses for r in records])
        expected = np.array([r.expected_loss for r in records], dtype=np.float64)
        acc = Accumulators.zeros(num_groups, d)
        acc.add_block(groups, codes, losses, expected)
        return cls(
            d=d,
            num_groups=num_groups,
            groups=groups,
            outcome_codes=codes,
            expected_loss=expected,
            distributions=dists,
            losses=losses,
            accumulators=acc,
            rng_seed=rng_seed,
            scenario_id=scenario_id,
            learner_id=learner_id,
            scenario_info=scenario_info,
        )

    @classmethod
    def from_jsonl(cls, path: str | Path, **kwargs) -> "Trace":
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(RoundRecord.from_json_obj(json.loads(line)))
        return cls.from_records(records, **kwargs)

    @classmethod
    def empty(
        cls,
        d: int,
        num_groups: int,
        *,
        retain_full: bool = True,
        rng_seed: int | None = None,
        scenario_id: str = "",
        learner_id: str = "",
        scenario_info: dict | None = None,
    ) -> "Trace":
        return cls(
            d=d,
            num_groups=num_groups,
            groups=np.zeros(0, dtype=np.int64),
            outcome_codes=np.zeros(0, dtype=np.int8),
            expected_loss=np.zeros(0, dtype=np.float64),
            distributions=np.zeros((0, d)) if retain_full else None,
            losses=np.zeros((0, d)) if retain_full else None,
            accumulators=Accumulators.zeros(num_groups, d),
            rng_seed=rng_seed,
            scenario_id=scenario_id,
            learner_id=learner_id,
            scenario_info=scenario_info,
        )


class TraceBuilder:
    """Accumulates executed blocks and finalizes them into a Trace."""

    def __init__(self, d: int, num_groups: int, retain: str = "full") -> None:
        if retain not in ("full", "summary"):
            raise ConfigError(f"retain must be 'full' or 'summary', got {retain!r}")
        if num_groups < 1:
            raise ConfigError(f"need at least one group, got {num_groups}")
        self.d = d
        self.num_groups = num_groups
        self.retain = retain
        self._groups: list[np.ndarray] = []
        self._codes: list[np.ndarray] = []
        self._expected: list[np.ndarray] = []
        self._dists: list[np.ndarray] = []
        self._losses: list[np.ndarray] = []
        self.accumulators = Accumulators.zeros(num_groups, d)
        self._n = 0

    def append_block(
        self,
        groups: np.ndarray,
        outcome_codes: np.ndarray,
        losses: np.ndarray,
        distributions: np.ndarray,
        expected: np.ndarray,
    ) -> None:
        n = groups.shape[0]
        if n == 0:
            return
        validate_distribution_block(distributions, self.d)
        if losses.shape != (n, self.d):
            raise InvariantViolation(f"loss block has shape {losses.shape}, expected ({n}, {self.d})")
        if float(losses.min(initial=0.0)) < 0.0 or float(losses.max(initial=0.0)) > 1.0:
            raise InvariantViolation("loss block has entries outside [0, 1]")
        if groups.min(initial=0) < 0 or groups.max(initial=0) >= self.num_groups:
            raise InvariantViolation("group ids outside the declared group set")
        self._groups.append(np.asarray(groups, dtype=np.int64))
        self._codes.append(np.asarray(outcome_codes, dtype=np.int8))
        self._expected.append(np.asarray(expected, dtype=np.float64))
        if self.retain == "full":
            self._dists.append(np.asarray(distributions, dtype=np.float64))
            self._losses.append(np.asarray(losses, dtype=np.float64))
        self.accumulators.add_block(
            self._groups[-1], self._codes[-1], np.asarray(losses, dtype=np.float64), self._expected[-1]
        )
        self._n += n

    def build(
        self,
        *,
        rng_seed: int | None,
        scenario_id: str,
        learner_id: str,
        scenario_info: dict | None = None,
    ) -> Trace:
        if self._n == 0:
            return Trace.empty(
                self.d,
                self.num_groups,
                retain_full=(self.retain == "full"),
                rng_seed=rng_seed,
                scenario_id=scenario_id,
                learner_id=learner_id,
                scenario_info=scenario_info,
            )
        return Trace(
            d=self.d,
            num_groups=self.num_groups,
            groups=np.concatenate(self._groups),
            outcome_codes=np.concatenate(self._codes),
            expected_loss=np.concatenate(self._expected),
            distributions=np.concatenate(self._dists) if self.retain == "full" else None,
            losses=np.concatenate(self._losses) if self.retain == "full" else None,
            accumulators=self.accumulators,
            rng_seed=rng_seed,
            scenario_id=scenario_id,
            learner_id=learner_id,
            scenario_info=scenario_info,
        )
