"""Core vocabulary for sequential prediction with group context.

A run lasts T rounds. Each round carries a group id, optionally a binary
outcome, one loss per expert in [0, 1], and the learner's distribution over
experts. Scores in [0, 1] are graded predictions; the loss of a score is the
score itself on a negative round and one minus the score on a positive round,
so a score and its complement always have losses summing to one.

Traces store rounds in columnar numpy arrays plus streaming accumulators
(per-group counts and loss sums split by outcome class) so that metrics can
be computed without per-round python objects even for multi-million-round
runs. ``RoundRecord`` is the per-round view used at API boundaries.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

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


def require_type(name: str, value, kind: type, what: str) -> None:
    """ConfigError unless ``value`` is a ``kind`` (a class from ``numbers``)
    and not a bool: a config value such as 2.5 or "0.1" is rejected, not
    coerced."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def require_reals(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats. ConfigError unless it is a list or
    tuple of real numbers that are not bools; integers become floats, so
    config echoes keep one form."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    for i, x in enumerate(values):
        require_type(f"{name}[{i}]", x, numbers.Real, "a number")
    return tuple(float(x) for x in values)


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


def outcome_code(outcome: Outcome | None) -> int:
    """The column code of an outcome, UNLABELED_CODE for None. Anything
    else, such as a code or a token, raises TypeError."""
    if outcome is None:
        return UNLABELED_CODE
    if not isinstance(outcome, Outcome):
        raise TypeError(f"outcome must be an Outcome or None, got {outcome!r}")
    return outcome.code


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
    complement on a positive round. One row of ``losses_from_scores``."""
    if not isinstance(outcome, Outcome):
        raise TypeError(f"outcome must be an Outcome, got {outcome!r}")
    return float(losses_from_scores([score], [outcome.code])[0])


def losses_from_scores(scores: np.ndarray, outcome_codes: np.ndarray) -> np.ndarray:
    """Losses of aligned score and outcome-code arrays: the score on a
    negative round, its complement on a positive round.

    Every row must be labeled; unlabeled rounds have no score-based loss.
    A score outside [0, 1], NaN included, raises ValueError.
    """
    scores = np.asarray(scores)
    if scores.dtype.kind not in "biuf":
        raise TypeError(f"scores must be numbers, got dtype {scores.dtype}")
    scores = scores.astype(np.float64, copy=False)
    codes = np.asarray(outcome_codes)
    if np.any(codes == UNLABELED_CODE):
        raise ValueError("cannot derive score losses for unlabeled rounds")
    if _first_off_unit(scores.reshape(-1, 1)) is not None:
        raise ValueError("scores must lie in [0, 1]")
    return np.where(codes == POSITIVE_CODE, 1.0 - scores, scores)


def uniform_distribution(d: int) -> np.ndarray:
    """The uniform distribution over d experts."""
    if d < 1:
        raise ConfigError(f"need at least one expert, got d={d}")
    return np.full(d, 1.0 / d, dtype=np.float64)


def _numbers(x, what: str) -> np.ndarray:
    """x as an array of numbers; ContractError naming ``what`` when it is
    ragged or holds something else."""
    try:
        x = np.asarray(x)
    except ValueError as exc:
        raise ContractError(f"{what} are not arrays: {exc}") from exc
    if x.dtype.kind not in "biuf":
        raise ContractError(f"{what} have shape {x.shape} and dtype {x.dtype}, expected numbers")
    return x


def _check_outcome_codes(codes, n: int, where: str, error: type) -> np.ndarray:
    """``codes`` as int8 once checked to be n integers in {-1, 0, 1} (the
    cast would wrap 256 to a valid 0); ``where.format(k)`` names code k."""
    codes = np.asarray(codes)
    if codes.shape != (n,) or codes.dtype.kind not in "biu":
        raise error(f"outcome codes have shape {codes.shape} and dtype {codes.dtype}, "
                    f"expected ({n},) integers")
    if codes.size and (codes.min() < UNLABELED_CODE or codes.max() > POSITIVE_CODE):
        k = int(np.argmax((codes < UNLABELED_CODE) | (codes > POSITIVE_CODE)))
        raise error(f"outcome code {codes[k]} at {where.format(k)} is not -1, 0 or 1")
    return codes.astype(np.int8, copy=False)


def _vector(what: str, x, d: int | None) -> np.ndarray:
    """x as a non-empty one-dimensional float64 array, of d entries when d is
    given, raising ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {x.shape}")
    if d is not None and x.shape[0] != d:
        raise ValueError(f"{what} has {x.shape[0]} entries, expected {d}")
    if x.size == 0:
        raise ValueError(f"{what} must be non-empty")
    return x


def validate_distribution(p: np.ndarray, d: int | None = None) -> np.ndarray:
    """One distribution checked as a row of ``validate_distribution_block``,
    raising ValueError."""
    p = _vector("distribution", p, d)
    if _first_off_simplex(p[None]) is not None:
        raise ValueError(f"distribution {p.tolist()!r} is off the simplex")
    return p


def _row_sums(p: np.ndarray) -> np.ndarray:
    """Row sums of an (n, d) block, as a new array. numpy adds a row of
    fewer than 8 entries in order, so for d < 8 adding the columns left to
    right gives the bits of ``p.sum(axis=1)``, which steps through the
    block row by row and took about 20 times as long on a (50k, 2) block.
    Wider rows keep numpy's pairwise order."""
    if p.shape[1] >= 8:
        return p.sum(axis=1)
    sums = p[:, 0] + 0.0  # numpy's sum starts from +0.0, so a -0.0 sum is +0.0
    for col in p.T[1:]:
        sums += col
    return sums


def _off_simplex(p: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (n, d) block with a negative or non-finite
    entry or a sum farther than SIMPLEX_ATOL from 1. NaN fails every
    comparison, so it needs no check of its own."""
    with np.errstate(invalid="ignore", over="ignore"):
        return ~((p.min(axis=1) >= 0.0) & (np.abs(_row_sums(p) - 1.0) <= SIMPLEX_ATOL))


def _first_off_simplex(p: np.ndarray) -> int | None:
    """First row of a non-empty (n, d) block that ``_off_simplex`` marks, or None."""
    with np.errstate(invalid="ignore", over="ignore"):
        if p.min() >= 0.0:
            gaps = _row_sums(p)
            gaps -= 1.0
            if np.abs(gaps, out=gaps).max() <= SIMPLEX_ATOL:
                return None
    return int(np.argmax(_off_simplex(p)))


def expected_losses(dists: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """p . losses for each row of two aligned (n, d) blocks: the one
    expected-loss rule. A row's bits do not depend on the rows around it."""
    return np.einsum("td,td->t", dists, losses)


def _off_unit(x: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (n, d) block with an entry outside [0, 1]. NaN
    fails both comparisons, so it is marked with the out-of-range values."""
    return ~((x.min(axis=1) >= 0.0) & (x.max(axis=1) <= 1.0))


def _first_off_unit(x: np.ndarray) -> int | None:
    """First row of an (n, d) block that ``_off_unit`` marks, or None. The
    whole block is checked first and the mask built only if that fails: on a
    (100k, 2) block the mask costs over 100 times as much."""
    if not x.size or (x.min() >= 0.0 and x.max() <= 1.0):
        return None
    return int(np.argmax(_off_unit(x)))


def validate_distribution_block(p: np.ndarray, d: int) -> None:
    """Simplex check over a (n, d) block of distributions at once."""
    if p.ndim != 2 or p.shape[1] != d:
        raise InvariantViolation(f"distribution block has shape {p.shape}, expected (*, {d})")
    if p.size == 0:
        return
    k = _first_off_simplex(p)
    if k is not None:
        raise InvariantViolation(f"distribution row {k} is off the simplex: {p[k].tolist()!r}")


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round: who arrived, what happened, what the learner played.

    ``expected_loss`` must equal the dot product of distribution and losses
    within EXPECTED_LOSS_ATOL; the constructor enforces this along with the
    simplex and loss-range invariants, as one row of a trace is checked.
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
        outcome_code(self.outcome)  # TypeError unless an Outcome or None
        # shapes here, values once, in _check_rows
        p = _vector("distribution", self.distribution, None)
        ell = _vector("loss vector", self.losses, p.shape[0])
        object.__setattr__(self, "distribution", p)
        object.__setattr__(self, "losses", ell)
        _check_rows(lambda _: f"round {self.t}", np.array([self.t]), np.array([self.t]),
                    np.array([self.group]), p[None], ell[None],
                    np.array([self.expected_loss]), None)

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
        return cls(t, group, outcome, p, ell, float(expected_losses(p[None], ell[None])[0]))


# Outcome-class bins used by the accumulators: negatives, positives, unlabeled.
# The bin of outcome code c is c mod N_BINS.
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
        flat = groups.astype(np.int64, copy=False) * N_BINS
        flat += outcome_codes % N_BINS
        size = num_groups * N_BINS
        self.counts += np.bincount(flat, minlength=size).reshape(num_groups, N_BINS)
        self.learner_loss += np.bincount(flat, weights=expected, minlength=size).reshape(
            num_groups, N_BINS
        )
        for f in range(d):
            self.expert_loss[:, :, f] += np.bincount(
                flat, weights=losses[:, f], minlength=size
            ).reshape(num_groups, N_BINS)


# Lines per byte block of a long run in a trace file, and rows per chunk of
# FPL's block play: enough to amortize the per-chunk numpy calls, few enough
# that no file or block is held whole in memory.
_IO_CHUNK = 8192

# Rows in a long run, a stretch of consecutive rows alike but for t. Trace
# files (``tracefile``) write and read each long run as byte blocks, and the
# two-expert learner kernel steps one only until its table is a fixed point.
_RUN = 32


def _run_bounds(columns, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of consecutive rows over which every one
    of ``columns``, each of length n, keeps its bits (-0.0 is not 0.0): one
    numpy compare per column."""
    new = np.zeros(n, dtype=bool)
    new[:1] = True
    for col in columns:
        if col.dtype.kind == "f":
            col = np.asarray(col, dtype=np.float64).view(np.int64)
        np.logical_or(new[1:], col[1:] != col[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return starts, np.diff(starts, append=n)


def _check_rows(
    where: Callable[[int], str],
    want: np.ndarray,
    t: np.ndarray,
    groups: np.ndarray,
    dists: np.ndarray,
    losses: np.ndarray,
    expected: np.ndarray,
    num_groups: int | None,
) -> None:
    """Check rows as RoundRecord checks one round, plus their order and
    groups: row k must have t = want[k] and a group in 0..num_groups - 1
    (any group >= 0 when num_groups is None). The first row that breaks a
    check raises ConfigError, with ``where(k)`` naming row k. The whole
    block is checked with reductions first, and the per-row masks are built
    only if one of them fails."""
    upper = np.inf if num_groups is None else num_groups
    with np.errstate(invalid="ignore", over="ignore"):
        derived = expected_losses(dists, losses)
        in_order = t == want
        if not t.size or (in_order.all() and groups.min() >= 0 and groups.max() < upper
                          and _first_off_simplex(dists) is None and _first_off_unit(losses) is None
                          and np.abs(derived - expected).max() <= EXPECTED_LOSS_ATOL):
            return
        checks = [
            (~in_order, lambda k: f"t is {t[k]}, expected {want[k]}"),
            ((groups < 0) | (groups >= upper),
             lambda k: f"group {groups[k]} "
                       + ("is negative" if num_groups is None else f"outside 0..{num_groups - 1}")),
            (_off_simplex(dists), lambda k: f"p {dists[k].tolist()} is off the simplex"),
            (_off_unit(losses), lambda k: f"losses {losses[k].tolist()} outside [0, 1]"),
            (~(np.abs(derived - expected) <= EXPECTED_LOSS_ATOL),
             lambda k: f"expected_loss {expected[k]!r} disagrees with "
                       f"p . losses = {derived[k]!r}"),
        ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(np.argmax(bad))
        what = next(what for mask, what in checks if mask[k])
        raise ConfigError(f"{where(k)}: {what(k)}")

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

    # -- trace files, by ``tracefile``, imported on use as it imports this module

    def to_files(self, *, jsonl: str | Path | None = None, csv: str | Path | None = None) -> None:
        """Write the trace's JSONL file, its CSV file or both in one pass
        (``tracefile.write_files``); with neither, only check that it can."""
        self._require_full("trace file export")
        if jsonl is not None or csv is not None:
            from .tracefile import write_files

            write_files(self, jsonl, csv)

    def to_jsonl(self, path: str | Path) -> None:
        """The JSONL half of ``to_files``: one JSON round record per line."""
        self.to_files(jsonl=path)

    def to_csv(self, path: str | Path) -> None:
        """The CSV half of ``to_files``: one row per round."""
        self.to_files(csv=path)

    @classmethod
    def _fold(
        cls,
        groups: np.ndarray,
        codes: np.ndarray,
        dists: np.ndarray,
        losses: np.ndarray,
        expected: np.ndarray,
        *,
        num_groups: int | None = None,
        **meta,
    ) -> "Trace":
        """A full trace of checked columns, its accumulators folded once over
        the whole columns. num_groups defaults to the largest group plus one."""
        if num_groups is None:
            num_groups = int(groups.max()) + 1
        d = dists.shape[1]
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
            **meta,
        )

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
        groups = np.array([r.group for r in records], dtype=np.int64)
        dists = np.stack([r.distribution for r in records])
        losses = np.stack([r.losses for r in records])
        expected = np.array([r.expected_loss for r in records], dtype=np.float64)
        _check_rows(lambda k: f"record {k + 1}", np.arange(1, len(records) + 1),
                    np.array([r.t for r in records]),
                    groups, dists, losses, expected, num_groups)
        return cls._fold(
            groups,
            np.array([outcome_code(r.outcome) for r in records], dtype=np.int8),
            dists,
            losses,
            expected,
            num_groups=num_groups,
            rng_seed=rng_seed,
            scenario_id=scenario_id,
            learner_id=learner_id,
            scenario_info=scenario_info,
        )

    @classmethod
    def from_jsonl(cls, path: str | Path, *, num_groups: int | None = None, **meta) -> "Trace":
        """Read a trace written by ``to_jsonl`` (``tracefile.read_columns``);
        ``num_groups`` and ``meta`` are ``from_records``'s keyword arguments."""
        from .tracefile import read_columns

        return cls._fold(*read_columns(path, num_groups), num_groups=num_groups, **meta)


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
        # zero-length first entries give a T=0 run its typed, shaped columns
        self._groups: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        self._codes: list[np.ndarray] = [np.zeros(0, dtype=np.int8)]
        self._expected: list[np.ndarray] = [np.zeros(0, dtype=np.float64)]
        self._dists: list[np.ndarray] = [np.zeros((0, d), dtype=np.float64)]
        self._losses: list[np.ndarray] = [np.zeros((0, d), dtype=np.float64)]
        self.accumulators = Accumulators.zeros(num_groups, d)

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
        k = _first_off_unit(losses)
        if k is not None:
            raise InvariantViolation(
                f"loss row {k} of the block lies outside [0, 1]: {losses[k].tolist()!r}"
            )
        if groups.min(initial=0) < 0 or groups.max(initial=0) >= self.num_groups:
            raise InvariantViolation("group ids outside the declared group set")
        codes = _check_outcome_codes(outcome_codes, n, "row {} of the block", InvariantViolation)
        self._groups.append(np.asarray(groups, dtype=np.int64))
        self._codes.append(codes)
        self._expected.append(np.asarray(expected, dtype=np.float64))
        if self.retain == "full":
            self._dists.append(np.asarray(distributions, dtype=np.float64))
            self._losses.append(np.asarray(losses, dtype=np.float64))
        self.accumulators.add_block(
            self._groups[-1], self._codes[-1], np.asarray(losses, dtype=np.float64), self._expected[-1]
        )

    def build(
        self,
        *,
        rng_seed: int | None,
        scenario_id: str,
        learner_id: str,
        scenario_info: dict | None = None,
    ) -> Trace:
        """The trace of the blocks appended so far. Each column's blocks are
        replaced in the builder by their join as it is made, so that no more
        than one column is held twice, and the column of a run of one block
        is that block's array, not a copy. It may be called again, also after
        more blocks are appended."""
        full = self.retain == "full"
        return Trace(
            d=self.d,
            num_groups=self.num_groups,
            groups=_join(self._groups),
            outcome_codes=_join(self._codes),
            expected_loss=_join(self._expected),
            distributions=_join(self._dists) if full else None,
            losses=_join(self._losses) if full else None,
            accumulators=self.accumulators,
            rng_seed=rng_seed,
            scenario_id=scenario_id,
            learner_id=learner_id,
            scenario_info=scenario_info,
        )


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """One array of a builder's column parts, which then stand for it: the
    blocks after the zero-length first part, which gives a T=0 run its dtype
    and shape, are replaced by their join, and a lone block is returned as it
    is."""
    if len(parts) > 2:
        parts[1:] = [np.concatenate(parts)]
    return parts[-1]
