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

import json
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


def _off_simplex(p: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (n, d) block with a negative or non-finite
    entry or a sum farther than SIMPLEX_ATOL from 1. NaN fails every
    comparison, so it needs no check of its own."""
    with np.errstate(invalid="ignore", over="ignore"):
        return ~((p.min(axis=1) >= 0.0) & (np.abs(p.sum(axis=1) - 1.0) <= SIMPLEX_ATOL))


def _first_off_simplex(p: np.ndarray) -> int | None:
    """First row of a non-empty (n, d) block that ``_off_simplex`` marks, or None."""
    with np.errstate(invalid="ignore", over="ignore"):
        if p.min() >= 0.0 and np.abs(p.sum(axis=1) - 1.0).max() <= SIMPLEX_ATOL:
            return None
    return int(np.argmax(_off_simplex(p)))


def validate_distribution_block(p: np.ndarray, d: int) -> None:
    """Simplex check over a (n, d) block of distributions at once."""
    if p.ndim != 2 or p.shape[1] != d:
        raise InvariantViolation(f"distribution block has shape {p.shape}, expected (*, {d})")
    if p.size == 0:
        return
    k = _first_off_simplex(p)
    if k is not None:
        raise InvariantViolation(f"distribution row {k} is off the simplex: {p[k].tolist()!r}")


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


# Rounds per chunk when a trace file is written: enough to amortize the
# per-chunk numpy calls, few enough that no file is held whole in memory.
_IO_CHUNK = 8192

# Lines per json.loads call when a trace file is read. A parsed line is a dict
# of Python objects, about 1 KB, so a read holds fewer rows than a write.
_READ_LINES = 1024

# Values of a chunk column probed for repeats before its floats are formatted.
_PROBE = 256


def _float_text(col: np.ndarray) -> list[str]:
    """repr of each float of a 1-D column. When at most half of its first
    _PROBE values are distinct, each distinct bit pattern (so -0.0 keeps its
    sign) is formatted once and the text gathered back; repr is most of a
    trace writer's time, and FPL and loss columns repeat a few values."""
    col = np.asarray(col, dtype=np.float64)
    bits = col.view(np.int64)
    # counted by sorting: np.unique without return_inverse imports numpy.ma,
    # which would add 1 MB to the process
    head = np.sort(bits[:_PROBE])
    if 2 * (1 + np.count_nonzero(head[1:] != head[:-1])) > head.size:
        return list(map(repr, col.tolist()))
    uniq, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, uniq.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


_OUTCOME_JSON = {NEGATIVE_CODE: '"-"', POSITIVE_CODE: '"+"', UNLABELED_CODE: "null"}
_OUTCOME_CSV = {NEGATIVE_CODE: "-", POSITIVE_CODE: "+", UNLABELED_CODE: ""}
# Outcome values a JSONL row may carry; a missing or empty one is unlabeled.
_OUTCOME_CODES = {None: UNLABELED_CODE, "": UNLABELED_CODE, "-": NEGATIVE_CODE, "+": POSITIVE_CODE}


def _line_chunks(fh) -> Iterator[tuple[list[str], list[int]]]:
    """The non-blank lines of a file with their 1-based line numbers,
    _READ_LINES lines at a time."""
    lines: list[str] = []
    linenos: list[int] = []
    for lineno, line in enumerate(fh, 1):
        if line.strip():
            lines.append(line)
            linenos.append(lineno)
            if len(lines) == _READ_LINES:
                yield lines, linenos
                lines, linenos = [], []
    if lines:
        yield lines, linenos


def _row_columns(rows: list[dict], d: int | None) -> tuple[np.ndarray, ...]:
    """t, group, outcome code, p, losses and expected_loss columns of parsed
    JSONL rows. Raises KeyError for a missing field, and TypeError or
    ValueError for a value of the wrong kind or a width other than d."""
    if not all(type(r) is dict for r in rows):
        raise TypeError("not a JSON object")
    t = np.array([r["t"] for r in rows])
    groups = np.array([r["group"] for r in rows])
    if t.dtype.kind != "i" or groups.dtype.kind != "i":
        raise TypeError("t and group must be integers")
    codes = np.array([_OUTCOME_CODES.get(r.get("outcome"), 2) for r in rows], dtype=np.int8)
    if codes.max() == 2:
        raise ValueError("outcome must be '+', '-' or null")
    dists = np.array([r["p"] for r in rows], dtype=np.float64)
    losses = np.array([r["losses"] for r in rows], dtype=np.float64)
    expected = np.array([r["expected_loss"] for r in rows], dtype=np.float64)
    if expected.ndim != 1:
        raise TypeError("expected_loss must be a number")
    for name, col in (("p", dists), ("losses", losses)):
        if col.ndim != 2 or col.shape[1] == 0:
            raise TypeError(f"{name} must be a non-empty list of numbers")
        width = dists.shape[1] if d is None else d
        if col.shape[1] != width:
            raise ValueError(f"{name} has {col.shape[1]} entries, expected {width}")
    return t.astype(np.int64), groups.astype(np.int64), codes, dists, losses, expected


def _check_rows(
    where: Callable[[int], str],
    t0: int,
    t: np.ndarray,
    groups: np.ndarray,
    dists: np.ndarray,
    losses: np.ndarray,
    expected: np.ndarray,
    num_groups: int | None,
) -> None:
    """Check rows as RoundRecord checks one round, plus their order and
    groups: row k must have t = t0 + k + 1 and a group in 0..num_groups - 1
    (any group >= 0 when num_groups is None). The first row that breaks a
    check raises ConfigError, with ``where(k)`` naming row k."""
    upper = np.inf if num_groups is None else num_groups
    with np.errstate(invalid="ignore", over="ignore"):
        derived = (dists * losses).sum(axis=1)
        checks = [
            (t != np.arange(t0 + 1, t0 + t.shape[0] + 1),
             lambda k: f"t is {t[k]}, expected {t0 + k + 1}"),
            ((groups < 0) | (groups >= upper),
             lambda k: f"group {groups[k]} "
                       + ("is negative" if num_groups is None else f"outside 0..{num_groups - 1}")),
            (_off_simplex(dists), lambda k: f"p {dists[k].tolist()} is off the simplex"),
            (~((losses.min(axis=1) >= 0.0) & (losses.max(axis=1) <= 1.0)),
             lambda k: f"losses {losses[k].tolist()} outside [0, 1]"),
            (~(np.abs(derived - expected) <= EXPECTED_LOSS_ATOL),
             lambda k: f"expected_loss {expected[k]!r} disagrees with "
                       f"p . losses = {derived[k]!r}"),
        ]
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(np.argmax(bad))
        what = next(what for mask, what in checks if mask[k])
        raise ConfigError(f"{where(k)}: {what(k)}")


def _json_columns(path, lines: list[str], linenos: list[int], d: int | None, t0: int,
                  num_groups: int | None) -> tuple:
    """The checked group, outcome code, p, losses and expected_loss columns
    of one chunk of lines, whose rounds follow round t0. The chunk is parsed
    as one JSON array, one decoder call. If that fails, or a line holds more
    than one value, the lines are parsed and checked one by one, so that the
    ConfigError names the first line at fault."""
    try:
        rows = json.loads("[" + ",".join(lines) + "]")
        if len(rows) != len(lines):
            raise ValueError("a line holds more than one JSON value")
        t, groups, codes, dists, losses, expected = _row_columns(rows, d)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        for k, (line, lineno) in enumerate(zip(lines, linenos)):
            try:
                t, groups, codes, dists, losses, expected = _row_columns([json.loads(line)], d)
            except json.JSONDecodeError as row_exc:
                raise ConfigError(f"{path} line {lineno}: not JSON ({row_exc.msg})") from row_exc
            except KeyError as row_exc:
                raise ConfigError(f"{path} line {lineno}: missing field {row_exc}") from row_exc
            except (TypeError, ValueError, OverflowError) as row_exc:
                raise ConfigError(f"{path} line {lineno}: {row_exc}") from row_exc
            _check_rows(lambda _: f"{path} line {lineno}", t0 + k,
                        t, groups, dists, losses, expected, num_groups)
            d = dists.shape[1]
        raise ConfigError(f"{path} lines {linenos[0]}-{linenos[-1]}: {exc}") from exc
    _check_rows(lambda k: f"{path} line {linenos[k]}", t0,
                t, groups, dists, losses, expected, num_groups)
    return groups, codes, dists, losses, expected


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

    def _export_chunks(self, outcome_text: Mapping[int, str]) -> Iterator[tuple]:
        """Per chunk of rounds: t, group, outcome text, expected loss, then the
        distribution and loss columns (d lists each); ints as Python ints,
        floats as their repr text."""
        for s in range(0, len(self), _IO_CHUNK):
            e = min(len(self), s + _IO_CHUNK)
            yield (
                range(s + 1, e + 1),
                self.groups[s:e].tolist(),
                [outcome_text[c] for c in self.outcome_codes[s:e].tolist()],
                _float_text(self.expected_loss[s:e]),
                [_float_text(col) for col in self.distributions[s:e].T],
                [_float_text(col) for col in self.losses[s:e].T],
            )

    def to_jsonl(self, path: str | Path) -> None:
        """One JSON round record per line: json.dumps(sort_keys=True) of
        {expected_loss, group, losses, outcome, p, t}, floats by repr."""
        self._require_full("JSONL export")
        floats = ", ".join(["%s"] * self.d)
        row = (
            '{"expected_loss": %s, "group": %d, "losses": [' + floats
            + '], "outcome": %s, "p": [' + floats + '], "t": %d}\n'
        )
        with open(path, "w", encoding="utf-8") as fh:
            for t, g, out, exp, p, ell in self._export_chunks(_OUTCOME_JSON):
                fh.write("".join([row % v for v in zip(exp, g, *ell, out, *p, t)]))

    def to_csv(self, path: str | Path) -> None:
        """Columns: t, group, outcome, expected_loss, p_0.., loss_0..  .

        Laid out as csv.writer's default dialect lays them out: no field
        needs quoting, and rows end with \\r\\n."""
        self._require_full("CSV export")
        header = ["t", "group", "outcome", "expected_loss"]
        header += [f"p_{f}" for f in range(self.d)]
        header += [f"loss_{f}" for f in range(self.d)]
        row = "%d,%d,%s,%s" + ",%s" * (2 * self.d) + "\r\n"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for t, g, out, exp, p, ell in self._export_chunks(_OUTCOME_CSV):
                fh.write("".join([row % v for v in zip(t, g, out, exp, *p, *ell)]))

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
        _check_rows(lambda k: f"record {k + 1}", 0, np.array([r.t for r in records]),
                    groups, dists, losses, expected, num_groups)
        return cls._fold(
            groups,
            np.array(
                [UNLABELED_CODE if r.outcome is None else r.outcome.code for r in records],
                dtype=np.int8,
            ),
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
        """Read a trace written by ``to_jsonl``, _READ_LINES lines at a time.

        Each chunk is checked as soon as it is parsed, its t continuing from
        the chunk before, and only its columns are kept. A malformed file
        raises ConfigError naming the file and its first line at fault.
        ``num_groups`` and ``meta`` are ``from_records``'s keyword arguments.
        """
        # groups, outcome codes, p, losses and expected_loss, one list of
        # chunk columns each
        parts: tuple[list[np.ndarray], ...] = ([], [], [], [], [])
        n = 0
        d = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lines, linenos in _line_chunks(fh):
                    for part, col in zip(parts, _json_columns(path, lines, linenos, d, n, num_groups)):
                        part.append(col)
                    n += len(lines)
                    d = parts[2][-1].shape[1]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        if not n:
            raise ConfigError(f"{path}: no rounds")
        columns = []
        for part in parts:
            # one column at a time, its chunks freed before the next is joined
            columns.append(np.concatenate(part))
            part.clear()
        return cls._fold(*columns, num_groups=num_groups, **meta)


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
        # NaN fails both comparisons, so it is rejected with the out-of-range values
        if not (losses.min() >= 0.0 and losses.max() <= 1.0):
            raise InvariantViolation("loss block has entries outside [0, 1]")
        if groups.min(initial=0) < 0 or groups.max(initial=0) >= self.num_groups:
            raise InvariantViolation("group ids outside the declared group set")
        # checked before the int8 cast, which would wrap 256 to a valid 0
        codes = np.asarray(outcome_codes)
        if codes.shape != (n,) or codes.dtype.kind not in "biu":
            raise InvariantViolation(
                f"outcome code block has shape {codes.shape} and dtype {codes.dtype}, "
                f"expected ({n},) integers"
            )
        if codes.min() < UNLABELED_CODE or codes.max() > POSITIVE_CODE:
            k = int(np.argmax((codes < UNLABELED_CODE) | (codes > POSITIVE_CODE)))
            raise InvariantViolation(f"outcome code {codes[k]} at row {k} of the block is not -1, 0 or 1")
        self._groups.append(np.asarray(groups, dtype=np.int64))
        self._codes.append(codes.astype(np.int8, copy=False))
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
