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

import contextlib
import functools
import json
import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from json.scanner import make_scanner
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


# Rounds per chunk when a trace file is written, and lines per byte block of
# a long run: enough to amortize the per-chunk numpy calls, few enough that no
# file is held whole in memory. FPL plays its blocks in chunks of this size.
_IO_CHUNK = 8192

# Characters per block when a trace file is read, extended to the end of the
# block's last line: about 1000 lines of a two-expert trace. A parsed line is
# a dict of Python objects, about 1 KB, so a read holds fewer rows than a
# write; at 256 KiB the reader's traced peak on an FPL trace went from 1.7 to
# 2.8 times the arrays it returns.
_READ_CHARS = 1 << 17

# Rows in a long run. A run is a stretch of consecutive rows that are alike
# but for t. A writer lays out each run of at least _RUN rows as byte blocks
# from its first line, and a reader checks each run of at least _RUN lines by
# byte compares and parses its first line only. The two-expert learner kernel
# steps each run of at least _RUN rounds on one table and one loss row only
# until the table is a fixed point.
_RUN = 32

# Values at the head of a column probed for repeats.
_PROBE = 256

# The text around t's digits at the end of a JSONL line.
_T_HEAD = b', "t": '
_T_TAIL = b"}\n"


# The C scanner behind json.loads: _scan(text, k) parses the JSON value that
# starts at text[k] and returns it with the index just past its end.
_scan = make_scanner(json.JSONDecoder())


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


def _mostly_repeats(keys: np.ndarray) -> bool:
    """True when at most half of the first _PROBE keys are distinct."""
    # counted by sorting: np.unique without return_inverse imports numpy.ma,
    # which would add 1 MB to the process
    head = np.sort(keys[:_PROBE])
    return 2 * (1 + np.count_nonzero(head[1:] != head[:-1])) <= head.size


def _float_text(col: np.ndarray) -> list[str]:
    """repr of each float of a 1-D column. When its bit patterns (so -0.0
    keeps its sign) mostly repeat, each distinct one is formatted once and the
    text gathered back; repr is most of a trace writer's time."""
    col = np.asarray(col, dtype=np.float64)
    bits = col.view(np.int64)
    if not _mostly_repeats(bits):
        return list(map(repr, col.tolist()))
    uniq, inverse = np.unique(bits, return_inverse=True)
    return np.array(list(map(repr, uniq.view(np.float64).tolist())), dtype=object)[inverse].tolist()


def _same_width(first: int, last: int) -> Iterator[tuple[int, int]]:
    """first..last cut where t gains a digit, as (lo, hi) pairs."""
    while first <= last:
        hi = min(last, 10 ** len(str(first)) - 1)
        yield first, hi
        first = hi + 1


@functools.cache
def _digit_rows() -> np.ndarray:
    """(20000, 4) uint8, read-only: row i holds the ASCII digits of
    i % 10000, with leading zeros, so the last four digits of any 10000
    consecutive numbers are a slice of it. Built on first use: built at
    import, its temporaries raised the peak RSS of processes that write no
    trace file by about 0.3 MB."""
    rows = (np.arange(20_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    rows.flags.writeable = False
    return rows


def _line_block(head: bytes, first: int, count: int, tail: bytes) -> np.ndarray:
    """The (count, W) uint8 block whose row i is the text head, the digits of
    first + i and tail; first..first + count - 1 have one number of digits.

    The block is laid out as count copies of one line, then the digits are
    copied in, in pieces of 10000 rows: the last four of them are a slice of
    ``_digit_rows()``, and those before change once at most in a piece."""
    k = len(str(first))
    a, b = len(head), len(head) + k
    block = np.frombuffer(bytearray(head + bytes(k) + tail) * count, dtype=np.uint8).reshape(count, -1)
    low = min(k, 4)
    for s in range(0, count, 10_000):
        piece, lo = block[s:s + 10_000], first + s
        r = lo % 10_000
        piece[:, b - low:b] = _digit_rows()[r:r + piece.shape[0], 4 - low:]
        if k > 4:
            turn = 10_000 - r
            piece[:turn, a:b - 4] = np.frombuffer(str(lo // 10_000).encode(), dtype=np.uint8)
            if turn < piece.shape[0]:
                piece[turn:, a:b - 4] = np.frombuffer(str(lo // 10_000 + 1).encode(), dtype=np.uint8)
    return block


def _write_lines(fh, lines: list[str], runs: list[tuple[int, int, int]],
                 split: Callable[[str, int], tuple[str, str]]) -> None:
    """Write formatted lines to the binary handle fh, each long run as byte
    blocks of at most _IO_CHUNK lines. ``runs`` lists (k, first, last):
    lines[k] is the line of round first, and rounds first..last repeat it
    with their own t. ``split(line, n)`` cuts a line around the n digits of
    its t."""
    done = 0
    for k, first, last in runs:
        fh.write("".join(lines[done:k]).encode())
        head, tail = (text.encode() for text in split(lines[k], len(str(first))))
        for lo, hi in _same_width(first, last):
            for s in range(lo, hi + 1, _IO_CHUNK):
                fh.write(_line_block(head, s, min(hi + 1 - s, _IO_CHUNK), tail))
        done = k + 1
    fh.write("".join(lines[done:]).encode())


_OUTCOME_JSON = {NEGATIVE_CODE: '"-"', POSITIVE_CODE: '"+"', UNLABELED_CODE: "null"}
_OUTCOME_CSV = {NEGATIVE_CODE: "-", POSITIVE_CODE: "+", UNLABELED_CODE: ""}
# Outcome values a JSONL row may carry; a missing or empty one is unlabeled.
_OUTCOME_CODES = {None: UNLABELED_CODE, "": UNLABELED_CODE, "-": NEGATIVE_CODE, "+": POSITIVE_CODE}
# Python types a JSON number parses to.
_NUMBERS = {int, float}


def _jsonl_format(d: int) -> tuple:
    """The JSONL layout of a d-expert trace: its header, a function from a
    chunk's formatted columns to its lines, and the split of a line around
    t's digits. A line is json.dumps(sort_keys=True) of {expected_loss,
    group, losses, outcome, p, t}, floats by repr."""
    floats = ", ".join(["%s"] * d)
    row = ('{"expected_loss": %s, "group": %d, "losses": [' + floats
           + '], "outcome": %s, "p": [' + floats + '], "t": %d}\n')

    def lines(t, groups, codes, exp, p, ell):
        out = [_OUTCOME_JSON[c] for c in codes]
        return [row % v for v in zip(exp, groups, *ell, out, *p, t)]

    return "", lines, lambda line, n: (line[:-n - 2], line[-2:])


def _csv_format(d: int) -> tuple:
    """The CSV layout of a d-expert trace, as ``_jsonl_format``'s: columns
    t, group, outcome, expected_loss, p_0.., loss_0.., laid out as
    csv.writer's default dialect lays them out: no field needs quoting, and
    rows end with \\r\\n."""
    header = ["t", "group", "outcome", "expected_loss"]
    header += [f"p_{f}" for f in range(d)] + [f"loss_{f}" for f in range(d)]
    row = "%d,%d,%s,%s" + ",%s" * (2 * d) + "\r\n"

    def lines(t, groups, codes, exp, p, ell):
        out = [_OUTCOME_CSV[c] for c in codes]
        return [row % v for v in zip(t, groups, out, exp, *p, *ell)]

    return ",".join(header) + "\r\n", lines, lambda line, n: ("", line[n:])


def _int_column(values: list) -> np.ndarray:
    """JSON integers as an int64 column. A bool, a float or an integer
    beyond int64 raises TypeError."""
    col = np.array(values)
    if not set(map(type, values)) <= {int} or col.dtype.kind != "i":
        raise TypeError("t and group must be integers")
    return col.astype(np.int64)


def _number_rows(name: str, values: list, width: int | None) -> np.ndarray:
    """n JSON lists of numbers as an (n, width) float64 block; a width of None
    takes the first list's. TypeError unless each value is a non-empty list
    of numbers, and ValueError for a list of another width."""
    if set(map(type, values)) <= {list} and all(values):
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) <= _NUMBERS:
            width = len(values[0]) if width is None else width
            if set(map(len, values)) != {width}:
                wrong = next(n for n in map(len, values) if n != width)
                raise ValueError(f"{name} has {wrong} entries, expected {width}")
            return np.array(flat, dtype=np.float64).reshape(len(values), width)
    raise TypeError(f"{name} must be a non-empty list of numbers")


def _row_columns(rows: Sequence, d: int | None) -> tuple[np.ndarray, ...]:
    """t, group, outcome code, p, losses and expected_loss columns of parsed
    JSONL rows. Raises TypeError unless every row is a JSON object, KeyError
    for a missing field, and TypeError or ValueError for a value of the wrong
    kind or a width other than d. A number must be a JSON number: np.array
    would turn "0.5" and true into floats."""
    if not set(map(type, rows)) <= {dict}:
        raise TypeError("not a JSON object")
    t = _int_column([r["t"] for r in rows])
    groups = _int_column([r["group"] for r in rows])
    codes = np.array([_OUTCOME_CODES.get(r.get("outcome"), 2) for r in rows], dtype=np.int8)
    if codes.max() == 2:
        raise ValueError("outcome must be '+', '-' or null")
    p = [r["p"] for r in rows]
    ell = [r["losses"] for r in rows]
    exp = [r["expected_loss"] for r in rows]
    if not set(map(type, exp)) <= _NUMBERS:
        raise TypeError("expected_loss must be a number")
    dists = _number_rows("p", p, d)
    return t, groups, codes, dists, _number_rows("losses", ell, dists.shape[1]), np.array(exp, dtype=np.float64)


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


def _line_offsets(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The code units of text and the start and end of each of its lines, an
    end just past the line's newline. The units are bytes when text is ASCII
    and code points otherwise, so that an offset is also a str index."""
    if text.isascii():
        buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        buf = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    ends = np.flatnonzero(buf == 10) + 1
    if not text.endswith("\n"):
        ends = np.append(ends, buf.shape[0])
    return buf, np.concatenate(([0], ends[:-1])), ends


def _long_runs(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               t: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) of each run of at least _RUN of the lines at the given
    offsets of buf, which should hold the rounds t: lines first..last each
    end with the tail ', "t": N}\\n', N their t, as ``Trace.to_jsonl`` writes
    it, and are alike before it.

    Lines of one width whose t have one number of digits, with nothing
    between them, are compared as one (L, W) array: each line's tail against
    the tail it should have, and its text before the tail against the line
    before's. Such a stretch shorter than _RUN lines is not compared.

    Why line k of a run is line first with t = N: let line first scan as one
    JSON object that ends just before its newline. Its tail cannot start
    inside a string, as the tail's quote would close it and leave t outside
    one, so the tail's "t": N is a member of the object that its "}" closes,
    and that is the top-level object, as the scan ends there. The text before
    the tail, which line k repeats, is therefore the object less its closing
    brace, ending after a whole member. Line k's tail adds the member t = N
    and closes the object, and JSON keeps the last of duplicate keys."""
    n = starts.shape[0]
    width = ends - starts
    # stretches of lines of one width whose t have one number of digits
    cut = (width[1:] != width[:-1]) | (starts[1:] != ends[:-1])
    cut[[lo - int(t[0]) - 1 for lo, _ in _same_width(int(t[0]), int(t[-1]))][1:]] = True
    bounds = np.concatenate(([0], np.flatnonzero(cut) + 1, [n]))
    long = np.flatnonzero(np.diff(bounds) >= _RUN)
    runs = []
    for i, j in zip(bounds[long].tolist(), bounds[long + 1].tolist()):
        # the length of each line's text before its tail
        size = int(width[i]) - len(_T_HEAD) - len(_T_TAIL) - len(str(int(t[i])))
        if size < 1:
            continue
        lines = buf[starts[i]:ends[j - 1]].reshape(j - i, -1)
        tails, rests = lines[:, size:], lines[:, :size]
        want = _line_block(_T_HEAD, int(t[i]), j - i, _T_TAIL)
        # gap[k]: lines i + k - 1 and i + k are not in one run, as k ends the
        # stretch, a tail of the two is wrong or their texts before the tails
        # differ; mismatches are found by flat index, not reduced per line
        gap = np.zeros(j - i + 1, dtype=bool)
        gap[[0, -1]] = True
        bad = np.flatnonzero(tails != want) // tails.shape[1]
        gap[bad] = gap[bad + 1] = True
        gap[np.flatnonzero(rests[1:] != rests[:-1]) // size + 1] = True
        cuts = np.flatnonzero(gap)
        for k in np.flatnonzero(np.diff(cuts) >= _RUN).tolist():
            runs.append((i + int(cuts[k]), i + int(cuts[k + 1]) - 1))
    return runs


def _line_by_line(path, lines: list[str], linenos: Sequence[int], d: int | None, t0: int,
                  num_groups: int | None) -> tuple:
    """The columns of a block's lines, each line parsed by json.loads and
    checked before the next: the ConfigError names the first line at fault,
    whatever is wrong with it."""
    parts = []
    for k, (line, lineno) in enumerate(zip(lines, linenos)):
        try:
            row = _row_columns([json.loads(line)], d)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} line {lineno}: not JSON ({exc.msg})") from exc
        except KeyError as exc:
            raise ConfigError(f"{path} line {lineno}: missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from exc
        t, groups, _, dists, losses, expected = row
        _check_rows(lambda _: f"{path} line {lineno}", np.array([t0 + k + 1]),
                    t, groups, dists, losses, expected, num_groups)
        d = dists.shape[1]
        parts.append(row)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _scan_lines(text: str, starts: list[int], stops: list[int]) -> list | None:
    """The JSON values of the lines that start and stop (before their
    newline) at the given offsets of text, each of which must scan as exactly
    one value; None when one does not."""
    try:
        scans = list(map(_scan, repeat(text), starts))
    except ValueError:
        return None
    # a line with no JSON value at its start raises StopIteration, which ends
    # the map early
    if len(scans) != len(starts):
        return None
    rows, ends = zip(*scans)
    return list(rows) if list(ends) == stops else None


def _block_columns(path, text: str, offsets: tuple, t0: int, lineno: int, d: int | None,
                   num_groups: int | None, last: tuple | None) -> tuple | None:
    """The checked group, outcome code, p, losses and expected_loss columns
    of the distinct rows of a block of whole lines of a JSONL trace, which
    starts at file line lineno and round t0 + 1, then the number of lines
    each row stands for and the ``last`` to pass the next block; None for a
    block of blank lines. ``offsets`` are ``_line_offsets(text)``.

    The lines are split once, by those offsets, and blank lines dropped. The
    lines of a long run (``_long_runs``) but its first are checked by byte
    compares and stand for the first's row. Every other line is scanned once
    as one JSON value, and the rows checked as they stand. ``last`` is the
    text before the tail of the block before's last line and its row, when
    that line lies in a long run: a run at the block's head whose first line
    has that text continues it, and is not parsed again. If a line does not
    scan or its row is malformed, the block's lines are parsed and checked
    one by one (``_line_by_line``), for the error naming the first line at
    fault or for rows that json.loads accepts, such as one with spaces
    around it."""
    buf, starts, ends = offsets
    linenos = np.arange(lineno, lineno + starts.shape[0])
    # a line that does not start with "{" may be blank, and blank lines are
    # dropped
    odd = np.flatnonzero(buf[starts] != ord("{")).tolist()
    blank = [k for k in odd if text[starts[k]:ends[k]].isspace()]
    if blank:
        keep = np.ones(starts.shape[0], dtype=bool)
        keep[blank] = False
        starts, ends, linenos = starts[keep], ends[keep], linenos[keep]
    n = starts.shape[0]
    if not n:
        return None
    t = np.arange(t0 + 1, t0 + n + 1)
    runs = _long_runs(buf, starts, ends, t)

    def rest(k):
        # the text of line k, which lies in a long run, before its tail
        return buf[starts[k]:ends[k] - len(_T_HEAD) - len(str(t0 + k + 1)) - len(_T_TAIL)]

    copy = np.zeros(n, dtype=bool)
    for first, end in runs:
        copy[first + 1:end + 1] = True
    heads = np.flatnonzero(~copy)
    carried = runs and runs[0][0] == 0 and last is not None and np.array_equal(last[0], rest(0))
    new = heads[1:] if carried else heads
    columns = ()
    if new.size:
        stops = ends[new] - (buf[ends[new] - 1] == 10)
        rows = _scan_lines(text, starts[new].tolist(), stops.tolist())
        try:
            columns = None if rows is None else _row_columns(rows, d)
        except (KeyError, TypeError, ValueError, OverflowError):
            columns = None
        if columns is None:
            lines = [text[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
            return (*_line_by_line(path, lines, linenos, d, t0, num_groups)[1:],
                    np.ones(n, dtype=np.int64), None)
        # a run's other lines repeat its first line's checks
        t_new, groups, codes, dists, losses, expected = columns
        _check_rows(lambda k: f"{path} line {linenos[new[k]]}", t[new],
                    t_new, groups, dists, losses, expected, num_groups)
        columns = columns[1:]
    if carried:
        columns = tuple(np.concatenate(pair) for pair in zip(last[1], columns)) if columns else last[1]
    if runs and runs[-1][1] == n - 1:
        last = (rest(n - 1).copy(), tuple(col[-1:] for col in columns))
    else:
        last = None
    return (*columns, np.diff(heads, append=n), last)


def _file_columns(path, fh, num_groups: int | None) -> Iterator[tuple]:
    """The checked group, outcome code, p, losses and expected_loss columns
    of the distinct rows of each block of a JSONL trace, and the number of
    lines each row stands for. A block is _READ_CHARS characters extended to
    the end of a line, its rounds following the blocks before, and is read
    by ``_block_columns``."""
    t0, d, lineno, last = 0, None, 1, None
    while text := fh.read(_READ_CHARS):
        if not text.endswith("\n"):
            text += fh.readline()
        offsets = _line_offsets(text)
        block = _block_columns(path, text, offsets, t0, lineno, d, num_groups, last)
        lineno += offsets[1].shape[0]
        if block is None:
            continue
        *columns, counts, last = block
        t0 += int(counts.sum())
        d = columns[2].shape[1]
        yield *columns, counts


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

    def _export_chunks(self) -> Iterator[tuple]:
        """Per chunk of _IO_CHUNK rounds, the rows of it to format: their t,
        group and outcome code as Python ints; their expected loss column and
        their d distribution and d loss columns as repr text, each float
        formatted once for every file written; and the long runs that start
        in the chunk, which are written whole from it.

        Runs are found once over the whole trace: a row starts a new run
        unless each of its expected loss, group, outcome code, p and loss
        columns has the bits of the row before (-0.0 is not 0.0), one numpy
        compare per column. Of a run of at least _RUN rows only the first row
        is formatted: its entry (k, first, last) says that row k of the chunk
        is round first, and that rounds first..last are written from its
        line. Every row of a shorter run is formatted. FPL plays on 0/1
        losses run this way: 99.7% of a 100k-round FPL trace on t4 lies in
        runs of at least 32 rows."""
        n = len(self)
        starts, counts = _run_bounds((self.expected_loss, self.groups, self.outcome_codes,
                                      *self.distributions.T, *self.losses.T), n)
        long = counts >= _RUN
        # the rows a long run repeats from its first are not formatted
        kept = ~np.repeat(long, counts)
        heads, lasts = starts[long], starts[long] + counts[long] - 1
        kept[heads] = True
        # one entry per row, held while the files are written otherwise
        del starts, counts, long
        for s in range(0, n, _IO_CHUNK):
            e = min(n, s + _IO_CHUNK)
            rows = s + np.flatnonzero(kept[s:e])
            lo, hi = np.searchsorted(heads, [s, e])
            runs = zip(np.searchsorted(rows, heads[lo:hi]).tolist(), (heads[lo:hi] + 1).tolist(),
                       (lasts[lo:hi] + 1).tolist())
            yield (
                (rows + 1).tolist(),
                self.groups[rows].tolist(),
                self.outcome_codes[rows].tolist(),
                _float_text(self.expected_loss[rows]),
                [_float_text(col) for col in self.distributions[rows].T],
                [_float_text(col) for col in self.losses[rows].T],
                list(runs),
            )

    def to_files(self, *, jsonl: str | Path | None = None, csv: str | Path | None = None) -> None:
        """Write the trace's JSONL file, its CSV file or both in one pass over
        ``_export_chunks``: runs found once, each float formatted once, and
        each chunk's lines written to every file before the next chunk.

        In both files a long run's first line is cut around t's digits, and
        the run is written as (L, W) byte blocks of the text before them, t's
        digits and the text after them, one block for each number of t's
        digits and at most _IO_CHUNK lines. The bytes are the same as when
        each row is formatted whole."""
        self._require_full("trace file export")
        with contextlib.ExitStack() as stack:
            outs = []
            for path, layout in ((jsonl, _jsonl_format), (csv, _csv_format)):
                if path is not None:
                    header, lines, split = layout(self.d)
                    fh = stack.enter_context(open(path, "wb"))
                    fh.write(header.encode())
                    outs.append((fh, lines, split))
            for t, groups, codes, exp, p, ell, runs in self._export_chunks() if outs else ():
                for fh, lines, split in outs:
                    _write_lines(fh, lines(t, groups, codes, exp, p, ell), runs, split)

    def to_jsonl(self, path: str | Path) -> None:
        """One JSON round record per line: json.dumps(sort_keys=True) of
        {expected_loss, group, losses, outcome, p, t}, floats by repr. The
        JSONL half of ``to_files``."""
        self.to_files(jsonl=path)

    def to_csv(self, path: str | Path) -> None:
        """Columns: t, group, outcome, expected_loss, p_0.., loss_0.., as
        csv.writer's default dialect lays them out. The CSV half of
        ``to_files``."""
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
        """Read a trace written by ``to_jsonl``, one block of whole lines
        of about _READ_CHARS characters at a time (``_file_columns``).

        Each line must hold exactly one JSON object. Every block takes one
        path (``_block_columns``): its lines are split once, the lines of
        long runs but each run's first are checked by byte compares, and
        every other line is scanned once; FPL traces are read almost wholly
        by runs. Each distinct row is checked as soon as its block is read,
        its t continuing from the block before. Only the distinct rows and
        the number of lines each stands for are kept, and each column is
        expanded once the file is read. A malformed file raises ConfigError
        naming the file and its first line at fault. ``num_groups`` and
        ``meta`` are ``from_records``'s keyword arguments.
        """
        # groups, outcome codes, p, losses and expected_loss of each block's
        # distinct rows, one list of block columns each, and the number of
        # rows each stands for
        parts: tuple[list[np.ndarray], ...] = ([], [], [], [], [], [])
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for columns in _file_columns(path, fh, num_groups):
                    for part, col in zip(parts, columns):
                        part.append(col)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        if not parts[0]:
            raise ConfigError(f"{path}: no rounds")
        counts = np.concatenate(parts[-1])
        repeats = counts.shape[0] < counts.sum()
        columns = []
        for part in parts[:-1]:
            # one column at a time, its chunks freed before the next is joined
            col = np.concatenate(part)
            part.clear()
            columns.append(np.repeat(col, counts, axis=0) if repeats else col)
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
