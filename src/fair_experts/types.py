"""Core vocabulary for sequential prediction with group context.

A run lasts T rounds. Each round carries a group id, an outcome code
(NEGATIVE_CODE, POSITIVE_CODE, or UNLABELED_CODE for a round with no label),
one loss per expert in [0, 1], and the learner's distribution over experts.
Scores in [0, 1] are graded predictions; the loss of a score is the score
itself on a negative round and one minus the score on a positive round, so a
score and its complement always have losses summing to one.

Traces store rounds in columnar numpy arrays plus streaming accumulators
(per-group counts and loss sums split by outcome class) so that metrics can
be computed without per-round python objects even for multi-million-round
runs. Each round rule is written once, over blocks of rows, and rows enter a
trace only as blocks, through ``TraceBuilder.append_block``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping

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


def echo_fields(obj) -> dict:
    """The config echo of a dataclass: its fields in order, less those whose
    value is None, False or "", with tuples as lists. Rebuilding the object
    from the echo gives an equal object. None and False are matched by
    identity, as 0.0 == False and a field at 0.0 stays."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None or value is False or value == "":
            continue
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


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


def losses_from_scores(scores: np.ndarray, outcome_codes: np.ndarray) -> np.ndarray:
    """Losses of aligned score and outcome-code arrays: the score on a
    negative round, its complement on a positive round.

    Every row must be labeled; unlabeled rounds have no score-based loss.
    Scores that are not numbers or lie outside [0, 1], NaN included, raise
    ConfigError (a ValueError), and so does a code column that is not one
    integer in {-1, 0, 1} per score.
    """
    scores = np.asarray(scores)
    if scores.dtype.kind not in "biuf":
        raise ConfigError(f"scores must be numbers, got dtype {scores.dtype}")
    scores = scores.astype(np.float64, copy=False)
    codes = _check_outcome_codes(outcome_codes, scores.size, "round {}", ConfigError)
    if np.any(codes == UNLABELED_CODE):
        raise ConfigError("cannot derive score losses for unlabeled rounds")
    if _first_off_unit(scores.reshape(-1, 1)) is not None:
        raise ConfigError("scores must lie in [0, 1]")
    return np.where(codes == POSITIVE_CODE, 1.0 - scores, scores)


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


def _check_groups(groups) -> np.ndarray:
    """``groups`` as an array. ContractError unless it is (n,) integers: the
    int64 cast a block is played through would floor 0.7 to group 0."""
    groups = _numbers(groups, "group ids")
    if groups.ndim != 1 or groups.dtype.kind not in "iu":
        raise ContractError(f"group ids have shape {groups.shape} and dtype {groups.dtype}, "
                            "expected (n,) integers")
    return groups


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


def _check_expected(expected, dists: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """``expected`` as float64 once checked to be an (n,) column that agrees
    with ``expected_losses(dists, losses)`` within EXPECTED_LOSS_ATOL,
    raising InvariantViolation that names its first bad row."""
    n = dists.shape[0]
    expected = np.asarray(expected)
    if expected.shape != (n,) or expected.dtype.kind not in "biuf":
        raise InvariantViolation(f"expected-loss column has shape {expected.shape} and dtype "
                                 f"{expected.dtype}, expected ({n},) numbers")
    expected = expected.astype(np.float64, copy=False)
    derived = expected_losses(dists, losses)
    gaps = np.subtract(derived, expected, out=derived)
    if not np.abs(gaps, out=gaps).max() <= EXPECTED_LOSS_ATOL:  # NaN fails too
        k = int(np.argmax(~(gaps <= EXPECTED_LOSS_ATOL)))
        derived_k = expected_losses(dists[k:k + 1], losses[k:k + 1])[0]
        raise InvariantViolation(f"expected loss {float(expected[k])!r} at row {k} of the block "
                                 f"disagrees with p . losses = {float(derived_k)!r}")
    return expected


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


# Lines per byte block of a long run in a trace file, and rows per chunk of a
# table's rows in a learner's block play (``CumulativeLossLearner.run_block``):
# enough to amortize the per-chunk numpy calls, few enough that no file or
# block is held whole in memory.
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
    """Check rows read from a trace file: row k must have a simplex p,
    losses in [0, 1], an expected loss within EXPECTED_LOSS_ATOL of
    p . losses, t = want[k] and a group in 0..num_groups - 1
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
    are implicit: row k has t = k + 1, so they are strictly increasing
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
    def is_full(self) -> bool:
        return self.distributions is not None and self.losses is not None

    def _require_full(self, what: str) -> None:
        if not self.is_full:
            raise ContractError(
                f"{what} needs per-round distributions and losses; "
                "this trace was recorded in summary mode"
            )

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
    def from_jsonl(cls, path: str | Path, *, num_groups: int | None = None, **meta) -> "Trace":
        """Read a trace written by ``to_jsonl``: the checked columns of
        ``tracefile.read_columns`` as one block of a ``TraceBuilder``.
        num_groups defaults to the largest group plus one, and ``meta`` is
        ``TraceBuilder.build``'s keyword arguments."""
        from .tracefile import read_columns

        groups, codes, dists, losses, expected = read_columns(path, num_groups)
        builder = TraceBuilder(dists.shape[1], int(groups.max()) + 1 if num_groups is None else num_groups)
        builder.append_block(groups, codes, losses, dists, expected)
        return builder.build(**meta)


class TraceBuilder:
    """Accumulates executed blocks and finalizes them into a Trace: the one
    path from checked columns to a Trace, for runs and trace files."""

    def __init__(self, d: int, num_groups: int, retain: str = "full") -> None:
        require_type("d", d, numbers.Integral, "an integer")
        require_type("num_groups", num_groups, numbers.Integral, "an integer")
        if retain not in ("full", "summary"):
            raise ConfigError(f"retain must be 'full' or 'summary', got {retain!r}")
        if d < 1:
            raise ConfigError(f"need at least one expert, got d={d}")
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
        expected: np.ndarray | None = None,
    ) -> None:
        """Check a block of n rounds and keep it. Every column is checked
        before any is kept, and a refused block raises InvariantViolation and
        leaves the builder as it was. The expected-loss column is derived
        here as ``expected_losses(distributions, losses)``; a caller that
        holds one already, as a trace file does, passes it as ``expected``,
        and it is kept as given once it agrees within EXPECTED_LOSS_ATOL."""
        n = groups.shape[0]
        if n == 0:
            return
        for name, block in (("distribution", distributions), ("loss", losses)):
            if block.shape != (n, self.d):
                raise InvariantViolation(f"{name} block has shape {block.shape}, expected ({n}, {self.d})")
        validate_distribution_block(distributions, self.d)
        k = _first_off_unit(losses)
        if k is not None:
            raise InvariantViolation(
                f"loss row {k} of the block lies outside [0, 1]: {losses[k].tolist()!r}"
            )
        if groups.min(initial=0) < 0 or groups.max(initial=0) >= self.num_groups:
            raise InvariantViolation("group ids outside the declared group set")
        codes = _check_outcome_codes(outcome_codes, n, "row {} of the block", InvariantViolation)
        distributions = np.asarray(distributions, dtype=np.float64)
        losses = np.asarray(losses, dtype=np.float64)
        if expected is None:
            expected = expected_losses(distributions, losses)
        else:
            expected = _check_expected(expected, distributions, losses)
        self._groups.append(np.asarray(groups, dtype=np.int64))
        self._codes.append(codes)
        self._expected.append(expected)
        if self.retain == "full":
            self._dists.append(distributions)
            self._losses.append(losses)
        self.accumulators.add_block(self._groups[-1], codes, losses, expected)

    def build(
        self,
        *,
        rng_seed: int | None = None,
        scenario_id: str = "",
        learner_id: str = "",
        scenario_info: dict | None = None,
    ) -> Trace:
        """The trace of the blocks appended so far, its metadata defaulting
        as in ``Trace``. Each column's blocks are replaced in the builder by
        their join as it is made, so that no more than one column is held
        twice, and the column of a run of one block is that block's array,
        not a copy. It may be called again, also after more blocks are
        appended."""
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
