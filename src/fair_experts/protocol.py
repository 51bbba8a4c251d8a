"""Protocol executor: plays one learner against one scenario for T rounds.

Each round follows the same order: the group arrives, the learner commits a
distribution over experts, the scenario produces the outcome (or nothing,
for direct-loss streams) and the loss vector, and the learner observes the
full vector. Scenarios hand the executor *segments*: oblivious blocks whose
rounds are fixed in advance and can run through a learner's vectorized
path, and adaptive blocks that declare their possible outcomes and whose
step callback sees the committed distribution before choosing one. After a
block runs, the scenario receives the realized distributions back, which is
how realized-statistic branching between scenario phases is implemented.

An oblivious block runs through the learner's ``run_block`` when it has one.
Every other block is one ``Learner.run_rounds`` call, which owns the
per-round loop; with two experts, MW and fixed share run it as an exact
scalar kernel whose plays are bit-identical to the generic
``next_distribution``/``observe`` loop. That kernel writes each round's
update out inline, and steps a long run of rounds on one table and one loss
row only until the table stops changing. An adaptive block's losses and
outcome codes are its declared rows and codes taken at the step's choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .types import (
    ConfigError,
    ContractError,
    InvariantViolation,
    Trace,
    TraceBuilder,
    _check_outcome_codes,
    _numbers,
    expected_losses,
)


def _check_groups(groups) -> None:
    """ContractError unless ``groups`` is one-dimensional and of integers: the
    int64 cast a block is played through would floor 0.7 to group 0."""
    groups = _numbers(groups, "group ids")
    if groups.ndim != 1 or groups.dtype.kind not in "iu":
        raise ContractError(f"group ids have shape {groups.shape} and dtype {groups.dtype}, "
                            "expected (n,) integers")


@dataclass
class ObliviousBlock:
    """A stretch of rounds fixed before the learner plays them. Group ids
    that are not integers, outcome codes other than one of -1, 0 and 1 per
    group id, and ragged or non-numeric losses raise ContractError here,
    before the learner plays a round; the learner checks the losses' shape
    and range."""

    groups: np.ndarray
    outcome_codes: np.ndarray
    losses: np.ndarray

    def __post_init__(self) -> None:
        _check_groups(self.groups)
        codes = _numbers(self.outcome_codes, "outcome codes")
        self.outcome_codes = _check_outcome_codes(codes, len(self), "row {} of the block", ContractError)
        self.losses = _numbers(self.losses, "losses").astype(np.float64, copy=False)

    def __len__(self) -> int:
        return int(np.asarray(self.groups).shape[0])


@dataclass
class AdaptiveBlock:
    """A stretch of rounds chosen against the learner's committed play.

    ``rows`` (K, d) and ``codes`` (K,) declare the block's possible losses
    and outcome codes. ``step(i, group, p)`` is called once per round with
    the block-local index, the group and the committed play as a tuple of d
    Python floats, and returns the index k, a Python int in range(K), of the
    round's outcome: losses ``rows[k]``, code ``codes[k]``. Group ids that
    are not integers, and malformed rows or codes, raise ContractError here;
    the learner checks the rows' width and range.
    """

    groups: np.ndarray
    rows: np.ndarray
    codes: np.ndarray
    step: Callable[[int, int, tuple], int]

    def __post_init__(self) -> None:
        _check_groups(self.groups)
        rows = _numbers(self.rows, "declared loss rows")
        if rows.ndim != 2:
            raise ContractError(f"declared loss rows have shape {rows.shape} and dtype {rows.dtype}")
        self.rows = rows.astype(np.float64)
        try:
            codes = np.asarray(self.codes)
        except ValueError as exc:
            raise ContractError(f"declared outcome codes are not arrays: {exc}") from exc
        self.codes = _check_outcome_codes(codes, rows.shape[0], "declared index {}", ContractError)

    def __len__(self) -> int:
        return int(np.asarray(self.groups).shape[0])


@dataclass
class BlockResult:
    """Realized play handed back to the scenario once a block has run."""

    distributions: np.ndarray


def _execute_block(learner, block, builder: TraceBuilder) -> BlockResult:
    d = learner.d
    groups = np.asarray(block.groups, dtype=np.int64)
    n = groups.shape[0]
    if n == 0:
        return BlockResult(np.zeros((0, d)))
    if isinstance(block, ObliviousBlock):
        losses, codes = block.losses, block.outcome_codes
        if learner.supports_blocks:
            p = learner.run_block(groups, losses)
        else:
            p, _ = learner.run_rounds(groups, losses)
    else:
        p, choices = learner.run_rounds(groups, block.rows, block.step)
        losses, codes = np.take(block.rows, choices, axis=0), np.take(block.codes, choices)
    expected = expected_losses(p, losses)
    builder.append_block(groups, codes, losses, p, expected)
    return BlockResult(p)


def run(learner, scenario, T: int, seed: int, retain: str = "full") -> Trace:
    """Execute the T-round protocol and return the trace.

    ``learner`` and ``scenario`` may be instances or plain config mappings.
    ``seed`` feeds a splittable stream tree, so scenario randomness is
    reproducible and independent of everything else. ``retain`` is "full"
    (keep per-round distributions and losses) or "summary" (columns and
    accumulators only).
    """
    if isinstance(scenario, Mapping):
        from .adversaries import make_scenario

        scenario = make_scenario(scenario)
    if isinstance(learner, Mapping):
        from .learners import make_learner

        learner = make_learner(learner, T=T)
    if T < 0:
        raise ConfigError(f"T must be >= 0, got {T}")
    seed = int(seed)
    learner.start(scenario.d, scenario.num_groups)
    srun = scenario.start(T, np.random.SeedSequence(seed))
    builder = TraceBuilder(scenario.d, scenario.num_groups, retain)
    produced = 0
    gen = srun.segments()
    block = next(gen, None)
    while block is not None:
        produced += len(block)
        if produced > T:
            raise InvariantViolation(
                f"scenario {scenario.id!r} emitted {produced} rounds for horizon {T}"
            )
        result = _execute_block(learner, block, builder)
        try:
            block = gen.send(result)
        except StopIteration:
            block = None
    if produced != T:
        raise InvariantViolation(
            f"scenario {scenario.id!r} emitted {produced} rounds for horizon {T}"
        )
    return builder.build(
        rng_seed=seed,
        scenario_id=scenario.id,
        learner_id=learner.id,
        scenario_info=srun.info,
    )
