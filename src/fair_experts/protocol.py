"""Protocol executor: plays one learner against one scenario for T rounds.

Each round follows the same order: the group arrives, the learner commits a
distribution over experts, the scenario produces the outcome (or nothing,
for direct-loss streams) and the loss vector, and the learner observes the
full vector. Scenarios hand the executor *segments*: oblivious blocks whose
rounds are fixed in advance, and adaptive blocks that declare their
possible outcomes and whose step callback sees the committed distribution
before choosing one. After a block runs, the scenario receives the realized
distributions back, as an (n, d) array, which is how realized-statistic
branching between scenario phases is implemented.

Every block is one ``Learner.run_rounds`` call, which owns the per-round
loop and plays as the ``next_distribution``/``observe`` loop does, bit for
bit: the cumulative-loss kinds (MW and FPL) play an oblivious block through
their vectorized ``run_block``, and with two experts an oblivious fixed
share block, and an MW or fixed share block whose step is a declared
``ThresholdStep``, run an exact scalar kernel. An adaptive block's losses
and outcome codes are its declared rows and codes taken at the step's
choices.

A step is any callable. One kind is declared rather than called: a
``ThresholdStep`` picks one of two rows by comparing a weighted sum of the
play with a level per group. The two-expert kernels play only this kind,
evaluating its rule inline with the same operations as its ``__call__``,
so its rounds make no Python call; any other callable runs through the
generic ``next_distribution``/``observe`` loop, one call per round. t2's
bait and t5's penalize-the-leader are threshold steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .types import (
    ConfigError,
    ContractError,
    InvariantViolation,
    Trace,
    TraceBuilder,
    _check_groups,
    _check_outcome_codes,
    _numbers,
    require_type,
)


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
    round's outcome: losses ``rows[k]``, code ``codes[k]``. A
    ``ThresholdStep`` is not called by the two-expert kernels, which play
    its rule inline; they play no other step, so any other callable runs
    through the generic per-round loop. Group ids that are not integers,
    and malformed rows or codes, raise ContractError here; the learner
    checks the rows' width and range, and a threshold step against its d,
    its groups and K.
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


@dataclass(frozen=True)
class ThresholdStep:
    """A declared step: round i of group g picks row ``above`` when the
    weighted play, w_0 p_0 + w_1 p_1 + ... summed left to right, is at least
    ``levels[g]``, and row ``below`` otherwise.

    ``__call__`` is the rule, so the step runs wherever a step runs; the
    two-expert kernels evaluate it inline on their floats, with the same
    operations, and call nothing. Weights and levels that are not non-empty
    lists of numbers, or hold a NaN or a bool, an infinite weight and rows
    that are not integers >= 0 raise ContractError here. A level may be
    infinite; a weight may not, as an infinite weight times a play of 0
    makes the sum NaN, which meets no level. ``check`` fits the step to a
    stretch before its first round.
    """

    weights: tuple[float, ...]
    levels: tuple[float, ...]
    above: int
    below: int

    def __post_init__(self) -> None:
        for name in ("weights", "levels"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values or any(
                    isinstance(x, bool) or not isinstance(x, numbers.Real) or math.isnan(x) for x in values):
                raise ContractError(f"threshold step {name} must be a non-empty list of numbers, "
                                    f"none of them NaN, got {values!r}")
            object.__setattr__(self, name, tuple(float(x) for x in values))
        if not all(map(math.isfinite, self.weights)):
            raise ContractError(f"threshold step weights must be finite, got {self.weights!r}")
        for name in ("above", "below"):
            k = getattr(self, name)
            if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
                raise ContractError(f"threshold step row {name} must be an integer >= 0, got {k!r}")
            object.__setattr__(self, name, int(k))

    def __call__(self, i: int, g: int, p: tuple) -> int:
        w = self.weights
        total = w[0] * p[0]
        for f in range(1, len(w)):
            total += w[f] * p[f]
        return self.above if total >= self.levels[g] else self.below

    def check(self, d: int, num_groups: int, K: int) -> None:
        """ContractError unless the step has d weights, num_groups levels,
        and rows ``above`` and ``below`` in range(K)."""
        if len(self.weights) != d:
            raise ContractError(f"threshold step has {len(self.weights)} weights for {d} experts")
        if len(self.levels) != num_groups:
            raise ContractError(f"threshold step has {len(self.levels)} levels for {num_groups} groups")
        for name in ("above", "below"):
            k = getattr(self, name)
            if k >= K:
                raise ContractError(f"threshold step row {name} = {k} lies outside range({K})")


def _execute_block(learner, block, builder: TraceBuilder) -> np.ndarray:
    """Play one block into ``builder``; returns its (n, d) plays."""
    groups = np.asarray(block.groups, dtype=np.int64)
    if groups.shape[0] == 0:
        return np.zeros((0, learner.d))
    if isinstance(block, ObliviousBlock):
        losses, codes = block.losses, block.outcome_codes
        p, _ = learner.run_rounds(groups, losses)
    else:
        p, choices = learner.run_rounds(groups, block.rows, block.step)
        losses, codes = np.take(block.rows, choices, axis=0), np.take(block.codes, choices)
    builder.append_block(groups, codes, losses, p)
    return p


def run(learner, scenario, T: int, seed: int, retain: str = "full") -> Trace:
    """Execute the T-round protocol and return the trace.

    ``learner`` and ``scenario`` may be instances or plain config mappings.
    ``seed`` feeds a splittable stream tree, so scenario randomness is
    reproducible and independent of everything else. ``retain`` is "full"
    (keep per-round distributions and losses) or "summary" (columns and
    accumulators only). A horizon or seed that is not an integer >= 0
    raises ConfigError before the scenario starts.
    """
    for name, value in (("T", T), ("seed", seed)):
        require_type(name, value, numbers.Integral, "an integer")
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value}")
    T, seed = int(T), int(seed)
    if isinstance(scenario, Mapping):
        from .adversaries import make_scenario

        scenario = make_scenario(scenario)
    if isinstance(learner, Mapping):
        from .learners import make_learner

        learner = make_learner(learner, T=T)
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
        p = _execute_block(learner, block, builder)
        try:
            block = gen.send(p)
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
