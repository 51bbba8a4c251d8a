"""Protocol executor: plays one learner against one scenario for T rounds.

Each round follows the same order: the group arrives, the learner commits a
distribution over experts, the scenario produces the outcome (or nothing,
for direct-loss streams) and the loss vector, and the learner observes the
full vector. Scenarios hand the executor *segments*: oblivious blocks whose
rounds are fixed in advance and can run through a learner's vectorized
path, and adaptive blocks whose step callback sees the committed
distribution before choosing the round's losses. After a block runs, the
scenario receives the realized distributions back, which is how
realized-statistic branching between scenario phases is implemented.

An oblivious block runs through the learner's ``run_block`` when it has one.
Every other block is one ``Learner.run_rounds`` call, which owns the
per-round loop; with two experts, MW and fixed share run it as an exact
scalar kernel whose plays are bit-identical to the generic
``next_distribution``/``observe`` loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .types import (
    ConfigError,
    InvariantViolation,
    Trace,
    TraceBuilder,
)


@dataclass
class ObliviousBlock:
    """A stretch of rounds fixed before the learner plays them."""

    groups: np.ndarray
    outcome_codes: np.ndarray
    losses: np.ndarray

    def __len__(self) -> int:
        return int(np.asarray(self.groups).shape[0])


@dataclass
class AdaptiveBlock:
    """A stretch of rounds chosen against the learner's committed play.

    ``step(i, group, p)`` is called once per round with the block-local
    index and must return (outcome_code, loss_row).
    """

    groups: np.ndarray
    step: Callable[[int, int, np.ndarray], tuple[int, np.ndarray]]

    def __len__(self) -> int:
        return int(np.asarray(self.groups).shape[0])


@dataclass
class BlockResult:
    """Realized play handed back to the scenario once a block has run."""

    distributions: np.ndarray
    expected: np.ndarray


def _execute_block(learner, block, builder: TraceBuilder) -> BlockResult:
    d = learner.d
    groups = np.asarray(block.groups, dtype=np.int64)
    n = groups.shape[0]
    if n == 0:
        return BlockResult(np.zeros((0, d)), np.zeros(0))
    if isinstance(block, ObliviousBlock):
        losses = np.asarray(block.losses, dtype=np.float64)
        codes = block.outcome_codes
        if learner.supports_blocks:
            p = learner.run_block(groups, losses)
        else:
            p, _, _ = learner.run_rounds(groups, losses)
    else:
        p, losses, codes = learner.run_rounds(groups, step=block.step)
    expected = np.einsum("td,td->t", p, losses)
    builder.append_block(groups, codes, losses, p, expected)
    return BlockResult(p, expected)


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
