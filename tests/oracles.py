"""Helpers shared by the test modules: hand-made traces, built as the library
builds every trace, by appending rows to a ``TraceBuilder``."""

import numpy as np

from fair_experts.types import (
    NEGATIVE_CODE,
    POSITIVE_CODE,
    UNLABELED_CODE,
    TraceBuilder,
    expected_losses,
)

POS, NEG, UNL = POSITIVE_CODE, NEGATIVE_CODE, UNLABELED_CODE


def hand_trace(rows, num_groups=None, *, expected=None, retain="full", **meta):
    """A trace of rows (group, outcome code, p, losses), appended to a
    ``TraceBuilder`` as one block. Each row's expected loss is p . losses
    unless ``expected`` gives the column; num_groups defaults to the largest
    group plus one, and ``meta`` is ``TraceBuilder.build``'s keywords."""
    groups, codes, p, losses = (np.array(col) for col in zip(*rows))
    p, losses = p.astype(np.float64), losses.astype(np.float64)
    if expected is None:
        expected = expected_losses(p, losses)
    builder = TraceBuilder(p.shape[1], int(groups.max()) + 1 if num_groups is None else num_groups,
                           retain)
    builder.append_block(groups, codes, losses, p, expected)
    return builder.build(**meta)


# four rounds of two groups and two experts: a negative, two positives and an
# unlabeled round, with dyadic numbers so sums are exact
TOY_ROWS = [
    (0, NEG, (0.5, 0.5), (0.0, 1.0)),
    (1, POS, (0.5, 0.5), (1.0, 0.0)),
    (0, UNL, (0.5, 0.5), (0.25, 0.75)),
    (1, POS, (0.5, 0.5), (1.0, 0.5)),
]
