"""Helpers shared by the test modules: hand-made traces, built as the library
builds every trace, by appending rows to a ``TraceBuilder``, and the
learners' reference plays, which their fast paths must match bit for bit."""

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


def ref_rounds(lrn, groups, rows, step=None):
    """The reference for ``Learner.run_rounds``: the next_distribution/observe
    loop on rows[i], or on rows[k] for the k that ``step`` chooses."""
    n, d = groups.shape[0], lrn.d
    p = np.empty((n, d), dtype=np.float64)
    choices = None if step is None else np.empty(n, dtype=np.intp)
    for i in range(n):
        g = int(groups[i])
        p[i] = lrn.next_distribution(g)
        k = i
        if step is not None:
            k = choices[i] = step(i, g, tuple(p[i].tolist()))
        lrn.observe(g, rows[k])
    return p, choices


def _seeded_cumsum(state, losses):
    """The cumulative losses before each row of ``losses`` and after the
    last, by one cumsum seeded with ``state``."""
    cum = np.cumsum(np.vstack([state, losses]), axis=0)
    return cum[:-1], cum[-1]


def ref_mw_block(lrn, groups, losses):
    """MW's block play without chunks: one cumsum over each table's rows,
    seeded with the table's ``_cum``, which it advances."""
    p = np.empty((losses.shape[0], lrn.d), dtype=np.float64)
    if lrn.per_group:
        tables = [(g, np.flatnonzero(groups == g)) for g in np.unique(groups)]
    else:
        tables = [(0, slice(None))]
    for table, rows in tables:
        before, lrn._cum[table] = _seeded_cumsum(lrn._cum[table], losses[rows])
        p[rows] = lrn._play(before)
    return p


def ref_fpl_run_block(lrn, losses):
    """FPL's block play before the d=2 search kernel: the (rows, m, d)
    perturbed-loss argmin over one seeded cumsum, chunked. Advances
    ``lrn``'s cumulative loss."""
    before, lrn._cum[0] = _seeded_cumsum(lrn._cum[0], losses)
    p = np.empty((losses.shape[0], lrn.d), dtype=np.float64)
    chunk = max(1, 2_000_000 // (lrn.grid_m * lrn.d))
    for s in range(0, losses.shape[0], chunk):
        e = min(losses.shape[0], s + chunk)
        leaders = (before[s:e, None, :] - lrn._grid[None, :, :]).argmin(axis=2)
        for f in range(lrn.d):
            p[s:e, f] = (leaders == f).mean(axis=1)
    return p


def ref_t5_leader(i, g, p):
    """t5's phase-one step as a plain callable: the index of the expert the
    play favors, ties to expert 0; that expert takes loss 1."""
    return 0 if p[0] >= p[1] else 1


def ref_t2_bait(gamma):
    """t2's phase-one step as a plain callable: outcome 1 on a group A (0)
    round whose play puts at least gamma on expert 0, else outcome 0. The
    step's ``qualifying`` attribute counts the rounds it picked outcome 1."""

    def step(i, g, p):
        if g == 0 and p[0] >= gamma:
            step.qualifying += 1
            return 1
        return 0

    step.qualifying = 0
    return step
