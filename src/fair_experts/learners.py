"""Learners: online algorithms choosing distributions over experts.

Every learner follows the same contract: ``start(d, num_groups)`` resets
state, ``next_distribution(group)`` returns the current play without side
effects, ``observe(group, losses)`` folds in one round's loss vector.
Multiplicative weights and the perturbed leader play a fixed function of
each table's cumulative loss, so they share one state, one update and one
block play (``CumulativeLossLearner``) and each supplies only ``_play``, the
plays of a block of cumulative losses. Every one of their paths sums a
table's losses in round order, so all give the same bits.

``run_rounds`` plays a stretch of rounds, oblivious or adaptive. Its
generic form is the ``next_distribution``/``observe`` loop, which calls an
adaptive stretch's step once per round; a kind overrides it for the
stretches it plays faster, with the loop's bits. MW and FPL play an
oblivious stretch as a block (``run_block``), and one whose step is a
declared ``ThresholdStep`` as checked block plays on guessed rows
(``_threshold_block``). Fixed share, for two experts, plays both in an exact
scalar kernel (``_two_expert_rounds``) on tables held as Python floats, a
declared step's stretch one table at a time with the rule inline. All three
take a declared step's choices from their plays by ``ThresholdStep.choose``.

Group handling is the one axis of variation: single-table kinds ignore the
group argument entirely, per-group kinds keep one independent table per
group and only the arriving group's table is read or updated.
"""

from __future__ import annotations

import math
import numbers
from itertools import chain, count, repeat
from typing import Iterator, Mapping

import numpy as np

from .protocol import ThresholdStep
from .types import (_IO_CHUNK, _RUN, ConfigError, ContractError, GroupId, _check_groups, _first_off_unit,
                    _numbers, _run_bounds, require_type)

# Layout seed for the perturbation grid. Part of the algorithm definition:
# every instance with the same (d, eta, m) gets the same grid, so play is a
# deterministic function of cumulative loss differences.
_FPL_GRID_SEED = 104729

DEFAULT_GRID_M = 1024
DEFAULT_SWITCH_BUDGET = 2

# Rows per chunk of a two-expert stretch. A chunk's groups and loss terms, or
# under a declared step a shared table's levels, are held as Python objects,
# and the allocator keeps the memory they free: on
# theorem5, 8192-row chunks grew the process by 1 MB more than the numpy loop
# did, 1024-row chunks by 0.13 MB and 256-row chunks by 0.04 MB.
_ROUNDS_CHUNK = 256

# Rows in the first chunk of ``CumulativeLossLearner._threshold_block``.
_GUESS_CHUNK = 64


def _check_eta(eta: float) -> float:
    require_type("eta", eta, numbers.Real, "a number")
    eta = float(eta)
    if not 0.0 < eta < 0.5:
        raise ConfigError(f"eta must lie in (0, 1/2), got {eta!r}")
    return eta


class Learner:
    """Shared contract; subclasses fill in the state and the update.

    Per-group kinds set ``per_group`` and keep one state table per group;
    ``_table`` and ``_table_rows`` pick the table a round or a block reads.
    """

    kind = "base"
    # The keys a config of this kind may hold besides its kind.
    config_keys = frozenset({"eta"})
    per_group = False

    def __init__(self) -> None:
        self.d: int | None = None
        self.num_groups: int | None = None

    @property
    def id(self) -> str:
        return self.kind

    def config(self) -> dict:
        """The echo ``make_learner`` reads back to a learner of this config:
        the kind and every tuning value, defaults resolved."""
        return {"kind": self.kind, "eta": self.eta}

    def start(self, d: int, num_groups: int = 1) -> None:
        require_type("d", d, numbers.Integral, "an integer")
        require_type("num_groups", num_groups, numbers.Integral, "an integer")
        if d < 1:
            raise ConfigError(f"need at least one expert, got d={d}")
        if num_groups < 1:
            raise ConfigError(f"need at least one group, got {num_groups}")
        self.d = int(d)
        self.num_groups = int(num_groups)
        self._init_state()

    def _init_state(self) -> None:
        raise NotImplementedError

    def _started(self) -> None:
        if self.d is None:
            raise ContractError("learner used before start()")

    def _tables(self) -> int:
        return self.num_groups if self.per_group else 1

    def _table(self, group: GroupId) -> int:
        """The table a round of ``group`` reads. A group id that is not an
        integer (a bool is not) or lies outside range(num_groups) raises
        ContractError, as in ``_stretch``."""
        # an int passes on its type alone; the Integral check is an ABC lookup, 20 times as slow
        if type(group) is not int and (isinstance(group, bool) or not isinstance(group, numbers.Integral)):
            raise ContractError(f"group id {group!r} is not an integer")
        if not 0 <= group < self.num_groups:
            raise ContractError(f"group id {group} lies outside range({self.num_groups})")
        return group if self.per_group else 0

    def _table_rows(self, groups: np.ndarray) -> Iterator[tuple[int, np.ndarray | None]]:
        """(table, rows) pairs that cover a block, in table order: a per-group
        table's row indices, or None for a table that takes every row, so
        that its chunks are slices and copy nothing. The tables are found by
        counting, as np.unique would import numpy.ma."""
        if not self.per_group:
            yield 0, None
            return
        tables = np.flatnonzero(np.bincount(groups, minlength=self.num_groups))
        if tables.shape[0] == 1:
            yield int(tables[0]), None
            return
        for g in tables.tolist():
            yield g, np.flatnonzero(groups == g)

    def _stretch(self, groups, losses, step=None) -> tuple[np.ndarray, np.ndarray]:
        """The group ids and float64 losses of a stretch, as ``run_rounds``
        and ``run_block`` take them: (n,) integer ids in range(num_groups)
        (-1 would play the last group's table) and (n, d) losses in [0, 1],
        or, with a step, an adaptive stretch's (K, d) declared rows, which a
        ``ThresholdStep`` must fit. Else ContractError."""
        self._started()
        adaptive = step is not None
        groups = _check_groups(groups)
        n = groups.shape[0]
        losses = _numbers(losses, "declared loss rows" if adaptive else "losses")
        shape = losses.shape
        if not adaptive:
            if shape != (n, self.d):
                raise ContractError(f"loss block has shape {shape}, expected ({n}, {self.d})")
        elif len(shape) != 2 or shape[0] < 1 or shape[1] != self.d:
            raise ContractError(f"declared loss rows have shape {shape}, expected (K, {self.d}), K >= 1")
        rows = losses.astype(np.float64, copy=False)
        _check_loss_block(rows, "declared index {}" if adaptive else "row {} of the stretch")
        if n and (groups.min() < 0 or groups.max() >= self.num_groups):
            k = int(np.argmax((groups < 0) | (groups >= self.num_groups)))
            raise ContractError(f"group id {groups[k]} at row {k} of the stretch lies outside "
                                f"range({self.num_groups})")
        if isinstance(step, ThresholdStep):
            step.check(self.d, self.num_groups, rows.shape[0])
        return groups, rows

    def next_distribution(self, group: GroupId) -> np.ndarray:
        raise NotImplementedError

    def observe(self, group: GroupId, losses) -> None:
        """Fold in one round's loss vector. A vector of the wrong shape, a
        loss outside [0, 1] or a group id outside range(num_groups) raises
        ContractError and changes nothing."""
        self._started()
        losses = np.asarray(losses, dtype=np.float64)
        if losses.shape != (self.d,):
            raise ContractError(f"loss vector has shape {losses.shape}, expected ({self.d},)")
        _check_loss_block(losses[None])
        self._update(self._table(group), losses)

    def _update(self, table: int, losses: np.ndarray) -> None:
        """``observe`` on a checked loss vector."""
        raise NotImplementedError

    def run_rounds(self, groups: np.ndarray, losses, step=None):
        """Play a stretch of rounds one at a time; returns (plays, choices).

        An oblivious stretch passes its (n, d) ``losses`` and gets choices
        None. An adaptive stretch passes the (K, d) loss rows it may choose
        from and ``step(i, group, p)``, which sees round i's play as a tuple
        of d Python floats and returns the index of its row, a Python int in
        range(K); choices holds those indices. This is the generic loop, one
        step call per round; a kind that overrides it keeps its bits. Losses
        that are ragged, not numbers, of the wrong shape or outside [0, 1],
        group ids that are not (n,) integers in range(num_groups), and a
        ``ThresholdStep`` that does not fit d, num_groups and K raise
        ContractError before the first round, and a choice that is not an int
        in range(K) once the rounds before it are observed.
        """
        groups, rows = self._stretch(groups, losses, step)
        n = groups.shape[0]
        p = np.empty((n, self.d), dtype=np.float64)
        choices = None if step is None else np.empty(n, dtype=np.intp)
        K = rows.shape[0]
        for i in range(n):
            g = int(groups[i])
            p[i] = pi = self.next_distribution(g)
            k = i
            if step is not None:
                k = step(i, g, tuple(pi.tolist()))
                if type(k) is not int or not 0 <= k < K:
                    raise ContractError(f"step returned choice {k!r} at row {i} of the stretch, "
                                        f"not an int in range({K})")
                choices[i] = k
            self._update(self._table(g), rows[k])
        return p, choices


def _check_loss_block(losses: np.ndarray, where: str = "row {} of the stretch") -> None:
    """ContractError naming the first row of an (n, d) loss block with a loss
    outside [0, 1], NaN included; ``where.format(k)`` names row k."""
    k = _first_off_unit(losses)
    if k is not None:
        raise ContractError(f"loss row {losses[k].tolist()!r} at {where.format(k)} lies outside [0, 1]")


def _row_softmax(log_w: np.ndarray) -> np.ndarray:
    z = log_w - log_w.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _two_expert_softmax(log_w: np.ndarray) -> np.ndarray:
    """``_row_softmax`` of an (n, 2) block on whole columns: with
    e = exp(-|lw0 - lw1|), the larger weight gets 1/(1+e) and the smaller
    e/(1+e). The bits are ``_row_softmax``'s, whose larger z is 0
    (exp(0) = 1 exactly) and smaller z is -|lw0 - lw1|."""
    x = log_w[:, 0] - log_w[:, 1]
    first = x >= 0.0
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    total = e + 1.0
    big = 1.0 / total
    small = np.divide(e, total, out=e)
    return np.column_stack([np.where(first, big, small), np.where(first, small, big)])


def _cum_before(cum: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The cumulative losses before each row of an (n, d) block, n >= 1, on a
    table at ``cum``: the per-round adds' sums, by one seeded cumsum."""
    before = np.empty_like(block)
    before[0] = cum
    before[1:] = block[:-1]
    return np.cumsum(before, axis=0, out=before)


class CumulativeLossLearner(Learner):
    """A learner whose play is a fixed function of its table's cumulative
    loss, the one state it keeps: ``_cum``, of shape (tables, d), to which
    each round adds its loss vector. A kind supplies ``_play``, the plays of
    an (n, d) block of cumulative losses, row by row.

    Every path adds a table's losses one round at a time, in round order, so
    the block plays (``run_block`` and ``_threshold_block``) and the
    ``next_distribution``/``observe`` loop give the same bits.
    """

    def _init_state(self) -> None:
        self._cum = np.zeros((self._tables(), self.d), dtype=np.float64)

    def _play(self, cum: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def next_distribution(self, group: GroupId) -> np.ndarray:
        self._started()
        return self._play(self._cum[self._table(group)][None])[0]

    def _update(self, table: int, losses: np.ndarray) -> None:
        self._cum[table] += losses

    def run_block(self, groups, losses) -> np.ndarray:
        """The plays of a stretch of rounds known in advance: ``run_rounds``
        on an oblivious stretch, checked as it checks one.

        Each table's rows are played in chunks of _IO_CHUNK rows, so that
        the work arrays do not grow with the block, each on its cumulative
        losses (``_cum_before``), and the chunk's last sum is stored back.
        """
        groups, losses = self._stretch(groups, losses)
        p = np.empty(losses.shape, dtype=np.float64)
        for table, rows in self._table_rows(groups):
            cum = self._cum[table]
            for s in range(0, losses.shape[0] if rows is None else rows.shape[0], _IO_CHUNK):
                chunk = slice(s, s + _IO_CHUNK) if rows is None else rows[s:s + _IO_CHUNK]
                block = losses[chunk]
                before = _cum_before(cum, block)
                p[chunk] = self._play(before)
                np.add(before[-1], block[-1], out=cum)
        return p

    def run_rounds(self, groups: np.ndarray, losses, step=None):
        """``Learner.run_rounds``, whose oblivious stretch is ``run_block``
        and whose stretch with a ``ThresholdStep`` is ``_threshold_block``."""
        if step is None:
            return self.run_block(groups, losses), None
        if isinstance(step, ThresholdStep):
            return self._threshold_block(*self._stretch(groups, losses, step), step)
        return super().run_rounds(groups, losses, step)

    def _threshold_block(self, groups, rows, step):
        """(plays, choices) of a checked stretch whose step is a
        ``ThresholdStep``. Each table plays its rounds in chunks on guessed
        rows: at the table's even and at its odd rounds, a group repeats the
        choice it last made there (at first ``above`` and ``below``), so a
        table that one group plays repeats its last two choices, alternating.
        The step's rule, with the operations of its ``__call__``, is applied
        to a chunk's plays, and the rounds up to and including the first
        whose choice is not its guess are kept: each depends only on rows
        guessed right, so it is the loop's, bit for bit. That choice replaces
        its guess. A chunk whose guesses all hold doubles the next, up to
        _IO_CHUNK rows; after a failed guess the next is the larger of half
        the chunk and twice the rounds it kept, so a step that the guess
        cannot follow plays short chunks."""
        n = groups.shape[0]
        p = np.empty((n, self.d), dtype=np.float64)
        choices = np.empty(n, dtype=np.intp)
        above, below = step.above, step.below
        # guess[g, i % 2] is group g's guess for its table's i-th round
        guess = np.tile(np.array([above, below], dtype=np.intp), (self.num_groups, 1))
        for table, idx in self._table_rows(groups):
            cum = self._cum[table]
            own = groups if idx is None else groups[idx]
            s, size = 0, _GUESS_CHUNK
            while s < own.shape[0]:
                g = own[s:s + size]
                j = np.arange(s, s + g.shape[0]) & 1
                guessed = guess[g, j]
                before = _cum_before(cum, rows[guessed])
                q = self._play(before)
                rule = step.choose(q, g)
                missed = np.flatnonzero(rule != guessed)
                kept = int(missed[0]) + 1 if missed.size else g.shape[0]
                out = slice(s, s + kept) if idx is None else idx[s:s + kept]
                p[out] = q[:kept]
                choices[out] = rule[:kept]
                last = kept - 1
                np.add(before[last], rows[rule[last]], out=cum)
                if missed.size:
                    guess[g[last], j[last]] = rule[last]
                    size = max(size // 2, 2 * kept)
                else:
                    size = min(2 * size, _IO_CHUNK)
                s += kept
        return p, choices


class _MultiplicativeWeights(CumulativeLossLearner):
    """Weights w_f = (1 - eta)^(cumulative loss), played as the softmax of
    the log weights log(1 - eta) * cumulative loss."""

    def __init__(self, eta: float) -> None:
        super().__init__()
        self.eta = _check_eta(eta)
        self._log_decay = math.log1p(-self.eta)

    def _play(self, cum: np.ndarray) -> np.ndarray:
        log_w = self._log_decay * cum
        return _two_expert_softmax(log_w) if self.d == 2 else _row_softmax(log_w)


class SingleMW(_MultiplicativeWeights):
    """One shared weight table; play is independent of the arriving group."""

    kind = "single_mw"


class PerGroupMW(_MultiplicativeWeights):
    """Independent weight table per group; only the arriving group updates."""

    kind = "per_group_mw"
    per_group = True


class FollowPerturbedLeader(CumulativeLossLearner):
    """Expected-distribution form of the perturbed-leader rule.

    Play weight of expert f is the fraction of a fixed m-point perturbation
    grid under which f has the lowest perturbed cumulative loss (ties to the
    lowest index). Each expert's grid column holds exactly the m mid-quantiles
    of the exponential distribution with rate eta, in a fixed scrambled order,
    so the play depends on the loss history only through pairwise cumulative
    loss differences.
    """

    kind = "fpl"
    config_keys = frozenset({"eta", "grid_m"})

    def __init__(self, eta: float, grid_m: int = DEFAULT_GRID_M) -> None:
        super().__init__()
        self.eta = _check_eta(eta)
        require_type("grid_m", grid_m, numbers.Integral, "an integer")
        self.grid_m = int(grid_m)
        if self.grid_m < 1:
            raise ConfigError(f"grid_m must be >= 1, got {grid_m!r}")

    def config(self) -> dict:
        return {**super().config(), "grid_m": self.grid_m}

    def _init_state(self) -> None:
        super()._init_state()
        m = self.grid_m
        quantiles = -np.log1p(-(np.arange(m) + 0.5) / m) / self.eta
        rng = np.random.default_rng(_FPL_GRID_SEED)
        grid = np.empty((m, self.d), dtype=np.float64)
        for f in range(self.d):
            grid[:, f] = quantiles[rng.permutation(m)]
        self._grid = grid
        self._sorted_diffs = np.sort(grid[:, 0] - grid[:, 1]) if self.d == 2 else None

    def _play(self, cum: np.ndarray) -> np.ndarray:
        return self._two_expert_play(cum) if self.d == 2 else self._grid_play(cum)

    def _grid_play(self, before: np.ndarray) -> np.ndarray:
        """Per row of ``before``, the fraction of grid rows each expert leads."""
        n = before.shape[0]
        p = np.empty((n, self.d), dtype=np.float64)
        # Chunked so the (rows, m, d) work array stays around 16 MB.
        chunk = max(1, 2_000_000 // (self.grid_m * self.d))
        for s in range(0, n, chunk):
            e = min(n, s + chunk)
            # leader ids offset by row, so one bincount counts every row
            leaders = (before[s:e, None, :] - self._grid[None, :, :]).argmin(axis=2)
            leaders += self.d * np.arange(e - s)[:, None]
            counts = np.bincount(leaders.ravel(), minlength=(e - s) * self.d)
            p[s:e] = counts.reshape(e - s, self.d) / self.grid_m
        return p

    def _two_expert_play(self, before: np.ndarray) -> np.ndarray:
        """``_grid_play`` for d=2 by one search over the sorted grid differences.

        Expert 0 leads under grid row k exactly when x = before0 - before1 is
        at most D_k = g0_k - g1_k, so it leads m - #{k: D_k < x} rows. The
        grid play compares the rounded before_f - g_f instead, which can round
        the other way when x lies within a few ulps of some D_k; those rows go
        through the grid play itself, so the result is bit-identical to it.
        A tie, x = 0, is before0 == before1 exactly, so under a grid row
        with g0 == g1 (D_k = 0) the grid play compares identical operands and
        expert 0 leads, as the search counts it: the margin check of a tie
        skips those rows and takes the first D_k > 0 as its nearest above.
        """
        m = self.grid_m
        diffs = self._sorted_diffs
        x = before[:, 0] - before[:, 1]
        idx = np.searchsorted(diffs, x, side="left")
        up = np.where(x == 0.0, np.searchsorted(diffs, 0.0, side="right"), idx)
        lead0 = m - idx
        p = np.empty((before.shape[0], 2), dtype=np.float64)
        p[:, 0] = lead0 / m
        p[:, 1] = (m - lead0) / m
        # With S = max|before| + max|grid| over the rows given (one chunk of
        # a block), each rounding (x, D_k, both before_f - g_f) errs by at
        # most eps/2 * S. So once |x - D_k| exceeds 2 eps S, x - D_k and the
        # rounded (before0 - g0) - (before1 - g1) have the same strict sign;
        # the margin doubles that bound.
        margin = 4.0 * np.finfo(np.float64).eps * (np.abs(before).max() + self._grid.max())
        below = np.abs(x - diffs[np.maximum(idx - 1, 0)])
        above = np.abs(x - diffs[np.minimum(up, m - 1)])
        near = np.flatnonzero(np.minimum(below, above) <= margin)
        if near.size:
            p[near] = self._grid_play(before[near])
        return p


class FixedShare(Learner):
    """Multiplicative update followed by mixing rho of the mass uniformly.

    The share step keeps every weight bounded away from zero, which is what
    lets the play re-concentrate quickly after the best expert changes.
    """

    kind = "fixed_share"
    config_keys = frozenset({"eta", "rho", "switches"})

    def __init__(self, eta: float, rho: float) -> None:
        super().__init__()
        self.eta = _check_eta(eta)
        require_type("rho", rho, numbers.Real, "a number")
        self.rho = float(rho)
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {rho!r}")

    def config(self) -> dict:
        return {**super().config(), "rho": self.rho}

    def _init_state(self) -> None:
        self._p = np.full((self._tables(), self.d), 1.0 / self.d, dtype=np.float64)
        self._keep, self._share = 1.0 - self.rho, self.rho / self.d

    def next_distribution(self, group: GroupId) -> np.ndarray:
        self._started()
        return self._p[self._table(group)].copy()

    def _update(self, table: int, losses: np.ndarray) -> None:
        w = self._p[table] * self._loss_terms(losses)
        w /= w.sum()
        self._p[table] = self._keep * w + self._share

    def _loss_terms(self, losses: np.ndarray) -> np.ndarray:
        return np.power(1.0 - self.eta, losses)

    def run_rounds(self, groups: np.ndarray, losses, step=None):
        """``Learner.run_rounds``, whose d=2 stretch, oblivious or with a
        ``ThresholdStep``, is ``_two_expert_rounds``."""
        if self.d == 2 and (step is None or isinstance(step, ThresholdStep)):
            return self._two_expert_rounds(*self._stretch(groups, losses, step), step)
        return super().run_rounds(groups, losses, step)

    def _two_expert_rounds(self, groups, rows, step):
        """``run_rounds`` of a checked d=2 stretch, oblivious or with a
        ``ThresholdStep``, on tables held as pairs of Python floats. The
        per-round loops, ``_threshold_plays`` and ``_pair_rounds``, write out
        the play and the update with the IEEE operations of
        ``next_distribution`` and ``_update`` (numpy's ``power`` included), in
        their order, so the plays are the loop's, bit for bit, and call no
        step. The table being played stays in locals.

        An adaptive stretch takes its declared rows' terms once and is played
        one table at a time: a per-group table's rounds all take its group's
        level, and a shared table takes its rounds' levels by group in chunks
        of _ROUNDS_CHUNK rounds. The choices are then taken from the whole
        stretch's plays by ``ThresholdStep.choose``, the rule the loop
        applied to each round. An oblivious stretch finds its runs
        of rows on one table with one loss row, bit for bit, once. A run of at
        least _RUN rows is stepped only until its table is a fixed point of
        the update, as the update is deterministic and every later round of
        the run plays the same pair; the other rows are played in chunks of
        _ROUNDS_CHUNK rows on their own rows' terms.
        """
        n = groups.shape[0]
        p = np.empty((n, 2), dtype=np.float64)
        if step is not None:
            terms = self._loss_terms(rows).tolist()
            for table, idx in self._table_rows(groups):
                plays = p if idx is None else np.empty((idx.shape[0], 2), dtype=np.float64)
                if self.per_group:
                    levels = repeat(step.levels[table], plays.shape[0])
                else:
                    levels = chain.from_iterable(np.take(step.levels, groups[c:c + _ROUNDS_CHUNK]).tolist()
                                                 for c in range(0, n, _ROUNDS_CHUNK))
                self._p[table] = self._threshold_plays(self._p[table].tolist(), plays, levels, step, terms)
                if idx is not None:
                    p[idx] = plays
            return p, step.choose(p, groups)
        out = memoryview(p.reshape(-1))
        tables = [tuple(table) for table in self._p.tolist()]
        columns = (rows[:, 0], rows[:, 1], groups) if self.per_group else (rows[:, 0], rows[:, 1])
        starts, counts = _run_bounds(columns, n)
        long = counts >= _RUN
        heads, ends = starts[long].tolist(), (starts[long] + counts[long]).tolist()
        s = 0
        # rows s..a-1 row by row, then the run a..e-1 up to its fixed point
        for a, e in zip(heads + [n], ends + [n]):
            for c in range(s, a, _ROUNDS_CHUNK):
                b = min(a, c + _ROUNDS_CHUNK)
                self._pair_rounds(tables, out, c, groups[c:b].tolist(), self._loss_terms(rows[c:b]).tolist())
            if a < e:
                (term,) = self._loss_terms(rows[a:a + 1]).tolist()
                i = self._pair_rounds(tables, out, a, repeat(int(groups[a]), e - a), repeat(term, e - a), stop=True)
                if i is not None:
                    p[i + 1:e] = p[i]
            s = e
        self._p[:] = tables
        return p, None

    def _pair_rounds(self, tables, out, s, groups, terms, stop=False):
        """Oblivious rounds s, s+1, ... of a two-expert stretch, one per group
        id in ``groups``, each taking the next term pair of ``terms``, on
        ``tables``, the list of each table's pair of floats, which it
        updates. Round i's play goes to out[2i] and out[2i + 1]. With
        ``stop``, every round is of one table and one loss row, and the loop
        returns the first round i whose update leaves the table as it was:
        the later rounds play round i's pair. Otherwise it returns None.

        ``==`` on two tables is bit equality here, since no state entry is
        NaN or -0.0: the entries are sums, products and quotients of
        non-negative numbers, and the total weight is at least half its
        table's sum, as each factor (1 - eta)^loss is.
        """
        keep, share, per_group = self._keep, self._share, self.per_group
        t, cur = 0, None
        p0, p1 = tables[0]
        for i, g, (f0, f1) in zip(count(s), groups, terms):
            if g != cur:
                tables[t] = p0, p1
                cur, t = g, g if per_group else 0
                p0, p1 = tables[t]
            out[2 * i] = p0
            out[2 * i + 1] = p1
            w0 = p0 * f0
            w1 = p1 * f1
            total = w0 + w1
            n0 = keep * (w0 / total) + share
            n1 = keep * (w1 / total) + share
            if stop and n0 == p0 and n1 == p1:
                tables[t] = p0, p1
                return i
            p0 = n0
            p1 = n1
        tables[t] = p0, p1
        return None

    def _threshold_plays(self, table, plays, levels, step, terms):
        """The plays of one table's rounds of a two-expert stretch whose step
        is a ``ThresholdStep``, one round per level in ``levels``, from the
        table's pair of floats ``table``; returns the pair after the last
        round. Round i's play goes to row i of ``plays``. The step's rule is
        played inline with the operations of its ``__call__``, c0 * p0 +
        c1 * p1 >= level, and the chosen row's ``terms`` are applied."""
        keep, share = self._keep, self._share
        p0, p1 = table
        (c0, c1), (a0, a1), (b0, b1) = step.weights, terms[step.above], terms[step.below]
        out0, out1 = memoryview(plays[:, 0]), memoryview(plays[:, 1])
        for i, level in zip(count(), levels):
            out0[i] = p0
            out1[i] = p1
            if c0 * p0 + c1 * p1 >= level:
                w0 = p0 * a0
                w1 = p1 * a1
            else:
                w0 = p0 * b0
                w1 = p1 * b1
            total = w0 + w1
            p0 = keep * (w0 / total) + share
            p1 = keep * (w1 / total) + share
        return p0, p1


class PerGroupFixedShare(FixedShare):
    """FixedShare with one independent table per group."""

    kind = "per_group_fixed_share"
    per_group = True


_LEARNERS = {
    cls.kind: cls
    for cls in (SingleMW, PerGroupMW, FollowPerturbedLeader, FixedShare, PerGroupFixedShare)
}
LEARNER_KINDS = tuple(_LEARNERS)


def default_eta(kind: str, epsilon: float, alpha: float | None = None) -> float:
    """Learning-rate defaults: min(epsilon, alpha/6) for per-group MW,
    epsilon/2 otherwise, always capped below 1/2."""
    if kind == "per_group_mw":
        if alpha is None:
            raise ConfigError("per_group_mw default eta needs alpha")
        eta = min(epsilon, alpha / 6.0)
    else:
        eta = epsilon / 2.0
    return min(eta, 0.4999)


def make_learner(
    config: Mapping,
    *,
    T: int | None = None,
    epsilon: float | None = None,
    alpha: float | None = None,
) -> Learner:
    """Build a learner from a config mapping, filling tuning defaults.

    The kind table picks the class, which names the keys the kind takes.
    eta defaults from (epsilon, alpha) via default_eta; rho for the share
    kinds to min(1, (switches + 1) / T), switches >= 0 defaulting to 2.
    The learner's ``config()`` echoes the result.
    """
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in LEARNER_KINDS:
        raise ConfigError(f"learner kind must be one of {LEARNER_KINDS}, got {kind!r}")
    cls = _LEARNERS[kind]
    extra = set(cfg) - cls.config_keys
    if extra:
        raise ConfigError(f"unknown keys for {kind!r}: {sorted(extra)}")
    if cfg.get("eta") is None:
        if epsilon is None:
            raise ConfigError(f"learner {kind!r} needs eta (or epsilon to derive it)")
        cfg["eta"] = default_eta(kind, epsilon, alpha)
    if issubclass(cls, FixedShare):
        switches = cfg.pop("switches", DEFAULT_SWITCH_BUDGET)
        require_type("switches", switches, numbers.Integral, "an integer")
        if switches < 0:
            raise ConfigError(f"switches must be >= 0, got {switches!r}")
        if cfg.get("rho") is None:
            if T is None:
                raise ConfigError(f"learner {kind!r} needs rho (or T to derive it)")
            # Capped at 1 for horizons of at most switches + 1 rounds; T = 0
            # plays no round, so any valid rho serves.
            cfg["rho"] = min(1.0, (switches + 1) / T) if T else 1.0
    return cls(**cfg)
