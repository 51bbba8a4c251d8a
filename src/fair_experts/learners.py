"""Learners: online algorithms choosing distributions over experts.

Every learner follows the same contract: ``start(d, num_groups)`` resets
state, ``next_distribution(group)`` returns the current play without side
effects, ``observe(group, losses)`` folds in one round's loss vector. Kinds
whose distributions are closed-form functions of cumulative losses also
implement ``run_block`` so oblivious stretches can be executed vectorized;
the block path and the sequential path are the same algorithm and agree to
floating-point noise, and ``next_distribution`` is the play of a one-row block.

``run_rounds`` plays a stretch round by round, oblivious or adaptive. Its
generic form is the ``next_distribution``/``observe`` loop. For two experts,
multiplicative weights and fixed share run an exact scalar kernel instead:
each table is a pair of Python floats, and each kind's per-round loop,
``_pair_rounds``, writes out the play and the update, doing the same IEEE
operations in the same order as ``next_distribution``/``observe`` (numpy's
``exp`` and ``power`` included), so the plays are bit-identical to the loop.
The arriving group's table stays in locals while the group repeats. A fixed
share round makes no Python call but an adaptive stretch's step; an MW round
also calls ``_play2``, for numpy's ``exp``. An adaptive stretch takes its
declared rows' update terms once. An oblivious stretch finds its runs of
rows on one table with one loss row once, steps each run of at least
``_RUN`` rows only until its table is a fixed point of the update, and plays
its other rows in chunks of ``_ROUNDS_CHUNK``.

Group handling is the one axis of variation: single-table kinds ignore the
group argument entirely, per-group kinds keep one independent table per
group and only the arriving group's table is read or updated.
"""

from __future__ import annotations

import math
import numbers
from itertools import count, repeat
from typing import Iterator, Mapping

import numpy as np

from .types import (_IO_CHUNK, _RUN, ConfigError, ContractError, GroupId, _first_off_unit, _numbers,
                    _run_bounds, require_type)

LEARNER_KINDS = (
    "single_mw",
    "per_group_mw",
    "fpl",
    "fixed_share",
    "per_group_fixed_share",
)

# Layout seed for the perturbation grid. Part of the algorithm definition:
# every instance with the same (d, eta, m) gets the same grid, so play is a
# deterministic function of cumulative loss differences.
_FPL_GRID_SEED = 104729

DEFAULT_GRID_M = 1024
DEFAULT_SWITCH_BUDGET = 2

# Rows per chunk of a two-expert stretch. A chunk's groups and loss terms are
# held as Python objects, and the allocator keeps the memory they free: on
# theorem5, 8192-row chunks grew the process by 1 MB more than the numpy loop
# did, 1024-row chunks by 0.13 MB and 256-row chunks by 0.04 MB.
_ROUNDS_CHUNK = 256


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
    supports_blocks = False
    per_group = False
    # Kinds with an exact scalar kernel for d=2 (see ``_two_expert_rounds``).
    # The kernel repeats this class's next_distribution and _update without
    # calling them, so a subclass that overrides either must set it False.
    two_expert_kernel = False

    def __init__(self) -> None:
        self.d: int | None = None
        self.num_groups: int | None = None

    @property
    def id(self) -> str:
        return self.kind

    def start(self, d: int, num_groups: int = 1) -> None:
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
        """The table a round of ``group`` reads. A group id outside
        range(num_groups) raises ContractError, as in ``_check_group_ids``."""
        if not 0 <= group < self.num_groups:
            raise ContractError(f"group id {group} lies outside range({self.num_groups})")
        return group if self.per_group else 0

    def _table_rows(self, groups: np.ndarray) -> Iterator[tuple[int, slice | np.ndarray]]:
        """(table, rows) pairs that cover a block, in table order. A shared
        table takes every row as a slice, so indexing with it copies nothing."""
        if not self.per_group:
            yield 0, slice(None)
            return
        for g in np.unique(groups):
            yield g, np.flatnonzero(groups == g)

    def _check_group_ids(self, groups: np.ndarray) -> None:
        """ContractError naming the first row of a stretch whose group id
        lies outside range(num_groups): a per-group kind would index a
        table with it, and -1 would play the last group's table."""
        if groups.size and (groups.min() < 0 or groups.max() >= self.num_groups):
            k = int(np.argmax((groups < 0) | (groups >= self.num_groups)))
            raise ContractError(f"group id {groups[k]} at row {k} of the stretch lies outside "
                                f"range({self.num_groups})")

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

    def run_block(self, groups: np.ndarray, losses: np.ndarray) -> np.ndarray:
        """Distributions for a stretch of rounds known in advance.

        Semantically identical to calling next_distribution/observe round by
        round; only kinds with supports_blocks=True implement it. Losses
        outside [0, 1] and group ids outside range(num_groups) raise
        ContractError before the state changes.
        """
        raise ContractError(f"{self.kind} has no vectorized block path")

    def run_rounds(self, groups: np.ndarray, losses, step=None):
        """Play a stretch of rounds one at a time; returns (plays, choices).

        An oblivious stretch passes its (n, d) ``losses`` and gets choices
        None. An adaptive stretch passes the (K, d) loss rows it may choose
        from and ``step(i, group, p)``, which sees round i's play as a tuple
        of d Python floats and returns the index of its row, a Python int in
        range(K); choices holds those indices. Losses that are ragged, not
        numbers, of the wrong shape or outside [0, 1], and group ids outside
        range(num_groups), raise ContractError before the first round, and a
        choice that is not an int in range(K) once the rounds before it are
        observed.
        """
        self._started()
        n = groups.shape[0]
        losses = _numbers(losses, "losses" if step is None else "declared loss rows")
        shape = losses.shape
        if step is None:
            if shape != (n, self.d):
                raise ContractError(f"loss block has shape {shape}, expected ({n}, {self.d})")
        elif len(shape) != 2 or shape[0] < 1 or shape[1] != self.d:
            raise ContractError(f"declared loss rows have shape {shape}, expected (K, {self.d}), K >= 1")
        rows = losses.astype(np.float64, copy=False)
        _check_loss_block(rows, "row {} of the stretch" if step is None else "declared index {}")
        self._check_group_ids(groups)
        if self.d == 2 and self.two_expert_kernel:
            return self._two_expert_rounds(groups, rows, step)
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
                    raise _choice_error(k, i, K)
                choices[i] = k
            self._update(self._table(g), rows[k])
        return p, choices

    def _two_expert_rounds(self, groups, rows, step):
        """``run_rounds`` for d=2 on tables held as pairs of Python floats.

        A kind supplies ``_state()``, its (tables, 2) state array;
        ``_loss_terms(losses)``, the numpy part of ``observe`` applied to a
        block of loss rows; and ``_pair_rounds``, the per-round loop, which
        runs ``next_distribution`` and the rest of ``_update`` inline.

        An adaptive stretch takes its declared rows' terms once and is played
        in chunks of _ROUNDS_CHUNK rounds. An oblivious stretch finds its runs
        of rows on one table with one loss row, bit for bit, once. A run of at
        least _RUN rows is stepped only until its table is a fixed point of
        the update, as the update is deterministic and every later round of
        the run plays the same pair; the other rows are played in chunks of
        _ROUNDS_CHUNK rows on their own rows' terms.
        """
        n = groups.shape[0]
        p = np.empty((n, 2), dtype=np.float64)
        out = memoryview(p.reshape(-1))
        tables = [tuple(table) for table in self._state().tolist()]
        rounds = self._pair_rounds
        if step is not None:
            terms = self._loss_terms(rows).tolist()
            choices = np.empty(n, dtype=np.intp)
            chosen = memoryview(choices)
            for s in range(0, n, _ROUNDS_CHUNK):
                rounds(tables, out, s, groups[s:s + _ROUNDS_CHUNK].tolist(), terms, step, chosen)
            self._state()[:] = tables
            return p, choices
        columns = (rows[:, 0], rows[:, 1], groups) if self.per_group else (rows[:, 0], rows[:, 1])
        starts, counts = _run_bounds(columns, n)
        long = counts >= _RUN
        heads, ends = starts[long].tolist(), (starts[long] + counts[long]).tolist()
        s = 0
        # rows s..a-1 row by row, then the run a..e-1 up to its fixed point
        for a, e in zip(heads + [n], ends + [n]):
            for c in range(s, a, _ROUNDS_CHUNK):
                b = min(a, c + _ROUNDS_CHUNK)
                rounds(tables, out, c, groups[c:b].tolist(), self._loss_terms(rows[c:b]).tolist())
            if a < e:
                (term,) = self._loss_terms(rows[a:a + 1]).tolist()
                i = rounds(tables, out, a, repeat(int(groups[a]), e - a), repeat(term, e - a), stop=True)
                if i is not None:
                    p[i + 1:e] = p[i]
            s = e
        self._state()[:] = tables
        return p, None

    def _pair_rounds(self, tables, out, s, groups, terms, step=None, chosen=None, stop=False):
        """Rounds s, s+1, ... of a two-expert stretch, one per group id in
        ``groups``, on ``tables``, the list of each table's pair of floats,
        which it updates. Round i's play goes to out[2i] and out[2i + 1].

        Oblivious rounds take one term pair of ``terms`` each, in order. An
        adaptive round passes its play to ``step``, stores the choice k in
        ``chosen[i]`` and takes ``terms[k]``; a choice that is not an int in
        range(len(terms)) writes the tables to the state and raises. With
        ``stop``, every round is of one table and one loss row, and the loop
        returns the first round i whose update leaves the table as it was:
        the later rounds play round i's pair. Otherwise it returns None.

        ``==`` on two tables is bit equality here, since no state entry is
        NaN or -0.0. MW's log weights start at +0.0 and add terms, and x + y
        is -0.0 only when both are. Fixed share's entries are sums, products
        and quotients of non-negative numbers, and its total weight is at
        least half its table's sum, as each factor (1 - eta)^loss is.
        """
        raise NotImplementedError


def _check_loss_block(losses: np.ndarray, where: str = "row {} of the stretch") -> None:
    """ContractError naming the first row of an (n, d) loss block with a loss
    outside [0, 1], NaN included; ``where.format(k)`` names row k."""
    k = _first_off_unit(losses)
    if k is not None:
        raise ContractError(f"loss row {losses[k].tolist()!r} at {where.format(k)} lies outside [0, 1]")


def _choice_error(k, i: int, K: int) -> ContractError:
    return ContractError(f"step returned choice {k!r} at row {i} of the stretch, not an int in range({K})")


def _row_softmax(log_w: np.ndarray) -> np.ndarray:
    z = log_w - log_w.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _two_expert_softmax(log_w: np.ndarray) -> np.ndarray:
    """``_row_softmax`` of an (n, 2) block by ``_play2``'s operations on
    whole columns: with e = exp(-|lw0 - lw1|), the larger weight gets
    1/(1+e) and the smaller e/(1+e). The bits are ``_row_softmax``'s, whose
    larger z is 0 (exp(0) = 1 exactly) and smaller z is -|lw0 - lw1|."""
    x = log_w[:, 0] - log_w[:, 1]
    first = x >= 0.0
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    total = e + 1.0
    big = 1.0 / total
    small = np.divide(e, total, out=e)
    return np.column_stack([np.where(first, big, small), np.where(first, small, big)])


class _MultiplicativeWeights(Learner):
    """Weights w_f = (1 - eta)^(cumulative loss), kept in log space."""

    supports_blocks = True
    two_expert_kernel = True

    def __init__(self, eta: float) -> None:
        super().__init__()
        self.eta = _check_eta(eta)
        self._log_decay = math.log1p(-self.eta)

    def _init_state(self) -> None:
        self._log_w = np.zeros((self._tables(), self.d), dtype=np.float64)

    def next_distribution(self, group: GroupId) -> np.ndarray:
        self._started()
        return self._play(self._log_w[self._table(group)][None])[0]

    def _play(self, log_w: np.ndarray) -> np.ndarray:
        """The plays of an (n, d) block of log weights."""
        return _two_expert_softmax(log_w) if self.d == 2 else _row_softmax(log_w)

    def _update(self, table: int, losses: np.ndarray) -> None:
        self._log_w[table] += self._loss_terms(losses)

    def run_block(self, groups: np.ndarray, losses: np.ndarray) -> np.ndarray:
        self._started()
        _check_loss_block(losses)
        self._check_group_ids(groups)
        p = np.empty((losses.shape[0], self.d), dtype=np.float64)
        for table, rows in self._table_rows(groups):
            cum = np.cumsum(losses[rows], axis=0)
            before = np.empty_like(cum)
            before[0] = 0.0
            before[1:] = cum[:-1]
            p[rows] = self._play(self._log_w[table] + self._log_decay * before)
            self._log_w[table] += self._log_decay * cum[-1]
        return p

    def _state(self) -> np.ndarray:
        return self._log_w

    def _loss_terms(self, losses: np.ndarray) -> np.ndarray:
        return self._log_decay * losses

    def _play2(self, table: tuple) -> tuple[float, float]:
        # The larger log weight has z = 0, and exp(0) = 1 exactly. The other z
        # goes through numpy's exp: math.exp differs from it in the last bit
        # on some inputs, and one bit can flip a scenario's threshold on p.
        lw0, lw1 = table
        if lw0 >= lw1:
            e = float(np.exp(lw1 - lw0))
            total = 1.0 + e
            return 1.0 / total, e / total
        e = float(np.exp(lw0 - lw1))
        total = e + 1.0
        return e / total, 1.0 / total

    def _pair_rounds(self, tables, out, s, groups, terms, step=None, chosen=None, stop=False):
        play, per_group = self._play2, self.per_group
        K = len(terms) if step is not None else 0
        t, cur = 0, None
        table = tables[0]
        for i, g, term in zip(count(s), groups, terms if step is None else repeat(None)):
            if g != cur:
                tables[t] = table
                cur, t = g, g if per_group else 0
                table = tables[t]
            pair = play(table)
            out[2 * i], out[2 * i + 1] = pair
            if step is not None:
                k = step(i, g, pair)
                if type(k) is not int or not 0 <= k < K:
                    tables[t] = table
                    self._state()[:] = tables
                    raise _choice_error(k, i, K)
                chosen[i] = k
                term = terms[k]
            a0, a1 = term
            nxt = table[0] + a0, table[1] + a1
            if stop and nxt == table:
                tables[t] = table
                return i
            table = nxt
        tables[t] = table
        return None


class SingleMW(_MultiplicativeWeights):
    """One shared weight table; play is independent of the arriving group."""

    kind = "single_mw"


class PerGroupMW(_MultiplicativeWeights):
    """Independent weight table per group; only the arriving group updates."""

    kind = "per_group_mw"
    per_group = True


class FollowPerturbedLeader(Learner):
    """Expected-distribution form of the perturbed-leader rule.

    Play weight of expert f is the fraction of a fixed m-point perturbation
    grid under which f has the lowest perturbed cumulative loss (ties to the
    lowest index). Each expert's grid column holds exactly the m mid-quantiles
    of the exponential distribution with rate eta, in a fixed scrambled order,
    so the play depends on the loss history only through pairwise cumulative
    loss differences.
    """

    kind = "fpl"
    supports_blocks = True

    def __init__(self, eta: float, grid_m: int = DEFAULT_GRID_M) -> None:
        super().__init__()
        self.eta = _check_eta(eta)
        require_type("grid_m", grid_m, numbers.Integral, "an integer")
        self.grid_m = int(grid_m)
        if self.grid_m < 1:
            raise ConfigError(f"grid_m must be >= 1, got {grid_m!r}")

    def _init_state(self) -> None:
        m = self.grid_m
        quantiles = -np.log1p(-(np.arange(m) + 0.5) / m) / self.eta
        rng = np.random.default_rng(_FPL_GRID_SEED)
        grid = np.empty((m, self.d), dtype=np.float64)
        for f in range(self.d):
            grid[:, f] = quantiles[rng.permutation(m)]
        self._grid = grid
        self._sorted_diffs = np.sort(grid[:, 0] - grid[:, 1]) if self.d == 2 else None
        self._cum = np.zeros(self.d, dtype=np.float64)

    def next_distribution(self, group: GroupId) -> np.ndarray:
        self._started()
        self._table(group)  # one table for every group, but the id is checked
        return self._grid_play(self._cum[None])[0]

    def _update(self, table: int, losses: np.ndarray) -> None:
        self._cum += losses

    def run_block(self, groups: np.ndarray, losses: np.ndarray) -> np.ndarray:
        """Plays of a block, in chunks of _IO_CHUNK rows so that the work
        arrays do not grow with the block. Row k plays on the cumulative
        loss before the block plus the cumsum of the block's rows before k.
        Each chunk's cumsum starts from the sum of the rows before it, added
        to its first row, which gives the bits of one cumsum over the block."""
        self._started()
        _check_loss_block(losses)
        self._check_group_ids(groups)
        play = self._two_expert_play if self.d == 2 else self._grid_play
        p = np.empty((losses.shape[0], self.d), dtype=np.float64)
        total = np.zeros(self.d)
        for s in range(0, losses.shape[0], _IO_CHUNK):
            cum = losses[s:s + _IO_CHUNK].copy()
            if s:
                cum[0] += total
            np.cumsum(cum, axis=0, out=cum)
            before = np.empty_like(cum)
            before[0] = total
            before[1:] = cum[:-1]
            before += self._cum
            p[s:s + _IO_CHUNK] = play(before)
            total = cum[-1]
        self._cum += total
        return p

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
        """
        m = self.grid_m
        diffs = self._sorted_diffs
        x = before[:, 0] - before[:, 1]
        idx = np.searchsorted(diffs, x, side="left")
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
        above = np.abs(x - diffs[np.minimum(idx, m - 1)])
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
    two_expert_kernel = True

    def __init__(self, eta: float, rho: float) -> None:
        super().__init__()
        self.eta = _check_eta(eta)
        require_type("rho", rho, numbers.Real, "a number")
        self.rho = float(rho)
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {rho!r}")

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

    def _state(self) -> np.ndarray:
        return self._p

    def _loss_terms(self, losses: np.ndarray) -> np.ndarray:
        return np.power(1.0 - self.eta, losses)

    def _pair_rounds(self, tables, out, s, groups, terms, step=None, chosen=None, stop=False):
        keep, share, per_group = self._keep, self._share, self.per_group
        K = len(terms) if step is not None else 0
        t, cur = 0, None
        p0, p1 = tables[0]
        for i, g, term in zip(count(s), groups, terms if step is None else repeat(None)):
            if g != cur:
                tables[t] = p0, p1
                cur, t = g, g if per_group else 0
                p0, p1 = tables[t]
            out[2 * i] = p0
            out[2 * i + 1] = p1
            if step is not None:
                k = step(i, g, (p0, p1))
                if type(k) is not int or not 0 <= k < K:
                    tables[t] = p0, p1
                    self._state()[:] = tables
                    raise _choice_error(k, i, K)
                chosen[i] = k
                term = terms[k]
            f0, f1 = term
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


class PerGroupFixedShare(FixedShare):
    """FixedShare with one independent table per group."""

    kind = "per_group_fixed_share"
    per_group = True


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

    eta defaults from (epsilon, alpha) via default_eta; rho for the share
    kinds defaults to min(1, (switches + 1) / T) with switches = 2.
    """
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in LEARNER_KINDS:
        raise ConfigError(f"learner kind must be one of {LEARNER_KINDS}, got {kind!r}")
    eta = cfg.pop("eta", None)
    if eta is None:
        if epsilon is None:
            raise ConfigError(f"learner {kind!r} needs eta (or epsilon to derive it)")
        eta = default_eta(kind, epsilon, alpha)
    if kind == "single_mw" or kind == "per_group_mw":
        extra = set(cfg)
        if extra:
            raise ConfigError(f"unknown keys for {kind!r}: {sorted(extra)}")
        return SingleMW(eta) if kind == "single_mw" else PerGroupMW(eta)
    if kind == "fpl":
        grid_m = cfg.pop("grid_m", DEFAULT_GRID_M)
        if cfg:
            raise ConfigError(f"unknown keys for 'fpl': {sorted(cfg)}")
        return FollowPerturbedLeader(eta, grid_m=grid_m)
    # share kinds
    rho = cfg.pop("rho", None)
    switches = cfg.pop("switches", DEFAULT_SWITCH_BUDGET)
    if cfg:
        raise ConfigError(f"unknown keys for {kind!r}: {sorted(cfg)}")
    require_type("switches", switches, numbers.Integral, "an integer")
    if rho is None:
        if T is None:
            raise ConfigError(f"learner {kind!r} needs rho (or T to derive it)")
        # Capped at 1 for horizons of at most switches + 1 rounds; T = 0
        # plays no round, so any valid rho serves.
        rho = min(1.0, (switches + 1) / T) if T else 1.0
    cls = FixedShare if kind == "fixed_share" else PerGroupFixedShare
    return cls(eta, rho)
