"""Learners: online algorithms choosing distributions over experts.

Every learner follows the same contract: ``start(d, num_groups)`` resets
state, ``next_distribution(group)`` returns the current play without side
effects, ``observe(group, losses)`` folds in one round's loss vector. Kinds
whose distributions are closed-form functions of cumulative losses also
implement ``run_block`` so oblivious stretches can be executed vectorized;
the block path and the sequential path are the same algorithm and agree to
floating-point noise.

``run_rounds`` plays a stretch round by round, oblivious or adaptive. Its
generic form is the ``next_distribution``/``observe`` loop. For two experts,
multiplicative weights and fixed share run an exact scalar kernel instead:
each table is a pair of Python floats, and every round does the same IEEE
operations in the same order as ``next_distribution``/``observe`` (numpy's
``exp`` and ``power`` included), so the plays are bit-identical to the loop.

Group handling is the one axis of variation: single-table kinds ignore the
group argument entirely, per-group kinds keep one independent table per
group and only the arriving group's table is read or updated.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator, Mapping

import numpy as np

from .types import ConfigError, ContractError, GroupId, require_type

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

# Loss rows whose fixed-share factors are memoized (see FixedShare._row_terms).
_MEMO_ROWS = 256


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
    # The kernel repeats this class's next_distribution and observe without
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
        return group if self.per_group else 0

    def _table_rows(self, groups: np.ndarray) -> Iterator[tuple[int, slice | np.ndarray]]:
        """(table, rows) pairs that cover a block, in table order. A shared
        table takes every row as a slice, so indexing with it copies nothing."""
        if not self.per_group:
            yield 0, slice(None)
            return
        for g in np.unique(groups):
            yield g, np.flatnonzero(groups == g)

    def _check_losses(self, losses) -> np.ndarray:
        losses = np.asarray(losses, dtype=np.float64)
        if losses.shape != (self.d,):
            raise ContractError(f"loss vector has shape {losses.shape}, expected ({self.d},)")
        return losses

    def next_distribution(self, group: GroupId) -> np.ndarray:
        raise NotImplementedError

    def observe(self, group: GroupId, losses) -> None:
        raise NotImplementedError

    def run_block(self, groups: np.ndarray, losses: np.ndarray) -> np.ndarray:
        """Distributions for a stretch of rounds known in advance.

        Semantically identical to calling next_distribution/observe round by
        round; only kinds with supports_blocks=True implement it.
        """
        raise ContractError(f"{self.kind} has no vectorized block path")

    def run_rounds(self, groups: np.ndarray, losses: np.ndarray | None = None, step=None):
        """Play a stretch of rounds one at a time; returns (plays, losses, codes).

        An oblivious stretch passes its (n, d) ``losses`` and gets codes None.
        An adaptive stretch passes ``step(i, group, p)``, which sees row i of
        the plays and returns (outcome_code, loss_row); its losses and codes
        are returned. Losses of the wrong shape, or a loss outside [0, 1],
        raise ContractError; an oblivious stretch is checked before its first
        round, an adaptive row before the learner observes it.
        """
        self._started()
        n = groups.shape[0]
        if step is None:
            if np.shape(losses) != (n, self.d):
                raise ContractError(f"loss block has shape {np.shape(losses)}, expected ({n}, {self.d})")
            losses = np.asarray(losses, dtype=np.float64)
            _check_loss_block(losses)
        if self.d == 2 and self.two_expert_kernel:
            return self._two_expert_rounds(groups, losses, step)
        p = np.empty((n, self.d), dtype=np.float64)
        if step is None:
            for i in range(n):
                g = int(groups[i])
                p[i] = self.next_distribution(g)
                self.observe(g, losses[i])
            return p, losses, None
        losses = np.empty((n, self.d), dtype=np.float64)
        codes = []
        for i in range(n):
            g = int(groups[i])
            p[i] = self.next_distribution(g)
            code, row = step(i, g, p[i])
            losses[i] = self._check_losses(row)
            _check_loss_block(losses[i:i + 1], i)
            self.observe(g, losses[i])
            codes.append(code)
        return p, losses, _outcome_codes(codes)

    def _two_expert_rounds(self, groups, losses, step):
        """``run_rounds`` for d=2 on tables held as pairs of Python floats.

        A kind supplies ``_state()``, its (tables, 2) state array;
        ``_loss_terms(losses)``, the numpy part of ``observe`` applied to a
        block of loss rows, and ``_row_terms(row, i)``, the same for row i of
        the stretch as two floats, which also checks that its losses lie in
        [0, 1]; and ``_play2(table)`` and ``_update2(table, a0, a1)``,
        which repeat ``next_distribution`` and the rest of ``observe`` on one
        table.
        """
        n = groups.shape[0]
        p = np.empty((n, 2), dtype=np.float64)
        out = memoryview(p.reshape(-1))
        adaptive = step is not None
        if adaptive:
            losses = np.empty((n, 2), dtype=np.float64)
            codes = []
        state = self._state()
        tables = state.tolist()
        play, update = self._play2, self._update2
        shared = not self.per_group
        for s in range(0, n, _ROUNDS_CHUNK):
            e = min(n, s + _ROUNDS_CHUNK)
            if not adaptive:
                terms0, terms1 = self._loss_terms(losses[s:e]).T.tolist()
            for i, g in enumerate(groups[s:e].tolist(), s):
                t = 0 if shared else g
                table = tables[t]
                out[2 * i], out[2 * i + 1] = play(table)
                if adaptive:
                    code, row = step(i, g, p[i])
                    row = self._check_losses(row)
                    losses[i] = row
                    codes.append(code)
                    a0, a1 = self._row_terms(row, i)
                else:
                    a0, a1 = terms0[i - s], terms1[i - s]
                tables[t] = update(table, a0, a1)
        state[:] = tables
        return p, losses, _outcome_codes(codes) if adaptive else None


def _loss_range_error(row: list, i: int) -> ContractError:
    return ContractError(f"loss row {row!r} at row {i} of the stretch lies outside [0, 1]")


def _check_loss_block(losses: np.ndarray, first: int = 0) -> None:
    """ContractError naming the first row of an (n, d) loss block with a loss
    outside [0, 1], NaN included: NaN fails both comparisons. ``first`` is the
    block's first row within its stretch."""
    if losses.size and not (losses.min() >= 0.0 and losses.max() <= 1.0):
        k = int(np.argmin((losses.min(axis=1) >= 0.0) & (losses.max(axis=1) <= 1.0)))
        raise _loss_range_error(losses[k].tolist(), first + k)


def _outcome_codes(codes: list) -> np.ndarray:
    """The codes an adaptive stretch's step returned, as int8. The first that
    is not an integer in {-1, 0, 1} raises ContractError naming its row."""
    arr = np.array(codes, dtype=None if codes else np.int8)
    if arr.dtype.kind not in "biu" or (codes and (arr.min() < -1 or arr.max() > 1)):
        for i, code in enumerate(codes):
            if not (isinstance(code, numbers.Integral) and -1 <= code <= 1):
                raise ContractError(f"step returned outcome code {code!r} at row {i} of the stretch")
    return arr.astype(np.int8)


def _row_softmax(log_w: np.ndarray) -> np.ndarray:
    z = log_w - log_w.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


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
        lw = self._log_w[self._table(group)]
        z = lw - lw.max()
        e = np.exp(z)
        return e / e.sum()

    def observe(self, group: GroupId, losses) -> None:
        self._started()
        losses = self._check_losses(losses)
        self._log_w[self._table(group)] += self._log_decay * losses

    def run_block(self, groups: np.ndarray, losses: np.ndarray) -> np.ndarray:
        self._started()
        _check_loss_block(losses)
        p = np.empty((losses.shape[0], self.d), dtype=np.float64)
        for table, rows in self._table_rows(groups):
            cum = np.cumsum(losses[rows], axis=0)
            before = np.empty_like(cum)
            before[0] = 0.0
            before[1:] = cum[:-1]
            p[rows] = _row_softmax(self._log_w[table] + self._log_decay * before)
            self._log_w[table] += self._log_decay * cum[-1]
        return p

    def _state(self) -> np.ndarray:
        return self._log_w

    def _loss_terms(self, losses: np.ndarray) -> np.ndarray:
        return self._log_decay * losses

    def _row_terms(self, row: np.ndarray, i: int) -> tuple[float, float]:
        # a Python float product is the same IEEE multiply as numpy's
        r0, r1 = row.tolist()
        if not (0.0 <= r0 <= 1.0 and 0.0 <= r1 <= 1.0):
            raise _loss_range_error([r0, r1], i)
        return self._log_decay * r0, self._log_decay * r1

    def _play2(self, table: list) -> tuple[float, float]:
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

    def _update2(self, table: list, a0: float, a1: float) -> list:
        return [table[0] + a0, table[1] + a1]


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
        leaders = np.argmin(self._cum[None, :] - self._grid, axis=1)
        return np.bincount(leaders, minlength=self.d) / float(self.grid_m)

    def observe(self, group: GroupId, losses) -> None:
        self._started()
        self._cum += self._check_losses(losses)

    def run_block(self, groups: np.ndarray, losses: np.ndarray) -> np.ndarray:
        self._started()
        _check_loss_block(losses)
        cum = np.cumsum(losses, axis=0)
        before = np.empty_like(cum)
        before[0] = 0.0
        before[1:] = cum[:-1]
        before += self._cum
        p = self._two_expert_play(before) if self.d == 2 else self._grid_play(before)
        self._cum += cum[-1]
        return p

    def _grid_play(self, before: np.ndarray) -> np.ndarray:
        """Per row of ``before``, the fraction of grid rows each expert leads."""
        n = before.shape[0]
        p = np.empty((n, self.d), dtype=np.float64)
        # Chunked so the (rows, m, d) work array stays around 16 MB.
        chunk = max(1, 2_000_000 // (self.grid_m * self.d))
        for s in range(0, n, chunk):
            e = min(n, s + chunk)
            pert = before[s:e, None, :] - self._grid[None, :, :]
            leaders = pert.argmin(axis=2)
            for f in range(self.d):
                p[s:e, f] = (leaders == f).mean(axis=1)
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
        # With S = max|before| + max|grid|, each rounding (x, D_k, both
        # before_f - g_f) errs by at most eps/2 * S. So once |x - D_k| exceeds
        # 2 eps S, x - D_k and the rounded (before0 - g0) - (before1 - g1)
        # have the same strict sign; the margin doubles that bound.
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
        self._memo: dict[bytes, list] = {}

    def _init_state(self) -> None:
        self._p = np.full((self._tables(), self.d), 1.0 / self.d, dtype=np.float64)

    def next_distribution(self, group: GroupId) -> np.ndarray:
        self._started()
        return self._p[self._table(group)].copy()

    def observe(self, group: GroupId, losses) -> None:
        self._started()
        losses = self._check_losses(losses)
        table = self._table(group)
        w = self._p[table] * np.power(1.0 - self.eta, losses)
        w /= w.sum()
        self._p[table] = (1.0 - self.rho) * w + self.rho / self.d

    def _state(self) -> np.ndarray:
        return self._p

    def _loss_terms(self, losses: np.ndarray) -> np.ndarray:
        return np.power(1.0 - self.eta, losses)

    def _row_terms(self, row: np.ndarray, i: int) -> list:
        # np.power on one row costs about 1.3 us, a memo hit about 0.3 us.
        # The memo pays because the scenarios' adaptive steps (t2 and t5) each
        # return one of two fixed rows; it is emptied at _MEMO_ROWS entries,
        # so rows that never repeat cannot grow it. A row is range-checked
        # when it enters the memo, so a hit needs no check.
        key = row.tobytes()  # bits, so -0.0 and 0.0 stay apart
        terms = self._memo.get(key)
        if terms is None:
            _check_loss_block(row[None], i)
            if len(self._memo) >= _MEMO_ROWS:
                self._memo.clear()
            terms = self._memo[key] = self._loss_terms(row).tolist()
        return terms

    def _play2(self, table: list) -> list:
        return table

    def _update2(self, table: list, f0: float, f1: float) -> tuple[float, float]:
        w0 = table[0] * f0
        w1 = table[1] * f1
        total = w0 + w1
        keep, share = 1.0 - self.rho, self.rho / 2
        return keep * (w0 / total) + share, keep * (w1 / total) + share


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
