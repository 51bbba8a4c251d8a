import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fair_experts import adversaries
from fair_experts.adversaries import make_scenario
from fair_experts.learners import (
    FixedShare,
    FollowPerturbedLeader,
    Learner,
    PerGroupFixedShare,
    PerGroupMW,
    SingleMW,
    default_eta,
    make_learner,
)
from fair_experts.protocol import AdaptiveBlock, BlockResult, run
from fair_experts.types import ConfigError, ContractError


class TestEtaDomain:
    @pytest.mark.parametrize("eta", [0.0, -0.1, 0.5, 0.7])
    def test_rejects_out_of_range(self, eta):
        for cls in (SingleMW, PerGroupMW, FollowPerturbedLeader):
            with pytest.raises(ConfigError):
                cls(eta)
        with pytest.raises(ConfigError):
            FixedShare(eta, 0.01)

    def test_defaults(self):
        assert default_eta("single_mw", 0.2) == 0.1
        assert default_eta("per_group_mw", 0.2, alpha=0.3) == pytest.approx(0.05)
        assert default_eta("per_group_mw", 0.01, alpha=0.3) == pytest.approx(0.01)
        with pytest.raises(ConfigError):
            default_eta("per_group_mw", 0.1)

    def test_use_before_start(self):
        lrn = SingleMW(0.1)
        with pytest.raises(ContractError):
            lrn.next_distribution(0)


class TestMultiplicativeWeights:
    def test_single_step_hand_value(self):
        # after losses (1, 0) at eta = 0.5, weights are (0.5, 1)
        lrn = SingleMW(0.5 - 1e-12)
        lrn.start(2)
        np.testing.assert_allclose(lrn.next_distribution(0), [0.5, 0.5], atol=0)
        lrn.observe(0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(lrn.next_distribution(0), [1 / 3, 2 / 3], atol=1e-9)

    def test_two_steps(self):
        lrn = SingleMW(0.25)
        lrn.start(2)
        lrn.observe(0, np.array([1.0, 0.0]))
        lrn.observe(0, np.array([1.0, 0.5]))
        # weights: 0.75^2 vs 0.75^0.5
        w = np.array([0.75**2, 0.75**0.5])
        np.testing.assert_allclose(lrn.next_distribution(0), w / w.sum(), atol=1e-12)

    def test_per_group_isolation(self):
        lrn = PerGroupMW(0.3)
        lrn.start(2, num_groups=2)
        lrn.observe(0, np.array([1.0, 0.0]))
        # group 1 never observed anything, so it still plays uniform
        np.testing.assert_allclose(lrn.next_distribution(1), [0.5, 0.5], atol=0)
        assert lrn.next_distribution(0)[0] < 0.5

    def test_wrong_loss_shape(self):
        lrn = SingleMW(0.1)
        lrn.start(3)
        with pytest.raises(ContractError):
            lrn.observe(0, np.array([0.1, 0.2]))


class TestFixedShare:
    def test_share_step_hand_value(self):
        # eta 0.5, rho 0.5: after loss (0, 1) the mixed weights are
        # (2/3, 1/3), then sharing pulls both a quarter toward uniform
        lrn = FixedShare(0.5 - 1e-12, 0.5)
        lrn.start(2)
        lrn.observe(0, np.array([0.0, 1.0]))
        np.testing.assert_allclose(lrn.next_distribution(0), [7 / 12, 5 / 12], atol=1e-9)

    def test_rho_domain(self):
        FixedShare(0.1, 0.0)
        FixedShare(0.1, 1.0)
        with pytest.raises(ConfigError):
            FixedShare(0.1, -0.01)
        with pytest.raises(ConfigError):
            FixedShare(0.1, 1.01)

    def test_share_keeps_floor(self):
        lrn = FixedShare(0.4, 0.1)
        lrn.start(2)
        for _ in range(200):
            lrn.observe(0, np.array([1.0, 0.0]))
        # sharing guarantees at least rho/d mass on every expert
        assert lrn.next_distribution(0).min() >= 0.1 / 2 - 1e-15

    def test_per_group_variant_isolation(self):
        lrn = PerGroupFixedShare(0.3, 0.05)
        lrn.start(2, num_groups=3)
        lrn.observe(2, np.array([1.0, 0.0]))
        np.testing.assert_allclose(lrn.next_distribution(0), [0.5, 0.5], atol=0)
        assert lrn.next_distribution(2)[0] < 0.5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_group_equals_independent_learners(self, seed):
        rng = np.random.default_rng(seed)
        G, d, n = 4, 3, 200
        groups = rng.integers(0, G, n)
        losses = rng.random((n, d))
        pooled = PerGroupFixedShare(0.2, 0.03)
        pooled.start(d, G)
        alone = [FixedShare(0.2, 0.03) for _ in range(G)]
        for lrn in alone:
            lrn.start(d, 1)
        for g, row in zip(groups.tolist(), losses):
            np.testing.assert_array_equal(pooled.next_distribution(g), alone[g].next_distribution(0))
            pooled.observe(g, row)
            alone[g].observe(0, row)
        for g in range(G):
            np.testing.assert_array_equal(pooled.next_distribution(g), alone[g].next_distribution(0))


class TestFollowPerturbedLeader:
    def test_uniform_before_any_loss(self):
        lrn = FollowPerturbedLeader(0.1, grid_m=64)
        lrn.start(2)
        p = lrn.next_distribution(0)
        # the perturbation grid is column-permuted from identical quantiles,
        # so with zero cumulative loss ties split near evenly
        assert abs(p[0] - 0.5) < 0.2
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_leader_dominates_after_large_gap(self):
        lrn = FollowPerturbedLeader(0.2, grid_m=128)
        lrn.start(3)
        for _ in range(400):
            lrn.observe(0, np.array([1.0, 1.0, 0.0]))
        p = lrn.next_distribution(0)
        assert p[2] == pytest.approx(1.0, abs=1e-12)

    def test_depends_only_on_loss_differences(self):
        a = FollowPerturbedLeader(0.1)
        b = FollowPerturbedLeader(0.1)
        a.start(2)
        b.start(2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            ell = rng.random(2)
            a.observe(0, ell)
            shift = min(1.0 - ell.max(), 0.3)  # keep losses in range
            b.observe(0, np.clip(ell + shift, 0.0, 1.0))
        np.testing.assert_allclose(
            a.next_distribution(0), b.next_distribution(0), atol=1e-12
        )

    def test_grid_is_deterministic(self):
        a = FollowPerturbedLeader(0.1)
        b = FollowPerturbedLeader(0.1)
        a.start(4)
        b.start(4)
        losses = np.random.default_rng(0).random((20, 4))
        for ell in losses:
            a.observe(0, ell)
            b.observe(0, ell)
        np.testing.assert_array_equal(a.next_distribution(0), b.next_distribution(0))


def _sequential_distributions(learner, groups, losses):
    out = np.empty_like(losses, dtype=np.float64)
    for i, (g, ell) in enumerate(zip(groups, losses)):
        out[i] = learner.next_distribution(int(g))
        learner.observe(int(g), ell)
    return out


@st.composite
def _instances(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    d = draw(st.integers(min_value=2, max_value=5))
    num_groups = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, num_groups, n).astype(np.int64)
    losses = rng.random((n, d))
    return groups, losses, num_groups


class TestBlockEqualsSequential:
    """The vectorized block path must be a pure refactoring of the loop."""

    @settings(max_examples=40, deadline=None)
    @given(_instances(), st.sampled_from(["single_mw", "per_group_mw"]))
    def test_mw_kinds(self, instance, kind):
        groups, losses, num_groups = instance
        eta = 0.23
        mk = SingleMW if kind == "single_mw" else PerGroupMW
        blk, seq = mk(eta), mk(eta)
        blk.start(losses.shape[1], num_groups)
        seq.start(losses.shape[1], num_groups)
        p_blk = blk.run_block(groups, losses)
        p_seq = _sequential_distributions(seq, groups, losses)
        np.testing.assert_allclose(p_blk, p_seq, atol=1e-12)
        # final states agree too: next round matches
        np.testing.assert_allclose(
            blk.next_distribution(0), seq.next_distribution(0), atol=1e-12
        )

    @settings(max_examples=10, deadline=None)
    @given(_instances())
    def test_fpl(self, instance):
        groups, losses, _ = instance
        blk, seq = FollowPerturbedLeader(0.11, grid_m=64), FollowPerturbedLeader(0.11, grid_m=64)
        blk.start(losses.shape[1])
        seq.start(losses.shape[1])
        p_blk = blk.run_block(groups, losses)
        p_seq = _sequential_distributions(seq, groups, losses)
        np.testing.assert_allclose(p_blk, p_seq, atol=1e-12)


class TestGroupUnawareness:
    def test_single_mw_ignores_group_labels(self):
        rng = np.random.default_rng(11)
        losses = rng.random((80, 3))
        g1 = rng.integers(0, 2, 80).astype(np.int64)
        g2 = (1 - g1).astype(np.int64)  # relabeled groups
        a, b = SingleMW(0.15), SingleMW(0.15)
        a.start(3, 2)
        b.start(3, 2)
        np.testing.assert_array_equal(a.run_block(g1, losses), b.run_block(g2, losses))

    def test_fpl_ignores_group_labels(self):
        rng = np.random.default_rng(12)
        losses = rng.random((40, 2))
        g = rng.integers(0, 2, 40).astype(np.int64)
        a, b = FollowPerturbedLeader(0.1, grid_m=64), FollowPerturbedLeader(0.1, grid_m=64)
        a.start(2, 2)
        b.start(2, 2)
        np.testing.assert_array_equal(a.run_block(g, losses), b.run_block(1 - g, losses))


class TestMakeLearner:
    def test_kinds_and_defaults(self):
        lrn = make_learner({"kind": "single_mw"}, epsilon=0.2)
        assert isinstance(lrn, SingleMW) and lrn.eta == 0.1
        lrn = make_learner({"kind": "per_group_mw"}, epsilon=0.2, alpha=0.3)
        assert isinstance(lrn, PerGroupMW) and lrn.eta == pytest.approx(0.05)
        lrn = make_learner({"kind": "fixed_share", "eta": 0.1}, T=1000)
        assert lrn.rho == pytest.approx(3 / 1000)
        lrn = make_learner({"kind": "per_group_fixed_share", "eta": 0.1, "switches": 4}, T=100)
        assert lrn.rho == pytest.approx(5 / 100)
        lrn = make_learner({"kind": "fpl", "eta": 0.1, "grid_m": 32})
        assert lrn.grid_m == 32

    @pytest.mark.parametrize("T, rho", [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 0.75)])
    def test_derived_rho_capped_at_one(self, T, rho):
        for kind in ("fixed_share", "per_group_fixed_share"):
            assert make_learner({"kind": kind, "eta": 0.1}, T=T).rho == rho

    def test_errors(self):
        with pytest.raises(ConfigError):
            make_learner({"kind": "mystery"})
        with pytest.raises(ConfigError):
            make_learner({"kind": "single_mw"})  # no eta, no epsilon
        with pytest.raises(ConfigError):
            make_learner({"kind": "single_mw", "eta": 0.1, "bogus": 1})
        with pytest.raises(ConfigError):
            make_learner({"kind": "fixed_share", "eta": 0.1})  # no rho, no T

    @pytest.mark.parametrize("config", [
        {"kind": "fpl", "eta": 0.1, "grid_m": 2.5},
        {"kind": "fpl", "eta": 0.1, "grid_m": True},
        {"kind": "fpl", "eta": "0.1"},
        {"kind": "single_mw", "eta": True},
        {"kind": "fixed_share", "eta": 0.1, "rho": "0.01"},
        {"kind": "fixed_share", "eta": 0.1, "switches": 1.5},
        {"kind": "per_group_fixed_share", "eta": 0.1, "switches": False},
    ])
    def test_mistyped_values(self, config):
        with pytest.raises(ConfigError):
            make_learner(config, T=100)


def _ref_fpl_run_block(lrn, losses):
    """FPL's block path before the d=2 search kernel: the (rows, m, d)
    perturbed-loss argmin, chunked. Advances ``lrn``'s cumulative loss."""
    n = losses.shape[0]
    cum = np.cumsum(losses, axis=0)
    before = np.empty_like(cum)
    before[0] = 0.0
    before[1:] = cum[:-1]
    before += lrn._cum
    p = np.empty((n, lrn.d), dtype=np.float64)
    chunk = max(1, 2_000_000 // (lrn.grid_m * lrn.d))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        pert = before[s:e, None, :] - lrn._grid[None, :, :]
        leaders = pert.argmin(axis=2)
        for f in range(lrn.d):
            p[s:e, f] = (leaders == f).mean(axis=1)
    lrn._cum += cum[-1]
    return p


def _fpl_pair(d, eta=0.1, grid_m=1024):
    new, ref = FollowPerturbedLeader(eta, grid_m=grid_m), FollowPerturbedLeader(eta, grid_m=grid_m)
    new.start(d)
    ref.start(d)
    return new, ref


def _assert_blocks_match(new, ref, blocks):
    for losses in blocks:
        groups = np.zeros(losses.shape[0], dtype=np.int64)
        assert np.array_equal(new.run_block(groups, losses), _ref_fpl_run_block(ref, losses))
    assert np.array_equal(new.next_distribution(0), ref.next_distribution(0))


class TestFPLKernelOracle:
    """The d=2 search kernel must reproduce the argmin block path bit for bit."""

    def test_t4(self):
        tr = run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 100_000, seed=7, retain="full")
        new, ref = _fpl_pair(2)
        _assert_blocks_match(new, ref, [tr.losses])

    @pytest.mark.parametrize("grid_m", [1, 2, 64, 1024])
    @pytest.mark.parametrize("eta", [0.013, 0.1, 0.37])
    def test_random_losses_over_consecutive_blocks(self, grid_m, eta):
        rng = np.random.default_rng(grid_m * 1000 + int(eta * 1000))
        new, ref = _fpl_pair(2, eta, grid_m)
        blocks = [rng.random((n, 2)) * rng.random(2) for n in (1, 7, 300, 2000, 4000)]
        _assert_blocks_match(new, ref, blocks)

    @pytest.mark.parametrize("grid_m", [1, 2, 1024])
    def test_exact_and_near_ties(self, grid_m):
        probe, _ = _fpl_pair(2, 0.1, grid_m)
        diffs = probe._grid[:, 0] - probe._grid[:, 1]
        for diff in diffs[:: max(1, grid_m // 25)]:
            new, ref = _fpl_pair(2, 0.1, grid_m)
            # whole unit losses, then the exact remainder, on the expert that trails
            whole, frac = divmod(abs(diff), 1.0)
            unit = np.array([1.0, 0.0]) if diff >= 0 else np.array([0.0, 1.0])
            for lrn in (new, ref):
                for _ in range(int(whole)):
                    lrn.observe(0, unit)
                lrn.observe(0, frac * unit)
            assert new._cum[0] - new._cum[1] == diff
            # equal losses keep the difference at diff up to rounding
            shifts = np.array([[0.0, 0.0], [0.5, 0.5], [0.1, 0.1], [0.0, 0.0], [1.0, 1.0], [0.3, 0.3]])
            _assert_blocks_match(new, ref, [shifts, shifts[::-1]])

    def test_three_experts_take_the_grid_path(self, monkeypatch):
        def refuse(self, before):
            raise AssertionError("the d=2 kernel ran for d=3")

        monkeypatch.setattr(FollowPerturbedLeader, "_two_expert_play", refuse)
        rng = np.random.default_rng(3)
        new, ref = _fpl_pair(3, 0.2, 128)
        _assert_blocks_match(new, ref, [rng.random((500, 3)), rng.random((300, 3))])


def _ref_rounds(lrn, groups, losses=None, step=None):
    """The per-round loops of ``protocol._execute_block`` before
    ``Learner.run_rounds``: the oblivious fallback and the adaptive loop."""
    n, d = groups.shape[0], lrn.d
    p = np.empty((n, d), dtype=np.float64)
    if step is None:
        for i in range(n):
            g = int(groups[i])
            p[i] = lrn.next_distribution(g)
            lrn.observe(g, losses[i])
        return p, losses, None
    losses = np.empty((n, d), dtype=np.float64)
    codes = np.empty(n, dtype=np.int8)
    for i in range(n):
        g = int(groups[i])
        pi = lrn.next_distribution(g)
        code, row = step(i, g, pi)
        p[i] = pi
        losses[i] = row
        codes[i] = code
        lrn.observe(g, row)
    return p, losses, codes


_KERNEL_KINDS = {
    "single_mw": lambda: SingleMW(0.23),
    "per_group_mw": lambda: PerGroupMW(0.23),
    "fpl": lambda: FollowPerturbedLeader(0.11, grid_m=64),
    "fixed_share": lambda: FixedShare(0.23, 0.02),
    "per_group_fixed_share": lambda: PerGroupFixedShare(0.23, 0.02),
}


def _final_state(lrn):
    return lrn._cum if isinstance(lrn, FollowPerturbedLeader) else lrn._state()


def _drive(lrn, scenario, T, seed, rounds, max_blocks=None):
    """Play every block of a scenario (or the first ``max_blocks``) through
    ``rounds``; returns each block's (plays, losses, codes)."""
    scn = make_scenario(scenario)
    lrn.start(scn.d, scn.num_groups)
    gen = scn.start(T, np.random.SeedSequence(seed)).segments()
    out = []
    block = next(gen, None)
    while block is not None and len(out) != max_blocks:
        groups = np.asarray(block.groups, dtype=np.int64)
        if isinstance(block, AdaptiveBlock):
            p, losses, codes = rounds(lrn, groups, step=block.step)
        else:
            p, losses, codes = rounds(lrn, groups, np.asarray(block.losses, dtype=np.float64))
        out.append((p, losses, codes))
        try:
            block = gen.send(BlockResult(p, np.einsum("td,td->t", p, losses)))
        except StopIteration:
            block = None
    return out


def _assert_same(new_out, ref_out, new, ref):
    assert len(new_out) == len(ref_out)
    for got, want in zip(new_out, ref_out):
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)
    assert np.array_equal(_final_state(new), _final_state(ref))


def _reading_step(rows):
    """An adaptive step whose code and loss row depend on the play; rows in
    [0, 1] stay in [0, 1]."""

    def step(i, g, p):
        return int(p[0] >= p[1]), rows[i] * (0.5 + p[0] / 2)

    return step


class TestTwoExpertKernelOracle:
    """``run_rounds`` must reproduce the next_distribution/observe loop bit for bit."""

    @pytest.mark.parametrize("kind", ["per_group_fixed_share", "fixed_share"])
    def test_t5(self, kind):
        cfg = {"kind": kind, "eta": 0.05, "switches": 2}
        new, ref = make_learner(cfg, T=100_000), make_learner(cfg, T=100_000)
        new_out = _drive(new, {"kind": "t5"}, 100_000, 7, Learner.run_rounds)
        ref_out = _drive(ref, {"kind": "t5"}, 100_000, 7, _ref_rounds)
        assert len(new_out) == 3
        _assert_same(new_out, ref_out, new, ref)

    def test_t2_phase_one(self):
        scenario = {"kind": "t2", "b": 0.25, "epsilon": 0.01}
        new, ref = SingleMW(0.005), SingleMW(0.005)
        new_out = _drive(new, scenario, 4_000_000, 7, Learner.run_rounds, max_blocks=1)
        ref_out = _drive(ref, scenario, 4_000_000, 7, _ref_rounds, max_blocks=1)
        assert new_out[0][0].shape == (39_603, 2)
        _assert_same(new_out, ref_out, new, ref)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_losses_over_mixed_blocks(self, kind, d):
        rng = np.random.default_rng(d * 100 + len(kind))
        new, ref = _KERNEL_KINDS[kind](), _KERNEL_KINDS[kind]()
        G = 3
        new.start(d, G)
        ref.start(d, G)
        # lengths straddle the kernel's row chunks
        sizes = [1, 5, 300, 8200, 8193, 1] if d == 2 else [1, 5, 300, 40]
        for k, n in enumerate(sizes):
            groups = rng.integers(0, G, n).astype(np.int64)
            rows = rng.random((n, d)) * rng.random(d)
            if k % 2:
                _assert_same([new.run_rounds(groups, step=_reading_step(rows))],
                             [_ref_rounds(ref, groups, step=_reading_step(rows))], new, ref)
            else:
                _assert_same([new.run_rounds(groups, rows)], [_ref_rounds(ref, groups, rows)], new, ref)
        for g in range(G):
            assert np.array_equal(new.next_distribution(g), ref.next_distribution(g))
        # the adaptive rows here never repeat; fixed share's memo stays bounded
        assert len(getattr(new, "_memo", ())) <= 256

    def test_mw_case_where_math_exp_differs(self):
        # A kernel that called math.exp would fail this case: along the run,
        # math.exp and numpy's exp disagree on some z = -|lw0 - lw1|.
        rng = np.random.default_rng(5)
        n = 2000
        groups = np.zeros(n, dtype=np.int64)
        rows = rng.random((n, 2))
        new, ref = SingleMW(0.3), SingleMW(0.3)
        new.start(2)
        ref.start(2)
        p_new = new.run_rounds(groups, step=_reading_step(rows))
        p_ref = _ref_rounds(ref, groups, step=_reading_step(rows))
        _assert_same([p_new], [p_ref], new, ref)
        # numpy uses its own exp only where the CPU has the SIMD code for it;
        # elsewhere it calls the C library's, as math.exp does
        probe = np.random.default_rng(0).uniform(-30.0, 0.0, 10_000)
        if np.array_equal(np.exp(probe), [math.exp(x) for x in probe]):
            pytest.skip("numpy's exp is the C library's on this CPU")
        lw = np.zeros(2)
        z = []
        for row in p_ref[1]:
            z.append(-abs(float(lw[0] - lw[1])))
            lw += ref._log_decay * row
        assert any(math.exp(x) != float(np.exp(x)) for x in z)

    def test_weights_that_underflow(self):
        # a loss of 2000 would underflow both fixed-share weights to 0 and
        # leave every later play NaN; it is refused before the first round
        lrn = FixedShare(0.4, 0.01)
        lrn.start(2)
        rows = np.array([[1.0, 0.0], [2000.0, 2000.0], [0.0, 1.0]])
        groups = np.zeros(3, dtype=np.int64)
        with pytest.raises(ContractError, match=r"\[2000.0, 2000.0\] at row 1 "):
            lrn.run_rounds(groups, rows)
        assert np.array_equal(lrn._state(), [[0.5, 0.5]])
        with pytest.raises(ContractError, match="at row 1 "):
            lrn.run_rounds(groups, step=lambda i, g, p: (0, rows[i]))
        # the extreme losses that are allowed: the kernel still matches the loop
        new, ref = FixedShare(0.4, 0.01), FixedShare(0.4, 0.01)
        new.start(2)
        ref.start(2)
        rows = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]] * 50)
        groups = np.zeros(150, dtype=np.int64)
        got, want = new.run_rounds(groups, rows), _ref_rounds(ref, groups, rows)
        _assert_same([got], [want], new, ref)


class TestRunRoundsContract:
    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [np.zeros(1), np.zeros(4), np.zeros((2, 1)), 0.5])
    def test_wrong_shaped_row(self, kind, d, bad):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        groups = np.array([0, 1, 0], dtype=np.int64)
        with pytest.raises(ContractError):
            lrn.run_rounds(groups, step=lambda i, g, p: (0, bad))

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [7, -2, 300, "x", 1.0, None])
    def test_bad_outcome_code_names_its_row(self, kind, d, bad):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        groups = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        with pytest.raises(ContractError, match=f"code {bad!r} at row 2 "):
            lrn.run_rounds(groups, step=lambda i, g, p: (bad if i >= 2 else 0, np.zeros(d)))

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.inf, -np.inf, 2000.0])
    def test_loss_outside_unit_interval_names_its_row(self, kind, d, bad):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        start = _final_state(lrn).copy()
        groups = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        rows = np.full((5, d), 0.5)
        rows[2, d - 1] = bad
        # an oblivious stretch is refused before its first round
        with pytest.raises(ContractError, match=r"at row 2 of the stretch lies outside \[0, 1\]"):
            lrn.run_rounds(groups, rows)
        assert np.array_equal(_final_state(lrn), start)
        if lrn.supports_blocks:
            with pytest.raises(ContractError, match="at row 2 "):
                lrn.run_block(groups, rows)
            assert np.array_equal(_final_state(lrn), start)
        # an adaptive row is refused before the learner observes it
        with pytest.raises(ContractError, match="at row 2 "):
            lrn.run_rounds(groups, step=lambda i, g, p: (0, rows[i]))
        assert np.isfinite(_final_state(lrn)).all()

    @pytest.mark.parametrize("learner", [
        {"kind": "per_group_fixed_share", "eta": 0.1, "rho": 0.01},
        {"kind": "single_mw", "eta": 0.1},
        {"kind": "fpl", "eta": 0.1},
    ])
    def test_loss_outside_unit_interval_through_the_protocol(self, learner, monkeypatch):
        monkeypatch.setattr(adversaries, "_T5_ROWS", (np.full(2, 2000.0), np.full(2, 2000.0)))
        with pytest.raises(ContractError, match="outside"):
            run(learner, {"kind": "t5"}, 10, seed=1)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    def test_integer_outcome_codes_of_any_type(self, kind, d):
        codes = [-1, np.int8(0), np.int64(1), True, False]
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        _, _, got = lrn.run_rounds(np.array([0, 1, 0, 1, 0], dtype=np.int64),
                                   step=lambda i, g, p: (codes[i], np.zeros(d)))
        assert got.dtype == np.int8 and got.tolist() == [-1, 0, 1, 1, 0]

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("shape", [(3,), (2, 1), (3, 4), (4, 2)])
    def test_wrong_shaped_block(self, kind, d, shape):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        with pytest.raises(ContractError):
            lrn.run_rounds(np.array([0, 1, 0], dtype=np.int64), np.zeros(shape))

    @pytest.mark.parametrize("learner", [
        {"kind": "per_group_fixed_share", "eta": 0.1, "rho": 0.01},
        {"kind": "fpl", "eta": 0.1},
    ])
    def test_wrong_shaped_row_through_the_protocol(self, learner, monkeypatch):
        monkeypatch.setattr(adversaries, "_T5_ROWS", (np.zeros(3), np.zeros(3)))
        with pytest.raises(ContractError):
            run(learner, {"kind": "t5"}, 10, seed=1)

    def test_step_sees_a_row_of_the_plays(self):
        seen = []

        def step(i, g, p):
            seen.append(p.copy() if i else p)
            return 0, np.ones(2)

        lrn = PerGroupFixedShare(0.2, 0.01)
        lrn.start(2, 2)
        p, _, _ = lrn.run_rounds(np.array([0, 1, 0], dtype=np.int64), step=step)
        assert np.shares_memory(seen[0], p)
        assert np.array_equal(np.array(seen), p)

    def test_runtime_budget(self):
        # the next_distribution/observe loop takes about 1.4 s
        t0 = time.perf_counter()
        run({"kind": "per_group_fixed_share", "eta": 0.05, "switches": 2}, {"kind": "t5"},
            100_000, seed=7, retain="full")
        assert time.perf_counter() - t0 < 0.75
