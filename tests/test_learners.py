import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fair_experts import adversaries
from fair_experts.adversaries import make_scenario
from fair_experts.harness import run_experiment
from fair_experts.learners import (
    CumulativeLossLearner,
    FixedShare,
    FollowPerturbedLeader,
    Learner,
    PerGroupFixedShare,
    PerGroupMW,
    SingleMW,
    _row_softmax,
    _two_expert_softmax,
    default_eta,
    make_learner,
)
from fair_experts.protocol import AdaptiveBlock, ObliviousBlock, ThresholdStep, _execute_block, run
from fair_experts.types import ConfigError, ContractError, TraceBuilder
from oracles import ref_fpl_run_block, ref_mw_block, ref_rounds, ref_t2_bait, ref_t5_leader


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
        assert _same_bits(p_blk, p_seq)
        # final states agree too, and so does the next round
        assert _same_bits(blk._cum, seq._cum)
        assert _same_bits(blk.next_distribution(0), seq.next_distribution(0))

    @settings(max_examples=10, deadline=None)
    @given(_instances())
    def test_fpl(self, instance):
        groups, losses, num_groups = instance
        blk, seq = FollowPerturbedLeader(0.11, grid_m=64), FollowPerturbedLeader(0.11, grid_m=64)
        blk.start(losses.shape[1], num_groups)
        seq.start(losses.shape[1], num_groups)
        p_blk = blk.run_block(groups, losses)
        p_seq = _sequential_distributions(seq, groups, losses)
        assert _same_bits(p_blk, p_seq)
        assert _same_bits(blk._cum, seq._cum)


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

    @pytest.mark.parametrize("config, echo", [
        ({"kind": "single_mw"}, {"kind": "single_mw", "eta": 0.05}),
        ({"kind": "per_group_mw"}, {"kind": "per_group_mw", "eta": 0.049999999999999996}),
        ({"kind": "fpl", "eta": 0.1}, {"kind": "fpl", "eta": 0.1, "grid_m": 1024}),
        ({"kind": "fpl", "grid_m": 32}, {"kind": "fpl", "eta": 0.05, "grid_m": 32}),
        ({"kind": "fixed_share"}, {"kind": "fixed_share", "eta": 0.05, "rho": 0.03}),
        ({"kind": "per_group_fixed_share", "eta": 0.2, "switches": 4},
         {"kind": "per_group_fixed_share", "eta": 0.2, "rho": 0.05}),
        ({"kind": "fixed_share", "eta": 0.1, "rho": 0.5}, {"kind": "fixed_share", "eta": 0.1, "rho": 0.5}),
    ])
    def test_config_echo(self, config, echo):
        # the echo resolves every default at T=100, epsilon=0.1, alpha=0.3,
        # in key order, and reads back to itself
        def harness_echo(learner):
            return run_experiment({"scenario": {"kind": "t4"}, "learner": learner, "T": 100}).config["learner"]

        assert list(harness_echo(config).items()) == list(echo.items())
        assert harness_echo(echo) == echo
        learner = make_learner(config, T=100, epsilon=0.1, alpha=0.3)
        assert list(learner.config().items()) == list(echo.items())
        assert make_learner(learner.config()).config() == echo

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

    @pytest.mark.parametrize("kind", ["fixed_share", "per_group_fixed_share"])
    @pytest.mark.parametrize("switches", [-1, -5])
    def test_negative_switches(self, kind, switches):
        # -1 gave rho = 0, fixed share with no sharing; -5 failed on rho
        with pytest.raises(ConfigError, match=f"switches must be >= 0, got {switches}"):
            make_learner({"kind": kind, "eta": 0.1, "switches": switches}, T=100)
        with pytest.raises(ConfigError, match="switches must be >= 0"):
            make_learner({"kind": kind, "eta": 0.1, "rho": 0.5, "switches": switches}, T=100)

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


def _fpl_pair(d, eta=0.1, grid_m=1024):
    new, ref = FollowPerturbedLeader(eta, grid_m=grid_m), FollowPerturbedLeader(eta, grid_m=grid_m)
    new.start(d)
    ref.start(d)
    return new, ref


def _assert_blocks_match(new, ref, blocks):
    for losses in blocks:
        groups = np.zeros(losses.shape[0], dtype=np.int64)
        assert np.array_equal(new.run_block(groups, losses), ref_fpl_run_block(ref, losses))
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
            assert new._cum[0, 0] - new._cum[0, 1] == diff
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


_KERNEL_KINDS = {
    "single_mw": lambda: SingleMW(0.23),
    "per_group_mw": lambda: PerGroupMW(0.23),
    "fpl": lambda: FollowPerturbedLeader(0.11, grid_m=64),
    "fixed_share": lambda: FixedShare(0.23, 0.02),
    "per_group_fixed_share": lambda: PerGroupFixedShare(0.23, 0.02),
}


_BLOCK_KINDS = ("single_mw", "per_group_mw", "fpl")


def _final_state(lrn):
    return lrn._state()


def _started_pair(kind, d, G=2):
    new, ref = _KERNEL_KINDS[kind](), _KERNEL_KINDS[kind]()
    new.start(d, G)
    ref.start(d, G)
    return new, ref


def _drive(lrn, scenario, T, seed, rounds, max_blocks=None):
    """Play every block of a scenario (or the first ``max_blocks``) through
    ``rounds``; returns each block's (plays, choices)."""
    scn = make_scenario(scenario)
    lrn.start(scn.d, scn.num_groups)
    gen = scn.start(T, np.random.SeedSequence(seed)).segments()
    out = []
    block = next(gen, None)
    while block is not None and len(out) != max_blocks:
        groups = np.asarray(block.groups, dtype=np.int64)
        if isinstance(block, AdaptiveBlock):
            p, choices = rounds(lrn, groups, block.rows, block.step)
        else:
            p, choices = rounds(lrn, groups, np.asarray(block.losses, dtype=np.float64))
        out.append((p, choices))
        try:
            block = gen.send(p)
        except StopIteration:
            block = None
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same(new_out, ref_out, new, ref):
    """Plays, choices and final state agree bit for bit, -0.0 included."""
    assert len(new_out) == len(ref_out)
    for got, want in zip(new_out, ref_out):
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert _same_bits(a, b)
    assert _same_bits(_final_state(new), _final_state(ref))


def _drawn_step(rng, rows, G):
    """A ``ThresholdStep`` on the declared ``rows`` for G <= 3 groups: drawn
    weights, ``above`` and ``below`` drawn from range(K), two different rows
    when K > 1, and the groups' levels drawn from the weighted value of a
    drawn play, -inf (always ``above``) and +inf (always ``below``). So a
    stretch over three groups picks both rows whatever the learner's state,
    while one group's choices compare its play with its level."""
    K, d = rows.shape
    weights = rng.uniform(-1.0, 1.0, d)
    levels = rng.permutation([float(weights @ rng.dirichlet(np.ones(d))), -math.inf, math.inf])[:G]
    above, below = rng.permutation(K)[:2].tolist() if K > 1 else (0, 0)
    return ThresholdStep(weights.tolist(), levels.tolist(), above, below)


def _declared_rows(rng, K, d):
    """K random loss rows; about a third of their entries are 0.0, -0.0 or 1.0."""
    rows = rng.random((K, d))
    special = rng.random((K, d)) < 0.35
    rows[special] = rng.choice([0.0, -0.0, 1.0], int(special.sum()))
    return rows


def _mw_blocks(case, n, d):
    """Blocks of n rows over three groups, most rows in group 0, so that a
    per-group table's chunk edges fall mid-block."""
    rng = np.random.default_rng(n * 10 + d)
    groups = rng.choice(3, n, p=[0.7, 0.2, 0.1])
    losses = rng.random((n, d))
    if case == "negative-zero":
        losses[:n // 2 + 1, 0] = -0.0
        losses[0] = -0.0
    blocks = [(groups, losses)]
    if case == "two-blocks":
        blocks.append((rng.choice(3, n + 7, p=[0.7, 0.2, 0.1]), rng.random((n + 7, d))))
    return blocks


class TestChunkedBlockPlay:
    """Every block kind plays a table's rows in chunks of 8192; MW's plays
    must keep the bits of one cumsum per table (FPL's: TestFPLKernelOracle)."""

    @pytest.mark.parametrize("kind", ["single_mw", "per_group_mw"])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 3 * 8192 + 5])
    @pytest.mark.parametrize("case", ["interleaved", "negative-zero", "two-blocks"])
    def test_mw_matches_one_cumsum(self, kind, d, n, case):
        new, ref = _started_pair(kind, d, G=3)
        for groups, losses in _mw_blocks(case, n, d):
            assert _same_bits(new.run_block(groups, losses), ref_mw_block(ref, groups, losses))
            assert _same_bits(new._cum, ref._cum)

    @pytest.mark.parametrize("kind", _BLOCK_KINDS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_block(self, kind, d):
        # single_mw raised numpy's IndexError on a block of no rows
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        lrn.observe(1, np.linspace(0.0, 1.0, d))
        start = _final_state(lrn).copy()
        p = lrn.run_block(np.zeros(0, dtype=np.int64), np.zeros((0, d)))
        assert p.shape == (0, d) and p.dtype == np.float64
        assert _same_bits(_final_state(lrn), start)


def _chosen_in_order(i, g, p):
    return i


class TestPlayPathsAreBitIdentical:
    """Every path of a cumulative-loss kind adds a table's losses in round
    order, so the block play, an oblivious and an adaptive ``run_rounds``
    (the generic loop, as its step is a plain callable) and the
    next_distribution/observe loop give the same plays and state, bit for
    bit. ``TestThresholdStep`` plays the d=2 kernel's adaptive rounds."""

    @pytest.mark.parametrize("kind", _BLOCK_KINDS)
    @pytest.mark.parametrize("d", [2, 3])
    def test_every_path(self, kind, d):
        # 9000 rows, 95% of them on group 0, so that a shared table and
        # group 0's own table each cross an 8192-row chunk edge mid-block
        rng = np.random.default_rng(d * 7 + len(kind))
        n = 9000
        groups = rng.choice(3, n, p=[0.95, 0.03, 0.02])
        losses = _declared_rows(rng, n, d)
        prefix = rng.random((5, d))
        paths = {
            "run_block": lambda lrn: (lrn.run_block(groups, losses),),
            "oblivious": lambda lrn: lrn.run_rounds(groups, losses)[:1],
            "adaptive": lambda lrn: lrn.run_rounds(groups, losses, _chosen_in_order),
            "loop": lambda lrn: ref_rounds(lrn, groups, losses, _chosen_in_order),
        }
        plays, states = {}, {}
        for name, play in paths.items():
            lrn = _KERNEL_KINDS[kind]()
            lrn.start(d, 3)
            # a non-zero state in every table to start from
            for g, row in enumerate(prefix):
                lrn.observe(g % 3, row)
            plays[name] = play(lrn)
            states[name] = lrn._cum.copy()
            assert lrn._cum.min() > 0.0
        want = plays.pop("loop")
        for name, got in plays.items():
            assert _same_bits(got[0], want[0]), name
            if len(got) == 2:
                assert _same_bits(got[1], want[1]), name
            assert _same_bits(states[name], states["loop"]), name


class TestTwoExpertKernelOracle:
    """``run_rounds`` must reproduce the next_distribution/observe loop bit for bit."""

    @pytest.mark.parametrize("kind", ["per_group_fixed_share", "fixed_share"])
    def test_t5(self, kind):
        cfg = {"kind": kind, "eta": 0.05, "switches": 2}
        new, ref = make_learner(cfg, T=100_000), make_learner(cfg, T=100_000)
        new_out = _drive(new, {"kind": "t5"}, 100_000, 7, Learner.run_rounds)
        ref_out = _drive(ref, {"kind": "t5"}, 100_000, 7, ref_rounds)
        assert len(new_out) == 3
        _assert_same(new_out, ref_out, new, ref)

    def test_t2_phase_one(self):
        scenario = {"kind": "t2", "b": 0.25, "epsilon": 0.01}
        new, ref = SingleMW(0.005), SingleMW(0.005)
        new_out = _drive(new, scenario, 4_000_000, 7, Learner.run_rounds, max_blocks=1)
        ref_out = _drive(ref, scenario, 4_000_000, 7, ref_rounds, max_blocks=1)
        assert new_out[0][0].shape == (39_603, 2)
        _assert_same(new_out, ref_out, new, ref)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_losses_over_mixed_blocks(self, kind, d, seed):
        # oblivious stretches of random rows alternate with adaptive ones that
        # declare 1 to 8 rows and a drawn threshold step, groups interleave,
        # and stretches cross chunk edges
        rng = np.random.default_rng(d * 100 + len(kind) + 1000 * seed)
        G = 3
        new, ref = _started_pair(kind, d, G)
        sizes = [1, 5, 300, 8200, 8193, 1, 257, 600] if d == 2 else [1, 5, 300, 40, 257]
        for k, n in enumerate(sizes):
            groups = rng.integers(0, G, n).astype(np.int64)
            if k % 2:
                if k % 4 == 3:
                    groups = (np.arange(n) // 100 % G).astype(np.int64)
                rows = _declared_rows(rng, int(rng.integers(1, 9)), d)
                step = _drawn_step(rng, rows, G)
                got, want = new.run_rounds(groups, rows, step), ref_rounds(ref, groups, rows, step)
                assert len(set(got[1].tolist())) > 1 or n < 300 or rows.shape[0] == 1
            else:
                rows = rng.random((n, d)) * rng.random(d)
                got, want = new.run_rounds(groups, rows), ref_rounds(ref, groups, rows)
            _assert_same([got], [want], new, ref)
        for g in range(G):
            assert np.array_equal(new.next_distribution(g), ref.next_distribution(g))

    def test_mw_case_where_math_exp_differs(self):
        # A kernel that called math.exp would fail this case: along the run,
        # math.exp and numpy's exp disagree on some z = -|lw0 - lw1|.
        rng = np.random.default_rng(5)
        n = 2000
        groups = np.zeros(n, dtype=np.int64)
        rows = rng.random((8, 2))
        new, ref = SingleMW(0.3), SingleMW(0.3)
        new.start(2)
        ref.start(2)
        step = _drawn_step(rng, rows, 1)
        got = new.run_rounds(groups, rows, step)
        want = ref_rounds(ref, groups, rows, step)
        assert len(set(got[1].tolist())) > 1
        _assert_same([got], [want], new, ref)
        # numpy uses its own exp only where the CPU has the SIMD code for it;
        # elsewhere it calls the C library's, as math.exp does
        probe = np.random.default_rng(0).uniform(-30.0, 0.0, 10_000)
        if np.array_equal(np.exp(probe), [math.exp(x) for x in probe]):
            pytest.skip("numpy's exp is the C library's on this CPU")
        cum = np.zeros(2)
        z = []
        for row in rows[want[1]]:
            lw = ref._log_decay * cum
            z.append(-abs(float(lw[0] - lw[1])))
            cum += row
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
        with pytest.raises(ContractError, match=r"\[2000.0, 2000.0\] at declared index 1 "):
            lrn.run_rounds(groups, rows, lambda i, g, p: 0)
        assert np.array_equal(lrn._state(), [[0.5, 0.5]])
        # the extreme losses that are allowed: the kernel still matches the loop
        new, ref = FixedShare(0.4, 0.01), FixedShare(0.4, 0.01)
        new.start(2)
        ref.start(2)
        rows = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]] * 50)
        groups = np.zeros(150, dtype=np.int64)
        got, want = new.run_rounds(groups, rows), ref_rounds(ref, groups, rows)
        _assert_same([got], [want], new, ref)
        step = ThresholdStep((1.0, -1.0), (0.0,), above=0, below=2)
        got, want = new.run_rounds(groups, rows[:3], step), ref_rounds(ref, groups, rows[:3], step)
        _assert_same([got], [want], new, ref)


_FOUR_KINDS = ("single_mw", "per_group_mw", "fixed_share", "per_group_fixed_share")


def _three_ways(kind, groups, rows, declared, plain, G=2, prefix=(), state=None):
    """Play one adaptive stretch three ways on fresh learners that start from
    the same state: the declared step through the d=2 kernel, the declared
    step through the generic loop (which calls it), and ``plain``, a plain
    callable of the same rule, which always takes the generic loop. Asserts
    the plays, choices and final state agree bit for bit; returns the
    choices."""
    outs = []
    for how in ("declared", "loop", "plain"):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(2, G)
        for g, row in prefix:
            lrn.observe(g, row)
        if state is not None:
            lrn._state()[:] = state[:lrn._state().shape[0]]
        if how == "loop":
            lrn.two_expert_kernel = False
        p, choices = lrn.run_rounds(groups, rows, plain if how == "plain" else declared)
        outs.append((p, choices, lrn._state().copy()))
    for got in outs[1:]:
        for a, b in zip(got, outs[0]):
            assert _same_bits(a, b)
    return outs[0][1]


def _t5_rule(G=2):
    """t5's declared step, for G groups."""
    return ThresholdStep((1.0, -1.0), (0.0,) * G, above=0, below=1)


class TestThresholdStep:
    """A declared step must choose as its ``__call__`` does, and as the
    callables t5 and t2 used before it, in the kernels and in the loop."""

    @pytest.mark.parametrize("kind", _FOUR_KINDS)
    @pytest.mark.parametrize("G", [2, 3])
    def test_scenario_rules_over_interleaved_groups(self, kind, G):
        # 600 rounds cross the kernel's 256-round chunk edge twice; a fresh
        # table's first play is an exact tie, and the prefix leaves every
        # table in another state
        rng = np.random.default_rng(G + len(kind))
        groups = rng.integers(0, G, 600).astype(np.int64)
        prefix = [(g % G, row) for g, row in enumerate(rng.random((4, 2)))]
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        choices = _three_ways(kind, groups, rows, _t5_rule(G), ref_t5_leader, G)
        assert 0 < choices.sum() < 600
        _three_ways(kind, groups, rows, _t5_rule(G), ref_t5_leader, G, prefix)
        # t2's rule with a level that its rows keep group 0's play around;
        # every other group's level is +inf
        gamma = 0.52
        bait = ThresholdStep((1.0, 0.0), (gamma,) + (math.inf,) * (G - 1), above=1, below=0)
        old = ref_t2_bait(gamma)
        choices = _three_ways(kind, groups, rows[::-1], bait, old, G, prefix)
        assert 0 < old.qualifying == int(choices.sum()) < int((groups == 0).sum())
        assert choices[groups != 0].sum() == 0

    @pytest.mark.parametrize("kind", _FOUR_KINDS)
    def test_exact_ties(self, kind):
        # t5's rows on single_mw tie every other round; equal rows keep a
        # fixed share table at (0.5, 0.5)
        groups = np.zeros(300, dtype=np.int64)
        choices = _three_ways(kind, groups, np.array([[1.0, 0.0], [0.0, 1.0]]), _t5_rule(), ref_t5_leader)
        if kind == "single_mw":
            assert choices[::2].tolist() == [0] * 150
        choices = _three_ways(kind, groups, np.array([[0.5, 0.5], [0.5, 0.5]]), _t5_rule(), ref_t5_leader)
        assert choices.tolist() == [0] * 300

    @pytest.mark.parametrize("kind", ["fixed_share", "per_group_fixed_share"])
    @pytest.mark.parametrize("toward", [0.0, 1.0])
    def test_plays_one_ulp_apart(self, kind, toward):
        # fixed share tables one ulp off the tie, in either direction: the
        # first group's favors expert 0 when toward is 1, the second's expert 1
        x = float(np.nextafter(0.5, toward))
        state = np.array([[x, 0.5], [0.5, x]])
        groups = np.array([0, 1] * 3, dtype=np.int64)
        choices = _three_ways(kind, groups, np.full((2, 2), 0.5), _t5_rule(), ref_t5_leader, state=state)
        first = [1 if toward == 0.0 else 0, 0 if toward == 0.0 else 1]
        n = 2 if kind.startswith("per_group") else 1
        assert choices[:n].tolist() == first[:n]

    @pytest.mark.parametrize("kind", _FOUR_KINDS)
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("weights", [(1.0, 0.0), (1.0, -1.0), (0.25, 3.0)])
    def test_levels_one_ulp_either_side_of_the_play(self, kind, ulps, weights):
        # every round plays the same pair: MW on zero losses, and fixed share
        # from a fixed point of its one loss row. The level sits at that
        # pair's weighted sum, or one ulp above or below it.
        if "mw" in kind:
            prefix, rows, state = [(0, np.array([0.75, 0.125])), (1, np.array([0.0, 0.5]))], np.zeros((2, 2)), None
        else:
            probe = _KERNEL_KINDS[kind]()
            probe.start(2, 2)
            probe.run_rounds(np.zeros(3000, dtype=np.int64), np.tile([0.75, 0.125], (3000, 1)))
            prefix, rows, state = (), np.tile([0.75, 0.125], (2, 1)), np.tile(probe._state()[:1], (2, 1))
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(2, 2)
        for g, row in prefix:
            lrn.observe(g, row)
        if state is not None:
            lrn._state()[:] = state[:lrn._state().shape[0]]
        p0, p1 = lrn.next_distribution(0).tolist()
        level = weights[0] * p0 + weights[1] * p1
        level = float(np.nextafter(level, math.copysign(math.inf, ulps))) if ulps else level
        step = ThresholdStep(weights, (level, -math.inf), above=1, below=0)
        groups = np.zeros(600, dtype=np.int64)
        groups[::5] = 1

        def plain(i, g, p):
            return 1 if weights[0] * p[0] + weights[1] * p[1] >= (level, -math.inf)[g] else 0

        choices = _three_ways(kind, groups, rows, step, plain, prefix=prefix, state=state)
        on_group_0 = choices[groups == 0].tolist()
        assert on_group_0 == [0 if ulps > 0 else 1] * len(on_group_0)
        assert choices[groups == 1].tolist() == [1] * 120

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    def test_paths_without_a_kernel_call_the_rule(self, kind, d):
        # three experts, and fpl, play a declared step through the generic
        # loop, which calls it as it calls any step
        weights = (1.0, -1.5, 0.5)[:d]
        levels = (0.0, math.inf, -math.inf)

        def plain(i, g, p):
            total = weights[0] * p[0]
            for w, x in zip(weights[1:], p[1:]):
                total += w * x
            return 2 if total >= levels[g] else 0

        rng = np.random.default_rng(d)
        groups = rng.integers(0, 3, 400).astype(np.int64)
        rows = _declared_rows(rng, 3, d)
        new, ref = _KERNEL_KINDS[kind](), _KERNEL_KINDS[kind]()
        new.start(d, 3)
        ref.start(d, 3)
        got = new.run_rounds(groups, rows, ThresholdStep(weights, levels, above=2, below=0))
        want = ref_rounds(ref, groups, rows, plain)
        _assert_same([got], [want], new, ref)
        assert 0 < np.count_nonzero(got[1]) < 400

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("step, match", [
        (ThresholdStep((1.0,), (0.0, 0.0), 0, 1), "1 weights for 2 experts"),
        (ThresholdStep((1.0, -1.0, 0.0), (0.0, 0.0), 0, 1), "3 weights for 2 experts"),
        (ThresholdStep((1.0, -1.0), (0.0,), 0, 1), "1 levels for 2 groups"),
        (ThresholdStep((1.0, -1.0), (0.0, 0.0, 0.0), 0, 1), "3 levels for 2 groups"),
        (ThresholdStep((1.0, -1.0), (0.0, 0.0), 2, 1), r"row above = 2 lies outside range\(2\)"),
        (ThresholdStep((1.0, -1.0), (0.0, 0.0), 0, 5), r"row below = 5 lies outside range\(2\)"),
    ])
    def test_a_step_that_does_not_fit_is_refused_before_round_one(self, kind, step, match):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(2, 2)
        lrn.observe(1, np.array([0.25, 0.5]))
        start = _final_state(lrn).copy()
        with pytest.raises(ContractError, match=match):
            lrn.run_rounds(np.array([0, 1, 0], dtype=np.int64), np.eye(2), step)
        assert _same_bits(_final_state(lrn), start)

    @pytest.mark.parametrize("args, match", [
        (((math.nan, 0.0), (0.0, 0.0), 0, 1), "weights"),
        (((1.0, 0.0), (0.0, math.nan), 0, 1), "levels"),
        (((1.0, 0.0), (0.0, np.float64("nan")), 0, 1), "levels"),
        (((True, 0.0), (0.0, 0.0), 0, 1), "weights"),
        (((1.0, 0.0), (False, 0.0), 0, 1), "levels"),
        (((1.0, 0.0), (0.0, 0.0), True, 0), "above"),
        (((1.0, 0.0), (0.0, 0.0), 0, False), "below"),
        (((1.0, 0.0), (0.0, 0.0), 1.0, 0), "above"),
        (((1.0, 0.0), (0.0, 0.0), -1, 0), "above"),
        (((), (0.0, 0.0), 0, 1), "weights"),
        (((1.0, 0.0), (), 0, 1), "levels"),
        ((np.array([1.0, 0.0]), (0.0, 0.0), 0, 1), "weights"),
        ((("1", 0.0), (0.0, 0.0), 0, 1), "weights"),
        # an infinite weight times a play of 0 would make the sum NaN
        (((math.inf, 0.0), (-math.inf, -math.inf), 0, 1), "weights must be finite"),
        (((1.0, -np.float64("inf")), (0.0, 0.0), 0, 1), "weights"),
    ])
    def test_malformed_values_are_refused_when_built(self, args, match):
        with pytest.raises(ContractError, match=match):
            ThresholdStep(*args)

    def test_values_are_python_numbers(self):
        step = ThresholdStep([1, np.float32(-1.0)], [np.int64(0), 0.5], np.int64(1), 0)
        assert step.weights == (1.0, -1.0) and step.levels == (0.0, 0.5)
        assert {type(x) for x in step.weights + step.levels} == {float}
        assert type(step.above) is int and type(step(0, 0, (0.25, 0.75))) is int
        assert step(0, 0, (0.5, 0.5)) == 1 and step(0, 1, (0.5, 0.5)) == 0

    @pytest.mark.parametrize("scenario, T, rounds", [
        ({"kind": "t5"}, 2001, 1000),
        ({"kind": "t2", "b": 0.25, "epsilon": 0.01}, 60_600, 600),
    ])
    @pytest.mark.parametrize("kind", _FOUR_KINDS)
    def test_the_kernels_call_no_step(self, scenario, T, rounds, kind, monkeypatch):
        # t5's and t2's adaptive rounds run with no call of the step; the
        # generic loop calls it once per round
        calls = []
        rule = ThresholdStep.__call__

        def counted(self, i, g, p):
            calls.append(i)
            return rule(self, i, g, p)

        monkeypatch.setattr(ThresholdStep, "__call__", counted)
        fast = run(_KERNEL_KINDS[kind](), scenario, T, seed=3)
        assert calls == []
        slow = _KERNEL_KINDS[kind]()
        slow.two_expert_kernel = False
        assert _same_bits(run(slow, scenario, T, seed=3).distributions, fast.distributions)
        assert calls == list(range(rounds))

    @pytest.mark.parametrize("kind", _FOUR_KINDS)
    def test_a_plain_step_takes_the_generic_loop(self, kind, monkeypatch):
        # a plain callable, as a tracer's wrapper is, runs through the
        # next_distribution/_update loop, one next_distribution call per
        # round; the declared step it wraps runs through the kernel, with none
        calls = []
        cls = type(_KERNEL_KINDS[kind]())
        play = cls.next_distribution

        def counted(self, group):
            calls.append(group)
            return play(self, group)

        monkeypatch.setattr(cls, "next_distribution", counted)
        rng = np.random.default_rng(len(kind))
        groups = rng.integers(0, 3, 600).astype(np.int64)
        rows = _declared_rows(rng, 5, 2)
        declared = _drawn_step(rng, rows, 3)
        outs = {}
        for name, step in (("declared", declared), ("plain", lambda i, g, p: declared(i, g, p))):
            lrn = _KERNEL_KINDS[kind]()
            lrn.start(2, 3)
            calls.clear()
            outs[name] = lrn.run_rounds(groups, rows, step) + (lrn._state().copy(), len(calls))
        assert outs["declared"][3] == 0 and outs["plain"][3] == 600
        for a, b in zip(outs["declared"][:3], outs["plain"][:3]):
            assert _same_bits(a, b)
        assert len(set(outs["declared"][1].tolist())) > 1

    @pytest.mark.parametrize("seed", [3, 4])
    def test_t2_counts_the_rounds_its_old_step_counted(self, seed):
        # the old step counted qualifying rounds as it chose them; t2 now
        # counts them from the plays it gets back
        scn = make_scenario({"kind": "t2", "b": 0.45, "epsilon": 0.01})
        srun = scn.start(60_600, np.random.SeedSequence(seed))
        gen = srun.segments()
        block = next(gen)
        assert isinstance(block.step, ThresholdStep)
        old = ref_t2_bait(scn.gamma)
        lrn = SingleMW(0.05)
        lrn.start(2, 2)
        p, choices = lrn.run_rounds(block.groups, block.rows, old)
        with pytest.raises(StopIteration):
            gen.send(p)
            gen.send(None)
        assert srun.info["qualifying_rounds"] == old.qualifying == int(choices.sum()) > 0


def _counting_updates(lrn):
    """Count in ``lrn.updates`` the rounds that the learner steps one at a
    time: each ``_update`` call, and the group ids that fixed share's
    per-round loop ``_pair_rounds`` takes from its ``groups`` argument, one
    per round, up to the round it stops at."""
    lrn.updates = 0
    update = lrn._update

    def counted_update(table, losses):
        lrn.updates += 1
        update(table, losses)

    lrn._update = counted_update
    if not isinstance(lrn, FixedShare):
        return lrn
    pair_rounds = lrn._pair_rounds

    def taken(groups):
        for g in groups:
            lrn.updates += 1
            yield g

    def counted(tables, out, s, groups, *args, **kwargs):
        return pair_rounds(tables, out, s, taken(groups), *args, **kwargs)

    lrn._pair_rounds = counted
    return lrn


class TestStationaryChunks:
    """Fixed share's oblivious chunks on one table and one loss row stop
    stepping at the table's fixed point; the plays must still be the loop's,
    bit for bit. MW's oblivious stretches are its block play, which steps no
    round, and must match the loop too."""

    def _compare(self, make, groups, rows, G=2):
        new, ref = _counting_updates(make()), make()
        new.start(2, G)
        ref.start(2, G)
        _assert_same([new.run_rounds(groups, rows)], [ref_rounds(ref, groups, rows)], new, ref)
        for g in range(G):
            assert _same_bits(new.next_distribution(g), ref.next_distribution(g))
        return new.updates

    @pytest.mark.parametrize("kind", ["fixed_share", "per_group_fixed_share"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 513, 3000])
    def test_constant_rows_across_chunk_edges(self, kind, n):
        make = _KERNEL_KINDS[kind]
        groups = np.ones(n, dtype=np.int64)
        rows = np.tile([1.0, 0.25], (n, 1))
        updates = self._compare(make, groups, rows)
        if n == 3000:
            # the table reaches its fixed point, and later chunks step once
            assert updates < n // 2

    @pytest.mark.parametrize("kind", ["fixed_share", "single_mw"])
    @pytest.mark.parametrize("col", [0, 1])
    def test_one_entry_differs(self, kind, col):
        # after the fixed point, one loss in a chunk differs from the rest
        n = 3000
        rows = np.tile([0.5, 0.25], (n, 1))
        rows[2600, col] = 0.75
        rows[2900:, col] = 0.0
        self._compare(_KERNEL_KINDS[kind], np.zeros(n, dtype=np.int64), rows)

    def test_fixed_point_mid_chunk(self):
        groups = np.zeros(200, dtype=np.int64)
        rows = np.tile([0.0, 1.0], (200, 1))
        updates = self._compare(lambda: FixedShare(0.45, 0.5), groups, rows)
        assert updates < 100

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    @pytest.mark.parametrize("row", [[1.0, 0.0], [0.5, 0.5], [0.0, 0.0], [-0.0, 1.0], [-0.0, -0.0]])
    def test_rho_at_its_ends(self, rho, row):
        # at rho=0 and row [1, 0] a weight underflows to 0 before the fixed point
        n = 5000
        updates = self._compare(lambda: PerGroupFixedShare(0.23, rho),
                                np.zeros(n, dtype=np.int64), np.tile(row, (n, 1)))
        assert updates < n

    @pytest.mark.parametrize("kind", ["fixed_share", "per_group_fixed_share", "single_mw", "per_group_mw"])
    def test_zero_rows_of_both_signs(self, kind):
        # -0.0 and 0.0 rows are different bits, so a chunk that mixes them is
        # not constant; the losses keep their own bits either way
        n = 1000
        rows = np.zeros((n, 2))
        rows[300:700, 0] = -0.0
        rows[400:500:2, 1] = -0.0
        self._compare(_KERNEL_KINDS[kind], np.zeros(n, dtype=np.int64), rows)

    @pytest.mark.parametrize("kind", ["single_mw", "per_group_mw"])
    def test_mw_zero_loss_rows(self, kind):
        n = 1200
        rows = np.zeros((n, 2))
        rows[:5] = [[1.0, 0.0], [0.5, 0.25], [0.0, 1.0], [0.75, 0.75], [1.0, 0.5]]
        updates = self._compare(_KERNEL_KINDS[kind], np.ones(n, dtype=np.int64), rows)
        assert updates == 0

    def test_interleaved_groups(self):
        # chunks on one group, chunks that alternate, and a constant row
        # that both groups share
        groups = np.concatenate([np.zeros(300), np.arange(600) % 2, np.ones(700),
                                 np.zeros(256), np.ones(256)]).astype(np.int64)
        rows = np.tile([0.0, 1.0], (groups.shape[0], 1))
        rows[300:900:3] = [1.0, 0.0]
        for kind in ("fixed_share", "per_group_fixed_share"):
            self._compare(_KERNEL_KINDS[kind], groups, rows)


class _Declared:
    """A scenario of one adaptive block on alternating groups, with the
    given declared rows, codes and step."""

    id = "declared"
    num_groups = 2

    def __init__(self, rows, codes, step):
        self.d = np.shape(rows)[1]
        self.rows, self.codes, self.step = rows, codes, step

    def start(self, T, seed_seq):
        scenario = self

        class Run:
            info: dict = {}

            def segments(self):
                yield AdaptiveBlock(np.arange(T) % 2, scenario.rows, scenario.codes, scenario.step)

        return Run()


class _OneBlock:
    """A two-expert scenario of the one block that ``make(T)`` builds when
    the run starts."""

    id = "one_block"
    d = 2
    num_groups = 2

    def __init__(self, make):
        self.make = make

    def start(self, T, seed_seq):
        scenario = self

        class Run:
            info: dict = {}

            def segments(self):
                yield scenario.make(T)

        return Run()


# Blocks whose groups or losses are malformed, each with the ContractError
# it raises when built; row 1 of each loss block would be played as 0.5.
_MALFORMED_BLOCKS = {
    "ragged_losses": (lambda T: ObliviousBlock(np.arange(T) % 2, np.zeros(T, dtype=np.int8),
                                               [[0.5, 0.5]] + [[0.5]] * (T - 1)),
                      "losses are not arrays"),
    "text_losses": (lambda T: ObliviousBlock(np.arange(T) % 2, np.zeros(T, dtype=np.int8),
                                             np.full((T, 2), "0.5")),
                    r"losses have shape \(\d+, 2\) and dtype <U3, expected numbers"),
    "object_losses": (lambda T: ObliviousBlock(np.arange(T) % 2, np.zeros(T, dtype=np.int8),
                                               np.full((T, 2), 0.5, dtype=object)),
                      "dtype object, expected numbers"),
    "float_groups": (lambda T: ObliviousBlock(np.resize([0.7, 1.9], T), np.zeros(T, dtype=np.int8),
                                              np.full((T, 2), 0.5)),
                     r"group ids have shape \(\d+,\) and dtype float64, expected \(n,\) integers"),
    "bool_groups": (lambda T: ObliviousBlock(np.arange(T) % 2 == 1, np.zeros(T, dtype=np.int8),
                                             np.full((T, 2), 0.5)),
                    "dtype bool, expected"),
    "column_groups": (lambda T: ObliviousBlock((np.arange(T) % 2)[:, None], np.zeros(T, dtype=np.int8),
                                               np.full((T, 2), 0.5)),
                      r"group ids have shape \(\d+, 1\)"),
    "ragged_groups": (lambda T: ObliviousBlock([[0, 1]] + [[0]] * (T - 1), np.zeros(T, dtype=np.int8),
                                               np.full((T, 2), 0.5)),
                      "group ids are not arrays"),
    "adaptive_float_groups": (lambda T: AdaptiveBlock(np.resize([0.7, 1.9], T), np.full((2, 2), 0.5),
                                                      [0, 1], lambda *a: 0),
                              "group ids have shape .* and dtype float64"),
    "adaptive_text_groups": (lambda T: AdaptiveBlock(np.full(T, "0"), np.full((2, 2), 0.5),
                                                     [0, 1], lambda *a: 0),
                             "group ids have shape .* dtype <U1, expected numbers"),
}


def _counting_steps(monkeypatch):
    """Wrap the step of every adaptive block a scenario yields, as a tracer
    does; returns the list the wrappers append their calls to."""
    calls = []
    segments = adversaries.ScenarioRun.segments

    def counted(self):
        gen, result = segments(self), None
        while True:
            try:
                block = gen.send(result)
            except StopIteration:
                return
            if isinstance(block, AdaptiveBlock):
                def step(i, g, p, _step=block.step):
                    calls.append(i)
                    return _step(i, g, p)
                block.step = step
            result = yield block

    monkeypatch.setattr(adversaries.ScenarioRun, "segments", counted)
    return calls


class TestRunRoundsContract:
    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("shape", ["flat", "narrow", "wide", "empty", "scalar", "deep"])
    def test_wrong_shaped_declared_rows(self, kind, d, shape):
        bad = {"flat": np.zeros(d), "narrow": np.zeros((2, d - 1)), "wide": np.zeros((2, d + 1)),
               "empty": np.zeros((0, d)), "scalar": 0.5, "deep": np.zeros((2, d, 1))}[shape]
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        start = _final_state(lrn).copy()
        steps = []
        with pytest.raises(ContractError, match="declared loss rows have shape"):
            lrn.run_rounds(np.array([0, 1, 0], dtype=np.int64), bad, lambda *a: steps.append(a) or 0)
        assert steps == [] and _same_bits(_final_state(lrn), start)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [3, -1, 1.0, "x", None, True, np.int64(0)])
    def test_bad_choice_names_its_row(self, kind, d, bad):
        # the rounds before the bad choice are observed, and no later one
        new, ref = _started_pair(kind, d)
        groups = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        rows = np.linspace(0.0, 1.0, 3 * d).reshape(3, d)
        step = lambda i, g, p: bad if i >= 2 else i  # noqa: E731
        with pytest.raises(ContractError, match=rf"choice {re.escape(repr(bad))} at row 2 .*range\(3\)"):
            new.run_rounds(groups, rows, step)
        ref_rounds(ref, groups[:2], rows, step)
        assert _same_bits(_final_state(new), _final_state(ref))
        for g in (0, 1):
            assert _same_bits(new.next_distribution(g), ref.next_distribution(g))

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
        if isinstance(lrn, CumulativeLossLearner):
            with pytest.raises(ContractError, match="at row 2 "):
                lrn.run_block(groups, rows)
            assert np.array_equal(_final_state(lrn), start)
        # so is an adaptive one whose declared rows hold such a loss
        steps = []
        with pytest.raises(ContractError, match=r"at declared index 2 lies outside \[0, 1\]"):
            lrn.run_rounds(groups, rows, lambda *a: steps.append(a) or 0)
        assert steps == [] and np.array_equal(_final_state(lrn), start)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_group_id_outside_the_group_set_names_its_row(self, kind, d, bad):
        # a per-group kind played group -1 on the last group's table and
        # updated it; group 2 of 2 raised IndexError
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        start = _final_state(lrn).copy()
        groups = np.array([0, 1, bad, 1, 0], dtype=np.int64)
        rows = np.full((5, d), 0.5)
        match = rf"group id {bad} at row 2 of the stretch lies outside range\(2\)"
        with pytest.raises(ContractError, match=match):
            lrn.run_rounds(groups, rows)
        steps = []
        with pytest.raises(ContractError, match=match):
            lrn.run_rounds(groups, rows, lambda *a: steps.append(a) or 0)
        if isinstance(lrn, CumulativeLossLearner):
            with pytest.raises(ContractError, match=match):
                lrn.run_block(groups, rows)
        assert steps == [] and _same_bits(_final_state(lrn), start)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [-1, 2])
    def test_group_id_outside_the_group_set_one_round(self, kind, d, bad):
        # observe(-1, ...) updated a per-group kind's last table, group 2 of
        # 2 raised numpy's IndexError, and a shared table took either
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        lrn.observe(1, np.linspace(0.0, 1.0, d))
        start = _final_state(lrn).copy()
        match = rf"group id {bad} lies outside range\(2\)"
        with pytest.raises(ContractError, match=match):
            lrn.next_distribution(bad)
        with pytest.raises(ContractError, match=match):
            lrn.observe(bad, np.full(d, 0.5))
        assert _same_bits(_final_state(lrn), start)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("method", ["next_distribution", "observe"])
    @pytest.mark.parametrize("bad", [0.5, 1.0, True, np.float64(1.0), "1", None],
                             ids=["half", "float-one", "true", "np-float", "text", "none"])
    def test_group_id_that_is_not_an_integer_one_round(self, kind, method, bad):
        # shared tables took 0.5, 1.0 and True, per-group tables raised
        # numpy's IndexError or took True, and "1" and None raised TypeError
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(2, 2)
        lrn.observe(1, [0.25, 1.0])
        start = _final_state(lrn).copy()
        args = (bad,) if method == "next_distribution" else (bad, [0.5, 0.5])
        with pytest.raises(ContractError, match=re.escape(f"group id {bad!r} is not an integer")):
            getattr(lrn, method)(*args)
        assert _same_bits(_final_state(lrn), start)
        assert _same_bits(lrn.next_distribution(np.int64(1)), lrn.next_distribution(1))

    @pytest.mark.parametrize("learner", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("bad", [-1, 2])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_group_id_outside_the_group_set_through_the_protocol(self, learner, bad, adaptive):
        groups, rows, steps = np.array([0, 1, bad, 1, 0]), np.full((5, 2), 0.5), []
        if adaptive:
            make = lambda T: AdaptiveBlock(groups, rows[:2], [0, 1], lambda *a: steps.append(a) or 0)  # noqa: E731
        else:
            make = lambda T: ObliviousBlock(groups, np.zeros(5, dtype=np.int8), rows)  # noqa: E731
        with pytest.raises(ContractError, match=f"group id {bad} at row 2 "):
            run(_KERNEL_KINDS[learner](), _OneBlock(make), 5, seed=1)
        assert steps == []

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
    def test_declared_codes_of_any_integer_type(self, kind, d):
        codes = [-1, np.int8(0), np.int64(1), True, False]
        rows = np.linspace(0.0, 1.0, 5 * d).reshape(5, d)
        trace = run(_KERNEL_KINDS[kind](), _Declared(rows, codes, lambda i, g, p: 4 - i % 5), 7, seed=1)
        assert trace.outcome_codes.dtype == np.int8
        assert trace.outcome_codes.tolist() == [0, 1, 1, 0, -1, 0, 1]
        assert _same_bits(trace.losses, rows[[4, 3, 2, 1, 0, 4, 3]])

    @pytest.mark.parametrize("rows, codes, match", [
        ([[0.5, 0.5], [0.5]], [0, 1], "not arrays"),
        ([[0.5, 0.5], [0.5, 0.5]], [[0], [1, 0]], "not arrays"),
        ([["a", "b"], ["c", "d"]], [0, 1], "declared loss rows have shape"),
        ([[0.5, 0.5], [0.5, 0.5]], [0], r"outcome codes have shape \(1,\)"),
        ([[0.5, 0.5], [0.5, 0.5]], [[0, 1]], r"outcome codes have shape \(1, 2\)"),
        ([[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], "dtype float64, expected"),
        ([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]], [0, 1, 7], "code 7 at declared index 2 is not -1, 0 or 1"),
        ([[0.5, 0.5], [0.5, 0.5]], [-2, 0], "code -2 at declared index 0 "),
        ([[0.5, 0.5], [0.5, 1.25]], [0, 0], r"\[0.5, 1.25\] at declared index 1 lies outside"),
        ([[0.5, 0.5], [0.5, 0.5]], np.array([300, 0], dtype=np.int16), "code 300 at declared index 0 "),
    ])
    @pytest.mark.parametrize("learner", ["per_group_fixed_share", "single_mw", "fpl"])
    def test_malformed_declarations_fail_before_the_first_round(self, rows, codes, match, learner):
        steps = []
        scenario = _Declared(np.zeros((2, 2)), codes, lambda *a: steps.append(a) or 0)
        scenario.rows = rows
        with pytest.raises(ContractError, match=match):
            run(_KERNEL_KINDS[learner](), scenario, 5, seed=1)
        assert steps == []

    @pytest.mark.parametrize("case", list(_MALFORMED_BLOCKS))
    @pytest.mark.parametrize("learner", ["per_group_fixed_share", "fixed_share", "single_mw",
                                         "per_group_mw", "fpl"])
    def test_malformed_blocks_fail_before_the_first_round(self, case, learner):
        make, match = _MALFORMED_BLOCKS[case]
        with pytest.raises(ContractError, match=match):
            run(_KERNEL_KINDS[learner](), _OneBlock(make), 5, seed=1)
        # and so before the executor would cast them
        lrn = _KERNEL_KINDS[learner]()
        lrn.start(2, 2)
        start = _final_state(lrn).copy()
        builder = TraceBuilder(2, 2)
        with pytest.raises(ContractError, match=match):
            _execute_block(lrn, make(3), builder)
        assert _same_bits(_final_state(lrn), start) and len(builder.build(
            rng_seed=1, scenario_id="", learner_id="")) == 0

    @pytest.mark.parametrize("learner", ["per_group_fixed_share", "single_mw", "fpl"])
    def test_integer_groups_of_any_type(self, learner):
        # only the kind of the group ids is checked: these play as [0, 1, 1, 0]
        losses = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        traces = [run(_KERNEL_KINDS[learner](), _OneBlock(
            lambda T, g=groups: ObliviousBlock(g, np.zeros(T, dtype=np.int8), losses)), 4, seed=1)
            for groups in (np.array([0, 1, 1, 0]), [0, 1, 1, 0], np.array([0, 1, 1, 0], dtype=np.uint8),
                           np.array([0, 1, 1, 0], dtype=">i2"))]
        for trace in traces:
            assert trace.groups.tolist() == [0, 1, 1, 0]
            assert _same_bits(trace.distributions, traces[0].distributions)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("losses, match", [
        (lambda d: [[0.5] * d, [0.5] * (d - 1), [0.5] * d], "losses are not arrays"),
        (lambda d: [["0.5"] * d] * 3, "losses have shape .* expected numbers"),
        (lambda d: [[0.5] * d, None, [0.5] * d], "losses are not arrays|expected numbers"),
    ])
    def test_ragged_or_non_numeric_losses(self, kind, d, losses, match):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        start = _final_state(lrn).copy()
        groups = np.array([0, 1, 0], dtype=np.int64)
        with pytest.raises(ContractError, match=match):
            lrn.run_rounds(groups, losses(d))
        steps = []
        with pytest.raises(ContractError, match="declared loss rows"):
            lrn.run_rounds(groups, losses(d), lambda *a: steps.append(a) or 0)
        assert steps == [] and _same_bits(_final_state(lrn), start)

    @pytest.mark.parametrize("kind, method", [(k, "run_rounds") for k in _KERNEL_KINDS]
                             + [(k, "run_block") for k in _BLOCK_KINDS])
    @pytest.mark.parametrize("groups, losses, match", [
        (np.array([0, 1, 0]), np.full((3, 3), 0.5), r"loss block has shape \(3, 3\), expected \(3, 2\)"),
        (np.array([0, 1]), np.full(2, 0.5), r"loss block has shape \(2,\), expected \(2, 2\)"),
        (np.array([0, 1]), np.full((3, 2), 0.5), r"loss block has shape \(3, 2\), expected \(2, 2\)"),
        (np.array([0, 1, 0, 1]), np.full((3, 2), 0.5), r"loss block has shape \(3, 2\), expected \(4, 2\)"),
        (np.array([0, 1]), [[0.5, 0.5], [0.5]], "losses are not arrays"),
        (np.array([0, 1]), [["0.5", "0.5"]] * 2, "losses have shape .* expected numbers"),
        (np.array([0, 1]), [[0.5, 0.5], [0.5, 1.5]], r"\[0.5, 1.5\] at row 1 of the stretch lies outside"),
        (np.array([0.7, 1.2]), np.full((2, 2), 0.5), r"group ids have shape \(2,\) and dtype float64"),
        (np.array([[0, 1]]), np.full((2, 2), 0.5), r"group ids have shape \(1, 2\)"),
        (np.array(["0", "1"]), np.full((2, 2), 0.5), "group ids have shape .* expected numbers"),
        ([[0, 1], [0]], np.full((2, 2), 0.5), "group ids are not arrays"),
        (np.array([0, 2]), np.full((2, 2), 0.5), r"group id 2 at row 1 of the stretch lies outside range\(2\)"),
    ], ids=["wide", "flat", "more-rows", "more-ids", "ragged", "text", "range", "float-ids",
            "2d-ids", "text-ids", "ragged-ids", "id-range"])
    def test_malformed_stretch_changes_nothing(self, kind, method, groups, losses, match):
        # run_block took none of run_rounds' checks on shape or type, and
        # neither refused float group ids: numpy's errors came out, or a
        # shared table played 3 rows for 2 ids, or group 0.7 as group 0
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(2, 2)
        lrn.observe(1, [0.25, 1.0])
        start = _final_state(lrn).copy()
        with pytest.raises(ContractError, match=match):
            getattr(lrn, method)(groups, losses)
        assert _same_bits(_final_state(lrn), start)

    @pytest.mark.parametrize("kind, method", [(k, "run_rounds") for k in _KERNEL_KINDS]
                             + [(k, "run_block") for k in _BLOCK_KINDS])
    def test_stretch_of_lists_plays_as_arrays(self, kind, method):
        groups, losses = [0, 1, 1, 0, 1], [[0.0, 1.0], [0.5, 0.25], [1.0, 1.0], [0.0, 0.0], [0.75, 0.5]]
        new, ref = _started_pair(kind, 2)
        got = getattr(new, method)(groups, losses)
        want = getattr(ref, method)(np.array(groups), np.array(losses))
        if method == "run_block":
            got, want = (got,), (want,)
        _assert_same([got], [want], new, ref)

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    def test_float_group_ids_in_an_adaptive_stretch(self, kind):
        lrn, steps = _KERNEL_KINDS[kind](), []
        lrn.start(2, 2)
        start = _final_state(lrn).copy()
        with pytest.raises(ContractError, match="group ids have shape"):
            lrn.run_rounds(np.array([0.7, 1.2]), np.eye(2), lambda *a: steps.append(a) or 0)
        assert steps == [] and _same_bits(_final_state(lrn), start)

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

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    def test_declared_rows_of_any_form(self, kind):
        class Sub(np.ndarray):
            pass

        forms = [
            [[0.25, 1.0], [-0.0, 0.5]], ((1, 0), (0.5, -0.0)),
            np.array([[0.5, 0.125], [1.0, 0.0]], dtype=np.float32),
            np.array([[0.75, 0.0], [0.0, -0.0]]).view(Sub),
            np.array([[0.375, 0.5], [1.0, 0.25]], dtype=">f8"),
            np.array([[0.25, 9.0, 0.5], [1.0, 9.0, 0.0]])[:, ::2],
            np.array([[1, 0], [0, 1]]), np.array([[False, True], [True, True]]),
        ]
        groups = np.arange(11) % 2
        step = _t5_rule()
        new, ref = _started_pair(kind, 2)
        for rows in forms:
            _assert_same([new.run_rounds(groups, rows, step)],
                         [ref_rounds(ref, groups, np.asarray(rows, dtype=np.float64), step)], new, ref)
        # the same forms holding a loss outside [0, 1] are refused, read as float64
        for bad, text in [([[0.5, 0.5], [0.5, 1.5]], "0.5, 1.5"), (np.array([[0, 0], [2, 0]]), "2.0, 0.0"),
                          (np.array([[0, 0], [-0.25, 0.0]], dtype=np.float32), "-0.25, 0.0"),
                          (np.array([[0, 0], [np.nan, 0.0]]).view(Sub), "nan, 0.0"),
                          (np.array([[0, 0], [0.5, np.inf]], dtype=">f8"), "0.5, inf")]:
            with pytest.raises(ContractError, match=rf"row \[{text}\] at declared index 1 lies outside"):
                new.run_rounds(groups, bad, step)
        assert _same_bits(_final_state(new), _final_state(ref))

    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    def test_step_sees_the_play_as_floats(self, kind, d):
        seen = []

        def step(i, g, p):
            seen.append(p)
            return i % 2

        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        p, choices = lrn.run_rounds(np.array([0, 1, 0, 0], dtype=np.int64), np.eye(2, d), step)
        assert all(type(x) is tuple and len(x) == d and {type(v) for v in x} == {float} for x in seen)
        assert _same_bits(np.array(seen), p)
        assert choices.tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("learner", ["per_group_fixed_share", "single_mw", "fpl"])
    @pytest.mark.parametrize("scenario, T, calls", [
        ({"kind": "t5"}, 1001, 500),
        ({"kind": "t2", "b": 0.25, "epsilon": 0.01}, 20_300, 200),
    ])
    def test_step_is_called_once_per_adaptive_round(self, learner, scenario, T, calls, monkeypatch):
        # a tracer that wraps each adaptive block's step counts its rounds
        seen = _counting_steps(monkeypatch)
        run(_KERNEL_KINDS[learner](), scenario, T, seed=3)
        assert seen == list(range(calls))

    def test_runtime_budget(self):
        # the next_distribution/observe loop takes about 1.4 s
        t0 = time.perf_counter()
        run({"kind": "per_group_fixed_share", "eta": 0.05, "switches": 2}, {"kind": "t5"},
            100_000, seed=7, retain="full")
        assert time.perf_counter() - t0 < 0.25


class TestTwoExpertSoftmax:
    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1e1, 1e3, 1e4])
    def test_block_form_row_softmax_and_play2_agree(self, scale):
        # MW's d=2 block play, its general softmax and the kernel's scalar
        # play are one rule written three times; on the log weights of a
        # block of cumulative losses they agree bit for bit
        rng = np.random.default_rng(round(math.log10(scale)) + 10)
        cum = rng.standard_normal((20_000, 2)) * scale
        cum[::7, 1] = cum[::7, 0]
        cum[1::7] = np.cumsum(rng.random((cum[1::7].shape[0], 2)), axis=0) * scale
        lrn = SingleMW(0.1)
        lrn.start(2)
        log_w = lrn._log_decay * cum
        block = _two_expert_softmax(log_w)
        assert _same_bits(block, _row_softmax(log_w))
        assert _same_bits(block, lrn._play(cum))
        assert _same_bits(block, np.array([lrn._play2(tuple(row)) for row in cum.tolist()]))


class TestScalarIsOneRowOfBlock:
    @pytest.mark.parametrize("kind", ["single_mw", "per_group_mw", "fpl"])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("prefix", [0, 1, 40])
    def test_next_distribution_is_row_zero_of_run_block(self, kind, d, prefix):
        a, b = _KERNEL_KINDS[kind](), _KERNEL_KINDS[kind]()
        rng = np.random.default_rng(prefix)
        groups, losses = rng.integers(0, 2, prefix), rng.integers(0, 5, (prefix, d)) / 4.0
        for lrn in (a, b):
            lrn.start(d, 2)
            if prefix:
                lrn.run_block(groups, losses)
        for g in (0, 1):
            want = b.run_block(np.array([g]), np.zeros((1, d)))[0]
            assert np.array_equal(a.next_distribution(g), want)
            a.observe(g, np.zeros(d))


class TestObserveRange:
    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, np.inf, -np.inf, 2000.0])
    def test_observe_refuses_loss_outside_unit_interval(self, kind, d, bad):
        lrn = _KERNEL_KINDS[kind]()
        lrn.start(d, 2)
        lrn.observe(1, np.linspace(0.0, 1.0, d))
        state = _final_state(lrn).copy()
        plays = [lrn.next_distribution(g) for g in (0, 1)]
        row = np.full(d, 0.5)
        row[d - 1] = bad
        for g in (0, 1):
            with pytest.raises(ContractError, match=r"outside \[0, 1\]"):
                lrn.observe(g, row)
        assert np.array_equal(_final_state(lrn), state)
        assert all(np.array_equal(lrn.next_distribution(g), plays[g]) for g in (0, 1))


class TestStartSizes:
    @pytest.mark.parametrize("kind", list(_KERNEL_KINDS))
    @pytest.mark.parametrize("d, num_groups, match", [
        (2.7, 1, "d must be an integer, got 2.7"),
        (True, 1, "d must be an integer, got True"),
        ("2", 1, "d must be an integer, got '2'"),
        (2, 2.5, "num_groups must be an integer, got 2.5"),
    ])
    def test_sizes_must_be_integers(self, kind, d, num_groups, match):
        # start(2.7, 1) played with d=2, start(True, 1) with d=1 and
        # start(2, 2.5) with 2 groups; start("2", 1) raised TypeError
        lrn = _KERNEL_KINDS[kind]()
        with pytest.raises(ConfigError, match=re.escape(match)):
            lrn.start(d, num_groups)
        assert lrn.d is None and lrn.num_groups is None
        lrn.start(np.int64(3), np.int8(2))
        assert (type(lrn.d), type(lrn.num_groups), lrn.next_distribution(1).shape) == (int, int, (3,))
