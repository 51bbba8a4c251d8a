import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from fair_experts.adversaries import GROUP_B, RandomIID
from fair_experts.experts import expert_group_metric
from fair_experts.harness import get_preset, run_experiment
from fair_experts.learners import SingleMW
from fair_experts.metrics import (
    METRICS,
    aggregate_reports,
    approx_regret,
    best_shifting_comparator,
    build_report,
    expert_total_losses,
    group_metric,
    learner_total_loss,
    rate_table,
    regret,
    shifting_approx_regret,
    switch_count,
)
from fair_experts.protocol import run
from fair_experts.types import (
    ConfigError,
    ContractError,
    InsufficientGroupsError,
    TraceBuilder,
    _BIN_NEG,
    _BIN_POS,
    max_pairwise_gap,
)
from oracles import NEG, POS, UNL, hand_trace, ref_best_shifting_comparator


def _trace(rows, num_groups=2, scenario_info=None):
    return hand_trace(rows, num_groups, scenario_id="hand", learner_id="x",
                      scenario_info=scenario_info)


# six rounds, two experts, dyadic numbers so expectations are exact
HAND_ROWS = [
    (0, POS, (1.0, 0.0), (0.5, 0.0)),
    (0, NEG, (0.5, 0.5), (1.0, 0.0)),
    (1, POS, (0.0, 1.0), (0.25, 0.75)),
    (1, POS, (0.25, 0.75), (1.0, 0.0)),
    (0, UNL, (0.5, 0.5), (0.0, 1.0)),
    (1, NEG, (1.0, 0.0), (0.0, 0.5)),
]


class TestGroupMetrics:
    def test_hand_recount(self):
        tr = _trace(HAND_ROWS)
        assert group_metric(tr, 0, "fnr") == 0.5
        assert group_metric(tr, 1, "fnr") == 0.5
        assert group_metric(tr, 0, "fpr") == 0.5
        assert group_metric(tr, 1, "fpr") == 0.0
        assert group_metric(tr, 0, "eer") == 0.5
        assert group_metric(tr, 1, "eer") == approx(1 / 3)

    def test_subpopulation_sizes(self):
        tr = _trace(HAND_ROWS)
        sizes = {(g, m): int(rate_table(tr, m)[1][g]) for g in (0, 1) for m in METRICS}
        assert sizes == {
            (0, "fnr"): 1, (1, "fnr"): 2,
            (0, "fpr"): 1, (1, "fpr"): 1,
            (0, "eer"): 3, (1, "eer"): 3,
        }

    def test_empty_subpopulation_is_none(self):
        rows = [(0, POS, (1.0, 0.0), (0.0, 1.0)), (1, UNL, (1.0, 0.0), (0.0, 1.0))]
        tr = _trace(rows)
        assert group_metric(tr, 1, "fnr") is None
        assert group_metric(tr, 0, "fpr") is None
        assert group_metric(tr, 1, "eer") == 0.0

    def test_learner_group_values_and_gap(self):
        tr = _trace(HAND_ROWS)
        rates, _ = rate_table(tr, "fpr")
        vals = dict(enumerate(rates[:, 0].tolist()))
        assert vals == {0: 0.5, 1: 0.0}
        gap, pair = max_pairwise_gap(vals)
        assert gap == 0.5 and pair == (0, 1)

    def test_gap_needs_two_defined_groups(self):
        with pytest.raises(InsufficientGroupsError):
            max_pairwise_gap({0: 0.5, 1: None})

    def test_unknown_metric(self):
        tr = _trace(HAND_ROWS)
        with pytest.raises(ConfigError):
            group_metric(tr, 0, "accuracy")


# Reference: the per-cell loops rate_table replaced, one group and column at a time.
_REF_BINS = {"fnr": [_BIN_POS], "fpr": [_BIN_NEG], "eer": [0, 1, 2]}


def _ref_size(trace, group, metric):
    return int(trace.accumulators.counts[group, _REF_BINS[metric]].sum())


def _ref_learner(trace, group, metric):
    bins = _REF_BINS[metric]
    n = _ref_size(trace, group, metric)
    if n == 0:
        return None
    return float(trace.accumulators.learner_loss[group, bins].sum()) / n


def _ref_expert(trace, expert, group, metric):
    bins = _REF_BINS[metric]
    n = _ref_size(trace, group, metric)
    if n == 0:
        return None
    return float(trace.accumulators.expert_loss[group, bins, expert].sum()) / n


def _labeled_iid_trace(seed, groups, d, probs=None, T=600):
    """random_iid rounds relabeled with random outcomes, so that fnr and fpr
    have non-trivial subpopulations."""
    tr = run(SingleMW(0.1), RandomIID(d=d, groups=groups, group_probs=probs), T, seed,
             retain="full")
    rng = np.random.default_rng(seed)
    codes = rng.integers(-1, 2, size=len(tr))
    return hand_trace(zip(tr.groups, codes, tr.distributions, tr.losses), groups)


class TestRateTableOracle:
    @pytest.mark.parametrize("seed,groups,d,probs", [
        (1, 2, 2, None),
        (2, 5, 3, None),
        (3, 4, 2, (0.5, 0.0, 0.3, 0.2)),  # group 1 never arrives
    ])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_matches_per_cell_reference(self, seed, groups, d, probs, labeled):
        if labeled:
            tr = _labeled_iid_trace(seed, groups, d, probs)
        else:
            tr = run(SingleMW(0.1), RandomIID(d=d, groups=groups, group_probs=probs), 600,
                     seed, retain="summary")
        for metric in METRICS:
            rates, sizes = rate_table(tr, metric)
            assert rates.shape == (groups, 1 + d) and sizes.shape == (groups,)
            if probs is not None:
                assert sizes[1] == 0 and np.isnan(rates[1]).all()
            for g in range(groups):
                assert int(sizes[g]) == _ref_size(tr, g, metric)
                cells = [_ref_learner(tr, g, metric)]
                cells += [_ref_expert(tr, f, g, metric) for f in range(d)]
                for col, want in enumerate(cells):
                    if want is None:
                        assert np.isnan(rates[g, col])
                    else:
                        assert rates[g, col] == want
                assert group_metric(tr, g, metric) == cells[0]
                for f in range(d):
                    assert expert_group_metric(tr, f, g, metric) == cells[1 + f]

    def test_group_out_of_range(self):
        tr = _trace(HAND_ROWS)
        with pytest.raises(ValueError):
            group_metric(tr, 2, "eer")
        with pytest.raises(ValueError):
            expert_group_metric(tr, 0, -1, "eer")
        with pytest.raises(ValueError):
            expert_group_metric(tr, 2, 0, "eer")


class TestRegret:
    def test_totals(self):
        tr = _trace(HAND_ROWS)
        assert learner_total_loss(tr) == 2.5
        np.testing.assert_allclose(expert_total_losses(tr), [2.75, 2.25])
        assert regret(tr) == approx(0.25)

    def test_negative_regret_possible(self):
        rows = [(0, UNL, (0.0, 1.0), (1.0, 0.5)), (0, UNL, (1.0, 0.0), (0.5, 1.0))]
        tr = _trace(rows, num_groups=1)
        # learner pays 1.0 total, each fixed expert pays 1.5
        assert regret(tr) == approx(-0.5)

    def test_empty_trace(self):
        b = TraceBuilder(2, 2)
        tr = b.build(rng_seed=None, scenario_id="s", learner_id="l")
        assert regret(tr) == 0.0

    def test_approx_regret_values(self):
        tr = _trace(HAND_ROWS)
        vec = approx_regret(tr, 0.2)
        assert vec.shape == (2,)
        assert vec[0] == approx(2.5 - 1.2 * 2.75)
        assert vec[1] == approx(2.5 - 1.2 * 2.25)
        assert approx_regret(tr, 0.2, expert=0) == approx(2.5 - 1.2 * 2.75)

    def test_approx_regret_rejects_negative_epsilon(self):
        tr = _trace(HAND_ROWS)
        with pytest.raises(ConfigError):
            approx_regret(tr, -0.1)


def _brute_force(losses, K):
    n, d = losses.shape
    best = None
    for path in itertools.product(range(d), repeat=n):
        sw = sum(1 for a, b in zip(path, path[1:]) if a != b)
        if sw > K:
            continue
        # accumulate left to right, matching the DP summation order
        total = 0.0
        for t in range(n):
            total += losses[t, path[t]]
        if best is None or total < best:
            best = total
    return best


class TestShiftingComparator:
    def test_k0_is_best_fixed_expert(self):
        tr = _trace(HAND_ROWS)
        path = best_shifting_comparator(tr, 0)
        assert path.loss == 2.25
        assert path.switches == 0
        np.testing.assert_array_equal(path.experts, np.ones(6, dtype=path.experts.dtype))

    def test_k1_hand_value(self):
        tr = _trace(HAND_ROWS)
        path = best_shifting_comparator(tr, 1)
        assert path.loss == 0.75
        assert path.switches == 1
        # expert 1 for the first four rounds, expert 0 afterwards
        np.testing.assert_array_equal(path.experts, [1, 1, 1, 1, 0, 0])

    def test_monotone_in_k(self):
        rng = np.random.default_rng(42)
        losses = rng.integers(0, 5, size=(12, 3)) / 4.0
        prev = np.inf
        for K in range(6):
            cur = best_shifting_comparator(losses, K).loss
            assert cur <= prev + 1e-15
            prev = cur

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            losses = rng.integers(0, 9, size=(6, 3)) / 8.0
            for K in (0, 1, 2):
                path = best_shifting_comparator(losses, K)
                assert path.loss == _brute_force(losses, K)
                assert path.switches <= K
                # the reported path really attains the reported loss
                replay = sum(losses[t, f] for t, f in enumerate(path.experts))
                assert replay == path.loss

    def test_group_restriction(self):
        tr = _trace(HAND_ROWS)
        path = best_shifting_comparator(tr, 1, group=0)
        # group-0 rounds have loss rows (.5,0), (1,0), (0,1)
        assert path.loss == 0.0
        assert len(path) == 3

    def test_raw_matrix_and_empty(self):
        path = best_shifting_comparator(np.zeros((0, 2)), 3)
        assert path.loss == 0.0 and len(path) == 0 and path.switches == 0
        path = best_shifting_comparator(np.array([[0.5, 0.25]]), 0)
        assert path.loss == 0.25

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            best_shifting_comparator(np.zeros((3, 2)), -1)

    @pytest.mark.parametrize("K", [1.5, 2.0, "2", None, True])
    def test_k_of_the_wrong_type_rejected(self, K):
        # as shifting_K in a config is; range() would raise TypeError on 1.5
        with pytest.raises(ConfigError, match="K must be an integer"):
            best_shifting_comparator(np.zeros((3, 2)), K)

    def test_needs_full_trace(self):
        b = TraceBuilder(2, 2, retain="summary")
        groups = np.zeros(4, dtype=np.int64)
        codes = np.full(4, -1, dtype=np.int64)
        losses = np.zeros((4, 2))
        dists = np.full((4, 2), 0.5)
        b.append_block(groups, codes, losses, dists, (dists * losses).sum(axis=1))
        tr = b.build(rng_seed=None, scenario_id="s", learner_id="l")
        with pytest.raises(ContractError):
            best_shifting_comparator(tr, 1)

    def test_switch_count(self):
        assert switch_count(np.array([0, 0, 1, 1, 0])) == 2
        assert switch_count(np.array([2])) == 0
        assert switch_count(np.array([], dtype=int)) == 0

    def test_shifting_approx_regret_dict(self):
        tr = _trace(HAND_ROWS)
        out = shifting_approx_regret(tr, 0.2, 1)
        assert out["K"] == 1
        assert out["comparator_loss"] == 0.75
        assert out["switches"] == 1
        assert out["approx_regret"] == approx(2.5 - 1.2 * 0.75)



def _ref_best_shifting_comparator(losses, K):
    """The per-round dynamic program the prefix-minimum form replaced:
    (path, loss, switches) over (round, switches used, current expert)."""
    n, d = losses.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0.0, 0
    levels = K + 1
    dp = np.tile(losses[0], (levels, 1))
    stayed = np.ones((n, levels, d), dtype=bool)
    source = np.tile(np.arange(d, dtype=np.int32), (n, levels, 1))
    arange_d = np.arange(d, dtype=np.int32)
    for t in range(1, n):
        prev_min = dp.min(axis=1)
        prev_arg = dp.argmin(axis=1).astype(np.int32)
        new = np.empty_like(dp)
        new[0] = dp[0]
        for k in range(1, levels):
            switch_val = prev_min[k - 1]
            use_stay = dp[k] <= switch_val
            new[k] = np.where(use_stay, dp[k], switch_val)
            stayed[t, k] = use_stay
            source[t, k] = np.where(use_stay, arange_d, prev_arg[k - 1])
        dp = new + losses[t]
    best = None
    for f in range(d):
        for k in range(levels):
            cand = (dp[k, f], f, k)
            if best is None or cand < best:
                best = cand
    loss, f, k = best
    path = np.empty(n, dtype=np.int64)
    for t in range(n - 1, 0, -1):
        path[t] = f
        if not stayed[t, k, f]:
            f = int(source[t, k, f])
            k -= 1
    path[0] = f
    return path, float(loss), switch_count(path)


def _assert_matches_reference(losses, K):
    path = best_shifting_comparator(losses, K)
    ref_path, ref_loss, ref_switches = _ref_best_shifting_comparator(losses, K)
    np.testing.assert_array_equal(path.experts, ref_path)
    assert path.loss == ref_loss
    assert path.switches == ref_switches


@pytest.fixture(scope="module")
def theorem5_trace():
    cfg = get_preset("theorem5", keep_traces=True, out_dir=None)
    return run_experiment(cfg).traces[0]


class TestShiftingComparatorOracle:
    """The prefix-minimum comparator against the per-round DP it replaced."""

    @pytest.mark.parametrize("denominator, cases", [(4, 600), (1, 300)])
    def test_dyadic_instances_exact(self, denominator, cases):
        # tie-heavy losses in {0, 1/denominator, ..., 1}: every sum is exact,
        # so any difference in tie handling shows as a different path
        rng = np.random.default_rng(2024 + denominator)
        for _ in range(cases):
            n = int(rng.integers(1, 61))
            d = int(rng.integers(1, 5))
            K = int(rng.integers(0, 7))
            losses = rng.integers(0, denominator + 1, size=(n, d)) / denominator
            _assert_matches_reference(losses, K)

    @pytest.mark.parametrize("group", [None, GROUP_B])
    def test_theorem5_trace_exact(self, theorem5_trace, group):
        losses = theorem5_trace.losses
        if group is not None:
            losses = losses[theorem5_trace.groups == group]
        path = best_shifting_comparator(theorem5_trace, 2, group=group)
        ref_path, ref_loss, ref_switches = _ref_best_shifting_comparator(losses, 2)
        np.testing.assert_array_equal(path.experts, ref_path)
        assert path.loss == ref_loss
        assert path.switches == ref_switches

    def test_random_floats_same_path_and_close_loss(self):
        # the closed form adds the cumulative loss to a prefix minimum instead
        # of summing round by round, so only the last ulps may differ
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 61))
            d = int(rng.integers(1, 5))
            K = int(rng.integers(0, 7))
            losses = rng.random((n, d))
            path = best_shifting_comparator(losses, K)
            ref_path, ref_loss, ref_switches = _ref_best_shifting_comparator(losses, K)
            np.testing.assert_array_equal(path.experts, ref_path)
            assert path.switches == ref_switches
            assert path.loss == approx(ref_loss, rel=1e-12, abs=0.0)

    def test_repeated_level_still_picks_lowest_final_expert(self):
        # level 1 has the same per-round minima as level 0, yet it lets
        # expert 0 reach the best final loss through a switch
        losses = np.array([[1.0, 0.0], [0.0, 0.0]])
        path = best_shifting_comparator(losses, 1)
        np.testing.assert_array_equal(path.experts, [1, 0])
        assert path.loss == 0.0 and path.switches == 1
        _assert_matches_reference(losses, 1)

    def test_huge_budget_is_capped(self):
        rng = np.random.default_rng(11)
        losses = np.eye(2)[rng.integers(0, 2, size=1000)]
        t0 = time.perf_counter()
        path = best_shifting_comparator(losses, 10**6)
        elapsed = time.perf_counter() - t0
        capped = best_shifting_comparator(losses, 999)
        np.testing.assert_array_equal(path.experts, capped.experts)
        assert path.loss == capped.loss == 0.0
        assert path.switches == capped.switches
        assert elapsed < 1.0

    def test_runtime_budget(self):
        # a per-round loop takes seconds here
        rng = np.random.default_rng(3)
        losses = rng.integers(0, 5, size=(100_000, 2)) / 4.0
        t0 = time.perf_counter()
        best_shifting_comparator(losses, 2)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_losses_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            best_shifting_comparator(np.array([[bad, 0.0], [0.0, 1.0]]), 1)

@st.composite
def _loss_matrices(draw):
    """(losses, K): an (n, d) matrix of uniform, 0/1, half-integer or signed
    half-integer losses (a raw matrix may hold any finite value), some
    entries -0.0, and a switch budget."""
    n, d, K = draw(st.integers(1, 80)), draw(st.integers(1, 4)), draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "0/1", "half", "signed"]))
    if kind == "uniform":
        losses = rng.random((n, d))
    else:
        low, high = {"0/1": (0, 2), "half": (0, 3), "signed": (-2, 3)}[kind]
        losses = rng.integers(low, high, size=(n, d)) / (1.0 if kind == "0/1" else 2.0)
    losses[rng.random((n, d)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = -0.0
    return losses, K


class TestShiftingComparatorPrefixOracle:
    """The DP that sums each expert once against the prefix-minimum form it
    replaced, kept in ``oracles.ref_best_shifting_comparator``: path, loss
    bits and switch count."""

    @staticmethod
    def _assert_same(losses, K):
        path = best_shifting_comparator(losses, K)
        ref_path, ref_loss, ref_switches = ref_best_shifting_comparator(losses, K)
        np.testing.assert_array_equal(path.experts, ref_path)
        assert np.float64(path.loss).tobytes() == np.float64(ref_loss).tobytes()
        assert path.switches == ref_switches

    @settings(max_examples=300, deadline=None)
    @given(_loss_matrices())
    def test_drawn_matrices(self, case):
        self._assert_same(*case)

    def test_negative_zero_sums(self):
        # -0.0 + -0.0 keeps the sign, so whole columns of -0.0 sum to -0.0
        losses = np.array([[-0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])
        for K in range(4):
            self._assert_same(losses, K)
            self._assert_same(losses[:, ::-1], K)

    @pytest.mark.parametrize("K", [0, 1, 2, 3, 5])
    def test_theorem5_trace(self, theorem5_trace, K):
        self._assert_same(theorem5_trace.losses, K)

    @pytest.mark.parametrize("K, parent_peak", [(2, 4_169_838), (5, 7_004_575)])
    def test_peak_memory_on_the_theorem5_trace(self, theorem5_trace, K, parent_peak):
        # the prefix-minimum form's tracemalloc peak: it held each level's
        # per-round minimum, a column buffer and a temporary per expert
        best_shifting_comparator(theorem5_trace, K)
        tracemalloc.start()
        try:
            best_shifting_comparator(theorem5_trace, K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak


class TestReports:
    def test_build_report_hand_values(self):
        tr = _trace(HAND_ROWS)
        rep = build_report(tr, epsilon=0.2, shifting_K=1).to_dict()
        assert rep["T"] == 6
        assert rep["learner_metrics"]["eer"] == {"A": 0.5, "B": approx(1 / 3)}
        assert rep["gaps"]["fnr"] == {"gap": 0.0, "pair": ["A", "B"]}
        assert rep["gaps"]["fpr"]["gap"] == 0.5
        assert rep["subpopulation_sizes"]["fnr"] == {"A": 1, "B": 2}
        assert rep["best_expert"] == 1
        assert rep["regret"] == approx(0.25)
        assert rep["min_approx_regret"] == approx(2.5 - 1.2 * 2.75)
        assert rep["shifting"]["comparator_loss"] == 0.75
        e0 = rep["expert_metrics"][0]
        assert e0["fnr"] == {"A": 0.5, "B": 0.625}

    def test_gap_none_when_one_group_defined(self):
        rows = [(0, POS, (1.0, 0.0), (0.0, 1.0)), (1, UNL, (1.0, 0.0), (0.0, 1.0))]
        rep = build_report(_trace(rows), epsilon=0.1).to_dict()
        assert rep["gaps"]["fnr"] == {"gap": None, "pair": None}
        assert rep["gaps"]["eer"]["gap"] is not None

    def test_aggregate_structure(self):
        tr = _trace(HAND_ROWS, scenario_info={"world": "b"})
        agg = aggregate_reports([build_report(tr, 0.2), build_report(tr, 0.2)])
        assert agg["runs"] == 2
        eer_a = agg["learner_metrics"]["eer"]["A"]
        assert eer_a["mean"] == 0.5 and eer_a["n"] == 2 and eer_a["se"] == 0.0
        assert agg["gaps"]["fpr"]["gap_of_mean_rates"] == 0.5
        assert agg["gaps"]["fpr"]["mean_run_gap"]["mean"] == 0.5
        assert agg["regret"]["mean"] == approx(0.25)
        assert agg["worlds"] == {"b": 2}

    def test_aggregate_single_run_has_no_se(self):
        tr = _trace(HAND_ROWS)
        agg = aggregate_reports([build_report(tr, 0.2)])
        assert agg["learner_metrics"]["eer"]["A"]["se"] is None

    def test_approx_regret_consistent_with_regret(self):
        # with epsilon = 0 the worst-case entry over experts is plain regret,
        # and the competitive slack only helps as epsilon grows
        tr = _trace(HAND_ROWS)
        vec = approx_regret(tr, 0.0)
        assert vec.max() == approx(regret(tr))
        assert np.all(approx_regret(tr, 0.3) <= vec + 1e-12)
