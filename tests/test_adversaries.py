import numpy as np
import pytest

from fair_experts.adversaries import (
    GROUP_A,
    GROUP_B,
    RandomIID,
    T1Scenario,
    T2Scenario,
    T3Synthetic,
    T4Scenario,
    T5Scenario,
    make_scenario,
)
from fair_experts.experts import audit_fair_in_isolation, expert_group_metric
from fair_experts.protocol import run
from fair_experts.metrics import rate_table
from fair_experts.types import ConfigError, POSITIVE_CODE, NEGATIVE_CODE


def _mw(eta=0.1):
    return {"kind": "single_mw", "eta": eta}


class TestT1:
    def test_derived_parameters(self):
        sc = T1Scenario(epsilon=0.01)
        assert sc.beta == pytest.approx(0.35)
        assert sc.d == 2 and sc.num_groups == 2
        names = [e.name for e in sc.experts]
        assert names == ["h_neg", "h_err"]

    def test_epsilon_domain(self):
        with pytest.raises(ConfigError):
            T1Scenario(epsilon=0.0)
        with pytest.raises(ConfigError):
            T1Scenario(epsilon=1.5)
        # beta = 1/4 + sqrt(eps) must stay a valid rate
        with pytest.raises(ConfigError):
            T1Scenario(epsilon=0.8)

    def test_phase_one_labels(self):
        T = 2000
        tr = run(_mw(), T1Scenario(epsilon=0.01), T, seed=5)
        half = T // 2
        codes = tr.outcome_codes[:half]
        groups = tr.groups[:half]
        # group B rounds are all negative in phase one
        assert np.all(codes[groups == GROUP_B] == NEGATIVE_CODE)
        # group A rounds carry both labels
        a_codes = codes[groups == GROUP_A]
        assert (a_codes == POSITIVE_CODE).any() and (a_codes == NEGATIVE_CODE).any()

    def test_world_b_structure(self):
        T = 2000
        tr = run(_mw(), T1Scenario(epsilon=0.01), T, seed=5)
        info = tr.scenario_info
        assert info["world"] == "b"
        assert info["hu_probability_mass"] <= info["world_threshold"]
        codes = tr.outcome_codes[T // 2:]
        groups = tr.groups[T // 2:]
        assert np.all(codes[groups == GROUP_B] == POSITIVE_CODE)

    def test_forced_world_a(self):
        T = 400
        tr = run(_mw(), T1Scenario(epsilon=0.01, forced_world="a"), T, seed=5)
        assert tr.scenario_info["world"] == "a"
        codes = tr.outcome_codes[T // 2:]
        assert np.all(codes == NEGATIVE_CODE)

    def test_world_threshold_switches(self):
        # a uniform-forever learner puts mass T/4 > sqrt(eps) * T on h_err
        sc = T1Scenario(epsilon=0.01)
        tr = run({"kind": "fpl", "eta": 1e-6, "grid_m": 16}, sc, 1200, seed=9)
        # with eta ~ 0 the perturbation dominates and mass stays near half
        assert tr.scenario_info["hu_probability_mass"] > np.sqrt(0.01) * 1200
        assert tr.scenario_info["world"] == "a"

    def test_experts_fair_in_isolation(self):
        tr = run(_mw(), T1Scenario(epsilon=0.01), 4000, seed=11)
        # h_neg: FNR exactly 1 for both groups
        assert expert_group_metric(tr, 0, GROUP_A, "fnr") == 1.0
        assert expert_group_metric(tr, 0, GROUP_B, "fnr") == 1.0
        assert audit_fair_in_isolation(tr, 0, "fnr").gap == 0.0
        # h_err: loss is beta on every labeled round
        audit = audit_fair_in_isolation(tr, 1, "fnr", tolerance=1e-9)
        assert audit.passed is True
        for metric in ("fnr", "fpr", "eer"):
            assert expert_group_metric(tr, 1, GROUP_A, metric) == pytest.approx(0.35, abs=1e-9)

    def test_group_draws_balanced(self):
        T = 20000
        shares = []
        for seed in range(10):
            tr = run(_mw(), T1Scenario(epsilon=0.01), T, seed=seed)
            shares.append(tr.accumulators.counts.sum(axis=1)[GROUP_A] / T)
        # fair coin: every share within 3 binomial sigma, and both sides appear
        sigma = np.sqrt(0.25 / T)
        assert all(abs(s - 0.5) <= 3 * sigma for s in shares)

    def test_bernoulli_expert_variant_runs(self):
        sc = T1Scenario(epsilon=0.01, bernoulli_experts=True)
        tr = run(_mw(), sc, 600, seed=3)
        assert set(np.unique(tr.losses)) <= {0.0, 1.0}


class TestT2:
    def test_derived_parameters(self):
        sc = T2Scenario(b=0.25, epsilon=0.01)
        assert sc.gamma == pytest.approx(0.9898)
        assert sc.C == pytest.approx(1 / 101**2)
        assert sc.THETA == pytest.approx(1 / 101)
        with pytest.raises(ConfigError):
            T2Scenario(b=0.49, epsilon=0.01)
        with pytest.raises(ConfigError):
            T2Scenario(b=0.25, epsilon=0.0)

    def test_phase_one_is_floor_t_over_101(self):
        sc = T2Scenario(b=0.25, epsilon=0.01)
        tr = run(_mw(0.005), sc, 101, seed=2)
        assert tr.scenario_info["phase1_rounds"] == 1
        tr = run(_mw(0.005), sc, 100, seed=2)
        assert tr.scenario_info["phase1_rounds"] == 0

    def test_qualifying_rule_and_world_a(self):
        # phase one shorter than the weight crossover: nothing qualifies
        sc = T2Scenario(b=0.25, epsilon=0.01)
        T = 101 * 500
        tr = run(_mw(0.005), sc, T, seed=4)
        info = tr.scenario_info
        assert info["qualifying_rounds"] == 0
        assert info["world"] == "a"
        # world a continues all-negative
        assert np.all(tr.outcome_codes[info["phase1_rounds"]:] == NEGATIVE_CODE)

    def test_world_b_after_crossover(self):
        # the single-table learner crosses gamma after ~913 all-negative
        # rounds at eta = 0.005; a 1200-round phase one is enough
        sc = T2Scenario(b=0.25, epsilon=0.01)
        T = 101 * 1200
        tr = run(_mw(0.005), sc, T, seed=4)
        info = tr.scenario_info
        assert info["world"] == "b"
        assert info["qualifying_rounds"] >= 0.5 * sc.C * 0.25 * T
        ph1 = info["phase1_rounds"]
        codes, groups = tr.outcome_codes[ph1:], tr.groups[ph1:]
        assert np.all(codes[groups == GROUP_B] == POSITIVE_CODE)
        assert np.all(codes[groups == GROUP_A] == NEGATIVE_CODE)
        # positive-labeled A rounds all sit in phase one
        pos_a = (tr.outcome_codes == POSITIVE_CODE) & (tr.groups == GROUP_A)
        assert pos_a.sum() == info["qualifying_rounds"]
        assert not pos_a[ph1:].any()

    def test_group_draw_uses_b(self):
        sc = T2Scenario(b=0.1, epsilon=0.01)
        tr = run(_mw(0.005), sc, 50000, seed=7)
        share_a = tr.accumulators.counts.sum(axis=1)[GROUP_A] / 50000
        assert abs(share_a - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / 50000)


class TestT3:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            T3Synthetic(rates=(0.1, 1.3))
        with pytest.raises(ConfigError):
            T3Synthetic(rates=())
        with pytest.raises(ConfigError):
            T3Synthetic(rates=(0.1,), schedule="sometimes")
        with pytest.raises(ConfigError):
            T3Synthetic(rates=(0.1,), kappa=-0.05)
        with pytest.raises(ConfigError):
            T3Synthetic(rates=(0.2,), groups=0)

    def test_block_schedule_group_layout(self):
        sc = T3Synthetic(rates=(0.2, 0.4), groups=2, schedule="blocks")
        tr = run(_mw(), sc, 10, seed=0)
        np.testing.assert_array_equal(tr.groups, [0] * 5 + [1] * 5)

    def test_alternating_schedule_group_layout(self):
        sc = T3Synthetic(rates=(0.2, 0.4), groups=2, schedule="alternating")
        tr = run(_mw(), sc, 6, seed=0)
        np.testing.assert_array_equal(tr.groups, [0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("schedule", ["blocks", "alternating"])
    def test_more_groups_than_int8_holds(self, schedule):
        sc = T3Synthetic(rates=(0.2, 0.6), groups=200, schedule=schedule)
        tr = run({"kind": "per_group_mw", "eta": 0.1}, sc, 1000, seed=0)
        np.testing.assert_array_equal(tr.accumulators.counts.sum(axis=1), np.full(200, 5))
        rates, _ = rate_table(tr, "eer")
        np.testing.assert_allclose(rates[:, 1:], np.tile([0.2, 0.6], (200, 1)))

    def test_rates_hit_targets_within_discretization(self):
        sc = T3Synthetic(rates=(0.1, 0.3, 0.5, 0.7), groups=2, schedule="blocks")
        tr = run({"kind": "per_group_mw", "eta": 0.05}, sc, 2000, seed=1)
        n_g = 1000
        for g in (0, 1):
            for f, rate in enumerate((0.1, 0.3, 0.5, 0.7)):
                measured = expert_group_metric(tr, f, g, "eer")
                assert abs(measured - rate) <= 1.0 / n_g + 1e-12

    def test_kappa_perturbation_bounded(self):
        kappa = 0.2
        sc = T3Synthetic(rates=(0.3, 0.6), groups=2, schedule="blocks", kappa=kappa)
        tr = run(_mw(), sc, 1000, seed=3)
        targets = np.asarray(tr.scenario_info["target_rates"])
        assert targets.shape == (2, 2)
        assert np.all(targets >= np.array([0.3, 0.6]) - 1e-12)
        assert np.all(targets <= np.array([0.3, 0.6]) + kappa + 1e-12)
        # audit gap stays within perturbation plus two-sided rounding
        n_min = 500
        audit = audit_fair_in_isolation(tr, 0, "eer", tolerance=kappa + 2.0 / n_min)
        assert audit.passed is True

    def test_unlabeled_rounds(self):
        tr = run(_mw(), T3Synthetic(rates=(0.5,), groups=2), 8, seed=0)
        assert np.all(tr.outcome_codes == -1)


class TestT4:
    def test_quarter_layout(self):
        tr = run(_mw(), T4Scenario(), 8, seed=0)
        np.testing.assert_array_equal(tr.groups, [0, 0, 1, 1, 0, 0, 1, 1])
        np.testing.assert_array_equal(tr.losses[0], [0.0, 1.0])
        np.testing.assert_array_equal(tr.losses[2], [1.0, 0.0])
        np.testing.assert_array_equal(tr.losses[4], [1.0, 0.0])
        np.testing.assert_array_equal(tr.losses[6], [0.0, 1.0])

    def test_leftover_rounds_extend_last_quarter(self):
        tr = run(_mw(), T4Scenario(), 10, seed=0)
        assert tr.scenario_info["quarter_rounds"] == [2, 2, 2, 4]
        np.testing.assert_array_equal(tr.groups[-4:], [1, 1, 1, 1])

    def test_experts_fair_in_isolation_for_eer(self):
        # each expert loses exactly one quarter per group
        tr = run(_mw(), T4Scenario(), 400, seed=0)
        for f in (0, 1):
            assert expert_group_metric(tr, f, 0, "eer") == pytest.approx(0.5)
            assert expert_group_metric(tr, f, 1, "eer") == pytest.approx(0.5)
            assert audit_fair_in_isolation(tr, f, "eer").gap == pytest.approx(0.0, abs=1e-15)


class TestT5:
    def test_phase_one_penalizes_the_leader(self):
        tr = run(_mw(0.2), T5Scenario(), 8, seed=0)
        half = 4
        assert np.all(tr.groups[:half] == GROUP_A)
        # the favored expert eats loss 1 every phase-one round
        for k in range(half):
            p, ell = tr.distributions[k], tr.losses[k]
            leader = 0 if p[0] >= p[1] else 1
            assert ell[leader] == 1.0 and ell[1 - leader] == 0.0

    def test_phase_lengths_and_rows(self):
        T = 12
        tr = run(_mw(0.2), T5Scenario(), T, seed=0)
        info = tr.scenario_info
        assert info["phase1_rounds"] == T // 2
        assert info["phase2_rounds"] + info["phase3_rounds"] == T // 2
        assert info["phase2_rounds"] == info["penalties"][0]
        ph1, ph2 = info["phase1_rounds"], info["phase2_rounds"]
        assert np.all(tr.groups[ph1:] == GROUP_B)
        np.testing.assert_array_equal(
            tr.losses[ph1:ph1 + ph2], np.tile([1.0, 0.0], (ph2, 1))
        )
        np.testing.assert_array_equal(
            tr.losses[ph1 + ph2:], np.tile([0.0, 1.0], (T - ph1 - ph2, 1))
        )

    def test_tie_goes_to_first_expert(self):
        tr = run(_mw(0.2), T5Scenario(), 2, seed=0)
        # round one is a tie at (1/2, 1/2); the first expert is penalized
        np.testing.assert_array_equal(tr.losses[0], [1.0, 0.0])

    def test_odd_horizon_leftover_goes_to_phase_three(self):
        tr = run(_mw(0.2), T5Scenario(), 9, seed=0)
        info = tr.scenario_info
        assert info["phase1_rounds"] == 4
        assert info["phase2_rounds"] + info["phase3_rounds"] == 5


class TestRandomIID:
    def test_group_probs_validation(self):
        with pytest.raises(ConfigError):
            RandomIID(group_probs=(0.5, 0.4))
        with pytest.raises(ConfigError):
            RandomIID(group_probs=(1.2, -0.2))
        RandomIID(group_probs=(0.3, 0.7))

    def test_dimensions_and_ranges(self):
        tr = run(_mw(), RandomIID(d=3, groups=2), 50, seed=8)
        assert tr.d == 3
        assert tr.losses.min() >= 0.0 and tr.losses.max() <= 1.0
        assert np.all(tr.outcome_codes == -1)

    def test_seeded_reproducibility(self):
        a = run(_mw(), RandomIID(), 64, seed=123)
        b = run(_mw(), RandomIID(), 64, seed=123)
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.groups, b.groups)
        c = run(_mw(), RandomIID(), 64, seed=124)
        assert not np.array_equal(a.losses, c.losses)

    @pytest.mark.parametrize("probs", [None, tuple([0.0] * 100 + [0.01] * 100)])
    def test_more_groups_than_int8_holds(self, probs):
        tr = run(_mw(), RandomIID(groups=200, group_probs=probs), 4000, seed=5)
        assert tr.num_groups == 200 and len(tr) == 4000
        assert tr.groups.max() > 127
        np.testing.assert_array_equal(tr.accumulators.counts.sum(axis=1),
                                      np.bincount(tr.groups, minlength=200))


class TestMakeScenario:
    def test_dispatch(self):
        assert make_scenario({"kind": "t1", "epsilon": 0.01}).kind == "t1"
        assert make_scenario({"kind": "t2", "b": 0.2, "epsilon": 0.01}).kind == "t2"
        assert make_scenario({"kind": "t3_synthetic", "rates": [0.1]}).kind == "t3_synthetic"
        assert make_scenario({"kind": "t4"}).kind == "t4"
        assert make_scenario({"kind": "t5"}).kind == "t5"
        assert make_scenario({"kind": "random_iid"}).kind == "random_iid"

    def test_errors(self):
        with pytest.raises(ConfigError):
            make_scenario({"kind": "t9"})
        with pytest.raises(ConfigError):
            make_scenario({"kind": "t1"})
        with pytest.raises(ConfigError):
            make_scenario({"kind": "t4", "extra": 1})
        with pytest.raises(ConfigError):
            make_scenario({"kind": "t1", "epsilon": 0.01, "mystery": 2})

    @pytest.mark.parametrize("cfg", [
        {"kind": "random_iid", "d": 2.5, "groups": 2},
        {"kind": "random_iid", "d": True, "groups": 2},
        {"kind": "random_iid", "d": 2, "groups": "2"},
        {"kind": "random_iid", "d": 2, "groups": 2, "group_probs": [0.5, "0.5"]},
        {"kind": "random_iid", "d": 2, "groups": 2, "group_probs": 1.0},
        {"kind": "t1", "epsilon": "0.01"},
        {"kind": "t1", "epsilon": 0.01, "bernoulli_experts": "no"},
        {"kind": "t2", "b": True, "epsilon": 0.01},
        {"kind": "t3_synthetic", "rates": ["0.2", "0.6"]},
        {"kind": "t3_synthetic", "rates": [0.2, False]},
        {"kind": "t3_synthetic", "rates": 0.2},
        {"kind": "t3_synthetic", "rates": [0.2, 0.6], "groups": 2.0},
        {"kind": "t3_synthetic", "rates": [0.2, 0.6], "kappa": "0"},
        {"kind": ["t1"]},
    ])
    def test_mistyped_values(self, cfg):
        with pytest.raises(ConfigError):
            make_scenario(cfg)

    @pytest.mark.parametrize("build", [
        lambda: T3Synthetic(rates=("0.2", "0.6")),
        lambda: T3Synthetic(rates="0.2"),
        lambda: T3Synthetic(rates=(0.2,), groups=2.0),
        lambda: T3Synthetic(rates=(0.2,), kappa="0"),
        lambda: RandomIID(group_probs=("0.5", "0.5")),
        lambda: RandomIID(group_probs=(True, False)),
        lambda: RandomIID(d=2.5),
        lambda: RandomIID(groups=True),
        lambda: T1Scenario(epsilon="0.01"),
        lambda: T1Scenario(epsilon=0.01, bernoulli_experts="no"),
        lambda: T2Scenario(b=0.25, epsilon="0.01"),
    ], ids=["rates-str", "rates-not-list", "groups-float", "kappa-str", "group_probs-str",
            "group_probs-bool", "d-float", "groups-bool", "epsilon-str", "bernoulli-str",
            "t2-epsilon-str"])
    def test_direct_construction_checks_types(self, build):
        # the dataclasses hold the one type check, so Python callers get it too
        with pytest.raises(ConfigError):
            build()

    def test_integer_rates_accepted(self):
        assert make_scenario({"kind": "t3_synthetic", "rates": [0, 1]}).rates == (0.0, 1.0)

    def test_config_echo_round_trips(self):
        # the literal echo of each kind, optional fields unset and set, in
        # key order; a field at its default stays unless it is None, False
        # or "", so t3's kappa 0.0 and groups 2 stay
        neg, pos = {"kind": "always_negative", "label": "h_neg"}, {"kind": "always_positive", "label": "h_pos"}
        err = {"kind": "unbiased", "beta": 0.3914213562373095, "label": "h_err"}
        for cfg, echo in (
            ({"kind": "t1", "epsilon": 0.02}, {"kind": "t1", "epsilon": 0.02, "experts": [neg, err]}),
            ({"kind": "t1", "epsilon": 0.02, "forced_world": "b", "bernoulli_experts": True},
             {"kind": "t1", "epsilon": 0.02, "forced_world": "b", "bernoulli_experts": True,
              "experts": [neg, {**err, "bernoulli": True}]}),
            ({"kind": "t2", "b": 0.3, "epsilon": 0.05},
             {"kind": "t2", "b": 0.3, "epsilon": 0.05, "experts": [neg, pos]}),
            ({"kind": "t2", "b": 0.3, "epsilon": 0.05, "forced_world": "a"},
             {"kind": "t2", "b": 0.3, "epsilon": 0.05, "forced_world": "a", "experts": [neg, pos]}),
            ({"kind": "t3_synthetic", "rates": [0.2, 0.8], "groups": 2},
             {"kind": "t3_synthetic", "rates": [0.2, 0.8], "groups": 2, "schedule": "blocks", "kappa": 0.0}),
            ({"kind": "t3_synthetic", "rates": [0.2, 0.8]},
             {"kind": "t3_synthetic", "rates": [0.2, 0.8], "groups": 2, "schedule": "blocks", "kappa": 0.0}),
            ({"kind": "t3_synthetic", "rates": [0, 1], "groups": 3, "schedule": "alternating", "kappa": 0.25},
             {"kind": "t3_synthetic", "rates": [0.0, 1.0], "groups": 3, "schedule": "alternating",
              "kappa": 0.25}),
            ({"kind": "random_iid"}, {"kind": "random_iid", "d": 2, "groups": 2}),
            ({"kind": "random_iid", "d": 3, "group_probs": [0.25, 0.75]},
             {"kind": "random_iid", "d": 3, "groups": 2, "group_probs": [0.25, 0.75]}),
            ({"kind": "t4"}, {"kind": "t4"}),
            ({"kind": "t5"}, {"kind": "t5"}),
        ):
            sc = make_scenario(cfg)
            assert list(sc.config().items()) == list(echo.items())
            again = make_scenario(sc.config())
            assert again == sc
