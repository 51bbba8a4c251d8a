import numpy as np
import pytest

from fair_experts.experts import (
    AuditResult,
    ExpertModel,
    audit_fair_in_isolation,
    expert_group_metric,
)
from fair_experts.types import (
    ConfigError,
    EmptySubpopulationError,
    HorizonMismatchError,
)
from oracles import NEG, POS, UNL, hand_trace


def _one_row(ex, t, group, code, rng=None):
    return ex.scores(np.array([t]), np.array([group]), np.array([code], dtype=np.int8), rng)[0]


_ONE_OF_EACH = [ExpertModel("always_negative"), ExpertModel("always_positive"),
                ExpertModel("fixed_score", score=0.4), ExpertModel("unbiased", beta=0.3),
                ExpertModel("scripted", table=(0.1, 0.9, 0.35))]
_BERNOULLI = ExpertModel("unbiased", beta=0.3, bernoulli=True)


class TestScores:
    def test_constant_kinds(self):
        neg = ExpertModel("always_negative")
        pos = ExpertModel("always_positive")
        fs = ExpertModel("fixed_score", score=0.4)
        assert _one_row(neg, 1, 0, POS) == 0.0
        assert _one_row(pos, 9, 1, UNL) == 1.0
        assert _one_row(fs, 2, 0, NEG) == 0.4

    def test_unbiased_loss_is_beta_on_both_labels(self):
        ex = ExpertModel("unbiased", beta=0.35)
        # score beta on negatives, 1 - beta on positives: loss 0.35 either way
        assert _one_row(ex, 1, 0, NEG) == 0.35
        assert _one_row(ex, 1, 0, POS) == pytest.approx(0.65)
        with pytest.raises(ValueError):
            _one_row(ex, 1, 0, UNL)

    def test_bernoulli_mode_draws(self):
        ex = ExpertModel("unbiased", beta=0.25, bernoulli=True)
        rng = np.random.default_rng(0)
        draws = ex.scores(np.arange(1, 4001), np.zeros(4000, dtype=int), np.full(4000, POS), rng)
        assert set(draws.tolist()) <= {0.0, 1.0}
        # wrong with probability 0.25 on positives means score 0
        frac_wrong = 1.0 - float(np.mean(draws))
        assert abs(frac_wrong - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 4000)
        with pytest.raises(ValueError):
            _one_row(ex, 1, 0, POS)

    def test_scripted_horizon(self):
        ex = ExpertModel("scripted", table=(0.1, 0.9))
        assert _one_row(ex, 2, 0, UNL) == 0.9
        with pytest.raises(HorizonMismatchError):
            _one_row(ex, 3, 0, UNL)
        with pytest.raises(HorizonMismatchError):
            ex.scores(np.array([1, 2, 3]), np.zeros(3), np.zeros(3, dtype=np.int8))

    def test_block_matches_one_row_calls(self):
        ex = ExpertModel("unbiased", beta=0.2)
        t = np.arange(1, 7)
        groups = np.array([0, 1, 0, 1, 0, 1])
        codes = np.array([0, 1, 1, 0, 0, 1], dtype=np.int8)
        vec = ex.scores(t, groups, codes)
        one_row = [_one_row(ex, tt, g, c) for tt, g, c in zip(t, groups, codes)]
        np.testing.assert_allclose(vec, one_row, atol=0)

    @pytest.mark.parametrize("ex,t,code,error", [
        (_ONE_OF_EACH[3], 1, UNL, ValueError),
        (_ONE_OF_EACH[4], 0, NEG, HorizonMismatchError),
        (_ONE_OF_EACH[4], 4, UNL, HorizonMismatchError),
        (_BERNOULLI, 1, NEG, ValueError),  # no rng
    ])
    def test_one_row_error_classes(self, ex, t, code, error):
        with pytest.raises(error):
            _one_row(ex, t, 0, code)

    def test_config_round_trip(self):
        # echo None, False and "" fields are left out; a 0 or 0.0 stays
        for cfg, echo in (
            ({"kind": "always_negative"}, {"kind": "always_negative"}),
            ({"kind": "unbiased", "beta": 0.3}, {"kind": "unbiased", "beta": 0.3}),
            ({"kind": "scripted", "table": [0.0, 1.0], "label": "flip"},
             {"kind": "scripted", "table": [0.0, 1.0], "label": "flip"}),
            ({"kind": "scripted", "table": [0, 1]}, {"kind": "scripted", "table": [0.0, 1.0]}),
            ({"kind": "fixed_score", "score": 0.0}, {"kind": "fixed_score", "score": 0.0}),
            ({"kind": "unbiased", "beta": 0}, {"kind": "unbiased", "beta": 0}),
            ({"kind": "unbiased", "beta": 0.3, "bernoulli": True, "label": "coin"},
             {"kind": "unbiased", "beta": 0.3, "bernoulli": True, "label": "coin"}),
            ({"kind": "always_positive", "label": "", "bernoulli": False}, {"kind": "always_positive"}),
        ):
            ex = ExpertModel(**cfg)
            assert list(ex.to_config().items()) == list(echo.items())
            assert ExpertModel(**ex.to_config()) == ex

    def test_label_must_be_a_string(self):
        with pytest.raises(ConfigError, match="label must be a string, got 5"):
            ExpertModel("always_negative", label=5)

    def test_bad_configs(self):
        with pytest.raises(ValueError):
            ExpertModel(kind="unbiased")
        with pytest.raises(ValueError):
            ExpertModel(kind="nope")
        with pytest.raises(ValueError):
            ExpertModel(kind="fixed_score", score=2.0)
        with pytest.raises(ValueError):
            ExpertModel("always_negative", bernoulli=True)

    @pytest.mark.parametrize("cfg", [
        {"kind": "nope"},
        {"kind": "unbiased"},
        {"kind": "unbiased", "beta": 1.5},
        {"kind": "fixed_score", "score": 2.0},
        {"kind": "fixed_score", "score": -0.1},
        {"kind": "scripted", "table": []},
        {"kind": "scripted", "table": [0.5, 1.2]},
        {"kind": "always_negative", "bernoulli": True},
        {"kind": "always_negative", "label": 5},
        {"kind": "unbiased", "beta": 0.3, "label": None},
    ])
    def test_bad_configs_raise_config_error(self, cfg):
        with pytest.raises(ConfigError):
            ExpertModel(**cfg)

    @pytest.mark.parametrize("cfg", [{}, {"beta": 0.2}, {"kind": "always_negative", "colour": "red"}])
    def test_missing_or_unknown_fields_raise_type_error(self, cfg):
        # the dataclass constructor's own error, as the README says
        with pytest.raises(TypeError):
            ExpertModel(**cfg)

    @pytest.mark.parametrize("code", ["+", 0.5, 2, 7])
    @pytest.mark.parametrize("ex,method", [
        (ExpertModel("fixed_score", score=0.3), "losses"),
        (ExpertModel("unbiased", beta=0.2), "losses"),
        (ExpertModel("unbiased", beta=0.2), "scores"),
    ])
    def test_refuse_a_code_that_is_not_an_outcome(self, ex, method, code):
        # each was scored as a negative: loss 0.3, and 0.2 for the unbiased kind
        with pytest.raises(ValueError, match="outcome code"):
            getattr(ex, method)(np.array([1, 2]), np.array([0, 1]), np.array([1, code]))


# (group, outcome code) of eight rounds laid out so every (group, bin) cell
# is exercised, including an unlabeled round per group
_HAND_ROUNDS = [(0, POS), (0, NEG), (1, POS), (1, POS), (0, POS), (1, NEG), (0, UNL), (1, UNL)]


def _hand_trace(rounds=8):
    """The first ``rounds`` of _HAND_ROUNDS, two groups, two experts
    (always_negative, unbiased 0.25)."""
    h_neg = ExpertModel("always_negative")
    h_err = ExpertModel("unbiased", beta=0.25)
    rows = []
    for g, code in _HAND_ROUNDS[:rounds]:
        if code == UNL:
            losses = (0.5, 0.25)  # direct losses on unlabeled rounds
        else:
            losses = (0.0 if code == NEG else 1.0, 0.25)
        rows.append((g, code, (0.5, 0.5), losses))
    return hand_trace(rows, num_groups=2), h_neg, h_err


class TestExpertGroupMetric:
    def test_recount_against_hand_trace(self):
        tr, _, _ = _hand_trace()
        # expert 0 (always_negative): loss 1 on positives, 0 on negatives
        assert expert_group_metric(tr, 0, 0, "fnr") == pytest.approx(1.0)
        assert expert_group_metric(tr, 0, 0, "fpr") == pytest.approx(0.0)
        assert expert_group_metric(tr, 0, 1, "fnr") == pytest.approx(1.0)
        # group 0 eer: rounds (1,0,1,0.5)/4
        assert expert_group_metric(tr, 0, 0, "eer") == pytest.approx(2.5 / 4)
        # expert 1 (unbiased): 0.25 everywhere
        for g in (0, 1):
            for metric in ("fnr", "fpr", "eer"):
                assert expert_group_metric(tr, 1, g, metric) == pytest.approx(0.25)

    def test_undefined_subpopulation(self):
        # drop group 1's negative rounds by restricting to the first 5 rounds
        sub, _, _ = _hand_trace(5)
        assert expert_group_metric(sub, 0, 1, "fpr") is None


class TestAudit:
    def test_unbiased_expert_is_fair_in_isolation(self):
        tr, _, _ = _hand_trace()
        for metric in ("fnr", "fpr", "eer"):
            audit = audit_fair_in_isolation(tr, 1, metric=metric, tolerance=1e-12)
            assert isinstance(audit, AuditResult)
            assert audit.gap == pytest.approx(0.0, abs=1e-12)
            assert audit.passed is True
            assert audit.undefined_groups == ()

    def test_always_negative_fnr_gap_zero(self):
        tr, _, _ = _hand_trace()
        audit = audit_fair_in_isolation(tr, 0, metric="fnr")
        assert audit.gap == 0.0 and audit.passed is True
        # both groups see the same label mix here, so eer agrees too: 2.5/4 each
        eer = audit_fair_in_isolation(tr, 0, metric="eer")
        assert eer.per_group[0] == pytest.approx(0.625)
        assert eer.per_group[1] == pytest.approx(0.625)
        assert eer.gap == pytest.approx(0.0, abs=1e-15)

    def test_single_defined_group_reports_undefined(self):
        tr = hand_trace([(0, POS, (1.0, 0.0), (1.0, 0.25)), (1, UNL, (1.0, 0.0), (0.5, 0.5))],
                        num_groups=2)
        audit = audit_fair_in_isolation(tr, 0, metric="fnr")
        assert audit.undefined_groups == (1,)
        assert audit.gap is None and audit.passed is None

    def test_all_groups_empty_raises(self):
        tr = hand_trace([(0, UNL, (1.0, 0.0), (0.5, 0.5))], num_groups=2)
        with pytest.raises(EmptySubpopulationError):
            audit_fair_in_isolation(tr, 0, metric="fnr")

    def test_tolerance_controls_pass(self):
        tr, _, _ = _hand_trace()
        eer = audit_fair_in_isolation(tr, 0, metric="eer", tolerance=0.0)
        loose = audit_fair_in_isolation(tr, 0, metric="eer", tolerance=1.0)
        assert loose.passed is True
        assert eer.gap <= 1.0


@pytest.mark.parametrize("fields", [
    {"score": True}, {"score": "0.4"}, {"beta": "0.3"}, {"beta": False},
    {"kind": "scripted", "table": (True, 0.5)}, {"kind": "scripted", "table": (0.5, "0.5")},
    {"kind": "scripted", "table": "0.5"}, {"bernoulli": "yes"}, {"bernoulli": 1},
])
def test_expert_values_are_type_checked(fields):
    fields = {"kind": "unbiased", "beta": 0.3, **fields}
    with pytest.raises(ConfigError):
        ExpertModel(**fields)


def test_integer_expert_values_are_numbers():
    assert ExpertModel("scripted", table=[0, 1]).table == (0.0, 1.0)
    assert _one_row(ExpertModel("fixed_score", score=1), 1, 0, UNL) == 1.0
