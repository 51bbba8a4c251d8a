import itertools

import numpy as np
import pytest

from fair_experts.experts import (
    AuditResult,
    ExpertModel,
    audit_fair_in_isolation,
    expert_group_metric,
    make_expert,
)
from fair_experts.types import (
    ConfigError,
    EmptySubpopulationError,
    HorizonMismatchError,
    Outcome,
    RoundRecord,
    Trace,
)


class TestPredict:
    def test_constant_kinds(self):
        neg = ExpertModel("always_negative")
        pos = ExpertModel("always_positive")
        fs = ExpertModel("fixed_score", score=0.4)
        assert neg.predict(1, 0, Outcome.POSITIVE) == 0.0
        assert pos.predict(9, 1, None) == 1.0
        assert fs.predict(2, 0, Outcome.NEGATIVE) == 0.4

    def test_unbiased_loss_is_beta_on_both_labels(self):
        ex = ExpertModel("unbiased", beta=0.35)
        # score beta on negatives, 1 - beta on positives: loss 0.35 either way
        assert ex.predict(1, 0, Outcome.NEGATIVE) == 0.35
        assert ex.predict(1, 0, Outcome.POSITIVE) == pytest.approx(0.65)
        with pytest.raises(ValueError):
            ex.predict(1, 0, None)

    def test_bernoulli_mode_draws(self):
        ex = ExpertModel("unbiased", beta=0.25, bernoulli=True)
        rng = np.random.default_rng(0)
        draws = [ex.predict(t, 0, Outcome.POSITIVE, rng) for t in range(1, 4001)]
        assert set(draws) <= {0.0, 1.0}
        # wrong with probability 0.25 on positives means score 0
        frac_wrong = 1.0 - float(np.mean(draws))
        assert abs(frac_wrong - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 4000)
        with pytest.raises(ValueError):
            ex.predict(1, 0, Outcome.POSITIVE)

    def test_scripted_horizon(self):
        ex = ExpertModel("scripted", table=(0.1, 0.9))
        assert ex.predict(2, 0, None) == 0.9
        with pytest.raises(HorizonMismatchError):
            ex.predict(3, 0, None)
        with pytest.raises(HorizonMismatchError):
            ex.scores(np.array([1, 2, 3]), np.zeros(3), np.zeros(3, dtype=np.int8))

    def test_vectorized_scores_match_scalar(self):
        ex = ExpertModel("unbiased", beta=0.2)
        t = np.arange(1, 7)
        groups = np.array([0, 1, 0, 1, 0, 1])
        codes = np.array([0, 1, 1, 0, 0, 1], dtype=np.int8)
        vec = ex.scores(t, groups, codes)
        scalar = [
            ex.predict(int(tt), int(g), Outcome(int(c)))
            for tt, g, c in zip(t, groups, codes)
        ]
        np.testing.assert_allclose(vec, scalar, atol=0)

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
            ex = make_expert(cfg)
            assert list(ex.to_config().items()) == list(echo.items())
            assert make_expert(ex.to_config()) == ex

    def test_label_must_be_a_string(self):
        with pytest.raises(ConfigError, match="label must be a string, got 5"):
            ExpertModel("always_negative", label=5)

    def test_bad_configs(self):
        with pytest.raises(ValueError):
            make_expert({"kind": "unbiased"})
        with pytest.raises(ValueError):
            make_expert({"kind": "nope"})
        with pytest.raises(ValueError):
            make_expert({"kind": "fixed_score", "score": 2.0})
        with pytest.raises(ValueError):
            ExpertModel("always_negative", bernoulli=True)

    @pytest.mark.parametrize("cfg", [
        {"kind": "nope"},
        {"beta": 0.3},
        {"kind": "unbiased", "beta": 0.3, "colour": "red"},
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
            make_expert(cfg)


def _hand_trace():
    """Eight rounds, two groups, two experts (always_negative, unbiased 0.25).

    Laid out so every (group, bin) cell is exercised, including an
    unlabeled round per group.
    """
    h_neg = ExpertModel("always_negative")
    h_err = ExpertModel("unbiased", beta=0.25)
    rows = [
        # (group, outcome)
        (0, Outcome.POSITIVE),
        (0, Outcome.NEGATIVE),
        (1, Outcome.POSITIVE),
        (1, Outcome.POSITIVE),
        (0, Outcome.POSITIVE),
        (1, Outcome.NEGATIVE),
        (0, None),
        (1, None),
    ]
    p = np.array([0.5, 0.5])
    records = []
    for k, (g, o) in enumerate(rows):
        if o is None:
            losses = np.array([0.5, 0.25])  # direct losses on unlabeled rounds
        else:
            losses = np.array(
                [0.0 if o is Outcome.NEGATIVE else 1.0, 0.25]
            )
        records.append(RoundRecord.compute(k + 1, g, o, p, losses))
    return Trace.from_records(records, num_groups=2), h_neg, h_err


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
        tr, _, _ = _hand_trace()
        # drop group 1's negative rounds by restricting to the first 5 records
        sub = Trace.from_records([tr.record(t) for t in range(1, 6)], num_groups=2)
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
        recs = [
            RoundRecord.compute(1, 0, Outcome.POSITIVE, np.array([1.0, 0.0]), np.array([1.0, 0.25])),
            RoundRecord.compute(2, 1, None, np.array([1.0, 0.0]), np.array([0.5, 0.5])),
        ]
        tr = Trace.from_records(recs, num_groups=2)
        audit = audit_fair_in_isolation(tr, 0, metric="fnr")
        assert audit.undefined_groups == (1,)
        assert audit.gap is None and audit.passed is None

    def test_all_groups_empty_raises(self):
        recs = [
            RoundRecord.compute(1, 0, None, np.array([1.0, 0.0]), np.array([0.5, 0.5])),
        ]
        tr = Trace.from_records(recs, num_groups=2)
        with pytest.raises(EmptySubpopulationError):
            audit_fair_in_isolation(tr, 0, metric="fnr")

    def test_tolerance_controls_pass(self):
        tr, _, _ = _hand_trace()
        eer = audit_fair_in_isolation(tr, 0, metric="eer", tolerance=0.0)
        loose = audit_fair_in_isolation(tr, 0, metric="eer", tolerance=1.0)
        assert loose.passed is True
        assert eer.gap <= 1.0



_ONE_OF_EACH = [ExpertModel("always_negative"), ExpertModel("always_positive"),
                ExpertModel("fixed_score", score=0.4), ExpertModel("unbiased", beta=0.3),
                ExpertModel("scripted", table=(0.1, 0.9, 0.35))]
_BERNOULLI = ExpertModel("unbiased", beta=0.3, bernoulli=True)


def _one_row(ex, t, group, outcome, rng=None):
    code = -1 if outcome is None else outcome.code
    return ex.scores(np.array([t]), np.array([group]), np.array([code], dtype=np.int8), rng)[0]


class TestPredictIsOneRowOfScores:
    @pytest.mark.parametrize("ex", _ONE_OF_EACH, ids=lambda ex: ex.kind)
    def test_values(self, ex):
        for t, g, o in itertools.product((1, 2, 3), (0, 1), [*Outcome, None]):
            if o is not None or ex.kind != "unbiased":
                got = ex.predict(t, g, o)
                assert type(got) is float and got == _one_row(ex, t, g, o)

    def test_bernoulli_draws(self):
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        for t in range(1, 301):
            assert _BERNOULLI.predict(t, 0, Outcome(t % 2), a) == _one_row(_BERNOULLI, t, 0, Outcome(t % 2), b)

    @pytest.mark.parametrize("ex,t,outcome,error", [
        (_ONE_OF_EACH[3], 1, None, ValueError),
        (_ONE_OF_EACH[4], 0, Outcome.NEGATIVE, HorizonMismatchError),
        (_ONE_OF_EACH[4], 4, None, HorizonMismatchError),
        (_BERNOULLI, 1, Outcome.NEGATIVE, ValueError),  # no rng
    ])
    def test_error_classes(self, ex, t, outcome, error):
        with pytest.raises(error):
            ex.predict(t, 0, outcome)
        with pytest.raises(error):
            _one_row(ex, t, 0, outcome)


@pytest.mark.parametrize("fields", [
    {"score": True}, {"score": "0.4"}, {"beta": "0.3"}, {"beta": False},
    {"kind": "scripted", "table": (True, 0.5)}, {"kind": "scripted", "table": (0.5, "0.5")},
    {"kind": "scripted", "table": "0.5"}, {"bernoulli": "yes"}, {"bernoulli": 1},
])
def test_expert_values_are_type_checked(fields):
    fields = {"kind": "unbiased", "beta": 0.3, **fields}
    with pytest.raises(ConfigError):
        ExpertModel(**fields)
    with pytest.raises(ConfigError):
        make_expert(fields)


def test_integer_expert_values_are_numbers():
    assert make_expert({"kind": "scripted", "table": [0, 1]}).table == (0.0, 1.0)
    assert ExpertModel("fixed_score", score=1).predict(1, 0, None) == 1.0
