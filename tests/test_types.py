import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fair_experts import (ExpertModel, RandomIID, SingleMW, approx_regret, best_shifting_comparator,
                          expert_group_metric, group_metric, run, types)
from fair_experts.protocol import ObliviousBlock, _execute_block
from fair_experts.types import (
    Accumulators,
    ConfigError,
    ContractError,
    InsufficientGroupsError,
    InvariantViolation,
    Trace,
    TraceBuilder,
    expected_losses,
    group_label,
    losses_from_scores,
    max_pairwise_gap,
    validate_distribution_block,
)
from oracles import NEG, POS, TOY_ROWS, UNL, hand_trace


class TestLoss:
    def test_hand_values(self):
        # score 0 = confident negative: wrong only on positives
        assert losses_from_scores([0.0], [POS]).tolist() == [1.0]
        assert losses_from_scores([0.0], [NEG]).tolist() == [0.0]
        assert losses_from_scores([1.0], [POS]).tolist() == [0.0]
        assert losses_from_scores([0.3], [NEG]).tolist() == [0.3]
        assert losses_from_scores([0.3], [POS])[0] == pytest.approx(0.7, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_complement_identity(self, score):
        # loss on a label plus loss on the flipped label is exactly 1
        for code in (NEG, POS):
            total = losses_from_scores([score], [code])[0] + losses_from_scores([score], [1 - code])[0]
            assert math.isclose(total, 1.0, abs_tol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            losses_from_scores([1.5], [POS])
        with pytest.raises(ValueError):
            losses_from_scores([-0.1], [NEG])

    def test_vectorized_matches_scalar(self):
        scores = np.array([0.0, 1.0, 0.25, 0.8])
        codes = np.array([1, 1, 0, 1], dtype=np.int8)
        out = losses_from_scores(scores, codes)
        expect = [1.0, 0.0, 0.25, 1 - 0.8]
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_vectorized_rejects_unlabeled(self):
        with pytest.raises(ValueError):
            losses_from_scores(np.array([0.5]), np.array([-1], dtype=np.int8))


def _accepts(fn, *args, error):
    try:
        fn(*args)
    except error:
        return False
    return True


class TestOneRowIsARowOfTheBlock:
    def test_losses_from_scores(self):
        rng = np.random.default_rng(4)
        scores = np.concatenate([[0.0, 1.0, 0.5, 5e-324], rng.random(300)])
        codes = rng.integers(0, 2, scores.size)
        block = losses_from_scores(scores, codes)
        for k, (s, c) in enumerate(zip(scores.tolist(), codes.tolist())):
            got = losses_from_scores([s], [c])
            assert got.shape == (1,) and got[0] == block[k]

    @pytest.mark.parametrize("p,ok", [
        ([0.25, 0.75], True), ([1.0, 0.0], True), ([-0.0, 1.0], True), ([1 / 3] * 3, True),
        ([0.0, 0.0, 1.0], True), ([1.0], True),
        ([0.5, 0.5 + 0.9e-9], True), ([0.5, 0.5 - 0.9e-9], True),
        ([0.5, 0.5 + 1.1e-9], False), ([0.5, 0.5 - 1.1e-9], False),
        ([0.7, 0.7], False), ([-0.1, 1.1], False), ([-1e-300, 1.0], False), ([np.nan, 1.0], False),
        ([np.inf, 0.0], False), ([-np.inf, np.inf], False),
    ])
    def test_validate_distribution_block(self, p, ok):
        # one row alone gets the verdict it gets as row 3 of a block of good rows
        p = np.array(p)
        assert _accepts(validate_distribution_block, p[None], p.size, error=InvariantViolation) == ok
        block = np.full((6, p.size), 1.0 / p.size)
        block[3] = p
        if ok:
            validate_distribution_block(block, p.size)
        else:
            with pytest.raises(InvariantViolation, match="distribution row 3 is off the simplex"):
                validate_distribution_block(block, p.size)


class TestScoresThatAreNotNumbers:
    @pytest.mark.parametrize("scores", [[np.nan], [0.5, np.nan]])
    def test_losses_from_scores_rejects_nan(self, scores):
        with pytest.raises(ValueError):
            losses_from_scores(np.array(scores), np.zeros(len(scores), dtype=np.int8))

    @pytest.mark.parametrize("score", ["0.5", None])
    def test_losses_from_scores_refuses_a_score_that_is_not_a_number(self, score):
        with pytest.raises(ConfigError, match="scores must be numbers"):
            losses_from_scores([score], [NEG])

    @pytest.mark.parametrize("code", ["+", "-", 0.5, 1.0, None, 2, 7, -2, 256])
    def test_losses_from_scores_refuses_a_code_that_is_not_an_outcome(self, code):
        # a token, a float or an out-of-range code was scored as a negative
        with pytest.raises(ValueError, match="outcome code"):
            losses_from_scores([0.5], [code])

    def test_losses_from_scores_refuses_codes_of_another_length(self):
        # the two columns broadcast: one code scored a whole block of scores
        with pytest.raises(ValueError, match="expected \\(3,\\) integers"):
            losses_from_scores([0.2, 0.5, 0.9], [POS])

    @pytest.mark.parametrize("code,expected", [(UNL, np.nan), ("+", 0.5), ("-", 0.5)])
    def test_one_row_block(self, code, expected):
        # a NaN expected loss, or a token where an outcome code belongs
        builder = TraceBuilder(2, 1)
        with pytest.raises(InvariantViolation):
            builder.append_block(np.array([0]), np.array([code]), np.array([[0.0, 1.0]]),
                                 np.array([[0.5, 0.5]]), np.array([expected]))
        assert len(builder.build()) == 0


_UNBIASED = ExpertModel("unbiased", beta=0.2)

# Every argument check of the scoring rules and the metrics, each a caller's
# fault that raised Python's bare ValueError or TypeError
_CALLER_FAULTS = {
    "score-not-a-number": (lambda tr: losses_from_scores(["0.5"], [NEG]), "scores must be numbers"),
    "score-code": (lambda tr: losses_from_scores([0.5], [2]), "outcome code 2 at round 0"),
    "score-unlabeled": (lambda tr: losses_from_scores([0.5], [UNL]), "unlabeled rounds"),
    "score-range": (lambda tr: losses_from_scores([1.5], [NEG]), r"lie in \[0, 1\]"),
    "expert-code": (lambda tr: _UNBIASED.scores([1], [0], [7]), "outcome code 7 at round 0"),
    "expert-unlabeled": (lambda tr: _UNBIASED.losses([1], [0], [UNL]), "needs labeled rounds"),
    "expert-rng": (lambda tr: ExpertModel("unbiased", beta=0.2, bernoulli=True).scores([1], [0], [POS]),
                   "needs an rng"),
    "expert-column": (lambda tr: expert_group_metric(tr, 2, 0, "eer"), "expert index 2 outside 0..1"),
    "rate-group": (lambda tr: group_metric(tr, 2, "eer"), "group 2 outside 0..1"),
    "approx-regret-expert": (lambda tr: approx_regret(tr, 0.1, expert=5), "expert index 5"),
    "comparator-group": (lambda tr: best_shifting_comparator(tr, 1, group=5), "group 5 outside"),
    # indices that are not integers, which raised KeyError or numpy's
    # IndexError, or were taken as 1 (True)
    "rate-group-float": (lambda tr: group_metric(tr, 1.5, "eer"), "group must be an integer, got 1.5"),
    "rate-group-bool": (lambda tr: group_metric(tr, True, "eer"), "group must be an integer, got True"),
    "expert-column-float": (lambda tr: expert_group_metric(tr, 0.5, 0, "eer"),
                            "expert must be an integer, got 0.5"),
    "approx-regret-expert-float": (lambda tr: approx_regret(tr, 0.1, expert=0.5),
                                   "expert must be an integer, got 0.5"),
    "comparator-group-bool": (lambda tr: best_shifting_comparator(tr, 1, group=True),
                              "group must be an integer, got True"),
    "comparator-group-of-a-matrix": (lambda tr: best_shifting_comparator(np.zeros((2, 2)), 1, group=0),
                                     "traces only"),
    "comparator-finite": (lambda tr: best_shifting_comparator(np.array([[np.inf, 0.0]]), 1), "finite"),
    "comparator-shape": (lambda tr: best_shifting_comparator(np.zeros(3), 1), r"got shape \(3,\)"),
}


@pytest.mark.parametrize("case", list(_CALLER_FAULTS))
def test_caller_faults_raise_config_error(case):
    # ConfigError is a ValueError too, so callers that caught one still do
    call, match = _CALLER_FAULTS[case]
    with pytest.raises(ConfigError, match=match) as exc:
        call(hand_trace(TOY_ROWS))
    assert isinstance(exc.value, ValueError)


def test_numpy_integer_indices_are_taken():
    tr = hand_trace(TOY_ROWS)
    one = np.int64(1)
    assert group_metric(tr, one, "eer") == group_metric(tr, 1, "eer")
    assert expert_group_metric(tr, one, one, "eer") == expert_group_metric(tr, 1, 1, "eer")
    assert approx_regret(tr, 0.1, expert=one) == approx_regret(tr, 0.1, expert=1)
    a, b = best_shifting_comparator(tr, 1, group=one), best_shifting_comparator(tr, 1, group=1)
    assert np.array_equal(a.experts, b.experts) and (a.loss, a.switches) == (b.loss, b.switches)


class TestDistributionValidator:
    def test_accepts_simplex(self):
        validate_distribution_block(np.array([[0.25, 0.75]]), 2)
        validate_distribution_block(np.full((1, 7), 1 / 7), 7)

    def test_rejects_bad_vectors(self):
        with pytest.raises(InvariantViolation):
            validate_distribution_block(np.array([[0.7, 0.7]]), 2)
        with pytest.raises(InvariantViolation):
            validate_distribution_block(np.array([[-0.1, 1.1]]), 2)
        with pytest.raises(InvariantViolation):
            validate_distribution_block(np.array([[0.5, 0.5]]), 3)
        with pytest.raises(InvariantViolation):
            validate_distribution_block(np.array([[np.nan, 1.0]]), 2)

    def test_tolerance_boundary(self):
        validate_distribution_block(np.array([[0.5, 0.5 + 0.9e-9]]), 2)
        with pytest.raises(InvariantViolation):
            validate_distribution_block(np.array([[0.5, 0.5 + 1.1e-9]]), 2)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_row_sums_are_numpys(self, d):
        # the column adds give p.sum(axis=1)'s bits, -0.0 rows included, so
        # the simplex verdict is numpy's; rows lie around 1 +- SIMPLEX_ATOL
        rng = np.random.default_rng(d)
        p = rng.random((4000, d))
        p /= p.sum(axis=1, keepdims=True)
        p *= 1.0 + rng.uniform(-2.0, 2.0, (4000, 1)) * types.SIMPLEX_ATOL
        special = rng.random(p.shape) < 0.2
        p[special] = rng.choice([0.0, -0.0, 1.0, 5e-324], int(special.sum()))
        sums = types._row_sums(p)
        assert sums.tobytes() == p.sum(axis=1).tobytes()
        off = ~((p.min(axis=1) >= 0.0) & (np.abs(p.sum(axis=1) - 1.0) <= types.SIMPLEX_ATOL))
        assert off.any() and not off.all()
        assert np.array_equal(types._off_simplex(p), off)
        assert types._first_off_simplex(p) == int(np.argmax(off))
        assert types._first_off_simplex(p[~off]) is None

    def test_block_variant_raises_invariant_violation(self):
        good = np.array([[0.5, 0.5], [1.0, 0.0]])
        validate_distribution_block(good, 2)
        with pytest.raises(InvariantViolation):
            validate_distribution_block(np.array([[0.6, 0.6]]), 2)


class TestMaxPairwiseGap:
    def test_two_groups(self):
        gap, pair = max_pairwise_gap({0: 0.625, 1: 0.25})
        assert gap == 0.375
        assert pair == (0, 1)

    def test_three_groups_skips_none(self):
        gap, pair = max_pairwise_gap({0: 0.5, 1: 0.2, 2: None, 3: 0.45})
        assert gap == pytest.approx(0.3)
        assert pair == (0, 1)

    def test_all_equal_reports_first_pair(self):
        gap, pair = max_pairwise_gap({2: 0.4, 5: 0.4, 9: 0.4})
        assert gap == 0.0
        assert pair == (2, 5)

    def test_insufficient_groups(self):
        with pytest.raises(InsufficientGroupsError):
            max_pairwise_gap({0: 0.3, 1: None})


def test_group_labels():
    assert [group_label(g) for g in (0, 1, 2)] == ["A", "B", "C"]
    assert group_label(30) == "g30"


def _one_row(builder, group=0, code=POS, p=(0.25, 0.75), losses=(1.0, 0.5), expected=None):
    p, losses = np.array([p]), np.array([losses])
    builder.append_block(np.array([group]), np.array([code]), losses, p,
                         expected_losses(p, losses) if expected is None else np.array([expected]))


class TestOneRowBlock:
    @pytest.mark.parametrize("d", range(2, 17))
    def test_one_row_gives_the_protocols_bits(self, d):
        # one p . losses rule: a row's expected loss taken alone is the one
        # the protocol wrote for that row, bit for bit
        tr = run(SingleMW(0.1), RandomIID(d=d), 300, seed=d)
        got = [expected_losses(p[None], ell[None])[0] for p, ell in zip(tr.distributions, tr.losses)]
        assert np.array_equal(got, tr.expected_loss)

    def test_rejects_mismatched_expected_loss(self):
        builder = TraceBuilder(2, 1)
        with pytest.raises(InvariantViolation, match="expected loss 0.500000002 at row 0"):
            _one_row(builder, code=NEG, p=(0.5, 0.5), losses=(0.0, 1.0), expected=0.5 + 2e-9)
        _one_row(builder, code=NEG, p=(0.5, 0.5), losses=(0.0, 1.0), expected=0.5 + 0.9e-9)
        assert len(builder.build()) == 1

    def test_checks_each_value_once(self, monkeypatch):
        # the simplex and [0, 1] rules run once; on a valid row the
        # whole-block reductions are the only calls made
        calls = []
        for name in ("_off_simplex", "_first_off_simplex", "_off_unit", "_first_off_unit"):
            def spy(*args, _name=name, _fn=getattr(types, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(types, name, spy)
        _one_row(TraceBuilder(2, 1))
        assert sorted(calls) == ["_first_off_simplex", "_first_off_unit"]

    def test_rejects_invalid_fields(self):
        builder = TraceBuilder(2, 1)
        with pytest.raises(InvariantViolation, match="group ids"):
            _one_row(builder, group=-1, code=UNL, p=(0.5, 0.5), losses=(0.0, 1.0))
        with pytest.raises(InvariantViolation, match="outside \\[0, 1\\]"):
            _one_row(builder, code=UNL, p=(0.5, 0.5), losses=(0.0, 1.5))
        assert len(builder.build()) == 0

    def test_json_round_trip_keeps_unlabeled(self, tmp_path):
        tr = hand_trace([(1, UNL, (1.0, 0.0), (0.5, 0.25))])
        path = tmp_path / "one.jsonl"
        tr.to_jsonl(path)
        back = Trace.from_jsonl(path)
        assert back.outcome_codes.tolist() == [UNL] and back.groups.tolist() == [1]
        np.testing.assert_array_equal(back.distributions, tr.distributions)


class TestTrace:
    def test_builder_accumulates(self):
        tr = hand_trace(TOY_ROWS)
        assert len(tr) == 4 and tr.d == 2 and tr.num_groups == 2
        # group 0: one negative + one unlabeled; group 1: two positives
        np.testing.assert_array_equal(tr.accumulators.counts[0], [1, 0, 1])
        np.testing.assert_array_equal(tr.accumulators.counts[1], [0, 2, 0])
        assert tr.accumulators.learner_loss[1, 1] == pytest.approx(0.5 + 0.75)
        np.testing.assert_array_equal(tr.accumulators.counts.sum(axis=1), [2, 2])

    def test_jsonl_round_trip(self, tmp_path):
        tr = hand_trace(TOY_ROWS)
        path = tmp_path / "trace.jsonl"
        tr.to_jsonl(path)
        back = Trace.from_jsonl(path, num_groups=tr.num_groups)
        assert len(back) == len(tr)
        np.testing.assert_array_equal(back.groups, tr.groups)
        np.testing.assert_array_equal(back.outcome_codes, tr.outcome_codes)
        np.testing.assert_allclose(back.distributions, tr.distributions, atol=0)
        np.testing.assert_allclose(back.expected_loss, tr.expected_loss, atol=0)

    def test_metadata_passes_through_the_builder(self, tmp_path):
        meta = {"rng_seed": 5, "scenario_id": "s", "learner_id": "l", "scenario_info": {"world": "b"}}
        tr = hand_trace(TOY_ROWS, num_groups=3, **meta)
        path = tmp_path / "trace.jsonl"
        tr.to_jsonl(path)
        for got in (tr, Trace.from_jsonl(path, num_groups=3, **meta)):
            assert (got.rng_seed, got.scenario_id, got.learner_id, got.scenario_info, got.num_groups) == (
                5, "s", "l", {"world": "b"}, 3)
        bare = Trace.from_jsonl(path)
        assert (bare.rng_seed, bare.scenario_id, bare.learner_id, bare.scenario_info, bare.num_groups) == (
            None, "", "", {}, 2)

    def test_csv_export_shape(self, tmp_path):
        tr = hand_trace(TOY_ROWS)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,group,outcome,expected_loss,p_0,p_1,loss_0,loss_1"
        assert len(lines) == 1 + len(tr)
        # unlabeled round has an empty outcome cell
        assert lines[3].split(",")[2] == ""

    def test_summary_mode_refuses_trace_files(self, tmp_path):
        tr = hand_trace(TOY_ROWS, retain="summary", rng_seed=0, scenario_id="s", learner_id="l")
        assert not tr.is_full
        assert len(tr) == 4
        np.testing.assert_array_equal(tr.accumulators.counts.sum(axis=0), [1, 2, 1])
        for kwargs in ({}, {"jsonl": tmp_path / "t.jsonl"}, {"csv": tmp_path / "t.csv"}):
            with pytest.raises(ContractError, match="trace file export needs per-round"):
                tr.to_files(**kwargs)
        with pytest.raises(ContractError):
            tr.to_jsonl(tmp_path / "t.jsonl")
        assert list(tmp_path.iterdir()) == []


def _refused_and_unchanged(retain, p, expected, match):
    """Append a good two-row block, then a second whose plays are ``p`` and
    expected-loss column ``expected``, which must raise InvariantViolation
    matching ``match`` and leave the builder's trace and accumulators as the
    first block left them; a good block is then still taken."""
    builder = TraceBuilder(2, 2, retain=retain)
    losses = np.array([[0.0, 1.0], [1.0, 0.0]])
    builder.append_block(np.array([0, 1]), np.array([0, 1]), losses, np.full((2, 2), 0.5))
    before = builder.build()
    acc = [a.copy() for a in (before.accumulators.counts, before.accumulators.learner_loss,
                              before.accumulators.expert_loss)]
    with pytest.raises(InvariantViolation, match=match):
        builder.append_block(np.array([1, 0]), np.array([1, -1]), losses, p, expected)
    after = builder.build()
    assert len(after) == 2
    for got, want in zip((after.accumulators.counts, after.accumulators.learner_loss,
                          after.accumulators.expert_loss), acc):
        assert np.array_equal(got, want)
    for name in ("groups", "outcome_codes", "expected_loss", "distributions", "losses"):
        assert np.array_equal(getattr(after, name), getattr(before, name)), name
    builder.append_block(np.array([1, 0]), np.array([1, -1]), losses, np.full((2, 2), 0.5),
                         np.full(2, 0.5 + 0.9e-9))
    assert len(builder.build()) == 4


class TestTraceBuilder:
    def test_rejects_bad_blocks(self):
        builder = TraceBuilder(2, 2)
        groups = np.array([0])
        codes = np.array([0], dtype=np.int8)
        ok_p = np.array([[0.5, 0.5]])
        with pytest.raises(InvariantViolation):
            builder.append_block(groups, codes, np.array([[0.0, 1.2]]), ok_p, np.array([0.6]))
        with pytest.raises(InvariantViolation):
            builder.append_block(groups, codes, np.array([[0.0, 1.0]]), np.array([[0.7, 0.7]]), np.array([0.7]))
        with pytest.raises(InvariantViolation):
            builder.append_block(np.array([5]), codes, np.array([[0.0, 1.0]]), ok_p, np.array([0.5]))

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
    def test_rejects_nan_losses(self, row):
        builder = TraceBuilder(2, 2)
        with pytest.raises(InvariantViolation, match="outside"):
            builder.append_block(np.array([0, 1]), np.array([0, 1], dtype=np.int8),
                                 np.array([[0.0, 1.0], row]), np.full((2, 2), 0.5), np.full(2, 0.5))
        assert builder.accumulators.expert_loss.sum() == 0.0

    @pytest.mark.parametrize("codes,row", [
        ((3, 1), 0),  # would be counted as a negative of group 1
        ((7,), 0),
        ((0, 300), 1),  # an int8 cast would wrap it to 44
        ((1, 256), 1),  # an int8 cast would wrap it to a valid 0
        ((0, -2), 1),
    ])
    def test_rejects_bad_outcome_codes(self, codes, row):
        n = len(codes)
        builder = TraceBuilder(2, 2)
        with pytest.raises(InvariantViolation, match=f"code {codes[row]} at row {row} of the block"):
            builder.append_block(np.arange(n) % 2, np.array(codes), np.full((n, 2), 0.5),
                                 np.full((n, 2), 0.5), np.full(n, 0.5))
        assert builder.accumulators.counts.sum() == 0
        # an oblivious block checks its codes when it is built, before the
        # learner plays any of its rounds
        learner = SingleMW(0.1)
        learner.start(2, 2)
        before = learner._cum.copy()
        with pytest.raises(ContractError, match=f"code {codes[row]} at row {row} of the block"):
            _execute_block(learner, ObliviousBlock(np.arange(n) % 2, np.array(codes),
                                                   np.full((n, 2), 0.5)), builder)
        assert np.array_equal(learner._cum, before)
        assert builder.accumulators.counts.sum() == 0

    @pytest.mark.parametrize("codes,error", [
        ([[0], [1, 0]], "outcome codes are not arrays"),
        ([0.0, 1.0], "expected \\(2,\\) integers"),
        ([0, 1, 0], "expected \\(2,\\) integers"),
    ])
    def test_oblivious_block_rejects_codes(self, codes, error):
        with pytest.raises(ContractError, match=error):
            ObliviousBlock(np.array([0, 1]), codes, np.full((2, 2), 0.5))

    @pytest.mark.parametrize("codes", [np.array([0.0, 1.0]), np.array(["+", "-"]), np.zeros(3, dtype=int)])
    def test_rejects_codes_of_the_wrong_kind(self, codes):
        with pytest.raises(InvariantViolation, match="expected \\(2,\\) integers"):
            TraceBuilder(2, 2).append_block(np.array([0, 1]), codes, np.full((2, 2), 0.5),
                                            np.full((2, 2), 0.5), np.full(2, 0.5))

    @pytest.mark.parametrize("expected,match", [
        ([0.5], "expected-loss column has shape \\(1,\\) and dtype float64, expected \\(2,\\) numbers"),
        ([0.5, 0.5, 0.5], "shape \\(3,\\)"),
        ([[0.5, 0.5]], "shape \\(1, 2\\)"),
        (["0.5", "0.5"], "dtype <U3"),
        ([0.5, 5.0], "expected loss 5.0 at row 1 of the block disagrees with p . losses = 0.5"),
        ([-3.0, 0.5], "expected loss -3.0 at row 0 of the block"),
        ([0.5, 0.5 + 2e-9], "at row 1 of the block"),
        ([np.nan, 0.5], "expected loss nan at row 0 of the block"),
        ([0.5, np.inf], "expected loss inf at row 1 of the block"),
    ])
    @pytest.mark.parametrize("retain", ["full", "summary"])
    def test_rejects_a_bad_expected_loss_column(self, expected, match, retain):
        # the column went in unchecked: a wrong length raised numpy's
        # ValueError once the block's other columns and counts were taken,
        # and wrong values reached learner_loss
        _refused_and_unchanged(retain, np.full((2, 2), 0.5), np.array(expected), match)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("given", [False, True])
    @pytest.mark.parametrize("retain", ["full", "summary"])
    def test_rejects_plays_of_another_length(self, rows, given, retain):
        # only the width of the plays was checked: einsum broadcast a one-row
        # play over the block, and a three-row one raised numpy's ValueError
        p = np.full((rows, 2), 0.5)
        _refused_and_unchanged(retain, p, np.full(2, 0.5) if given else None,
                               f"distribution block has shape \\({rows}, 2\\), expected \\(2, 2\\)")

    def test_derives_the_expected_loss_column(self):
        rng = np.random.default_rng(5)
        p, losses = rng.dirichlet(np.ones(3), size=50), rng.random((50, 3))
        groups, codes = rng.integers(0, 2, 50), rng.integers(-1, 2, 50)
        derived, given = TraceBuilder(3, 2), TraceBuilder(3, 2)
        derived.append_block(groups, codes, losses, p)
        stored = expected_losses(p, losses) + 0.5e-9
        given.append_block(groups, codes, losses, p, stored)
        assert np.array_equal(derived.build().expected_loss, expected_losses(p, losses))
        assert np.array_equal(given.build().expected_loss, stored)  # kept as given

    @pytest.mark.parametrize("k", [0, 7, 20_004])
    def test_names_the_first_bad_expected_loss(self, k):
        n = 20_005
        p, losses = np.full((n, 2), 0.5), np.tile([0.0, 1.0], (n, 1))
        expected = np.full(n, 0.5)
        expected[k] = 0.5 + 2e-9
        expected[k + 1:] = np.nan
        builder = TraceBuilder(2, 1)
        with pytest.raises(InvariantViolation, match=f"at row {k} of the block"):
            builder.append_block(np.zeros(n, dtype=int), np.zeros(n, dtype=int), losses, p, expected)
        assert len(builder.build()) == 0 and builder.accumulators.counts.sum() == 0

    def test_integer_columns(self):
        # plays, losses and expected losses given as integers are kept as floats
        builder = TraceBuilder(2, 1)
        builder.append_block(np.array([0]), np.array([1]), np.array([[1, 0]]), np.array([[1, 0]]),
                             np.array([1]))
        tr = builder.build()
        assert tr.expected_loss.tolist() == [1.0] and tr.distributions.dtype == np.float64

    def test_empty_build(self):
        tr = TraceBuilder(3, 2).build(rng_seed=1, scenario_id="s", learner_id="l")
        assert len(tr) == 0 and tr.d == 3
        assert tr.is_full
        bare = TraceBuilder(3, 2).build()
        assert (bare.rng_seed, bare.scenario_id, bare.learner_id, bare.scenario_info) == (None, "", "", {})

    @pytest.mark.parametrize("d, num_groups, match", [
        (2.7, 1, "d must be an integer, got 2.7"),
        (True, 1, "d must be an integer, got True"),
        ("2", 1, "d must be an integer, got '2'"),
        (2, 2.5, "num_groups must be an integer, got 2.5"),
        (2, np.float64(2.0), "num_groups must be an integer, got np.float64"),
        (0, 2, "need at least one expert, got d=0"),
        (2, 0, "need at least one group, got 0"),
    ])
    def test_bad_sizes(self, d, num_groups, match):
        # numpy's TypeError came out of the column setup, d=True made one
        # expert, and d=0 took rows with no play and any expected loss
        with pytest.raises(ConfigError, match=match):
            TraceBuilder(d, num_groups)
        assert TraceBuilder(np.int64(2), np.int8(2)).build().distributions.shape == (0, 2)

    @pytest.mark.parametrize("retain", ["full", "summary"])
    def test_build_again_and_after_more_blocks(self, retain):
        rng = np.random.default_rng(3)
        blocks = []
        for n in (3, 1, 4, 2, 5):
            p = rng.dirichlet(np.ones(2), size=n)
            losses = rng.random((n, 2))
            blocks.append((rng.integers(0, 2, n), rng.integers(-1, 2, n).astype(np.int8),
                           losses, p, (p * losses).sum(axis=1)))
        builder = TraceBuilder(2, 2, retain=retain)

        def build_and_check(count):
            tr = builder.build(rng_seed=0, scenario_id="s", learner_id="l")
            want = [np.concatenate(col) for col in zip(*blocks[:count])]
            assert len(tr) == sum(b[0].shape[0] for b in blocks[:count])
            assert np.array_equal(tr.groups, want[0]) and np.array_equal(tr.outcome_codes, want[1])
            assert np.array_equal(tr.expected_loss, want[4])
            if retain == "full":
                assert np.array_equal(tr.losses, want[2]) and np.array_equal(tr.distributions, want[3])
            assert tr.accumulators.counts.sum() == len(tr)

        for block in blocks[:2]:
            builder.append_block(*block)
        build_and_check(2)
        build_and_check(2)
        for block in blocks[2:]:
            builder.append_block(*block)
        build_and_check(5)
        build_and_check(5)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_accumulators_match_direct_recount(self, n, seed):
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, 3, n)
        codes = rng.integers(-1, 2, n).astype(np.int8)
        losses = rng.random((n, 2))
        p = rng.dirichlet(np.ones(2), size=n)
        expected = (p * losses).sum(axis=1)
        acc = Accumulators.zeros(3, 2)
        acc.add_block(groups, codes, losses, expected)
        for g in range(3):
            for b, code in ((0, 0), (1, 1), (2, -1)):
                mask = (groups == g) & (codes == code)
                assert acc.counts[g, b] == mask.sum()
                assert acc.learner_loss[g, b] == pytest.approx(expected[mask].sum(), abs=1e-12)
                for f in range(2):
                    assert acc.expert_loss[g, b, f] == pytest.approx(
                        losses[mask, f].sum(), abs=1e-12
                    )


@pytest.mark.parametrize("kind", ["fpl", "single_mw", "per_group_mw"])
def test_run_peak_memory(kind):
    # Every block kind plays its block in chunks, and the builder joins a
    # one-block run's columns without copying them. Before both, FPL's traced
    # peak was about 2.5 times the columns the run returns; when MW took one
    # cumsum over the whole block, single_mw's was 2.98 times, per_group_mw's 1.99.
    run({"kind": kind, "eta": 0.1}, {"kind": "t4"}, 1000, 3, retain="full")  # imports and caches
    tracemalloc.start()
    try:
        tr = run({"kind": kind, "eta": 0.1}, {"kind": "t4"}, 100_000, 3, retain="full")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    names = ("groups", "outcome_codes", "expected_loss", "distributions", "losses")
    returned = sum(getattr(tr, name).nbytes for name in names)
    assert peak <= 1.5 * returned, (peak, returned)


def test_append_block_peak_memory():
    # Checking and folding a block holds two columns beside it at most: the
    # accumulators' int64 bin index, and the loss column np.bincount copies
    # to take as weights. The bin array np.where built came on top of them.
    tr = run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 100_000, 3, retain="full")
    builder = TraceBuilder(tr.d, tr.num_groups, "full")
    block = (tr.groups, tr.outcome_codes, tr.losses, tr.distributions, tr.expected_loss)
    builder.append_block(*(col[:10] for col in block))  # imports and caches
    tracemalloc.start()
    try:
        builder.append_block(*block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * len(tr) + 65536, peak
