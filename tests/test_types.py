import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fair_experts import RandomIID, SingleMW, run, types
from fair_experts.protocol import ObliviousBlock, _execute_block
from fair_experts.types import (
    Accumulators,
    ConfigError,
    ContractError,
    InsufficientGroupsError,
    InvariantViolation,
    Outcome,
    RoundRecord,
    Trace,
    TraceBuilder,
    group_label,
    loss_of,
    losses_from_scores,
    max_pairwise_gap,
    outcome_from_code,
    outcome_from_token,
    uniform_distribution,
    validate_distribution,
    validate_distribution_block,
)


class TestOutcome:
    def test_flip_is_involution(self):
        assert Outcome.POSITIVE.flip() is Outcome.NEGATIVE
        assert Outcome.NEGATIVE.flip() is Outcome.POSITIVE
        for o in Outcome:
            assert o.flip().flip() is o

    def test_codes_and_tokens(self):
        assert Outcome.NEGATIVE.code == 0
        assert Outcome.POSITIVE.code == 1
        assert Outcome.POSITIVE.token == "+"
        assert Outcome.NEGATIVE.token == "-"
        assert outcome_from_code(-1) is None
        assert outcome_from_token("") is None
        assert outcome_from_code(1) is Outcome.POSITIVE
        with pytest.raises(ValueError):
            outcome_from_code(7)
        with pytest.raises(ValueError):
            outcome_from_token("x")


class TestLoss:
    def test_hand_values(self):
        # score 0 = confident negative: wrong only on positives
        assert loss_of(0.0, Outcome.POSITIVE) == 1.0
        assert loss_of(0.0, Outcome.NEGATIVE) == 0.0
        assert loss_of(1.0, Outcome.POSITIVE) == 0.0
        assert loss_of(0.3, Outcome.NEGATIVE) == 0.3
        assert loss_of(0.3, Outcome.POSITIVE) == pytest.approx(0.7, abs=1e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_complement_identity(self, score):
        # loss on a label plus loss on the flipped label is exactly 1
        for outcome in Outcome:
            total = loss_of(score, outcome) + loss_of(score, outcome.flip())
            assert math.isclose(total, 1.0, abs_tol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            loss_of(1.5, Outcome.POSITIVE)
        with pytest.raises(ValueError):
            loss_of(-0.1, Outcome.NEGATIVE)

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


class TestScalarIsOneRowOfBlock:
    def test_loss_of_matches_losses_from_scores(self):
        rng = np.random.default_rng(4)
        scores = np.concatenate([[0.0, 1.0, 0.5, 5e-324], rng.random(300)])
        codes = rng.integers(0, 2, scores.size)
        for s, c, want in zip(scores.tolist(), codes.tolist(), losses_from_scores(scores, codes).tolist()):
            got = loss_of(s, Outcome(c))
            assert type(got) is float and got == want

    @pytest.mark.parametrize("p", [
        [0.25, 0.75], [1.0, 0.0], [-0.0, 1.0], [1 / 3] * 3, [0.0, 0.0, 1.0], [1.0],
        [0.5, 0.5 + 0.9e-9], [0.5, 0.5 - 0.9e-9], [0.5, 0.5 + 1.1e-9], [0.5, 0.5 - 1.1e-9],
        [0.7, 0.7], [-0.1, 1.1], [-1e-300, 1.0], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, np.inf],
    ])
    def test_validate_distribution_matches_block(self, p):
        p = np.array(p)
        assert (_accepts(validate_distribution, p, error=ValueError)
                == _accepts(validate_distribution_block, p[None], p.size, error=InvariantViolation))


class TestDriftBetweenScalarAndBlock:
    @pytest.mark.parametrize("scores", [[np.nan], [0.5, np.nan]])
    def test_losses_from_scores_rejects_nan(self, scores):
        with pytest.raises(ValueError):
            losses_from_scores(np.array(scores), np.zeros(len(scores), dtype=np.int8))

    @pytest.mark.parametrize("score", ["0.5", None])
    def test_loss_of_refuses_a_score_that_is_not_a_number(self, score):
        with pytest.raises(TypeError):
            loss_of(score, Outcome.NEGATIVE)

    @pytest.mark.parametrize("outcome,expected,error", [
        (None, np.nan, ValueError), (1, 0.5, TypeError), (0, 0.5, TypeError),
        ("+", 0.5, TypeError), ("-", 0.5, TypeError),
    ])
    def test_round_record(self, outcome, expected, error):
        # before, each of these was accepted, and Trace.from_records then
        # raised ConfigError (NaN) or AttributeError (a code or a token)
        with pytest.raises(error):
            RoundRecord(t=1, group=0, outcome=outcome, distribution=np.array([0.5, 0.5]),
                        losses=np.array([0.0, 1.0]), expected_loss=expected)
        if error is TypeError:
            with pytest.raises(TypeError):
                loss_of(0.5, outcome)


class TestDistributionValidator:
    def test_accepts_simplex(self):
        validate_distribution(np.array([0.25, 0.75]))
        validate_distribution(uniform_distribution(7))

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            validate_distribution(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            validate_distribution(np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            validate_distribution(np.array([0.5, 0.5]), d=3)
        with pytest.raises(ValueError):
            validate_distribution(np.array([np.nan, 1.0]))

    def test_tolerance_boundary(self):
        validate_distribution(np.array([0.5, 0.5 + 0.9e-9]))
        with pytest.raises(ValueError):
            validate_distribution(np.array([0.5, 0.5 + 1.1e-9]))

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

    def test_uniform_needs_experts(self):
        with pytest.raises(ConfigError):
            uniform_distribution(0)


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


class TestRoundRecord:
    def test_compute_fills_expected_loss(self):
        rec = RoundRecord.compute(
            1, 0, Outcome.POSITIVE, np.array([0.25, 0.75]), np.array([1.0, 0.0])
        )
        assert rec.expected_loss == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_compute_gives_the_protocols_bits(self, d):
        # one p . losses rule: a record built from a trace row holds the
        # expected loss the protocol wrote for that row, bit for bit
        tr = run(SingleMW(0.1), RandomIID(d=d), 300, seed=d)
        got = [RoundRecord.compute(k + 1, 0, None, p, ell).expected_loss
               for k, (p, ell) in enumerate(zip(tr.distributions, tr.losses))]
        assert np.array_equal(got, tr.expected_loss)

    def test_rejects_mismatched_expected_loss(self):
        with pytest.raises(ValueError):
            RoundRecord(
                t=1,
                group=0,
                outcome=Outcome.NEGATIVE,
                distribution=np.array([0.5, 0.5]),
                losses=np.array([0.0, 1.0]),
                expected_loss=0.5 + 2e-9,
            )

    def test_checks_each_value_once(self, monkeypatch):
        # the simplex and [0, 1] rules run once, in _check_rows; on a valid
        # record the whole-block reductions are the only calls made
        calls = []
        for name in ("_off_simplex", "_first_off_simplex", "_off_unit", "_first_off_unit"):
            def spy(*args, _name=name, _fn=getattr(types, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(types, name, spy)
        RoundRecord.compute(1, 0, Outcome.POSITIVE, np.array([0.25, 0.75]), np.array([1.0, 0.5]))
        assert sorted(calls) == ["_first_off_simplex", "_first_off_unit"]

    def test_rejects_invalid_fields(self):
        p = np.array([0.5, 0.5])
        ell = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            RoundRecord(t=0, group=0, outcome=None, distribution=p, losses=ell, expected_loss=0.5)
        with pytest.raises(ValueError):
            RoundRecord(t=1, group=-1, outcome=None, distribution=p, losses=ell, expected_loss=0.5)
        with pytest.raises(ValueError):
            RoundRecord(
                t=1, group=0, outcome=None,
                distribution=p, losses=np.array([0.0, 1.5]), expected_loss=0.75,
            )

    def test_json_round_trip_keeps_unlabeled(self, tmp_path):
        rec = RoundRecord.compute(1, 1, None, np.array([1.0, 0.0]), np.array([0.5, 0.25]))
        path = tmp_path / "one.jsonl"
        Trace.from_records([rec]).to_jsonl(path)
        back = Trace.from_jsonl(path).record(1)
        assert back.outcome is None
        assert back.t == rec.t and back.group == rec.group
        np.testing.assert_array_equal(back.distribution, rec.distribution)


def _toy_records():
    p = np.array([0.5, 0.5])
    rows = [
        (Outcome.NEGATIVE, 0, np.array([0.0, 1.0])),
        (Outcome.POSITIVE, 1, np.array([1.0, 0.0])),
        (None, 0, np.array([0.25, 0.75])),
        (Outcome.POSITIVE, 1, np.array([1.0, 0.5])),
    ]
    return [
        RoundRecord.compute(k + 1, g, o, p, ell)
        for k, (o, g, ell) in enumerate(rows)
    ]


class TestTrace:
    def test_from_records_accumulates(self):
        tr = Trace.from_records(_toy_records())
        assert tr.T == 4 and tr.d == 2 and tr.num_groups == 2
        # group 0: one negative + one unlabeled; group 1: two positives
        np.testing.assert_array_equal(tr.accumulators.counts[0], [1, 0, 1])
        np.testing.assert_array_equal(tr.accumulators.counts[1], [0, 2, 0])
        assert tr.accumulators.learner_loss[1, 1] == pytest.approx(0.5 + 0.75)
        np.testing.assert_array_equal(tr.group_counts(), [2, 2])

    def test_record_round_trip(self):
        tr = Trace.from_records(_toy_records())
        rec = tr.record(3)
        assert rec.t == 3 and rec.outcome is None
        with pytest.raises(IndexError):
            tr.record(5)
        assert len(list(tr)) == 4

    def test_jsonl_round_trip(self, tmp_path):
        tr = Trace.from_records(_toy_records())
        path = tmp_path / "trace.jsonl"
        tr.to_jsonl(path)
        back = Trace.from_jsonl(path, num_groups=tr.num_groups)
        assert back.T == tr.T
        np.testing.assert_array_equal(back.groups, tr.groups)
        np.testing.assert_array_equal(back.outcome_codes, tr.outcome_codes)
        np.testing.assert_allclose(back.distributions, tr.distributions, atol=0)
        np.testing.assert_allclose(back.expected_loss, tr.expected_loss, atol=0)

    def test_csv_export_shape(self, tmp_path):
        tr = Trace.from_records(_toy_records())
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,group,outcome,expected_loss,p_0,p_1,loss_0,loss_1"
        assert len(lines) == 1 + tr.T
        # unlabeled round has an empty outcome cell
        assert lines[3].split(",")[2] == ""

    def test_summary_mode_blocks_record_access(self):
        builder = TraceBuilder(2, 2, retain="summary")
        recs = _toy_records()
        builder.append_block(
            np.array([r.group for r in recs]),
            np.array([-1 if r.outcome is None else r.outcome.code for r in recs], dtype=np.int8),
            np.stack([r.losses for r in recs]),
            np.stack([r.distribution for r in recs]),
            np.array([r.expected_loss for r in recs]),
        )
        tr = builder.build(rng_seed=0, scenario_id="s", learner_id="l")
        assert not tr.is_full
        assert tr.T == 4
        np.testing.assert_array_equal(tr.accumulators.counts.sum(axis=0), [1, 2, 1])
        with pytest.raises(Exception):
            tr.record(1)
        with pytest.raises(Exception):
            tr.to_jsonl("/dev/null")


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
        before = learner._log_w.copy()
        with pytest.raises(ContractError, match=f"code {codes[row]} at row {row} of the block"):
            _execute_block(learner, ObliviousBlock(np.arange(n) % 2, np.array(codes),
                                                   np.full((n, 2), 0.5)), builder)
        assert np.array_equal(learner._log_w, before)
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

    def test_empty_build(self):
        tr = TraceBuilder(3, 2).build(rng_seed=1, scenario_id="s", learner_id="l")
        assert tr.T == 0 and tr.d == 3
        assert tr.is_full

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
            assert tr.T == sum(b[0].shape[0] for b in blocks[:count])
            assert np.array_equal(tr.groups, want[0]) and np.array_equal(tr.outcome_codes, want[1])
            assert np.array_equal(tr.expected_loss, want[4])
            if retain == "full":
                assert np.array_equal(tr.losses, want[2]) and np.array_equal(tr.distributions, want[3])
            assert tr.accumulators.counts.sum() == tr.T

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


def test_run_peak_memory():
    # FPL plays its block in chunks, and the builder joins a one-block run's
    # columns without copying them. Before both, the traced peak was about
    # 2.5 times the columns the run returns.
    run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 1000, 3, retain="full")  # imports and caches
    tracemalloc.start()
    try:
        tr = run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 100_000, 3, retain="full")
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
