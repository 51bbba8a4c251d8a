import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fair_experts import RandomIID, SingleMW, run
from fair_experts.protocol import ObliviousBlock, _execute_block
from fair_experts.types import (
    Accumulators,
    ConfigError,
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
        # an oblivious block reaches the check with its codes as given
        learner = SingleMW(0.1)
        learner.start(2, 2)
        block = ObliviousBlock(np.arange(n) % 2, np.array(codes), np.full((n, 2), 0.5))
        with pytest.raises(InvariantViolation, match=f"code {codes[row]} at row {row} "):
            _execute_block(learner, block, builder)

    @pytest.mark.parametrize("codes", [np.array([0.0, 1.0]), np.array(["+", "-"]), np.zeros(3, dtype=int)])
    def test_rejects_codes_of_the_wrong_kind(self, codes):
        with pytest.raises(InvariantViolation, match="expected \\(2,\\) integers"):
            TraceBuilder(2, 2).append_block(np.array([0, 1]), codes, np.full((2, 2), 0.5),
                                            np.full((2, 2), 0.5), np.full(2, 0.5))

    def test_empty_build(self):
        tr = TraceBuilder(3, 2).build(rng_seed=1, scenario_id="s", learner_id="l")
        assert tr.T == 0 and tr.d == 3
        assert tr.is_full

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


# -- trace file oracle: the per-record export and import the block paths replaced

def _ref_json_obj(rec):
    return {
        "t": rec.t,
        "group": int(rec.group),
        "outcome": None if rec.outcome is None else rec.outcome.token,
        "p": [float(x) for x in rec.distribution],
        "losses": [float(x) for x in rec.losses],
        "expected_loss": float(rec.expected_loss),
    }


def _ref_record(obj):
    raw = obj.get("outcome")
    outcome = None if raw is None else outcome_from_token(raw)
    return RoundRecord(
        t=int(obj["t"]),
        group=int(obj["group"]),
        outcome=outcome,
        distribution=np.asarray(obj["p"], dtype=np.float64),
        losses=np.asarray(obj["losses"], dtype=np.float64),
        expected_loss=float(obj["expected_loss"]),
    )


def _ref_to_jsonl(trace, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in trace.records():
            fh.write(json.dumps(_ref_json_obj(rec), sort_keys=True))
            fh.write("\n")


def _ref_to_csv(trace, path):
    header = ["t", "group", "outcome", "expected_loss"]
    header += [f"p_{f}" for f in range(trace.d)]
    header += [f"loss_{f}" for f in range(trace.d)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(trace)):
            outcome = outcome_from_code(int(trace.outcome_codes[k]))
            row = [
                k + 1,
                int(trace.groups[k]),
                "" if outcome is None else outcome.token,
                repr(float(trace.expected_loss[k])),
            ]
            row += [repr(float(x)) for x in trace.distributions[k]]
            row += [repr(float(x)) for x in trace.losses[k]]
            writer.writerow(row)


def _ref_from_jsonl(path, num_groups=None):
    """Records built and validated one by one, then stacked into columns."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(_ref_record(json.loads(line)))
    if not records:
        raise ValueError("cannot infer dimensions from an empty record list")
    d = records[0].distribution.shape[0]
    for k, rec in enumerate(records):
        if rec.t != k + 1:
            raise ValueError(f"record {k} has t={rec.t}, expected {k + 1}")
    groups = np.array([r.group for r in records], dtype=np.int64)
    if num_groups is None:
        num_groups = int(groups.max()) + 1
    codes = np.array([-1 if r.outcome is None else r.outcome.code for r in records], dtype=np.int8)
    losses = np.stack([r.losses for r in records])
    expected = np.array([r.expected_loss for r in records], dtype=np.float64)
    acc = Accumulators.zeros(num_groups, d)
    acc.add_block(groups, codes, losses, expected)
    return Trace(d=d, num_groups=num_groups, groups=groups, outcome_codes=codes,
                 expected_loss=expected, distributions=np.stack([r.distribution for r in records]),
                 losses=losses, accumulators=acc)


def _iid_trace(seed, d, groups, T, labeled):
    tr = run(SingleMW(0.1), RandomIID(d=d, groups=groups), T, seed, retain="full")
    codes = tr.outcome_codes
    if labeled:
        codes = np.random.default_rng(seed).integers(-1, 2, size=T).astype(np.int8)
    builder = TraceBuilder(d, groups)
    builder.append_block(tr.groups, codes, tr.losses, tr.distributions, tr.expected_loss)
    return builder.build(rng_seed=seed, scenario_id="random_iid", learner_id="single_mw")


def _same_trace(a, b):
    assert (a.d, a.num_groups, len(a)) == (b.d, b.num_groups, len(b))
    for name in ("groups", "outcome_codes", "expected_loss", "distributions", "losses"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for name in ("counts", "learner_loss", "expert_loss"):
        assert np.array_equal(getattr(a.accumulators, name), getattr(b.accumulators, name)), name


_IO_CASES = [
    # (seed, d, groups, T, labeled); T above 8192 spans several I/O chunks,
    # 30 groups run the labels past Z.
    (1, 2, 2, 3000, False),
    (2, 2, 2, 3000, True),
    (3, 1, 3, 2000, True),
    (4, 3, 4, 2000, False),
    (5, 3, 30, 20000, True),
]


def _built_trace(p, losses):
    """A trace of the given plays and losses, groups alternating 0, 1."""
    T, d = losses.shape
    builder = TraceBuilder(d, 2)
    builder.append_block(np.arange(T) % 2, np.zeros(T, dtype=np.int8), losses, p,
                         np.einsum("td,td->t", p, losses))
    return builder.build(rng_seed=0, scenario_id="", learner_id="")


def _fpl_t4_trace():
    return run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 20_000, 3, retain="full")


def _signed_zero_trace():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [0.5, 0.5]])
    pick = np.random.default_rng(8).integers(0, 4, size=(3000, 2))
    return _built_trace(rows[pick[:, 0]], rows[pick[:, 1]])


def _regime_trace(T, repeat):
    """Loss column 0 takes two values on the rows where ``repeat`` holds and
    distinct random ones elsewhere; column 1 never repeats."""
    rng = np.random.default_rng(T)
    losses = rng.random((T, 2))
    losses[repeat, 0] = rng.choice([0.25, 0.75], size=int(np.count_nonzero(repeat)))
    return _built_trace(np.full((T, 2), 0.5), losses)


def _chunk_regime_trace():
    # loss column 0 changes branch from one 8192-row chunk to the next; the
    # last chunk holds 100 rows, fewer than a probe
    T = 3 * 8192 + 100
    return _regime_trace(T, np.arange(T) // 8192 % 2 == 0)


# (trace, chunk columns whose first 256 values repeat and so are formatted
# once per distinct value): every column of the FPL and signed-zero traces;
# elsewhere both p columns, plus loss column 0 where its head repeats
_REPEAT_CASES = {
    "fpl_t4": (_fpl_t4_trace, 15),
    "signed_zeros": (_signed_zero_trace, 5),
    "head_repeats": (lambda: _regime_trace(3000, np.arange(3000) < 256), 3),
    "tail_repeats": (lambda: _regime_trace(3000, np.arange(3000) >= 256), 2),
    "chunk_regimes": (_chunk_regime_trace, 10),
}


def _edit_field(name, value):
    return lambda line: json.dumps({**json.loads(line), name: value(json.loads(line)[name])})


# Edits that make one JSONL line bad, each with a different check
_ROW_EDITS = {
    "t": _edit_field("t", lambda t: t + 1),
    "group": _edit_field("group", lambda g: -1),
    "p": _edit_field("p", lambda p: [0.9, 0.9]),
    "losses": _edit_field("losses", lambda ell: [0.0, 1.5]),
    "expected_loss": _edit_field("expected_loss", lambda e: e + 1e-6),
    "outcome": _edit_field("outcome", lambda o: "x"),
    "missing": lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "p"}),
    "not_json": lambda line: line[:-1],
}


def _jsonl_rows(tr, tmp_path):
    _ref_to_jsonl(tr, tmp_path / "ref.jsonl")
    return (tmp_path / "ref.jsonl").read_text().splitlines()


def _write_rows(tmp_path, rows):
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(row + "\n" for row in rows))
    return path


@pytest.fixture
def memo_calls(monkeypatch):
    """Counts np.unique calls with return_inverse: the trace writers make one
    for each chunk column whose probe finds repeats."""
    calls = []
    unique = np.unique

    def spy(*args, **kwargs):
        calls.append(kwargs.get("return_inverse", False))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return calls


def _assert_files_match_reference(tr, tmp_path):
    tr.to_jsonl(tmp_path / "new.jsonl")
    _ref_to_jsonl(tr, tmp_path / "ref.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
    tr.to_csv(tmp_path / "new.csv")
    _ref_to_csv(tr, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = Trace.from_jsonl(tmp_path / "new.jsonl")
    _same_trace(back, _ref_from_jsonl(tmp_path / "ref.jsonl"))
    _same_trace(back, tr)


class TestTraceFileOracle:
    @pytest.mark.parametrize("seed,d,groups,T,labeled", _IO_CASES)
    def test_files_and_read_back_match_reference(self, tmp_path, seed, d, groups, T, labeled):
        _assert_files_match_reference(_iid_trace(seed, d, groups, T, labeled), tmp_path)

    @pytest.mark.parametrize("case", list(_REPEAT_CASES))
    def test_repeated_values_match_reference(self, tmp_path, memo_calls, case):
        make, memo = _REPEAT_CASES[case]
        tr = make()
        memo_calls.clear()
        tr.to_jsonl(tmp_path / "new.jsonl")
        tr.to_csv(tmp_path / "new.csv")
        assert memo_calls == [True] * (2 * memo)
        _assert_files_match_reference(tr, tmp_path)

    def test_blank_lines_and_empty_outcome_are_accepted(self, tmp_path):
        tr = _iid_trace(6, 2, 2, 50, True)
        _ref_to_jsonl(tr, tmp_path / "ref.jsonl")
        lines = (tmp_path / "ref.jsonl").read_text().splitlines()
        lines = [ln.replace('"outcome": null', '"outcome": ""') for ln in lines]
        (tmp_path / "odd.jsonl").write_text("\n\n".join(lines) + "\n\n")
        _same_trace(Trace.from_jsonl(tmp_path / "odd.jsonl"), _ref_from_jsonl(tmp_path / "ref.jsonl"))

    @pytest.mark.parametrize("field,value", [
        ("t", 0),
        ("t", 5),
        ("group", -1),
        ("p", [0.7, 0.7]),
        ("p", [-0.5, 1.5]),
        ("p", [float("nan"), 1.0]),
        ("p", [1.0]),
        ("p", []),
        ("losses", [0.0, 1.5]),
        ("losses", [0.0, 1.0, 0.0]),
        ("expected_loss", "shift"),
        ("outcome", "x"),
        ("p", None),
    ])
    def test_rejected_rows_stay_rejected(self, tmp_path, field, value):
        recs = [RoundRecord.compute(t, t % 2, Outcome.POSITIVE, np.array([0.25, 0.75]),
                                    np.array([1.0, 0.5])) for t in (1, 2, 3)]
        objs = [_ref_json_obj(r) for r in recs]
        if value == "shift":
            objs[1]["expected_loss"] += 2e-9
        elif value is None:
            del objs[1][field]
        else:
            objs[1][field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        with pytest.raises((ValueError, KeyError)):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match="line 2"):
            Trace.from_jsonl(path)

    def test_group_outside_declared_set(self, tmp_path):
        tr = _iid_trace(7, 2, 3, 40, False)
        tr.to_jsonl(tmp_path / "t.jsonl")
        with pytest.raises(ConfigError, match="outside 0..1"):
            Trace.from_jsonl(tmp_path / "t.jsonl", num_groups=2)

    def test_group_outside_declared_set_in_the_last_chunk(self, tmp_path):
        rows = _jsonl_rows(_iid_trace(10, 2, 2, 2500, False), tmp_path)
        rows[-1] = json.dumps({**json.loads(rows[-1]), "group": 2})
        path = _write_rows(tmp_path, rows)
        with pytest.raises(ConfigError, match="line 2500: group 2 outside 0..1"):
            Trace.from_jsonl(path, num_groups=2)
        assert Trace.from_jsonl(path).num_groups == 3

    def test_blank_lines_only(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n  \n\t\n\n")
        with pytest.raises(ValueError):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match="no rounds"):
            Trace.from_jsonl(path)

    @pytest.mark.parametrize("edit", list(_ROW_EDITS))
    def test_error_in_a_late_chunk_names_its_line(self, tmp_path, edit):
        rows = _jsonl_rows(_iid_trace(9, 2, 2, 3000, True), tmp_path)
        # row 2600 is in the third chunk of lines read
        k = 2600
        rows[k] = _ROW_EDITS[edit](rows[k])
        # a blank line after every fifth row puts row j on line j + 1 + j // 5
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(row + "\n" + "\n" * (j % 5 == 4) for j, row in enumerate(rows)))
        with pytest.raises((ValueError, KeyError)):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match=f"line {k + 1 + k // 5}:"):
            Trace.from_jsonl(path)

    @pytest.mark.parametrize("first,second", [
        ("expected_loss", "t"),
        ("losses", "not_json"),
        ("not_json", "losses"),
        ("missing", "group"),
        ("outcome", "p"),
    ])
    def test_first_bad_line_in_file_order(self, tmp_path, first, second):
        rows = _jsonl_rows(_iid_trace(11, 2, 2, 1500, True), tmp_path)
        rows[1100] = _ROW_EDITS[first](rows[1100])
        rows[1200] = _ROW_EDITS[second](rows[1200])
        with pytest.raises(ConfigError, match="line 1101:"):
            Trace.from_jsonl(_write_rows(tmp_path, rows))

    @pytest.mark.parametrize("keep,resume,line,t", [
        (1023, 1025, 1024, 1026),  # on the last line of the first chunk
        (1024, 1029, 1025, 1030),  # on the first line of the second chunk
        (1024, 0, 1025, 1),  # the second chunk starts again at t = 1
    ])
    def test_t_break_at_a_chunk_boundary(self, tmp_path, keep, resume, line, t):
        rows = _jsonl_rows(_iid_trace(12, 2, 2, 3000, False), tmp_path)
        path = _write_rows(tmp_path, rows[:keep] + rows[resume:])
        with pytest.raises(ValueError):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match=f"line {line}: t is {t}, expected {line}$"):
            Trace.from_jsonl(path)

    def test_read_peak_memory(self, tmp_path):
        # The reader holds one chunk of parsed lines and the columns kept so
        # far, and joins one column at a time. The whole-file check it
        # replaced peaked at 9.45 times the arrays it returned.
        path = tmp_path / "fpl.jsonl"
        run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 30_000, 3, retain="full").to_jsonl(path)
        tracemalloc.start()
        try:
            back = Trace.from_jsonl(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        names = ("groups", "outcome_codes", "expected_loss", "distributions", "losses")
        returned = sum(getattr(back, name).nbytes for name in names)
        assert len(back) == 30_000
        assert peak <= 2.5 * returned, (peak, returned)
