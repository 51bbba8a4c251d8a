import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fair_experts import RandomIID, SingleMW, run, tracefile
from fair_experts.types import (
    NEGATIVE_CODE,
    POSITIVE_CODE,
    UNLABELED_CODE,
    ConfigError,
    InvariantViolation,
    Trace,
    TraceBuilder,
)
from oracles import POS, TOY_ROWS, hand_trace


# -- trace file oracle: the per-row export and import the block paths replaced

_REF_TOKEN = {UNLABELED_CODE: None, NEGATIVE_CODE: "-", POSITIVE_CODE: "+"}
_REF_CODE = {None: UNLABELED_CODE, "": UNLABELED_CODE, "-": NEGATIVE_CODE, "+": POSITIVE_CODE}
# what the oracle raises on a bad file: a parse error, a missing field, or a
# row that the builder refuses
_REF_ERRORS = (ValueError, KeyError, InvariantViolation)


def _ref_json_obj(trace, k):
    return {
        "t": k + 1,
        "group": int(trace.groups[k]),
        "outcome": _REF_TOKEN[int(trace.outcome_codes[k])],
        "p": [float(x) for x in trace.distributions[k]],
        "losses": [float(x) for x in trace.losses[k]],
        "expected_loss": float(trace.expected_loss[k]),
    }


def _ref_vector(what, x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{what} must be a non-empty list, got shape {x.shape}")
    return x


def _ref_row(obj):
    """t, the ``hand_trace`` row (group, outcome code, p, losses) and the
    expected loss of one parsed line."""
    raw = obj.get("outcome")
    if not isinstance(raw, (str, type(None))) or raw not in _REF_CODE:
        raise ValueError(f"unknown outcome token {raw!r}")
    p, losses = _ref_vector("p", obj["p"]), _ref_vector("losses", obj["losses"])
    if losses.shape != p.shape:
        raise ValueError(f"losses have {losses.size} entries, expected {p.size}")
    return (int(obj["t"]), (int(obj["group"]), _REF_CODE[raw], p, losses),
            float(obj["expected_loss"]))


def _ref_to_jsonl(trace, path, rows=None):
    """The lines of ``rows`` (0-based), all of the trace's by default."""
    with open(path, "w", encoding="utf-8") as fh:
        for k in range(len(trace)) if rows is None else rows:
            fh.write(json.dumps(_ref_json_obj(trace, k), sort_keys=True))
            fh.write("\n")


def _ref_to_csv(trace, path):
    header = ["t", "group", "outcome", "expected_loss"]
    header += [f"p_{f}" for f in range(trace.d)]
    header += [f"loss_{f}" for f in range(trace.d)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(trace)):
            row = [
                k + 1,
                int(trace.groups[k]),
                _REF_TOKEN[int(trace.outcome_codes[k])] or "",
                repr(float(trace.expected_loss[k])),
            ]
            row += [repr(float(x)) for x in trace.distributions[k]]
            row += [repr(float(x)) for x in trace.losses[k]]
            writer.writerow(row)


def _ref_from_jsonl(path, num_groups=None):
    """Lines parsed one by one, then appended to a builder as hand-made rows."""
    parsed = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                parsed.append(_ref_row(json.loads(line)))
    if not parsed:
        raise ValueError("cannot infer dimensions from an empty file")
    for k, (t, _, _) in enumerate(parsed):
        if t != k + 1:
            raise ValueError(f"row {k} has t={t}, expected {k + 1}")
    _, rows, expected = zip(*parsed)
    return hand_trace(rows, num_groups, expected=np.array(expected))


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


def _built_trace(p, losses, groups=None, codes=None):
    """A trace of the given plays and losses, groups alternating 0, 1 and
    outcomes negative unless given."""
    T, d = losses.shape
    builder = TraceBuilder(d, 2)
    builder.append_block(np.arange(T) % 2 if groups is None else groups,
                         np.zeros(T, dtype=np.int8) if codes is None else codes, losses, p,
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


def _zero_rows(d):
    """Rows on the simplex that differ in a zero's sign."""
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [0.25, 0.75]])
    return np.column_stack([rows, np.zeros((4, d - 2))])


def _runs_trace(lengths, d, labeled, seed=0):
    """Consecutive runs of the given lengths, each of one row, unlike the row
    of the run before, drawn from rows that differ in a zero's sign, a group
    or an outcome (unlabeled only, unless labeled)."""
    pool = np.array([(g, c, i, j) for g in (0, 1) for c in ((-1, 0, 1) if labeled else (-1,))
                     for i in range(4) for j in range(4)])
    rng = np.random.default_rng(seed)
    picks = [int(rng.integers(len(pool)))]
    for _ in lengths[1:]:
        picks.append((picks[-1] + int(rng.integers(1, len(pool)))) % len(pool))
    g, c, i, j = pool[np.repeat(picks, lengths)].T
    zeros = _zero_rows(d)
    return _built_trace(zeros[i], zeros[j], g, c.astype(np.int8))


# Run lengths like those at the head of an FPL trace: single rows and short
# runs whose lines change width, between long runs (rounds 56..455, 472..971,
# 983..1682 and 1743..2342), the first read block ending inside the third.
_MIXED_RUNS = ([1] * 24 + [2, 1, 3, 2, 7, 6, 10, 400, 1, 2, 1, 1, 3, 5, 2, 1, 500, 2, 3, 1, 1, 4, 700]
               + [1, 2] * 20 + [600])


def _signed_zero_runs_trace():
    # runs of 50 rows, each unlike the run before only in the sign of a zero
    rows = np.array([[0.0, 1.0], [-0.0, 1.0]])
    pick = np.arange(3000) // 50 % 2
    return _built_trace(rows[pick], rows[1 - pick], np.ones(3000, dtype=np.int64))


# (trace, long runs that each writer lays out as byte blocks, long runs that
# the reader checks by byte compares). FPL plays run long; the signed-zero,
# regime, chunk-regime and iid traces hold no run of 32 rows.
_REPEAT_CASES = {
    "fpl_t4": (_fpl_t4_trace, 4, 20),
    "signed_zeros": (_signed_zero_trace, 0, 0),
    "head_repeats": (lambda: _regime_trace(3000, np.arange(3000) < 256), 0, 0),
    "tail_repeats": (lambda: _regime_trace(3000, np.arange(3000) >= 256), 0, 0),
    "chunk_regimes": (_chunk_regime_trace, 0, 0),
    # rows that never repeat, as in theorem1 and theorem3 traces
    "iid": (lambda: _iid_trace(13, 3, 2, 3000, True), 0, 0),
    # runs over t = 9 -> 10, 99 -> 100, 999 -> 1000, and over the 8192-row
    # write edge, every read edge and 9999 -> 10000
    "digit_edges": (lambda: _runs_trace([40, 110, 1350, 8550], 2, False), 4, 13),
    # long runs, runs of 31 and 32 rows and single rows side by side
    "runs_and_singles": (lambda: _runs_trace([45, 1, 1, 32, 31, 1, 200, 2, 1, 33] * 25, 3, True),
                         100, 100),
    "signed_zero_runs": (_signed_zero_runs_trace, 60, 62),
    # short runs whose lines change width, between long runs
    "short_between_long": (lambda: _runs_trace(_MIXED_RUNS, 2, True), 4, 6),
}


def _ref_long_runs(trace):
    """(first, last) round of each stretch of at least 32 rows alike but for
    t: the rows a writer lays out as byte blocks."""
    runs, key = [], None
    for k in range(len(trace)):
        row = (int(trace.groups[k]), int(trace.outcome_codes[k]), trace.expected_loss[k].tobytes(),
               trace.distributions[k].tobytes(), trace.losses[k].tobytes())
        if row != key:
            runs.append([k + 1, k + 1])
            key = row
        runs[-1][1] = k + 1
    return [tuple(run) for run in runs if run[1] - run[0] + 1 >= 32]


def _ref_read_runs(path):
    """(first, last) round of each stretch of lines that a reader checks by
    byte compares. In one read block, these are the stretches of at least 32
    lines alike but for their ', "t": N}' tails whose t have one number of
    digits. When the block before ended in such a stretch, or carried one on
    to its end, the lines at the block's head that are alike with its last
    line carry it on, in any number; they are listed cut where t gains a
    digit."""
    text = Path(path).read_text()
    runs, pos, t, carry = [], 0, 0, None
    while pos < len(text):
        end = text.find("\n", pos + tracefile._READ_CHARS - 1) + 1 or len(text)
        lines = [line[:line.rindex(', "t": ')] for line in text[pos:end].split("\n")[:-1]]
        k = 0
        while k < len(lines) and lines[k] == carry:
            k += 1
        stretches = []
        for j, line in enumerate(lines):
            key = (line, len(str(t + j + 1)), j < k)
            if j == 0 or key != last:
                stretches.append([t + j + 1, t + j + 1, j < k])
                last = key
            stretches[-1][1] = t + j + 1
        kept = [(lo, hi) for lo, hi, carried in stretches if carried or hi - lo + 1 >= 32]
        runs += kept
        if k < len(lines):
            carry = lines[-1] if kept and kept[-1][1] == t + len(lines) else None
        t += len(lines)
        pos = end
    return runs


def _block_heads(lines):
    """The line, from 1, that each read block of a file of these lines
    starts with."""
    heads, size = [1], 0
    for k, line in enumerate(lines[:-1], 1):
        size += len(line)
        if size >= tracefile._READ_CHARS:
            heads.append(k + 1)
            size = 0
    return heads


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
    """Records the paths the run kernels take: ("write", first, last) for
    each long run of rounds first..last that a writer lays out as byte
    blocks, ("read", first, last) for each long run of those rounds that the
    reader checks by byte compares, and ("lines", first, last) for each read
    block of file lines first..last parsed line by line. The stretch of a run
    that a block carries on from the block before is recorded whatever its
    length, cut where t gains a digit, as a block's own runs are."""
    calls = []
    write_lines, long_runs = tracefile._write_lines, tracefile._long_runs
    carried_lines, line_by_line = tracefile._carried_lines, tracefile._line_by_line

    def write_spy(fh, lines, runs, split):
        calls.extend(("write", first, last) for _, first, last in runs)
        return write_lines(fh, lines, runs, split)

    def read_spy(buf, starts, ends, t):
        runs = long_runs(buf, starts, ends, t)
        calls.extend(("read", int(t[first]), int(t[last])) for first, last in runs)
        return runs

    def carried_spy(buf, rest, t0):
        lines, pos = carried_lines(buf, rest, t0)
        calls.extend(("read", lo, hi) for lo, hi in tracefile._same_width(t0 + 1, t0 + lines))
        return lines, pos

    def lines_spy(path, lines, linenos, *args):
        calls.append(("lines", int(linenos[0]), int(linenos[-1])))
        return line_by_line(path, lines, linenos, *args)

    monkeypatch.setattr(tracefile, "_write_lines", write_spy)
    monkeypatch.setattr(tracefile, "_long_runs", read_spy)
    monkeypatch.setattr(tracefile, "_carried_lines", carried_spy)
    monkeypatch.setattr(tracefile, "_line_by_line", lines_spy)
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
        make, runs, read_runs = _REPEAT_CASES[case]
        tr = make()
        memo_calls.clear()
        tr.to_jsonl(tmp_path / "new.jsonl")
        tr.to_csv(tmp_path / "new.csv")
        want = _ref_long_runs(tr)
        assert len(want) == runs
        assert memo_calls == [("write", *run) for run in want] * 2
        memo_calls.clear()
        Trace.from_jsonl(tmp_path / "new.jsonl")
        want = _ref_read_runs(tmp_path / "new.jsonl")
        assert len(want) == read_runs
        # and no block is parsed line by line
        assert memo_calls == [("read", *run) for run in want]
        _assert_files_match_reference(tr, tmp_path)

    def test_run_across_t_100000(self, tmp_path, memo_calls):
        # rounds 99,901..100,050 are one run; the reference formats rows
        # one by one, so whole files of this length are compared only in CSV
        tr = _runs_trace([60_000, 39_900, 150], 3, True)
        tr.to_jsonl(tmp_path / "new.jsonl")
        tr.to_csv(tmp_path / "new.csv")
        _ref_to_csv(tr, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        lines = (tmp_path / "new.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) == len(tr)
        for lo, hi in ((1, 120), (59_950, 60_060), (99_850, 100_050)):
            _ref_to_jsonl(tr, tmp_path / "ref.jsonl", range(lo - 1, hi))
            assert b"".join(lines[lo - 1:hi]) == (tmp_path / "ref.jsonl").read_bytes()
        memo_calls.clear()
        _same_trace(Trace.from_jsonl(tmp_path / "new.jsonl"), tr)
        assert [call for call in memo_calls if call[0] == "read" and call[1] <= 100_000 <= call[2]]

    @pytest.mark.parametrize("case", ["fpl_t4", "iid", "runs_and_singles"])
    def test_one_pass_writes_both_files(self, tmp_path, memo_calls, case):
        # the same bytes as the one-format calls, each run laid out once per
        # file, chunk by chunk
        tr = _REPEAT_CASES[case][0]()
        tr.to_jsonl(tmp_path / "one.jsonl")
        tr.to_csv(tmp_path / "one.csv")
        memo_calls.clear()
        tr.to_files(jsonl=tmp_path / "both.jsonl", csv=tmp_path / "both.csv")
        for ext in ("jsonl", "csv"):
            assert (tmp_path / f"both.{ext}").read_bytes() == (tmp_path / f"one.{ext}").read_bytes()
        assert sorted(memo_calls) == sorted([("write", *run) for run in _ref_long_runs(tr)] * 2)

    @pytest.mark.parametrize("singles", [-1, 0, 1])
    @pytest.mark.parametrize("chunks", [1, 2])
    def test_run_at_a_format_chunk_edge(self, tmp_path, memo_calls, singles, chunks):
        # a long run whose first row is the last, the first or the second
        # row formatted in a chunk, after rows that each differ from the last
        lengths = [1] * (chunks * tracefile._FORMAT_ROWS + singles) + [40] + [1] * 50
        tr = _runs_trace(lengths, 2, True)
        memo_calls.clear()
        _assert_files_match_reference(tr, tmp_path)
        writes = [call for call in memo_calls if call[0] == "write"]
        assert writes == [("write", *run) for run in _ref_long_runs(tr)] * 2

    def test_empty_trace_files(self, tmp_path):
        tr = TraceBuilder(2, 2).build(rng_seed=0, scenario_id="", learner_id="")
        tr.to_files(jsonl=tmp_path / "t.jsonl", csv=tmp_path / "t.csv")
        assert (tmp_path / "t.jsonl").read_bytes() == b""
        assert (tmp_path / "t.csv").read_bytes() == b"t,group,outcome,expected_loss,p_0,p_1,loss_0,loss_1\r\n"

    @pytest.mark.parametrize("first,count", [
        (1, 9), (10, 90), (990, 10), (9990, 10), (10_000, 8192), (19_000, 1000), (99_999, 1),
        (100_000, 8192), (123_456_789, 5000), (99_995_000, 5000), (10**11, 25_001),
    ])
    def test_line_block_matches_formatting(self, first, count):
        # the digit table's pieces of 10000 rows, and the digits above the
        # last four changing inside a piece
        block = tracefile._line_block(b'{"a": 1, "t": ', first, count, b"}\n")
        assert block.tobytes() == b"".join(b'{"a": 1, "t": %d}\n' % t for t in range(first, first + count))

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
        tr = hand_trace([(t % 2, POS, (0.25, 0.75), (1.0, 0.5)) for t in (1, 2, 3)])
        objs = [_ref_json_obj(tr, k) for k in range(3)]
        if value == "shift":
            objs[1]["expected_loss"] += 2e-9
        elif value is None:
            del objs[1][field]
        else:
            objs[1][field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        with pytest.raises(_REF_ERRORS):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match="line 2"):
            Trace.from_jsonl(path)

    @pytest.mark.parametrize("rows", [3, 300])
    @pytest.mark.parametrize("field,value", [
        ("p", ["0.49609375", "0.50390625"]),
        ("losses", [False, True]),
        ("expected_loss", "0.50390625"),
    ])
    def test_values_that_are_not_numbers(self, tmp_path, rows, field, value):
        # np.array(..., dtype=float64) turns each into the row's own floats,
        # and the oracle accepts them; 300 rows repeat, 3 do not
        tr = hand_trace([(0, POS, (0.49609375, 0.50390625), (0.0, 1.0))] * rows)
        objs = [_ref_json_obj(tr, k) for k in range(rows)]
        objs[1][field] = value
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(o, sort_keys=True) + "\n" for o in objs))
        assert len(_ref_from_jsonl(path)) == rows
        with pytest.raises(ConfigError, match=f"line 2: {field} must be a"):
            Trace.from_jsonl(path)

    def test_one_json_value_per_line(self, tmp_path):
        # one array of the block's lines read this file as 3 rows: the first
        # spans lines 1 and 2, and line 3 holds two
        objs = [_ref_json_obj(hand_trace(TOY_ROWS), k) for k in range(3)]
        lines = [json.dumps(objs[0])[:-1] + ', "x": [0', "1]}",
                 json.dumps(objs[1]) + ", " + json.dumps(objs[2])]
        path = tmp_path / "split.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match="line 1: not JSON"):
            Trace.from_jsonl(path)

    @settings(max_examples=6, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3000), st.integers(0, 6)), min_size=1, max_size=8),
           st.integers(1, 1500), st.integers(0, 2**32 - 1), st.sampled_from([2, 3]),
           st.lists(st.sampled_from([(5, 40), (95, 140), (990, 1040), (450, 1450), (8150, 8230)]),
                    max_size=3))
    def test_distinct_row_paths_match_reference(self, tmp_path_factory, segments, extra, seed, d, spans):
        # Segments of rows drawn from k of the pool's rows (k = 0: no
        # repeats; k = 1: one run) past the 8192-row write edge and across
        # read-block edges. Pool rows differ only in a zero's sign, a group
        # or an outcome. Each span is then one run, over t = 9 -> 10,
        # 99 -> 100, 999 -> 1000, the first read edge (about line 500 to
        # 1400) or the write edge.
        T = 8192 + extra
        zeros = _zero_rows(d)
        pool = np.array([(g, c, i, j) for g in (0, 1) for c in (-1, 0, 1)
                         for i in (0, 1, 2) for j in (0, 1, 3)])
        rng = np.random.default_rng(seed)
        blocks, n_rows = [], 0
        while n_rows < T:
            for n, k in segments:
                if k:
                    g, c, i, j = pool[rng.choice(len(pool), k)[rng.integers(0, k, n)]].T
                    blocks.append((g, c, zeros[i], zeros[j]))
                else:
                    blocks.append((rng.integers(0, 2, n), rng.integers(-1, 2, n),
                                   rng.dirichlet(np.ones(d), n), rng.random((n, d))))
                n_rows += n
        groups, codes, p, losses = (np.concatenate(col)[:T] for col in zip(*blocks))
        for lo, hi in spans:
            g, c, i, j = pool[rng.integers(len(pool))]
            groups[lo:hi], codes[lo:hi], p[lo:hi], losses[lo:hi] = g, c, zeros[i], zeros[j]
        builder = TraceBuilder(d, 2)
        builder.append_block(groups, codes.astype(np.int8), losses, p,
                             np.einsum("td,td->t", p, losses))
        tr = builder.build(rng_seed=seed, scenario_id="", learner_id="")
        _assert_files_match_reference(tr, tmp_path_factory.mktemp("paths"))

    @pytest.fixture(scope="class")
    def run_lines(self, tmp_path_factory):
        """The lines of a JSONL trace of four runs, over rounds 1..40,
        41..150, 151..1500 and 1501..1800."""
        path = tmp_path_factory.mktemp("runs") / "runs.jsonl"
        _runs_trace([40, 110, 1350, 300], 2, True).to_jsonl(path)
        return path.read_text().splitlines(keepends=True)

    @pytest.fixture(scope="class")
    def mixed_lines(self, tmp_path_factory):
        """The lines of a JSONL trace of the runs _MIXED_RUNS, over 2342
        rounds."""
        path = tmp_path_factory.mktemp("mixed") / "mixed.jsonl"
        _runs_trace(_MIXED_RUNS, 2, True).to_jsonl(path)
        return path.read_text().splitlines(keepends=True)

    @pytest.fixture(scope="class")
    def long_run_lines(self, tmp_path_factory):
        """The lines of a JSONL trace of runs over rounds 1..40 and
        41..10,050: every read block after the first carries the second
        run on, over t = 9999 -> 10000."""
        path = tmp_path_factory.mktemp("long") / "long.jsonl"
        _runs_trace([40, 10_010], 2, False).to_jsonl(path)
        return path.read_text().splitlines(keepends=True)

    @pytest.fixture(scope="class")
    def t100k_lines(self, tmp_path_factory):
        """As ``long_run_lines``, with the second run over rounds
        41..100,050, over t = 99999 -> 100000."""
        path = tmp_path_factory.mktemp("t100k") / "t100k.jsonl"
        _runs_trace([40, 100_010], 2, False).to_jsonl(path)
        return path.read_text().splitlines(keepends=True)

    def _read_like_reference(self, path, memo_calls):
        """Read path and check its columns against the reference reader's;
        returns the runs read by byte compares. No block may be parsed line
        by line."""
        memo_calls.clear()
        _same_trace(Trace.from_jsonl(path), _ref_from_jsonl(path))
        assert not [call for call in memo_calls if call[0] == "lines"]
        return [call for call in memo_calls if call[0] == "read"]

    def _valid_edit(self, tmp_path, lines, memo_calls, t, edit):
        lines = list(lines)
        line = lines[t - 1]
        if edit in ("blank", "spaces"):
            lines.insert(t - 1, "\n" if edit == "blank" else " \t \n")
        elif edit == "group":
            g = line.index('"group": ') + len('"group": ')
            lines[t - 1] = line[:g] + "10"[int(line[g])] + line[g + 1:]
        else:
            lines[t - 1] = line.replace('{"expected_loss"', '{"\u00e9": 0, "expected_loss"')
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        self._read_like_reference(path, memo_calls)

    def _one_byte_error(self, tmp_path, lines, t, edit, reference=True):
        lines = list(lines)
        line = lines[t - 1]
        at = {"t": len(line) - 3, "expected_loss": line.index(": ") + 2,
              "not_json": line.index('"losses": [') + len('"losses": ')}[edit]
        new = {"t": "98"[line[at] == "9"], "expected_loss": "10"[line[at] == "1"], "not_json": "{"}[edit]
        lines[t - 1] = line[:at] + new + line[at + 1:]
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(lines))
        if reference:
            with pytest.raises(_REF_ERRORS):
                _ref_from_jsonl(path)
        error = {"t": f"t is {lines[t - 1][lines[t - 1].rindex(' ') + 1:-2]}, expected {t}$",
                 "expected_loss": r"expected_loss \S+ disagrees with p \. losses = \S+$",
                 "not_json": r"not JSON \(Expecting property name enclosed in double quotes\)$"}[edit]
        with pytest.raises(ConfigError, match=f"{path} line {t}: {error}"):
            Trace.from_jsonl(path)

    def test_crlf_line_endings(self, tmp_path, run_lines, memo_calls):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("".join(run_lines).replace("\n", "\r\n").encode())
        assert self._read_like_reference(path, memo_calls)

    @pytest.mark.parametrize("t", [600, 151, 1500, 999, 1000, 1800])
    @pytest.mark.parametrize("edit", ["blank", "group", "non_ascii"])
    def test_valid_edit_inside_a_run(self, tmp_path, run_lines, memo_calls, t, edit):
        # rounds 151 and 1500 start and end a run, 999 and 1000 end and
        # start a stretch of one line width, and 1800 ends the file
        self._valid_edit(tmp_path, run_lines, memo_calls, t, edit)

    @pytest.mark.parametrize("t", [600, 151, 1500, 999, 1000, 1800])
    @pytest.mark.parametrize("edit", ["t", "expected_loss", "not_json"])
    def test_one_byte_error_inside_a_run(self, tmp_path, run_lines, t, edit):
        self._one_byte_error(tmp_path, run_lines, t, edit)

    @pytest.mark.parametrize("t", [151, 600])
    def test_run_after_a_line_with_another_tail(self, tmp_path, run_lines, t):
        # rounds t..t + 40 get a member "s" whose string the tail closes on
        # round t only: that line is valid JSON, and the lines after it, of
        # its width and with its text before their tails, are not, so none
        # of them may stand for its row
        lines = list(run_lines)
        for k in range(t, t + 41):
            body = lines[k - 1][:lines[k - 1].rindex(', "t": ')] + ', "s": "x'
            lines[k - 1] = body + (f'", "t":{k}}}\n' if k == t else f', "t": {k}}}\n')
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(lines))
        with pytest.raises(ValueError):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match=f"{path} line {t + 1}: not JSON"):
            Trace.from_jsonl(path)

    def test_last_line_without_newline(self, tmp_path, run_lines, memo_calls):
        path = tmp_path / "open.jsonl"
        path.write_text("".join(run_lines).removesuffix("\n"))
        assert self._read_like_reference(path, memo_calls)

    @pytest.mark.parametrize("lo,hi", [(0, 50), (-50, 0), (-50, 50), (-1, 1)])
    def test_group_edit_at_a_block_edge(self, tmp_path, run_lines, memo_calls, lo, hi):
        # lines edge + lo + 1..edge + hi, around the first read block's last
        # line (edge) inside a long run, get the other group: a run at a
        # block's head continues the block before's last run only when its
        # text does
        text = "".join(run_lines)
        edge = text[:text.find("\n", tracefile._READ_CHARS - 1) + 1].count("\n")
        lines = list(run_lines)
        g = lines[edge].index('"group": ') + len('"group": ')
        for k in range(edge + lo, edge + hi):
            lines[k] = lines[k][:g] + "10"[int(lines[k][g])] + lines[k][g + 1:]
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(lines))
        assert self._read_like_reference(path, memo_calls)

    # a line of the fourth read block, which carries the run on whole: its
    # first, one in its middle or its last, or one on either side of t's
    # gaining a digit
    _CARRIED_T = ["first", "middle", "last", 9999, 10_000]

    @staticmethod
    def _carried_t(lines, where):
        heads = _block_heads(lines)
        assert 41 < heads[1] and heads[4] < 9999
        return {"first": heads[3], "middle": (heads[3] + heads[4]) // 2, "last": heads[4] - 1}.get(where, where)

    @pytest.mark.parametrize("where", _CARRIED_T)
    @pytest.mark.parametrize("edit", ["t", "expected_loss", "not_json"])
    def test_one_byte_error_in_a_carried_run(self, tmp_path, long_run_lines, where, edit):
        self._one_byte_error(tmp_path, long_run_lines, self._carried_t(long_run_lines, where), edit)

    @pytest.mark.parametrize("t", [99_999, 100_000])
    @pytest.mark.parametrize("edit", ["t", "expected_loss", "not_json"])
    def test_one_byte_error_in_a_carried_run_across_t_100000(self, tmp_path, t100k_lines, t, edit):
        # the reference reader would parse 100,050 lines for each case
        self._one_byte_error(tmp_path, t100k_lines, t, edit, reference=False)

    @pytest.mark.parametrize("where", _CARRIED_T)
    @pytest.mark.parametrize("edit", ["blank", "group", "non_ascii"])
    def test_valid_edit_in_a_carried_run(self, tmp_path, long_run_lines, memo_calls, where, edit):
        self._valid_edit(tmp_path, long_run_lines, memo_calls, self._carried_t(long_run_lines, where), edit)

    def test_crlf_line_endings_in_a_carried_run(self, tmp_path, long_run_lines, memo_calls):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("".join(long_run_lines).replace("\n", "\r\n").encode())
        heads = _block_heads(long_run_lines)
        reads = self._read_like_reference(path, memo_calls)
        assert reads == [("read", *run) for run in _ref_read_runs(path)]
        # the third block is carried on whole
        assert ("read", heads[2], heads[3] - 1) in reads

    @pytest.mark.parametrize("cut", [1, 20])
    def test_truncated_last_line_in_a_carried_run(self, tmp_path, long_run_lines, memo_calls, cut):
        # the last line loses its newline, or its last 20 characters
        path = tmp_path / "cut.jsonl"
        path.write_text("".join(long_run_lines)[:-cut])
        if cut == 1:
            assert self._read_like_reference(path, memo_calls)
        else:
            with pytest.raises(ConfigError, match=f"{path} line 10050: not JSON"):
                Trace.from_jsonl(path)

    # rounds 10 and 24 are single lines, 40 and 465 lie in short runs, 56
    # and 455 start and end a long run, 1000 follows t's gaining a digit in
    # one, 1200 lies in the run that the first read block ends in, 1700 in
    # alternating runs of one and two lines, and 2342 ends the file
    _MIXED_T = [10, 24, 40, 56, 455, 465, 1000, 1200, 1700, 2342]

    def test_crlf_line_endings_in_mixed_blocks(self, tmp_path, mixed_lines, memo_calls):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes("".join(mixed_lines).replace("\n", "\r\n").encode())
        assert len(self._read_like_reference(path, memo_calls)) == _REPEAT_CASES["short_between_long"][2]

    @pytest.mark.parametrize("t", _MIXED_T)
    @pytest.mark.parametrize("edit", ["blank", "spaces", "group", "non_ascii"])
    def test_valid_edit_inside_a_mixed_block(self, tmp_path, mixed_lines, memo_calls, t, edit):
        self._valid_edit(tmp_path, mixed_lines, memo_calls, t, edit)

    @pytest.mark.parametrize("t", _MIXED_T)
    @pytest.mark.parametrize("edit", ["t", "expected_loss", "not_json"])
    def test_one_byte_error_inside_a_mixed_block(self, tmp_path, mixed_lines, t, edit):
        self._one_byte_error(tmp_path, mixed_lines, t, edit)

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

    @pytest.mark.parametrize("make", [
        lambda: _iid_trace(9, 2, 2, 3000, True),
        # rows that run long; the blank lines keep its blocks off the run path
        lambda: run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 3000, 3, retain="full"),
    ], ids=["iid", "fpl"])
    @pytest.mark.parametrize("edit", list(_ROW_EDITS))
    def test_error_in_a_late_chunk_names_its_line(self, tmp_path, make, edit):
        rows = _jsonl_rows(make(), tmp_path)
        # row 2600 is in the third block read
        k = 2600
        rows[k] = _ROW_EDITS[edit](rows[k])
        # a blank line after every fifth row puts row j on line j + 1 + j // 5
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(row + "\n" + "\n" * (j % 5 == 4) for j, row in enumerate(rows)))
        with pytest.raises(_REF_ERRORS):
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

    @pytest.mark.parametrize("make", [
        lambda: _iid_trace(12, 2, 2, 3000, False),
        # read by runs up to the break
        lambda: _runs_trace([40, 110, 1350, 1500], 2, False),
    ], ids=["iid", "runs"])
    @pytest.mark.parametrize("where", ["last_line", "next_line", "restart"])
    def test_t_break_at_a_block_boundary(self, tmp_path, make, where):
        rows = _jsonl_rows(make(), tmp_path)
        text = (tmp_path / "ref.jsonl").read_text()
        # the last line of the first block read
        edge = text[:text.find("\n", tracefile._READ_CHARS - 1) + 1].count("\n")
        assert edge < len(rows) - 5
        if where == "last_line":
            # the edit keeps the line's width, so the line still ends the block
            rows[edge - 1] = _ROW_EDITS["t"](rows[edge - 1])
            line, t = edge, edge + 1
        elif where == "next_line":
            rows = rows[:edge] + rows[edge + 4:]
            line, t = edge + 1, edge + 5
        else:
            # the second block starts again at t = 1
            rows = rows[:edge] + rows
            line, t = edge + 1, 1
        path = _write_rows(tmp_path, rows)
        with pytest.raises(ValueError):
            _ref_from_jsonl(path)
        with pytest.raises(ConfigError, match=f"line {line}: t is {t}, expected {line}$"):
            Trace.from_jsonl(path)

    def test_read_peak_memory(self, tmp_path):
        # The reader holds one block of lines, parsed or as bytes, and the
        # columns kept so far, and joins one column at a time. The whole-file check it
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


def test_long_runs_skip_the_line_scan(tmp_path, monkeypatch):
    # A 100k-round FPL trace on t4: four long runs hold all but 280 rows and
    # span 79 read blocks. A block that a run goes on through from the block
    # before is read by one compare, so only the blocks where a run starts or
    # ends, or that hold a line outside one, reach the newline scan; and only
    # the lines outside long runs, and fewer than 32 for each run, are
    # scanned as JSON. Counts, not timings, so a change that loses the path
    # fails here.
    tr = run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 100_000, 3, retain="full")
    path = tmp_path / "fpl.jsonl"
    tr.to_jsonl(path)
    calls = {"offsets": 0, "scanned": 0}
    line_offsets, scan = tracefile._line_offsets, tracefile._scan

    def offsets_spy(text):
        calls["offsets"] += 1
        return line_offsets(text)

    def scan_spy(text, k):
        calls["scanned"] += 1
        return scan(text, k)

    monkeypatch.setattr(tracefile, "_line_offsets", offsets_spy)
    monkeypatch.setattr(tracefile, "_scan", scan_spy)
    _same_trace(Trace.from_jsonl(path), tr)
    runs = _ref_long_runs(tr)
    heads = _block_heads(path.read_text().splitlines(keepends=True))
    carried = sum(any(first < a and b - 1 <= last for first, last in runs)
                  for a, b in zip(heads, heads[1:] + [len(tr) + 1]))
    outside = len(tr) - sum(last - first + 1 for first, last in runs)
    assert (len(runs), outside, len(heads)) == (4, 280, 79)
    assert calls["offsets"] <= len(heads) - carried
    assert calls["scanned"] <= outside + tracefile._RUN * len(runs)


def test_trace_io_leaves_numpy_ma_unimported(tmp_path):
    # np.unique without return_inverse imports numpy.ma, about 1 MB of RSS;
    # the writers' runs and repeated columns, and the reader, must not. The subprocess starts without it, and does not inherit pytest's
    # pythonpath setting.
    code = """if True:
        import sys
        from pathlib import Path
        from fair_experts import RandomIID, SingleMW, Trace, run
        out = Path(sys.argv[1])
        assert "numpy.ma" not in sys.modules
        for tr in (run({"kind": "fpl", "eta": 0.1}, {"kind": "t4"}, 20_000, 3, retain="full"),
                   run(SingleMW(0.1), RandomIID(d=3), 3000, 1, retain="full")):
            tr.to_jsonl(out / "t.jsonl")
            tr.to_csv(out / "t.csv")
            assert len(Trace.from_jsonl(out / "t.jsonl")) == len(tr)
        assert "numpy.ma" not in sys.modules
    """
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
