"""Trace files: the JSONL and CSV layout of a full trace, its one-pass
writer and its block reader, which ``Trace.to_files``, ``to_jsonl``,
``to_csv`` and ``from_jsonl`` call. Both work by runs, stretches of
consecutive rows whose fields but t keep their bits (-0.0 is not 0.0): a
run of at least _RUN rows is written as byte blocks from its first line, and
read by byte compares with only its first line parsed; a run that goes on
from one read block to the next is compared with the writer's own byte
blocks."""

from __future__ import annotations

import contextlib
import functools
import json
from itertools import chain, repeat
from json.scanner import make_scanner
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .types import (_IO_CHUNK, _RUN, NEGATIVE_CODE, POSITIVE_CODE, UNLABELED_CODE, ConfigError,
                    _check_rows, _run_bounds)

# Characters per block when a trace file is read, extended to the end of the
# block's last line: about 1000 lines of a two-expert trace. A parsed line is
# a dict of Python objects, about 1 KB, so a read holds fewer rows than a
# write; at 256 KiB the reader's traced peak on an FPL trace went from 1.7 to
# 2.8 times the arrays it returns.
_READ_CHARS = 1 << 17

# Rows formatted at a time when a trace file is written, about 1 MB of
# short-lived strings for two experts. At 8192 rows the allocator kept the
# arenas that the text had taken after the write, and each repetition of
# `theorem1 --retain full` peaked higher than the last until the third.
_FORMAT_ROWS = 2048

# The text around t's digits at the end of a JSONL line.
_T_HEAD = b', "t": '
_T_TAIL = b"}\n"


# The C scanner behind json.loads: _scan(text, k) parses the JSON value that
# starts at text[k] and returns it with the index just past its end.
_scan = make_scanner(json.JSONDecoder())


def _float_text(col: np.ndarray) -> list[str]:
    """repr of each float of a 1-D column. When at most half of the first
    256 bit patterns (so -0.0 keeps its sign) are distinct, each distinct one
    is formatted once and the text gathered back; repr is most of a trace
    writer's time."""
    col = np.asarray(col, dtype=np.float64)
    bits = col.view(np.int64)
    # counted by sorting: np.unique without return_inverse imports numpy.ma,
    # which would add 1 MB to the process
    head = np.sort(bits[:256])
    if 2 * (1 + np.count_nonzero(head[1:] != head[:-1])) > head.size:
        return list(map(repr, col.tolist()))
    uniq, inverse = np.unique(bits, return_inverse=True)
    return np.array(list(map(repr, uniq.view(np.float64).tolist())), dtype=object)[inverse].tolist()


def _same_width(first: int, last: int) -> Iterator[tuple[int, int]]:
    """first..last cut where t gains a digit, as (lo, hi) pairs."""
    while first <= last:
        hi = min(last, 10 ** len(str(first)) - 1)
        yield first, hi
        first = hi + 1


@functools.cache
def _digit_rows() -> np.ndarray:
    """(20000, 4) uint8, read-only: row i holds the ASCII digits of
    i % 10000, with leading zeros, so the last four digits of any 10000
    consecutive numbers are a slice of it. Built on first use: built at
    import, its temporaries raised the peak RSS of processes that write no
    trace file by about 0.3 MB."""
    rows = (np.arange(20_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    rows.flags.writeable = False
    return rows


def _line_block(head: bytes, first: int, count: int, tail: bytes) -> np.ndarray:
    """The (count, W) uint8 block whose row i is the text head, the digits of
    first + i and tail; first..first + count - 1 have one number of digits.

    The block is laid out as count copies of one line, then the digits are
    copied in, in pieces of 10000 rows: the last four of them are a slice of
    ``_digit_rows()``, and those before change once at most in a piece."""
    k = len(str(first))
    a, b = len(head), len(head) + k
    block = np.frombuffer(bytearray(head + bytes(k) + tail) * count, dtype=np.uint8).reshape(count, -1)
    low = min(k, 4)
    for s in range(0, count, 10_000):
        piece, lo = block[s:s + 10_000], first + s
        r = lo % 10_000
        piece[:, b - low:b] = _digit_rows()[r:r + piece.shape[0], 4 - low:]
        if k > 4:
            turn = 10_000 - r
            piece[:turn, a:b - 4] = np.frombuffer(str(lo // 10_000).encode(), dtype=np.uint8)
            if turn < piece.shape[0]:
                piece[turn:, a:b - 4] = np.frombuffer(str(lo // 10_000 + 1).encode(), dtype=np.uint8)
    return block


def _write_lines(fh, lines: list[str], runs: list[tuple[int, int, int]],
                 split: Callable[[str, int], tuple[str, str]]) -> None:
    """Write formatted lines to the binary handle fh, each long run as byte
    blocks of at most _IO_CHUNK lines. ``runs`` lists (k, first, last):
    lines[k] is the line of round first, and rounds first..last repeat it
    with their own t. ``split(line, n)`` cuts a line around the n digits of
    its t."""
    done = 0
    for k, first, last in runs:
        fh.write("".join(lines[done:k]).encode())
        head, tail = (text.encode() for text in split(lines[k], len(str(first))))
        for lo, hi in _same_width(first, last):
            for s in range(lo, hi + 1, _IO_CHUNK):
                fh.write(_line_block(head, s, min(hi + 1 - s, _IO_CHUNK), tail))
        done = k + 1
    fh.write("".join(lines[done:]).encode())


_OUTCOME_JSON = {NEGATIVE_CODE: '"-"', POSITIVE_CODE: '"+"', UNLABELED_CODE: "null"}
_OUTCOME_CSV = {NEGATIVE_CODE: "-", POSITIVE_CODE: "+", UNLABELED_CODE: ""}
# Outcome values a JSONL row may carry; a missing or empty one is unlabeled.
_OUTCOME_CODES = {None: UNLABELED_CODE, "": UNLABELED_CODE, "-": NEGATIVE_CODE, "+": POSITIVE_CODE}
# Python types a JSON number parses to.
_NUMBERS = {int, float}


def _jsonl_format(d: int) -> tuple:
    """The JSONL layout of a d-expert trace: its header, a function from a
    chunk's formatted columns to its lines, and the split of a line around
    t's digits. A line is json.dumps(sort_keys=True) of {expected_loss,
    group, losses, outcome, p, t}, floats by repr."""
    floats = ", ".join(["%s"] * d)
    row = ('{"expected_loss": %s, "group": %d, "losses": [' + floats
           + '], "outcome": %s, "p": [' + floats + '], "t": %d}\n')

    def lines(t, groups, codes, exp, p, ell):
        out = [_OUTCOME_JSON[c] for c in codes]
        return [row % v for v in zip(exp, groups, *ell, out, *p, t)]

    return "", lines, lambda line, n: (line[:-n - 2], line[-2:])


def _csv_format(d: int) -> tuple:
    """The CSV layout of a d-expert trace, as ``_jsonl_format``'s: columns
    t, group, outcome, expected_loss, p_0.., loss_0.., laid out as
    csv.writer's default dialect lays them out: no field needs quoting, and
    rows end with \\r\\n."""
    header = ["t", "group", "outcome", "expected_loss"]
    header += [f"p_{f}" for f in range(d)] + [f"loss_{f}" for f in range(d)]
    row = "%d,%d,%s,%s" + ",%s" * (2 * d) + "\r\n"

    def lines(t, groups, codes, exp, p, ell):
        out = [_OUTCOME_CSV[c] for c in codes]
        return [row % v for v in zip(t, groups, out, exp, *p, *ell)]

    return ",".join(header) + "\r\n", lines, lambda line, n: ("", line[n:])


def _int_column(values: list) -> np.ndarray:
    """JSON integers as an int64 column. A bool, a float or an integer
    beyond int64 raises TypeError."""
    col = np.array(values)
    if not set(map(type, values)) <= {int} or col.dtype.kind != "i":
        raise TypeError("t and group must be integers")
    return col.astype(np.int64)


def _number_rows(name: str, values: list, width: int | None) -> np.ndarray:
    """n JSON lists of numbers as an (n, width) float64 block; a width of None
    takes the first list's. TypeError unless each value is a non-empty list
    of numbers, and ValueError for a list of another width."""
    if set(map(type, values)) <= {list} and all(values):
        flat = list(chain.from_iterable(values))
        if set(map(type, flat)) <= _NUMBERS:
            width = len(values[0]) if width is None else width
            if set(map(len, values)) != {width}:
                wrong = next(n for n in map(len, values) if n != width)
                raise ValueError(f"{name} has {wrong} entries, expected {width}")
            return np.array(flat, dtype=np.float64).reshape(len(values), width)
    raise TypeError(f"{name} must be a non-empty list of numbers")


def _row_columns(rows: Sequence, d: int | None) -> tuple[np.ndarray, ...]:
    """t, group, outcome code, p, losses and expected_loss columns of parsed
    JSONL rows. Raises TypeError unless every row is a JSON object, KeyError
    for a missing field, and TypeError or ValueError for a value of the wrong
    kind or a width other than d. A number must be a JSON number: np.array
    would turn "0.5" and true into floats."""
    if not set(map(type, rows)) <= {dict}:
        raise TypeError("not a JSON object")
    t = _int_column([r["t"] for r in rows])
    groups = _int_column([r["group"] for r in rows])
    codes = np.array([_OUTCOME_CODES.get(r.get("outcome"), 2) for r in rows], dtype=np.int8)
    if codes.max() == 2:
        raise ValueError("outcome must be '+', '-' or null")
    p = [r["p"] for r in rows]
    ell = [r["losses"] for r in rows]
    exp = [r["expected_loss"] for r in rows]
    if not set(map(type, exp)) <= _NUMBERS:
        raise TypeError("expected_loss must be a number")
    dists = _number_rows("p", p, d)
    return t, groups, codes, dists, _number_rows("losses", ell, dists.shape[1]), np.array(exp, dtype=np.float64)


def _line_offsets(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The code units of text and the start and end of each of its lines, an
    end just past the line's newline. The units are bytes when text is ASCII
    and code points otherwise, so that an offset is also a str index."""
    if text.isascii():
        buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        buf = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    ends = np.flatnonzero(buf == 10) + 1
    if not text.endswith("\n"):
        ends = np.append(ends, buf.shape[0])
    return buf, np.concatenate(([0], ends[:-1])), ends


def _long_runs(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               t: np.ndarray) -> list[tuple[int, int]]:
    """(first, last) of each run of at least _RUN of the lines at the given
    offsets of buf, which should hold the rounds t: lines first..last each
    end with the tail ', "t": N}\\n', N their t, as ``Trace.to_jsonl`` writes
    it, and are alike before it.

    Lines of one width whose t have one number of digits, with nothing
    between them, are compared as one (L, W) array: each line's tail against
    the tail it should have, and its text before the tail against the line
    before's. Such a stretch shorter than _RUN lines is not compared.

    Why line k of a run is line first with t = N: let line first scan as one
    JSON object that ends just before its newline. Its tail cannot start
    inside a string, as the tail's quote would close it and leave t outside
    one, so the tail's "t": N is a member of the object that its "}" closes,
    and that is the top-level object, as the scan ends there. The text before
    the tail, which line k repeats, is therefore the object less its closing
    brace, ending after a whole member. Line k's tail adds the member t = N
    and closes the object, and JSON keeps the last of duplicate keys."""
    n = starts.shape[0]
    width = ends - starts
    # stretches of lines of one width whose t have one number of digits
    cut = (width[1:] != width[:-1]) | (starts[1:] != ends[:-1])
    cut[[lo - int(t[0]) - 1 for lo, _ in _same_width(int(t[0]), int(t[-1]))][1:]] = True
    bounds = np.concatenate(([0], np.flatnonzero(cut) + 1, [n]))
    long = np.flatnonzero(np.diff(bounds) >= _RUN)
    runs = []
    for i, j in zip(bounds[long].tolist(), bounds[long + 1].tolist()):
        # the length of each line's text before its tail
        size = int(width[i]) - len(_T_HEAD) - len(_T_TAIL) - len(str(int(t[i])))
        if size < 1:
            continue
        lines = buf[starts[i]:ends[j - 1]].reshape(j - i, -1)
        tails, rests = lines[:, size:], lines[:, :size]
        want = _line_block(_T_HEAD, int(t[i]), j - i, _T_TAIL)
        # gap[k]: lines i + k - 1 and i + k are not in one run, as k ends the
        # stretch, a tail of the two is wrong or their texts before the tails
        # differ; mismatches are found by flat index, not reduced per line
        gap = np.zeros(j - i + 1, dtype=bool)
        gap[[0, -1]] = True
        bad = np.flatnonzero(tails != want) // tails.shape[1]
        gap[bad] = gap[bad + 1] = True
        gap[np.flatnonzero(rests[1:] != rests[:-1]) // size + 1] = True
        cuts = np.flatnonzero(gap)
        for k in np.flatnonzero(np.diff(cuts) >= _RUN).tolist():
            runs.append((i + int(cuts[k]), i + int(cuts[k + 1]) - 1))
    return runs


def _carried_lines(buf: bytes, rest: bytes, t0: int) -> tuple[int, int]:
    """The number of whole lines at the head of the ASCII block buf that go
    on with a long run of the block before, and the bytes they take. The run's
    lines are rest + ', "t": N}\\n' with N = t0 + 1, t0 + 2, ...: each piece
    of at most _IO_CHUNK lines of one width is laid out by the writer's
    ``_line_block`` and compared with the block's bytes in one compare. That
    such a line stands for the run's row is ``_long_runs``' argument."""
    head, lines, pos = rest + _T_HEAD, 0, 0
    for lo, hi in _same_width(t0 + 1, t0 + len(buf) // (len(head) + 3)):
        width = len(head) + len(str(lo)) + len(_T_TAIL)
        for s in range(lo, hi + 1, _IO_CHUNK):
            count = min(hi + 1 - s, _IO_CHUNK, (len(buf) - pos) // width)
            if not count:
                return lines, pos
            got = np.frombuffer(buf, dtype=np.uint8, count=count * width, offset=pos).reshape(count, width)
            want = _line_block(head, s, count, _T_TAIL)
            if not np.array_equal(got, want):
                k = int(np.flatnonzero(got != want)[0]) // width
                return lines + k, pos + k * width
            lines, pos = lines + count, pos + count * width
    return lines, pos


def _line_by_line(path, lines: list[str], linenos: Sequence[int], d: int | None, t0: int,
                  num_groups: int | None) -> tuple:
    """The columns of a block's lines, each line parsed by json.loads and
    checked before the next: the ConfigError names the first line at fault,
    whatever is wrong with it."""
    parts = []
    for k, (line, lineno) in enumerate(zip(lines, linenos)):
        try:
            row = _row_columns([json.loads(line)], d)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} line {lineno}: not JSON ({exc.msg})") from exc
        except KeyError as exc:
            raise ConfigError(f"{path} line {lineno}: missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from exc
        t, groups, _, dists, losses, expected = row
        _check_rows(lambda _: f"{path} line {lineno}", np.array([t0 + k + 1]),
                    t, groups, dists, losses, expected, num_groups)
        d = dists.shape[1]
        parts.append(row)
    return tuple(np.concatenate(col) for col in zip(*parts))


def _block_columns(path, text: str, offsets: tuple, t0: int, lineno: int, d: int | None,
                   num_groups: int | None) -> tuple | None:
    """The checked group, outcome code, p, losses and expected_loss columns
    of the distinct rows of a block of whole lines of a JSONL trace, which
    starts at file line lineno and round t0 + 1, then the number of lines
    each row stands for and the ``last`` to pass the next block; None for a
    block of blank lines. ``offsets`` are ``_line_offsets(text)``.

    The lines are split once, by those offsets, and blank lines dropped. The
    lines of a long run (``_long_runs``) but its first are checked by byte
    compares and stand for the first's row. Every other line is scanned once
    as one JSON value, and the rows checked as they stand. ``last`` is the
    text before the tail of the block's last line and its row, when the
    block is ASCII and that line lies in a long run, for ``_carried_lines``
    to go on with the run in the next block. If a line does not scan or its
    row is malformed, the block's lines are parsed and checked one by one
    (``_line_by_line``), for the error naming the first line at fault or for
    rows that json.loads accepts, such as one with spaces around it."""
    buf, starts, ends = offsets
    linenos = np.arange(lineno, lineno + starts.shape[0])
    # a line that does not start with "{" may be blank, and blank lines are
    # dropped
    odd = np.flatnonzero(buf[starts] != ord("{")).tolist()
    blank = [k for k in odd if text[starts[k]:ends[k]].isspace()]
    if blank:
        keep = np.ones(starts.shape[0], dtype=bool)
        keep[blank] = False
        starts, ends, linenos = starts[keep], ends[keep], linenos[keep]
    n = starts.shape[0]
    if not n:
        return None
    t = np.arange(t0 + 1, t0 + n + 1)
    runs = _long_runs(buf, starts, ends, t)
    copy = np.zeros(n, dtype=bool)
    for first, end in runs:
        copy[first + 1:end + 1] = True
    heads = np.flatnonzero(~copy)
    stops = (ends[heads] - (buf[ends[heads] - 1] == 10)).tolist()
    try:
        # each line must scan as one JSON value that stops before its
        # newline; a line with no value at its start raises StopIteration,
        # which ends the map early
        scans = list(map(_scan, repeat(text), starts[heads].tolist()))
        columns = (_row_columns([row for row, _ in scans], d)
                   if [end for _, end in scans] == stops else None)
    except (KeyError, TypeError, ValueError, OverflowError):
        columns = None
    if columns is None:
        lines = [text[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        return (*_line_by_line(path, lines, linenos, d, t0, num_groups)[1:],
                np.ones(n, dtype=np.int64), None)
    # a run's other lines repeat its first line's checks
    t_heads, groups, codes, dists, losses, expected = columns
    _check_rows(lambda k: f"{path} line {linenos[heads[k]]}", t[heads],
                t_heads, groups, dists, losses, expected, num_groups)
    columns = columns[1:]
    last = None
    if runs and runs[-1][1] == n - 1 and buf.dtype == np.uint8:
        rest = buf[starts[-1]:ends[-1] - len(_T_HEAD) - len(str(t0 + n)) - len(_T_TAIL)]
        last = (rest.tobytes(), tuple(col[-1:] for col in columns))
    return (*columns, np.diff(heads, append=n), last)


def write_files(trace, jsonl: str | Path | None = None, csv: str | Path | None = None) -> None:
    """Write a full trace's JSONL file, its CSV file or both in one pass.

    Runs are found once over the whole trace: a row starts a new run unless
    each of its expected loss, group, outcome code, p and loss columns has
    the bits of the row before, one numpy compare per column. Of a run of at
    least _RUN rows only the first row is formatted; FPL plays on 0/1 losses
    run so, 99.7% of a 100k-round FPL trace on t4. The rows to format are
    formatted _FORMAT_ROWS at a time, once for every file, floats by repr,
    and each chunk's lines go to every file before the next chunk. A run's
    entry (k, first, last) in a chunk's runs says that row k of the chunk is
    round first, and that rounds first..last are written from its line
    (``_write_lines``). The bytes are the same as when each row is formatted
    whole."""
    with contextlib.ExitStack() as stack:
        outs = []
        for path, layout in ((jsonl, _jsonl_format), (csv, _csv_format)):
            if path is not None:
                header, lines, split = layout(trace.d)
                fh = stack.enter_context(open(path, "wb"))
                fh.write(header.encode())
                outs.append((fh, lines, split))
        n = len(trace)
        starts, counts = _run_bounds((trace.expected_loss, trace.groups, trace.outcome_codes,
                                      *trace.distributions.T, *trace.losses.T), n)
        long = counts >= _RUN
        heads, lasts = starts[long], starts[long] + counts[long] - 1
        # the rows to format: all but those a long run repeats from its first
        kept = ~np.repeat(long, counts)
        kept[heads] = True
        kept = np.flatnonzero(kept)
        # one entry per row, held while the files are written otherwise
        del starts, counts, long
        for s in range(0, kept.shape[0], _FORMAT_ROWS):
            rows = kept[s:s + _FORMAT_ROWS]
            lo, hi = np.searchsorted(heads, [rows[0], rows[-1] + 1])
            runs = list(zip(np.searchsorted(rows, heads[lo:hi]).tolist(),
                            (heads[lo:hi] + 1).tolist(), (lasts[lo:hi] + 1).tolist()))
            # t, group and outcome code as ints, every float as its repr
            columns = ((rows + 1).tolist(), trace.groups[rows].tolist(),
                       trace.outcome_codes[rows].tolist(), _float_text(trace.expected_loss[rows]),
                       [_float_text(col) for col in trace.distributions[rows].T],
                       [_float_text(col) for col in trace.losses[rows].T])
            for fh, lines, split in outs:
                _write_lines(fh, lines(*columns), runs, split)


def read_columns(path: str | Path, num_groups: int | None = None) -> tuple[np.ndarray, ...]:
    """The checked group, outcome code, p, losses and expected_loss columns
    of a JSONL trace, read by blocks of whole lines of about _READ_CHARS
    characters, each row checked as soon as its block is read, its t
    continuing from the block before. The lines at a block's head that go on
    with the long run the block before ended in (``_carried_lines``) stand
    for its row; the rest of the block is read by ``_block_columns``. Only
    the distinct rows and the number of lines each stands for are kept, and
    each column is expanded once the file is read. A malformed file raises
    ConfigError naming the file and its first line at fault; a group must
    lie in 0..num_groups - 1 when num_groups is given."""
    # a list of block columns for each of the five columns, and for the
    # number of rows each distinct row stands for
    parts: tuple[list[np.ndarray], ...] = ([], [], [], [], [], [])
    t0, d, lineno, last = 0, None, 1, None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            while text := fh.read(_READ_CHARS):
                if not text.endswith("\n"):
                    text += fh.readline()
                if last is not None and text.isascii():
                    # the lines that go on with the run the block before
                    # ended in stand for its row
                    lines, pos = _carried_lines(text.encode("ascii"), last[0], t0)
                    if lines:
                        for part, col in zip(parts, (*last[1], np.array([lines]))):
                            part.append(col)
                        t0, lineno, text = t0 + lines, lineno + lines, text[pos:]
                        if not text:
                            continue
                offsets = _line_offsets(text)
                block = _block_columns(path, text, offsets, t0, lineno, d, num_groups)
                lineno += offsets[1].shape[0]
                if block is None:
                    continue
                *columns, counts, last = block
                t0 += int(counts.sum())
                d = columns[2].shape[1]
                for part, col in zip(parts, (*columns, counts)):
                    part.append(col)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not parts[0]:
        raise ConfigError(f"{path}: no rounds")
    counts = np.concatenate(parts[-1])
    repeats = counts.shape[0] < counts.sum()
    columns = []
    for part in parts[:-1]:
        # one column at a time, its chunks freed before the next is joined
        col = np.concatenate(part)
        part.clear()
        columns.append(np.repeat(col, counts, axis=0) if repeats else col)
    return tuple(columns)
