"""File formats: grid files, sequence CSVs, parameter JSON.

Grid file ("SAFTGRID v1")
    Text header followed by one CSV row per cell, row-major::

        SAFTGRID v1
        n 2
        shape 64 64
        origin -8.0 -8.0
        spacing 0.25 0.25
        re,im
        0.0,0.0
        ...

Sequence file
    CSV rows ``k1,...,kn,re,im`` with integer indices below 2**53 in
    magnitude; a header line is optional on read and always written.
    `read_sequence` takes the dimension n from its caller.

Measurement file
    A sequence file with a channel column, ``k1,...,kn,channel,re,im``: the
    channels' sequences, read by `read_measurements`.

Parameter file
    JSON, either the full block ``{"n":, "A":, "B":, "C":, "D":, "P":, "Q":}``
    or a preset form such as ``{"preset": "ft", "n": 2}`` /
    ``{"preset": "separable_frft", "theta": [0.7]}``.  A file that names no
    preset is the ``custom`` kind: every form takes `params.preset`'s rules
    (``n`` optional, a missing, unread or non-finite entry refused), and the
    caller of `read_params` validates the block (the CLI at 1e-10).

Every CSV body, here and in the CLI and figure writers, goes through one
codec: `_table_pieces` writes integers as ``str(int)`` and floats as
``repr(float)`` (Python's shortest round-trip form), and `parse_rows` reads
a table back with ``np.loadtxt``.  `_table_pieces` formats one column at a
time; a float column that repeats values, such as a grid coordinate or a
grid of mostly exact zeros, calls ``repr`` once per distinct value in each
chunk of at most `ROW_CHUNK` (16,384) rows, in whichever process formats
that chunk, and the bytes are the same as one ``repr`` per value.  It
returns the table as pieces of at most `ROW_CHUNK` rows (and the forked
child's half in pipe reads, below); every table sink writes those pieces
to its open file or stdout one by one (`_write_table`), and no sink holds
one str of the whole file.
`format_rows` is their join.

The package forks in one place, `_forked`, and only on Linux with no other
Python thread alive, never from a forked child; when the child cannot be
started or fails, this process does the child's work alone, so no output
depends on the fork.  `_table_pieces` and `parse_rows` fork for a table of
at least two `ROW_CHUNK` chunks (`_in_two`): a child formats or parses the
second half of the rows and sends its text or float64 rows back through a
pipe.  `_writing_tables`, the writer of ``repro section5``'s figure CSVs,
forks once for all the tables it is given: a child formats and writes every
file in one process while the caller's recovery runs.
`write_grid` and `write_sequence` refuse a NaN or infinite value before
they create the file, since no reader accepts one.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .grid import GridFn, SeqFn
from .params import SaftParams, _block

__all__ = [
    "read_grid",
    "write_grid",
    "read_sequence",
    "read_measurements",
    "write_sequence",
    "read_params",
    "write_params",
    "params_from_dict",
    "require_finite",
    "format_rows",
    "parse_rows",
]

_MAGIC = "SAFTGRID v1"

#: grid header keys, checked in this order (``n`` first: each other line
#: holds n fields): the type of a field, the test each field must pass,
#: and what the line must hold
_HEADER = {
    "n": (int, lambda x: x >= 1, "one integer n >= 1"),
    "shape": (int, lambda x: x >= 1, "n = {n} positive integers"),
    "origin": (float, math.isfinite, "n = {n} finite numbers"),
    "spacing": (float, lambda x: math.isfinite(x) and x > 0, "n = {n} finite positive numbers"),
}

#: rows `_table_pieces` holds as Python numbers, and `parse_rows` hands to
#: ``np.loadtxt``, at once; `_in_two` splits a table at a multiple of it
ROW_CHUNK = 1 << 14

#: `_table_pieces` looks at this many evenly spaced values of a float column,
#: and formats each distinct value once per `ROW_CHUNK` chunk when at most
#: `DEDUPE_SHARE` of them are distinct (a coordinate column of a grid)
SAMPLE_ROWS = 1 << 10
DEDUPE_SHARE = 0.5


def require_finite(path, rows, values) -> None:
    """Raise ValueError naming the file and the first data row (1-based,
    after any header) whose value is NaN or infinite; ``rows[i]`` is the
    text of the 0-based row i."""
    bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=complex)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path}: data row {i + 1} ({rows[i]!r}) has a non-finite value")


def format_rows(header: list[str], *blocks) -> str:
    """The table of `_table_pieces` as one str."""
    return "".join(_table_pieces(header, *blocks))


def _table_pieces(header: list[str], *blocks) -> list[str]:
    """The header lines, then one CSV row per row of the column blocks, as
    pieces: one per header line, one per `ROW_CHUNK` rows formatted in
    this process and, for a table split in two, the forked child's rows as
    the 64 KiB pipe reads they arrived in.  A block is a (K, c) array or a (K,)
    column; integer blocks are written as ``str(int)``, all others as
    ``repr(float)``, so NaN and infinities are written as ``nan`` and
    ``inf``.

    Each column is a view of its block and is formatted on its own,
    `ROW_CHUNK` rows at a time.  A float column that repeats values (see
    `SAMPLE_ROWS`) calls ``repr`` once per distinct bit pattern of each
    chunk of at most 16,384 rows, in whichever process formats that chunk,
    and takes each row's text from that chunk's table; the output bytes are
    the same as with one ``repr`` per value.  On Linux, with no other
    Python thread running, a table of at least two chunks is formatted in
    two processes (see `_in_two`); when the child cannot be started or
    fails, this process formats the child's rows too, so the bytes never
    change."""
    columns, rows = _columns(blocks)
    # the child's text is kept as its decoded pipe reads, so that no str of
    # its half is formed and then held beside its encoding as it is written
    parts = _in_two(
        rows, lambda lo, hi: _format_chunks(columns, lo, hi),
        lambda lo, hi: "".join(_format_chunks(columns, lo, hi)).encode("ascii"),
        lambda split, r: list(iter(lambda: os.read(r, 1 << 16).decode("ascii"), "")))
    return [line + "\n" for line in header] + [c for part in parts for c in part] or ["\n"]


def _columns(blocks) -> tuple[list, int]:
    """`_column_text` of every column of the blocks, and their row count."""
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    return [_column_text(col) for b in blocks for col in b.T], len(blocks[0])


def _format_chunks(columns, lo: int, hi: int) -> list[str]:
    """The text of rows ``lo:hi``, one newline-terminated str per
    `ROW_CHUNK` rows."""
    chunks = []
    for start in range(lo, hi, ROW_CHUNK):
        cells = [text(start, min(start + ROW_CHUNK, hi)) for text in columns]
        chunks.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return chunks


def _write_table(path, header: list[str], *blocks) -> None:
    """Write the table's `_table_pieces` one by one to the file at `path`,
    opened once every piece is formatted: a table that cannot be formatted
    (a `MemoryError`, say) creates no file."""
    pieces = _table_pieces(header, *blocks)
    with open(path, "w") as fh:
        fh.writelines(pieces)


def _may_fork(rows: int) -> bool:
    """Whether `_in_two` splits a table of `rows` rows between two
    processes: at least two chunks, outside a `_forked` child, which
    cannot fork again (`_forked` decides whether this process can)."""
    return rows >= 2 * ROW_CHUNK and not _in_child


#: whether this process is a `_forked` child
_in_child = False


@contextmanager
def _forked(child, fallback):
    """Run ``child()`` in one forked child process while the with-block runs
    in this one, and yield whether the child was started.

    This is the package's one fork.  It forks only on Linux with no other
    Python thread alive (a thread holding a lock at the fork would leave it
    held in the child), and never in a child it forked.  The child leaves
    through ``os._exit``, with status 0 only when ``child()`` returned, so
    no inherited stdio buffer, atexit hook or caller's ``finally`` runs a
    second time.  The child is reaped when the block ends, on every path.
    When the block completed but the child could not be started or did not
    exit with status 0, ``fallback()`` then does the child's work in this
    process, so no output depends on the fork."""
    global _in_child
    pid = None
    if sys.platform.startswith("linux") and threading.active_count() == 1 and not _in_child:
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork whenever a second OS thread is
                # alive, and OpenBLAS keeps one from ``import numpy`` on.  The
                # child is safe all the same as long as it never calls BLAS:
                # the callers' children only sort, index, format and parse columns
                # and send or write the result, and no other Python thread exists.
                warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
        except OSError:
            pass
    if pid == 0:
        _in_child, status = True, 1
        try:
            child()
            status = 0
        finally:
            os._exit(status)
    try:
        yield pid is not None
    finally:
        ok = pid is not None and os.waitpid(pid, 0)[1] == 0
    if not ok:
        fallback()


def _in_two(rows: int, part, send, receive) -> list:
    """``[part(0, rows)]``, or when `_may_fork` ``[part(0, split), tail]``
    for a `split` that is a multiple of `ROW_CHUNK`: a `_forked` child
    sends ``send(split, rows)`` down a pipe while this process runs
    ``part(0, split)``, then ``receive(split, r)`` reads the read end `r`
    and is the tail, or None when the child's rows are not all there.  When
    the child cannot be started or fails, or `receive` gives None, the tail
    is ``part(split, rows)`` run here: only the child's half is redone.

    The read end is closed before the child is reaped on every path, so a
    child blocked on a full pipe gets EPIPE and exits instead of hanging."""
    if not _may_fork(rows):
        return [part(0, rows)]
    split = ROW_CHUNK * (math.ceil(rows / ROW_CHUNK) // 2)
    try:
        r, w = os.pipe()
    except OSError:
        return [part(0, rows)]
    tail = []

    def send_tail():
        os.close(r)
        data = memoryview(send(split, rows)).cast("B")
        while data:
            data = data[os.write(w, data):]

    with _forked(send_tail, tail.clear) as started:
        try:
            os.close(w)
            head = part(0, split)
            if started and (got := receive(split, r)) is not None:
                tail.append(got)
        finally:
            os.close(r)
    return [head, tail[0] if tail else part(split, rows)]


@contextmanager
def _writing_tables(tables):
    """Write each ``(path, header, *blocks)`` of `tables` with `_write_table`
    while the with-block runs.

    One `_forked` child formats every table in that one process (`_forked`
    does not fork again) and writes the files; this process reaps it when
    the block ends, on every path.  When the block completed but the child
    could not be started or failed, this process writes every file itself,
    so the bytes never change.  The blocks must be built before the block
    starts: the child sees them as they were at the fork."""
    def write_all():
        for path, header, *blocks in tables:
            _write_table(path, header, *blocks)

    with _forked(write_all, write_all):
        yield


def _column_text(col: np.ndarray):
    """The function giving the text of rows ``lo:hi`` of the 1-D column
    ``col`` (a view of its block, strided) as a list of str.

    Only `SAMPLE_ROWS` values of a float column are looked at here.  When
    they repeat, each call keys its rows ``lo:hi`` (one chunk of at most
    16,384 rows) by bit pattern and formats each distinct value once, in
    whichever process formats that chunk."""
    if col.dtype.kind in "iu":
        return lambda lo, hi: list(map(str, col[lo:hi].tolist()))
    col = col.astype(float, copy=False)
    bits = col.view(np.int64)        # keeps -0.0 and NaN payloads apart
    sample = bits[::max(1, math.ceil(len(bits) / SAMPLE_ROWS))]
    if len(np.unique(sample)) > DEDUPE_SHARE * len(sample):
        return lambda lo, hi: list(map(repr, col[lo:hi].tolist()))

    def text(lo, hi):
        distinct, inv = np.unique(bits[lo:hi], return_inverse=True)
        reprs = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
        return reprs[inv].tolist()
    return text


def _require_finite_rows(path, values, *blocks) -> None:
    """When a complex value in `values` (one per row of the column blocks)
    is not finite, raise `require_finite`'s error for its row, formatted as
    `format_rows` would write it."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        row = format_rows([], *(b[i:i + 1] for b in blocks))[:-1]
        require_finite(path, {i: row}, values)


def _write_rows(path, values, header: list[str], *blocks) -> None:
    """`_write_table` to `path`, or raise `_require_finite_rows`' error and
    create no file: no reader accepts a non-finite value."""
    _require_finite_rows(path, values, *blocks)
    _write_table(path, header, *blocks)


def write_grid(path, g: GridFn) -> None:
    header = [
        _MAGIC,
        f"n {g.n}",
        "shape " + " ".join(str(s) for s in g.shape),
        "origin " + " ".join(repr(float(x)) for x in g.origin),
        "spacing " + " ".join(repr(float(x)) for x in g.spacing),
        "re,im",
    ]
    flat = np.asarray(g.values, dtype=complex).reshape(-1)
    _write_rows(path, flat, header, np.column_stack([flat.real, flat.imag]))


def read_grid(path) -> GridFn:
    lines = _lines(path)
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    header: dict[str, str] = {}
    pos = 1
    while pos < len(lines) and lines[pos].split()[0] in _HEADER:
        key = lines[pos].split()[0]
        if key in header:
            raise ValueError(f"{path}: header line {lines[pos]!r} repeats {header[key]!r}")
        header[key] = lines[pos]
        pos += 1
    fields: dict[str, list] = {}
    for key, (kind, ok, what) in _HEADER.items():
        if key not in header:
            raise ValueError(f"{path}: missing header line {key!r}")
        n = fields["n"][0] if fields else 1        # the n line holds one field
        try:
            vals = [kind(x) for x in header[key].split()[1:]]
        except ValueError:
            vals = []
        if len(vals) != n or not all(map(ok, vals)):
            raise ValueError(f"{path}: header line {header[key]!r} must hold {what.format(n=n)}")
        fields[key] = vals
    shape = tuple(fields["shape"])
    origin, spacing = np.array(fields["origin"]), np.array(fields["spacing"])
    if pos < len(lines) and lines[pos].replace(" ", "") == "re,im":
        pos += 1
    count = math.prod(shape)
    rows = lines[pos:]
    if len(rows) != count:
        raise ValueError(f"{path}: expected {count} value rows, found {len(rows)}")
    _, values = parse_rows(path, rows, 0)
    return GridFn(
        n=n, shape=shape, origin=origin, spacing=spacing,
        values=values.reshape(shape),
    )


def write_sequence(path, s: SeqFn) -> None:
    head = [",".join(f"k{i + 1}" for i in range(s.n)) + ",re,im"]
    keys, vals = s.as_arrays()
    _write_rows(path, vals, head, keys, np.column_stack([vals.real, vals.imag]))


def _lines(path) -> list[str]:
    """The stripped, non-blank lines of the text file at `path`."""
    return list(filter(None, map(str.strip, Path(path).read_text().splitlines())))


def _data_lines(path) -> list[str]:
    """`_lines` of the CSV file at `path`, without its optional ``k1,...``
    header line."""
    lines = _lines(path)
    return lines[1:] if lines and lines[0].lower().startswith("k1") else lines


def read_sequence(path, n: int) -> SeqFn:
    """The sequence of dimension `n` in the sequence CSV at `path`; a file
    without data rows is the zero sequence (all-zero entries are never
    stored)."""
    keys, vals = parse_rows(path, _data_lines(path), n)
    return _sequence_from_rows(path, n, keys, vals)


def read_measurements(path, n: int) -> list[SeqFn]:
    """The measurement CSV at `path` as one sequence of dimension `n` per
    channel, in channel order; the channels present must be 0..J-1."""
    lines = _data_lines(path)
    if not lines:
        raise ValueError(f"{path}: no measurement rows")
    table = _float_rows(path, lines, n + 1)      # k1..kn,channel,re,im
    # sorted and distinct: 0..J-1 when its ends are (the rows are integers, checked
    # next); this rule, not the index rule, names a channel of 2**53 or more
    present = np.unique(table[:, n])
    if present[0] != 0 or present[-1] != len(present) - 1:
        raise ValueError(f"{path}: channel indices must be 0..J-1")
    rows, vals = _checked_rows(path, lines, table, n + 1)
    keys, chans = rows[:, :n], rows[:, n]
    return [_sequence_from_rows(path, n, keys[chans == j], vals[chans == j]) for j in present]


def parse_rows(path, lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSV rows ``i_1,...,i_width,re,im`` (stripped, none blank): the
    (K, width) int64 columns and the K finite complex values.

    One loop parses rows ``lo:hi`` `ROW_CHUNK` at a time with
    ``np.loadtxt`` into one preallocated table; a large table is parsed in
    two processes (see `_in_two`), and the child's half is read straight
    into the table.  At the first chunk ``np.loadtxt`` rejects, or of the
    wrong width, the loop reads that chunk's rows one by one and raises
    ValueError naming the file and the first row that is not ``width + 2``
    numbers (such as ``1_0`` or ``#``) as a 1-based data row, like
    `require_finite`.  Index fields are read as floats, so one that is not
    an integer of magnitude below 2**53 (past which a float is not exact) is
    refused by row.
    """
    if not lines:
        return np.zeros((0, width), dtype=np.int64), np.zeros(0, dtype=complex)
    return _checked_rows(path, lines, _float_rows(path, lines, width), width)


def _float_rows(path, lines: list[str], width: int) -> np.ndarray:
    """`parse_rows`' table of the non-empty `lines`, all columns floats."""
    table = np.empty((len(lines), width + 2))

    def part(lo, hi):           # rows lo:hi into the table, or the first bad row's error
        for start in range(lo, hi, ROW_CHUNK):
            rows = lines[start:min(start + ROW_CHUNK, hi)]
            chunk, _ = _loaded(rows, width)
            if chunk is None:
                for i, ln in enumerate(rows, start):
                    if what := _loaded([ln], width)[1]:
                        raise ValueError(f"{path}: data row {i + 1} ({ln!r}) {what}")
                raise ValueError(f"{path}: rows need {width} index columns and re,im")
            table[start:start + len(rows)] = chunk
        return table[lo:hi]

    def receive(split, r):      # None unless r holds exactly the rows from split on
        tail = memoryview(table[split:]).cast("B")      # no second copy of the half
        while tail and (got := os.readv(r, [tail])):
            tail = tail[got:]
        return None if tail or os.read(r, 1) else table[split:]

    _in_two(len(lines), part, part, receive)
    return table


def _checked_rows(path, lines: list[str], table: np.ndarray, width: int):
    """`parse_rows`' int64 index columns and complex values of its float `table`."""
    index = table[:, :width]
    ok = (np.abs(index) < 2.0**53) & (index == np.trunc(index))
    bad = np.flatnonzero(~np.all(ok, axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path}: data row {i + 1} ({lines[i]!r}) has a non-finite, "
                         "out-of-range or non-integer index")
    vals = np.ascontiguousarray(table[:, width:]).view(complex)[:, 0]
    require_finite(path, lines, vals)
    return index.astype(np.int64), vals


def _loaded(rows: list[str], width: int):
    """``np.loadtxt`` of the CSV rows as a (len(rows), width + 2) table and
    None, or None and why the rows are not such a table."""
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        return None, "has a field that is not a number"
    if table.shape != (len(rows), width + 2):
        return None, f"needs {width} index columns and re,im"
    return table, None


def _sequence_from_rows(path, n: int, keys, vals) -> SeqFn:
    """`SeqFn.from_arrays` with its errors (such as a repeated index)
    naming the file."""
    try:
        return SeqFn.from_arrays(n, keys, vals)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _has_bool(value) -> bool:
    """Whether JSON ``true`` or ``false`` sits anywhere in `value`'s nested lists:
    numpy would read it as 1 or 0 in an array of numbers."""
    stack = [value]
    while stack:
        x = stack.pop()
        if isinstance(x, bool):
            return True
        if isinstance(x, list):
            stack.extend(x)
    return False


def params_from_dict(d: dict) -> SaftParams:
    if not isinstance(d, dict):
        raise ValueError(f"parameter file must hold a JSON object, got {type(d).__name__}")
    d = dict(d)
    n = d.pop("n", None)
    # int() would truncate a float or true and overflow on 1e400
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n <= 0):
        raise ValueError(f"parameter file: n must be a positive integer, got {n!r}")
    kind = d.pop("preset", "custom")
    if not isinstance(kind, str):
        raise ValueError(f"parameter file: preset must be a name, got {kind!r}")
    if flagged := [key for key, value in d.items() if _has_bool(value)]:
        raise ValueError(f"parameter file: {flagged[0]} has an entry that is not a number")
    return _block(kind, n, d)


def read_params(path) -> SaftParams:
    with open(path) as fh:
        return params_from_dict(json.load(fh))


def write_params(path, p: SaftParams) -> None:
    d = {
        "n": p.n,
        "A": p.A.tolist(),
        "B": p.B.tolist(),
        "C": p.C.tolist(),
        "D": p.D.tolist(),
        "P": p.P.tolist(),
        "Q": p.Q.tolist(),
    }
    Path(path).write_text(json.dumps(d, indent=2) + "\n")
