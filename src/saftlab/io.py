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
    CSV rows ``k1,...,kn,re,im`` with integer indices; a header line is
    optional on read and always written.

Parameter file
    JSON, either the full block ``{"n":, "A":, "B":, "C":, "D":, "P":, "Q":}``
    or a preset form such as ``{"preset": "ft", "n": 2}`` /
    ``{"preset": "separable_frft", "theta": [0.7]}``.

Every CSV body, here and in the CLI and figure writers, goes through one
codec: `format_rows` writes integers as ``str(int)`` and floats as
``repr(float)`` (Python's shortest round-trip form), and `parse_rows` reads
a table back with one ``np.loadtxt`` call.  `format_rows` formats one
column at a time; a float column that repeats values, such as a grid
coordinate, calls ``repr`` once per distinct value, and the bytes are the
same as one ``repr`` per value.  On Linux a table of at least two
`ROW_CHUNK` chunks is formatted in two processes: `format_rows` forks
once, and a child formats the second half of the rows and sends its text
back through a pipe; the bytes are the same as in one process.
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
from pathlib import Path

import numpy as np

from .grid import GridFn, SeqFn
from .params import SaftParams, preset

__all__ = [
    "read_grid",
    "write_grid",
    "read_sequence",
    "write_sequence",
    "read_params",
    "write_params",
    "params_from_dict",
    "require_finite",
    "format_rows",
    "parse_rows",
    "sequence_from_rows",
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

#: rows `format_rows` holds as Python numbers at once
ROW_CHUNK = 1 << 14

#: `format_rows` looks at this many evenly spaced values of a float column,
#: and formats each distinct value of the column once when at most
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
    """The header lines, then one CSV row per row of the column blocks, as
    newline-terminated text.  A block is a (K, c) array or a (K,) column;
    integer blocks are written as ``str(int)``, all others as
    ``repr(float)``, so NaN and infinities are written as ``nan`` and
    ``inf``.

    Each column is a view of its block and is formatted on its own,
    `ROW_CHUNK` rows at a time.  A float column that repeats values (see
    `SAMPLE_ROWS`) calls ``repr`` once per distinct bit pattern and takes
    each row's text from that table; the output bytes are the same as with
    one ``repr`` per value.  On Linux, with no other Python thread running,
    a table of at least two chunks is formatted in two processes (see
    `_format_in_two`); when the child cannot be started or fails, this
    process formats every row, so the bytes never change."""
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    columns = [_column_text(col) for b in blocks for col in b.T]
    rows = len(blocks[0])
    chunks = _format_in_two(columns, rows) if _may_fork(rows) else None
    if chunks is None:
        chunks = _format_chunks(columns, 0, rows)
    lines = list(header) + chunks
    lines.append("")                # the last newline, without a copy of the text
    return "\n".join(lines) or "\n"


def _format_chunks(columns, lo: int, hi: int) -> list[str]:
    """The text of rows ``lo:hi``, one str per `ROW_CHUNK` rows, each
    without its last newline."""
    chunks = []
    for start in range(lo, hi, ROW_CHUNK):
        cells = [text(start, min(start + ROW_CHUNK, hi)) for text in columns]
        chunks.append("\n".join(map(",".join, zip(*cells))))
    return chunks


def _may_fork(rows: int) -> bool:
    """Whether `format_rows` formats `rows` rows in two processes: at least
    two chunks, on Linux, and no other Python thread alive (one holding a
    lock at the fork would leave it held in the child)."""
    return (rows >= 2 * ROW_CHUNK and sys.platform.startswith("linux")
            and threading.active_count() == 1)


def _format_in_two(columns, rows: int) -> list[str] | None:
    """`_format_chunks` of all rows, the second half of the chunks
    formatted by one forked child and read back from a pipe as ASCII; None
    when the fork fails or the child does not exit with status 0.

    The read end is closed before the child is reaped on every path, so a
    child blocked on a full pipe gets EPIPE and exits instead of hanging.
    The tail's bytes are decoded one pipe read at a time, so this process
    never holds the tail as bytes and as str at once."""
    split = ROW_CHUNK * (math.ceil(rows / ROW_CHUNK) // 2)
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork whenever a second OS thread is
            # alive, and OpenBLAS keeps one from ``import numpy`` on.  The
            # child is safe all the same: it runs only tolist, repr,
            # str.join, os.write and os._exit, never BLAS, and no other
            # Python thread exists (`_may_fork`).
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        _child(columns, split, rows, r, w)
    pieces = []
    try:
        os.close(w)
        chunks = _format_chunks(columns, 0, split)
        while piece := os.read(r, 1 << 16):
            pieces.append(piece.decode("ascii"))
    finally:
        os.close(r)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        return None
    chunks.append("".join(pieces))
    return chunks


def _child(columns, lo: int, hi: int, r: int, w: int) -> None:
    """In the forked child: write the text of rows ``lo:hi`` to `w` and
    leave through ``os._exit``, so no inherited stdio buffer, atexit hook
    or caller's ``finally`` runs a second time; status 0 only when every
    byte was written."""
    status = 1
    try:
        os.close(r)
        data = memoryview("\n".join(_format_chunks(columns, lo, hi)).encode("ascii"))
        while data:
            data = data[os.write(w, data):]
        status = 0
    finally:
        os._exit(status)


def _column_text(col: np.ndarray):
    """The function giving the text of rows ``lo:hi`` of the 1-D column
    ``col`` (a view of its block, strided) as a list of str."""
    if col.dtype.kind in "iu":
        return lambda lo, hi: list(map(str, col[lo:hi].tolist()))
    col = col.astype(float, copy=False)
    bits = col.view(np.int64)        # keeps -0.0 and NaN payloads apart
    sample = bits[::max(1, math.ceil(len(bits) / SAMPLE_ROWS))]
    if len(np.unique(sample)) > DEDUPE_SHARE * len(sample):
        return lambda lo, hi: list(map(repr, col[lo:hi].tolist()))
    distinct, inv = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return lambda lo, hi: text[inv[lo:hi]].tolist()


def _write_rows(path, values, header: list[str], *blocks) -> None:
    """Write ``format_rows(header, *blocks)`` to `path`.  When a complex
    value in `values` (one per row) is not finite, raise `require_finite`'s
    error for its row instead and create no file: no reader accepts it."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        row = format_rows([], *(b[i:i + 1] for b in blocks))[:-1]
        require_finite(path, {i: row}, values)
    Path(path).write_text(format_rows(header, *blocks))


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
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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


def read_sequence(path, n: int | None = None) -> SeqFn:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if n is None and lines:
        n = len(lines[0].split(",")) - 2       # header or row k1,...,kn,re,im
    if lines and lines[0].lower().startswith("k1"):
        lines = lines[1:]
    # a header-only file is the zero sequence (all-zero entries are never
    # stored), representable only when the dimension is known
    if n is None or n < 1:
        raise ValueError(f"{path}: empty sequence file or rows without k1,re,im")
    keys, vals = parse_rows(path, lines, n)
    return sequence_from_rows(path, n, keys, vals)


def parse_rows(path, lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSV rows ``i_1,...,i_width,re,im`` (stripped, none blank): the
    (K, width) int64 columns and the K finite complex values.

    One ``np.loadtxt`` call parses the whole table.  A table it rejects, or
    one of the wrong width, raises ValueError naming the file and the first
    row that is not ``width + 2`` numbers (such as ``1_0`` or ``#``) as a
    1-based data row, like `require_finite`.  Index fields are read as
    floats and truncated toward zero.
    """
    if not lines:
        return np.zeros((0, width), dtype=np.int64), np.zeros(0, dtype=complex)
    try:
        table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        raise _bad_row(path, lines, width) from None
    if table.shape[1] != width + 2:
        raise _bad_row(path, lines, width)
    index = table[:, :width]
    bad = np.flatnonzero(~np.all((index >= -(2.0**63)) & (index < 2.0**63), axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{path}: data row {i + 1} ({lines[i]!r}) has a non-finite or out-of-range index"
        )
    vals = np.ascontiguousarray(table[:, width:]).view(complex)[:, 0]
    require_finite(path, lines, vals)
    return index.astype(np.int64), vals


def _bad_row(path, lines: list[str], width: int) -> ValueError:
    """The error naming the first row that ``np.loadtxt`` cannot read alone
    as ``width + 2`` numbers; called only for a table it rejected."""
    for i, ln in enumerate(lines):
        try:
            if np.loadtxt([ln], delimiter=",", comments=None).size == width + 2:
                continue
            what = f"needs {width} index columns and re,im"
        except ValueError:
            what = "has a field that is not a number"
        return ValueError(f"{path}: data row {i + 1} ({ln!r}) {what}")
    return ValueError(f"{path}: rows need {width} index columns and re,im")


def sequence_from_rows(path, n: int, keys, vals) -> SeqFn:
    """`SeqFn.from_arrays` with its errors (such as a repeated index)
    naming the file."""
    try:
        return SeqFn.from_arrays(n, keys, vals)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def params_from_dict(d: dict) -> SaftParams:
    d = dict(d)
    if "preset" in d:
        kind = d.pop("preset")
        n = d.pop("n", None)
        return preset(kind, n=n, **d)
    n = int(d["n"])
    zeros_v = [0.0] * n
    return SaftParams(
        n,
        d["A"], d["B"], d["C"], d["D"],
        d.get("P", zeros_v), d.get("Q", zeros_v),
    )


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
