"""Per-row text writers and parse loops that the one codec in ``saftlab.io``
(`format_rows` and `parse_rows`) replaced, kept verbatim as test oracles.

Each writer formats one value at a time with ``repr``; each reader converts
one field at a time with ``float``.  The CLI writers are the row-building
parts of the ``dtsaft``, ``sis``, ``dynsamp check`` and ``verify`` commands,
joined as the old ``_emit_rows`` joined them.  `write_sequence` always
writes its header, as the library's does now.  `bad_row` is the search
for a rejected table's first bad row, one row at a time, before it went a
chunk at a time.  `whole_table_parse_rows`, with its `_bad_row` and
`_in_two`, is the reader before every part of a table went through one
chunk loop: one ``np.loadtxt`` call per process on the whole of its part,
the whole table parsed again after a failed child, and a bad-row search
from the first row.  It is kept verbatim apart from its name and the
``saftlab.io.`` before ``ROW_CHUNK``, ``_may_fork`` and ``_forked``, so
that a patched chunk size splits it where it splits the library.
`format_rows`, `_joined`, `_format_chunks` and `_write_rows` are the
writer before every table went out as pieces: one str of the whole file,
joined from chunks without their last newline, and ``Path.write_text``.
They are kept verbatim apart from the ``saftlab.io.`` before
``ROW_CHUNK``, ``_columns``, ``_in_two`` and ``_require_finite_rows``, and
`format_rows`' docstring, which says how ``_columns`` dedupes now.
`_column_text` is the column formatter before a repeating column was
deduped one chunk at a time: one ``np.unique`` and one ``repr`` per
distinct value over the whole column, in the caller, before any fork.  It
is kept verbatim apart from the ``saftlab.io.`` before ``SAMPLE_ROWS`` and
``DEDUPE_SHARE``.  ``test_io.py`` checks the codec against them.
`params_from_dict` is the parameter file reader before a file that names
no preset became the ``custom`` kind of ``saftlab.params``' one preset
tail: a second copy of the full block's rules that required ``n``, with
its own stray-key refusal and zero offsets, and that validated a preset
form at 1e-12.  It is kept verbatim; ``test_io.py`` checks that every
file it accepts reads to the same block by the one route.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import saftlab.io
from saftlab.grid import GridFn, SeqFn
from saftlab.io import require_finite
from saftlab.params import SaftParams, preset

_MAGIC = "SAFTGRID v1"


def write_grid(path, g: GridFn) -> None:
    path = Path(path)
    lines = [
        _MAGIC,
        f"n {g.n}",
        "shape " + " ".join(str(s) for s in g.shape),
        "origin " + " ".join(repr(float(x)) for x in g.origin),
        "spacing " + " ".join(repr(float(x)) for x in g.spacing),
        "re,im",
    ]
    flat = np.asarray(g.values, dtype=complex).reshape(-1)
    lines.extend(f"{float(z.real)!r},{float(z.imag)!r}" for z in flat)
    path.write_text("\n".join(lines) + "\n")


def read_grid(path) -> GridFn:
    text = Path(path).read_text()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    header: dict[str, list[str]] = {}
    pos = 1
    while pos < len(lines) and lines[pos].split()[0] in ("n", "shape", "origin", "spacing"):
        key, *vals = lines[pos].split()
        header[key] = vals
        pos += 1
    for key in ("n", "shape", "origin", "spacing"):
        if key not in header:
            raise ValueError(f"{path}: missing header line {key!r}")
    n = int(header["n"][0])
    shape = tuple(int(s) for s in header["shape"])
    origin = np.array([float(x) for x in header["origin"]])
    spacing = np.array([float(x) for x in header["spacing"]])
    if len(shape) != n or origin.size != n or spacing.size != n:
        raise ValueError(f"{path}: header lengths inconsistent with n={n}")
    if pos < len(lines) and lines[pos].replace(" ", "") == "re,im":
        pos += 1
    count = int(np.prod(shape))
    rows = lines[pos:]
    if len(rows) != count:
        raise ValueError(f"{path}: expected {count} value rows, found {len(rows)}")
    values = np.empty(count, dtype=complex)
    for i, row in enumerate(rows):
        re_s, im_s = row.split(",")
        values[i] = complex(float(re_s), float(im_s))
    require_finite(path, rows, values)
    return GridFn(
        n=n, shape=shape, origin=origin, spacing=spacing,
        values=values.reshape(shape),
    )


def write_sequence(path, s: SeqFn) -> None:
    path = Path(path)
    lines = [",".join(f"k{i + 1}" for i in range(s.n)) + ",re,im"]
    keys, vals = s.as_arrays()
    for k, re, im in zip(keys.tolist(), vals.real.tolist(), vals.imag.tolist()):
        lines.append(",".join(map(str, k)) + f",{re!r},{im!r}")
    path.write_text("\n".join(lines) + "\n")


def parse_rows(path, lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSV rows ``i_1,...,i_width,re,im``: the (K, width) int64 columns and
    the K finite complex values; a non-integer index is refused."""
    ints, vals = [], []
    for ln in lines:
        parts = ln.split(",")
        if len(parts) != width + 2:
            raise ValueError(f"{path}: row {ln!r} needs {width} index columns and re,im")
        index = [float(x) for x in parts[:width]]
        if not all(x.is_integer() for x in index):
            raise ValueError(f"{path}: row {ln!r} has a non-integer index")
        ints.append([int(x) for x in index])
        vals.append(complex(float(parts[width]), float(parts[width + 1])))
    require_finite(path, lines, vals)
    return np.array(ints, dtype=np.int64).reshape(-1, width), np.array(vals, dtype=complex)


def write_csv(path: Path, header: str, rows) -> None:
    """One line per row, each value as ``repr`` of a Python float."""
    lines = [header] + [",".join(map(repr, row)) for row in np.asarray(rows, dtype=float).tolist()]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# CLI tables


def emit_text(header_lines: list[str], rows) -> str:
    lines = list(header_lines)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def dtsaft_text(header: list[str], pts, vals) -> str:
    rows = [
        ",".join(repr(float(x)) for x in pt)
        + f",{float(v.real)!r},{float(v.imag)!r}"
        for pt, v in zip(pts, vals)
    ]
    return emit_text(header, rows)


def verify_text(header: list[str], residuals) -> str:
    rows = [f"{i},{r!r}" for i, r in enumerate(residuals)]
    return emit_text(header, rows)


def sis_text(header: list[str], wpts, g, u) -> str:
    rows = [
        ",".join(repr(float(x)) for x in pt)
        + f",{float(gv)!r},{float(uv)!r}"
        for pt, gv, uv in zip(wpts, g, u)
    ]
    return emit_text(header, rows)


def dynsamp_check_text(header: list[str], wpoints, entries, abs_det, cond) -> str:
    m = entries.shape[1]
    rows = []
    for i, pt in enumerate(wpoints):
        cells = [repr(float(x)) for x in pt]
        for j in range(m):
            for l in range(m):
                z = entries[i, j, l]
                cells.extend((repr(float(z.real)), repr(float(z.imag))))
        cells.append(repr(float(abs_det[i])))
        cells.append(repr(float(cond[i])) if np.isfinite(cond[i]) else "inf")
        rows.append(",".join(cells))
    return emit_text(header, rows)


def bad_row(path, lines: list[str], width: int) -> ValueError:
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


# ---------------------------------------------------------------------------
# the reader before its one chunk loop


def whole_table_parse_rows(path, lines: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSV rows ``i_1,...,i_width,re,im`` (stripped, none blank): the
    (K, width) int64 columns and the K finite complex values.

    ``np.loadtxt`` parses the table, a large one in two processes (see
    `_in_two`) that fill one table: a child's half is read straight into
    it.  A table ``np.loadtxt`` rejects, or one of the wrong width, raises
    ValueError naming the file and the first row that is not ``width + 2``
    numbers (such as ``1_0`` or ``#``) as a 1-based data row, like
    `require_finite`.  Index fields are read as floats; one that is not an
    integer in int64's range is refused by row.
    """
    if not lines:
        return np.zeros((0, width), dtype=np.int64), np.zeros(0, dtype=complex)

    def load(lo, hi):
        return np.loadtxt(lines[lo:hi], delimiter=",", ndmin=2, comments=None)

    def take(split, r):     # None unless r holds exactly the rows from split on
        table = np.empty((len(lines), width + 2))
        for lo in range(0, split, saftlab.io.ROW_CHUNK):       # no second copy of the half
            chunk = load(lo, lo + saftlab.io.ROW_CHUNK)
            if chunk.shape != (saftlab.io.ROW_CHUNK, width + 2):
                return None
            table[lo:lo + saftlab.io.ROW_CHUNK] = chunk
        tail = memoryview(table[split:]).cast("B")
        while tail and (got := os.readv(r, [tail])):
            tail = tail[got:]
        return None if tail or os.read(r, 1) else table

    try:
        table = _in_two(len(lines), load, load, take)
    except ValueError:
        raise _bad_row(path, lines, width) from None
    if table.shape[1] != width + 2:
        raise _bad_row(path, lines, width)
    index = table[:, :width]
    ok = (index >= -(2.0**63)) & (index < 2.0**63) & (index == np.trunc(index))
    bad = np.flatnonzero(~np.all(ok, axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path}: data row {i + 1} ({lines[i]!r}) has a non-finite, "
                         "out-of-range or non-integer index")
    vals = np.ascontiguousarray(table[:, width:]).view(complex)[:, 0]
    require_finite(path, lines, vals)
    return index.astype(np.int64), vals


def _bad_row(path, lines: list[str], width: int) -> ValueError:
    """The error naming the first row that ``np.loadtxt`` cannot read alone
    as ``width + 2`` numbers; called only for a table it rejected.  Rows are
    read `ROW_CHUNK` at a time, and one by one only in the first chunk that
    is not a table of that width."""
    def fault(rows):
        try:
            if np.loadtxt(rows, delimiter=",", ndmin=2, comments=None).shape[1] == width + 2:
                return None
            return f"needs {width} index columns and re,im"
        except ValueError:
            return "has a field that is not a number"

    for lo in range(0, len(lines), saftlab.io.ROW_CHUNK):
        if fault(lines[lo:lo + saftlab.io.ROW_CHUNK]):
            for i, ln in enumerate(lines[lo:lo + saftlab.io.ROW_CHUNK], lo):
                if what := fault([ln]):
                    return ValueError(f"{path}: data row {i + 1} ({ln!r}) {what}")
    return ValueError(f"{path}: rows need {width} index columns and re,im")


def _in_two(rows: int, part, send, take):
    """``part(0, rows)``, in two processes when `_may_fork`: a `_forked`
    child sends ``send(split, rows)`` down a pipe while ``take(split, r)``
    does the first rows here and joins the child's from the read end `r`.
    When the child cannot be started or fails, or `take` returns None, this
    process runs ``part(0, rows)``, so no output depends on the fork.

    The read end is closed before the child is reaped on every path, so a
    child blocked on a full pipe gets EPIPE and exits instead of hanging."""
    if not saftlab.io._may_fork(rows):
        return part(0, rows)
    split = saftlab.io.ROW_CHUNK * (math.ceil(rows / saftlab.io.ROW_CHUNK) // 2)
    try:
        r, w = os.pipe()
    except OSError:
        return part(0, rows)
    got = []

    def send_tail():
        os.close(r)
        data = memoryview(send(split, rows)).cast("B")
        while data:
            data = data[os.write(w, data):]

    with saftlab.io._forked(send_tail, got.clear) as started:
        try:
            os.close(w)
            if started:
                got.append(take(split, r))
        finally:
            os.close(r)
    return got[0] if got and got[0] is not None else part(0, rows)


# ---------------------------------------------------------------------------
# the writer before its table pieces


def format_rows(header: list[str], *blocks) -> str:
    """The header lines, then one CSV row per row of the column blocks, as
    newline-terminated text.  A block is a (K, c) array or a (K,) column;
    integer blocks are written as ``str(int)``, all others as
    ``repr(float)``, so NaN and infinities are written as ``nan`` and
    ``inf``.

    Each column is a view of its block and is formatted on its own,
    `ROW_CHUNK` rows at a time.  A float column that repeats values (see
    `SAMPLE_ROWS`) calls ``repr`` once per distinct bit pattern of each
    chunk of at most 16,384 rows, in whichever process formats that chunk,
    and takes each row's text from that chunk's table; the output bytes are
    the same as with one ``repr`` per value.  On Linux, with no other Python thread running,
    a table of at least two chunks is formatted in two processes (see
    `_in_two`); when the child cannot be started or fails, this process
    formats the child's rows too, so the bytes never change."""
    columns, rows = saftlab.io._columns(blocks)
    # the child's text is decoded one pipe read at a time, so that it is
    # never held as bytes and as str at once
    parts = saftlab.io._in_two(
        rows, lambda lo, hi: _format_chunks(columns, lo, hi),
        lambda lo, hi: "\n".join(_format_chunks(columns, lo, hi)).encode("ascii"),
        lambda split, r: ["".join(iter(lambda: os.read(r, 1 << 16).decode("ascii"), ""))])
    return _joined(header, [chunk for part in parts for chunk in part])


def _joined(header: list[str], chunks: list[str]) -> str:
    lines = list(header) + chunks
    lines.append("")                # the last newline, without a copy of the text
    return "\n".join(lines) or "\n"


def _format_chunks(columns, lo: int, hi: int) -> list[str]:
    """The text of rows ``lo:hi``, one str per `ROW_CHUNK` rows, each
    without its last newline."""
    chunks = []
    for start in range(lo, hi, saftlab.io.ROW_CHUNK):
        cells = [text(start, min(start + saftlab.io.ROW_CHUNK, hi)) for text in columns]
        chunks.append("\n".join(map(",".join, zip(*cells))))
    return chunks


def _write_rows(path, values, header: list[str], *blocks) -> None:
    """Write ``format_rows(header, *blocks)`` to `path`, or raise
    `_require_finite_rows`' error and create no file: no reader accepts a
    non-finite value."""
    saftlab.io._require_finite_rows(path, values, *blocks)
    Path(path).write_text(format_rows(header, *blocks))


# ---------------------------------------------------------------------------
# the column formatter before a repeating column was deduped per chunk


def _column_text(col: np.ndarray):
    """The function giving the text of rows ``lo:hi`` of the 1-D column
    ``col`` (a view of its block, strided) as a list of str."""
    if col.dtype.kind in "iu":
        return lambda lo, hi: list(map(str, col[lo:hi].tolist()))
    col = col.astype(float, copy=False)
    bits = col.view(np.int64)        # keeps -0.0 and NaN payloads apart
    sample = bits[::max(1, math.ceil(len(bits) / saftlab.io.SAMPLE_ROWS))]
    if len(np.unique(sample)) > saftlab.io.DEDUPE_SHARE * len(sample):
        return lambda lo, hi: list(map(repr, col[lo:hi].tolist()))
    distinct, inv = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return lambda lo, hi: text[inv[lo:hi]].tolist()


def params_from_dict(d: dict) -> SaftParams:
    if not isinstance(d, dict):
        raise ValueError(f"parameter file must hold a JSON object, got {type(d).__name__}")
    d = dict(d)
    n = d.pop("n", None)
    # int() would truncate a float or true and overflow on 1e400
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n <= 0):
        raise ValueError(f"parameter file: n must be a positive integer, got {n!r}")
    if "preset" in d:
        kind = d.pop("preset")
        if not isinstance(kind, str):
            raise ValueError(f"parameter file: preset must be a name, got {kind!r}")
        return preset(kind, n=n, **d)
    if n is None:
        raise KeyError("n")
    unread = sorted(set(d) - set("ABCDPQ"))
    if unread:
        raise ValueError(f"parameter file: the full block does not take {', '.join(unread)}")
    zeros_v = [0.0] * n
    return SaftParams(
        n,
        d["A"], d["B"], d["C"], d["D"],
        d.get("P", zeros_v), d.get("Q", zeros_v),
    )
