"""The text codec of ``saftlab.io`` against the per-row writers and parse
loops it replaced (kept in ``io_oracles.py``): every writer's bytes and
every reader's values must be identical, bit for bit."""

import json
import math
import os
import signal
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import io_oracles as oracle
import saftlab.io
from saftlab.cli import main
from saftlab.grid import GridFn, SeqFn, sample_generator, sampling_grid
from saftlab.io import (
    format_rows,
    parse_rows,
    read_grid,
    read_sequence,
    write_grid,
    write_params,
    write_sequence,
)
from saftlab.params import preset

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
    0.1, 1.0, -3.0, 123456789.0, 1e16, -1e16, 2.0**53 + 2, 1e22, 1e300,
    1.7976931348623157e308, math.inf, -math.inf, math.nan,
]
FLOAT = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(),
    st.floats(-1e-300, 1e-300),
    st.integers(-(2**60), 2**60).map(float),
)
FINITE = st.one_of(
    st.sampled_from([x for x in SPECIAL if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
)
ROWS = st.integers(0, 5)


@st.composite
def _block(draw, rows, cols, elems=FLOAT):
    return np.array(draw(st.lists(elems, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


# ---------------------------------------------------------------------------
# writers


@SETTINGS
@given(data=st.data(), n=st.integers(1, 2))
def test_grid_writer_matches_the_per_row_writer(tmp_path, data, n):
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    size = int(np.prod(shape))
    parts = data.draw(_block(size, 2, FINITE))
    vals = np.empty(size, dtype=complex)
    vals.real, vals.imag = parts[:, 0], parts[:, 1]
    origin = data.draw(_block(1, n, FINITE))[0]
    spacing = data.draw(_block(1, n, st.floats(5e-324, 1e300)))[0]
    g = GridFn(n, shape, origin, spacing, vals)
    write_grid(tmp_path / "new.grid", g)
    oracle.write_grid(tmp_path / "old.grid", g)
    assert (tmp_path / "new.grid").read_bytes() == (tmp_path / "old.grid").read_bytes()


@SETTINGS
@given(data=st.data(), n=st.integers(1, 3))
def test_sequence_writer_matches_the_per_row_writer(tmp_path, data, n):
    index = st.one_of(st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
    keys = data.draw(st.lists(st.tuples(*[index] * n), max_size=5, unique=True))
    parts = data.draw(_block(len(keys), 2, FINITE))
    vals = np.empty(len(keys), dtype=complex)
    vals.real, vals.imag = parts[:, 0], parts[:, 1]
    s = SeqFn.from_arrays(n, np.array(keys, dtype=np.int64).reshape(-1, n), vals)
    write_sequence(tmp_path / "new.csv", s)
    oracle.write_sequence(tmp_path / "old.csv", s)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@SETTINGS
@given(data=st.data(), rows=st.integers(1, 6), sequence=st.booleans())
def test_writers_reject_a_non_finite_value_and_create_no_file(tmp_path, data, rows, sequence):
    parts = data.draw(_block(rows, 2))
    bad = data.draw(st.integers(0, 2 * rows - 1))
    parts.flat[bad] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    vals = np.empty(rows, dtype=complex)
    vals.real, vals.imag = parts[:, 0], parts[:, 1]
    path = tmp_path / ("out.csv" if sequence else "out.grid")
    path.unlink(missing_ok=True)
    if sequence:
        s = SeqFn.from_arrays(1, np.arange(rows).reshape(-1, 1), vals)   # drops zeros
        keys, vals = s.as_arrays()
        texts = [f"{k},{float(z.real)!r},{float(z.imag)!r}" for k, z in zip(keys[:, 0], vals)]
    else:
        texts = [f"{float(z.real)!r},{float(z.imag)!r}" for z in vals]
    first = int(np.flatnonzero(~np.isfinite(vals))[0])
    with pytest.raises(ValueError) as exc:
        if sequence:
            write_sequence(path, s)
        else:
            write_grid(path, GridFn(1, (rows,), [0.0], [1.0], vals))
    assert str(exc.value) == \
        f"{path}: data row {first + 1} ({texts[first]!r}) has a non-finite value"
    assert not path.exists()


@SETTINGS
@given(data=st.data(), rows=ROWS, cols=st.integers(1, 4))
def test_figure_writer_matches_the_per_row_writer(tmp_path, data, rows, cols):
    block = data.draw(_block(rows, cols))
    (tmp_path / "new.csv").write_text(format_rows(["a,b"], block))
    oracle.write_csv(tmp_path / "old.csv", "a,b", block)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# values that must keep their own text when a column is formatted once per
# distinct value: signed zeros, NaNs with other payloads and signs,
# infinities and subnormals
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
            0xFFFFFFFFFFFFFFFF]
NASTY = np.concatenate([np.array(NAN_BITS, dtype=np.uint64).view(float),
                        [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310]])
BLOCK = st.one_of(
    st.tuples(st.just("int"), st.integers(1, 3)),
    st.tuples(st.just("float"), st.lists(st.sampled_from(["pool", "distinct"]),
                                         min_size=1, max_size=3)),
)


def _column(rng, kind: str, rows: int, pool) -> np.ndarray:
    """A column drawn from a small pool (repeating, like a grid coordinate)
    or of random bit patterns (nearly all distinct), with a few values of
    `NASTY` in it."""
    if kind == "pool":
        col = np.array(pool)[rng.integers(len(pool), size=rows)]
    else:
        col = rng.integers(-(2**63), 2**63 - 1, size=rows, dtype=np.int64).view(float)
    at = rng.integers(rows, size=min(rows, 8)) if rows else []
    col[at] = rng.choice(NASTY, size=len(at))
    return col


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data(), rows=st.integers(0, 3000), chunk=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1), layout=st.lists(BLOCK, min_size=1, max_size=4))
def test_columns_that_repeat_keep_the_per_row_text(tmp_path, data, rows, chunk, seed, layout):
    rng = np.random.default_rng(seed)
    pool = data.draw(st.lists(st.one_of(FLOAT, st.sampled_from(NASTY.tolist())),
                              min_size=1, max_size=12))
    blocks, texts = [], []
    for kind, spec in layout:
        if kind == "int":
            block = rng.integers(-(2**63), 2**63 - 1, size=(rows, spec), dtype=np.int64)
            texts.append([",".join(map(str, r)) for r in block.tolist()])
        else:
            block = np.column_stack([_column(rng, c, rows, pool) for c in spec])
            oracle.write_csv(tmp_path / "old.csv", "a", block)
            texts.append((tmp_path / "old.csv").read_text().split("\n")[1:-1])
        blocks.append(block[:, 0] if block.shape[1] == 1 and rng.random() < 0.5 else block)
    want = "\n".join(["a,b"] + [",".join(cells) for cells in zip(*texts)]) + "\n"
    with mock.patch.object(saftlab.io, "ROW_CHUNK", chunk):
        assert format_rows(["a,b"], *blocks) == want


def test_formatting_distinct_values_peaks_near_the_text_size():
    # as many cells as each grid that the cli_files benchmark writes (513^2)
    block = np.random.default_rng(5).standard_normal((263_169, 2))
    tracemalloc.start()
    try:
        size = len(format_rows(["re,im"], block))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * size


# ---------------------------------------------------------------------------
# the two-process writer: on Linux a table of at least two ROW_CHUNK chunks
# is formatted by this process and one forked child


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="format_rows forks only on Linux")
real_fork = os.fork         # the stand-ins below call it while os.fork is patched


def _per_row_text(header, block: np.ndarray, keys=None) -> str:
    keys = np.zeros((len(block), 0), dtype=np.int64) if keys is None else keys
    rows = [",".join([*map(str, k), *map(repr, r)]) for k, r in zip(keys.tolist(), block.tolist())]
    return "\n".join(header + rows + [""]) or "\n"


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _forks(calls: list):
    """An ``os.fork`` that counts its calls in `calls`."""
    def fork():
        calls.append(os.getpid())
        return real_fork()
    return fork


@linux_only
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), chunk=st.integers(1, 6), chunks=st.integers(0, 7),
       off=st.integers(-1, 1), header=st.booleans(), ints=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_two_processes_write_the_one_process_bytes(data, chunk, chunks, off, header, ints, seed):
    rows = max(0, chunks * chunk + off)
    rng = np.random.default_rng(seed)
    pool = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e16, -1e16, 0.1, 2.0**53 + 2]
    # a repeating column (the dedupe route), a column of drawn values and a
    # column spread over all magnitudes, subnormals included
    block = np.column_stack([
        np.array(pool)[rng.integers(len(pool), size=rows)],
        data.draw(_block(rows, 1, FINITE))[:, 0],
        rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, size=rows),
    ])
    keys = rng.integers(-(2**63), 2**63 - 1, size=(rows, ints), dtype=np.int64)
    head = ["k,a,b,c"] if header else []
    calls = []
    with mock.patch.object(saftlab.io, "ROW_CHUNK", chunk), \
            mock.patch.object(os, "fork", _forks(calls)):
        text = format_rows(head, keys, block) if ints else format_rows(head, block)
        with mock.patch.object(saftlab.io, "_may_fork", lambda rows: False):
            serial = format_rows(head, keys, block) if ints else format_rows(head, block)
    assert calls == ([os.getpid()] if rows >= 2 * chunk else [])
    assert text == serial == _per_row_text(head, block, keys)
    assert _no_child_left()


@linux_only
def test_a_large_table_forks_once_and_leaves_no_child_or_descriptor():
    block = np.random.default_rng(3).standard_normal((2 * saftlab.io.ROW_CHUNK + 5, 2))
    fds, calls = _open_fds(), []
    with mock.patch.object(os, "fork", _forks(calls)):
        text = format_rows(["re,im"], block)
    assert calls == [os.getpid()]
    assert text == _per_row_text(["re,im"], block)
    assert _no_child_left()
    assert _open_fds() == fds


def _child_exits_3():
    pid = real_fork()
    if pid == 0:
        os._exit(3)
    return pid


def _child_dies_mid_write():
    pid = real_fork()
    if pid == 0:
        real = os.write

        def write(fd, data):     # replaces os.write in the child only
            real(fd, bytes(data[:100]))
            raise OSError("no space left")
        os.write = write
    return pid


def _fails():
    raise OSError("resource temporarily unavailable")


@linux_only
@pytest.mark.parametrize("call,fake", [("pipe", _fails), ("fork", _fails),
                                       ("fork", _child_exits_3), ("fork", _child_dies_mid_write)])
def test_a_failed_fork_or_child_falls_back_to_one_process(call, fake):
    block = np.random.default_rng(4).standard_normal((40, 2))
    want = _per_row_text(["re,im"], block)
    fds = _open_fds()
    with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), mock.patch.object(os, call, fake):
        assert format_rows(["re,im"], block) == want
    assert _no_child_left()
    assert _open_fds() == fds


@linux_only
def test_an_error_in_the_parent_reaps_a_child_blocked_on_a_full_pipe():
    # the child's half is far over a pipe's 64 KiB, so it blocks in
    # os.write until the parent closes the read end
    block = np.random.default_rng(5).standard_normal((40_000, 2))
    real, parent = saftlab.io._column_text, os.getpid()

    def column_text(col):
        text = real(col)

        def guarded(lo, hi):
            if os.getpid() == parent:
                raise MemoryError
            return text(lo, hi)
        return guarded

    def hung(signum, frame):
        raise TimeoutError("the child was never reaped")

    fds, previous = _open_fds(), signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with mock.patch.object(saftlab.io, "ROW_CHUNK", 1000), \
                mock.patch.object(saftlab.io, "_column_text", column_text), \
                pytest.raises(MemoryError):
            format_rows(["re,im"], block)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _no_child_left()
    assert _open_fds() == fds


@linux_only
def test_no_fork_while_another_thread_runs():
    block = np.random.default_rng(6).standard_normal((40, 2))
    stop, calls = threading.Event(), []
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), \
                mock.patch.object(os, "fork", _forks(calls)):
            text = format_rows(["re,im"], block)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert calls == []
    assert text == _per_row_text(["re,im"], block)


@SETTINGS
@given(data=st.data(), rows=ROWS, n=st.integers(1, 3), m=st.integers(1, 3))
def test_cli_table_layouts_match_the_per_row_writers(data, rows, n, m):
    pts = data.draw(_block(rows, n))
    parts = data.draw(_block(rows, 2 * m * m + 2))
    vals = np.empty(rows, dtype=complex)
    vals.real, vals.imag = parts[:, 0], parts[:, 1]
    head = ["w,re,im"]

    # dtsaft and sis: one float block of points and value columns
    assert format_rows(head, np.column_stack([pts, vals.real, vals.imag])) == \
        oracle.dtsaft_text(head, pts, vals)
    g, u = parts[:, 0], parts[:, 1]
    assert format_rows(head, np.column_stack([pts, g, u])) == oracle.sis_text(head, pts, g, u)

    # verify: an int trial column and a float residual column
    residuals = parts[:, 0].tolist()
    assert format_rows(head, np.arange(rows), np.array(residuals)) == \
        oracle.verify_text(head, residuals)

    # dynsamp check: entries interleaved re, im in (j, l) order, then
    # |det| and the condition number (inf where singular)
    ent = parts[:, : 2 * m * m].copy().view(complex).reshape(rows, m, m)
    abs_det = parts[:, -2]
    cond = np.where(np.isfinite(parts[:, -1]), parts[:, -1], np.inf)
    flat = ent.reshape(rows, m * m)
    cells = np.stack([flat.real, flat.imag], axis=-1).reshape(rows, 2 * m * m)
    assert format_rows(head, np.column_stack([pts, cells, abs_det, cond])) == \
        oracle.dynsamp_check_text(head, pts, ent, abs_det, cond)


# ---------------------------------------------------------------------------
# readers

FORMATS = ["{!r}", "{:.17g}", "{:.3e}", "{:+.6f}", "{:.0f}", "{:E}"]
SPACE = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def _field(draw, elems=FLOAT):
    x = draw(elems)
    return draw(SPACE) + draw(st.sampled_from(FORMATS)).format(x) + draw(SPACE)


@st.composite
def _text(draw, rows: list[str]):
    """Rows with blank and whitespace-only lines between them."""
    out = []
    for row in rows:
        out.extend(draw(st.lists(SPACE, max_size=2)))
        out.append(draw(SPACE) + row + draw(SPACE))
    return "\n".join(out + draw(st.lists(SPACE, max_size=2))) + "\n"


def _same_outcome(new, old):
    """Both raise ValueError, or both return; then return both results."""
    try:
        ref = old()
    except ValueError:
        with pytest.raises(ValueError):
            new()
        return None, None
    return new(), ref


@SETTINGS
@given(data=st.data(), rows=st.integers(1, 6))
def test_grid_reader_is_bit_equal_to_the_parse_loop(tmp_path, data, rows):
    elems = data.draw(st.sampled_from([FINITE, FLOAT]))
    body = [",".join(data.draw(_field(elems)) for _ in range(2)) for _ in range(rows)]
    head = f"SAFTGRID v1\nn 1\nshape {rows}\norigin -1.5\nspacing 0.25\nre,im\n"
    path = tmp_path / "g.grid"
    path.write_text(head + data.draw(_text(body)))
    new, old = _same_outcome(lambda: read_grid(path), lambda: oracle.read_grid(path))
    if old is not None:
        assert new.same_geometry(old) and new.shape == old.shape
        np.testing.assert_array_equal(_bits(new.values), _bits(old.values))


@pytest.mark.parametrize("line,bad", [
    ("n 1", "n 0"),
    ("n 1", "n 1.0"),
    ("n 1", "n"),
    ("shape 4", "shape 4.0"),
    ("shape 4", "shape 0"),
    ("shape 4", "shape -4"),
    ("shape 4", "shape 2 2"),
    ("origin -1.0", "origin nan"),
    ("origin -1.0", "origin abc"),
    ("origin -1.0", "origin -inf"),
    ("spacing 0.5", "spacing inf"),
    ("spacing 0.5", "spacing 0.0"),
    ("spacing 0.5", "spacing -0.5"),
    ("spacing 0.5", "spacing 0.5 0.5"),
    ("spacing 0.5", "spacing 0.5\nshape 2"),      # a repeated line
])
def test_a_bad_grid_header_line_names_the_file_and_the_line(tmp_path, capsys, line, bad):
    good = "SAFTGRID v1\nn 1\nshape 4\norigin -1.0\nspacing 0.5\nre,im\n" + "1.0,0.0\n" * 4
    path = tmp_path / "bad.grid"
    path.write_text(good.replace(line, bad))
    named = bad.split("\n")[-1]
    with pytest.raises(ValueError, match=rf"bad\.grid: header line {named!r} (must hold|repeats)"):
        read_grid(path)
    write_params(tmp_path / "ft1.json", preset("ft", 1))
    assert main(["transform", "--params", str(tmp_path / "ft1.json"), "--in", str(path),
                 "--out", str(tmp_path / "out.grid")]) == 1
    assert f"{path}: header line {named!r}" in capsys.readouterr().err


INDEX_FORMATS = ["{}", "{}.0", "{}.75", "{}e0", " {} "]


@SETTINGS
@given(data=st.data(), rows=st.integers(0, 6), width=st.integers(1, 3))
def test_parse_rows_is_bit_equal_to_the_parse_loop(data, rows, width):
    elems = data.draw(st.sampled_from([FINITE, FLOAT]))
    index = st.integers(-(2**53), 2**53)
    lines = []
    for _ in range(rows):
        ks = [data.draw(st.sampled_from(INDEX_FORMATS)).format(data.draw(index))
              for _ in range(width)]
        lines.append(",".join(ks + [data.draw(_field(elems)) for _ in range(2)]).strip())
    new, old = _same_outcome(lambda: parse_rows("t.csv", lines, width),
                             lambda: oracle.parse_rows("t.csv", lines, width))
    if old is not None:
        np.testing.assert_array_equal(new[0], old[0])
        assert new[0].dtype == old[0].dtype and new[0].shape == old[0].shape
        np.testing.assert_array_equal(_bits(new[1]), _bits(old[1]))


@SETTINGS
@given(data=st.data(), n=st.integers(1, 2))
def test_sequence_reader_matches_the_parse_loop(tmp_path, data, n):
    keys = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * n), max_size=5, unique=True))
    body = [",".join([str(x) for x in k] + [data.draw(_field(FINITE)) for _ in range(2)])
            for k in keys]
    header = ",".join(f"k{i + 1}" for i in range(n)) + ",re,im"
    path = tmp_path / "s.csv"
    path.write_text(data.draw(_text([header] + body)))

    def old():
        lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()][1:]
        k, v = oracle.parse_rows(path, lines, n)
        return SeqFn.from_arrays(n, k, v)

    new, ref = _same_outcome(lambda: read_sequence(path, n=n), old)
    if ref is not None:
        np.testing.assert_array_equal(new.keys, ref.keys)
        np.testing.assert_array_equal(_bits(new.values), _bits(ref.values))


@pytest.mark.parametrize("row", ["1_0,1.0,0.0", "0,1_0,0.0", "#1,1.0,0.0", "0,1.0",
                                 "0,1.0,0.0,4.0"])
def test_rows_the_table_parser_rejects_name_the_file(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"k1,re,im\n0,1.0,0.0\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.csv: data row 2 \(") as exc:
        read_sequence(path, n=1)
    assert repr(row) in str(exc.value) and "usecols" not in str(exc.value)


@pytest.mark.parametrize("lines,width,row", [
    (["1_0,2"], 0, 1),                 # the first data row
    (["1,2", "3,4,5"], 0, 2),          # a changed column count
    (["0,1.0", "0,1.0,0.0"], 1, 1),    # the first row has the wrong width
    (["0,1.0", "0,2.0"], 1, 1),        # every row has the wrong width
])
def test_a_rejected_table_names_its_first_bad_row(lines, width, row):
    with pytest.raises(ValueError, match=rf"t\.csv: data row {row} \({lines[row - 1]!r}\)") as exc:
        parse_rows("t.csv", lines, width)
    assert "usecols" not in str(exc.value)


@pytest.mark.parametrize("index", ["1e300", "nan", "-inf", "9223372036854775808"])
def test_an_index_beyond_int64_names_the_file_and_row(index):
    with pytest.raises(ValueError, match=r"t\.csv: data row 2 .* index"):
        parse_rows("t.csv", ["0,1.0,0.0", f"{index},1.0,0.0"], 1)


def test_a_table_parser_reject_exits_1(tmp_path, capsys):
    write_params(tmp_path / "ft1.json", preset("ft", 1))
    bad = tmp_path / "under.csv"
    bad.write_text("k1,re,im\n0,1_0,0.0\n")
    assert main(["dtsaft", "--params", str(tmp_path / "ft1.json"), "--seq", str(bad),
                 "--wgrid=-1:1:3"]) == 1
    assert str(bad) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the CLI tables as written: re-formatting the parsed values with the
# per-row writers reproduces each file byte for byte (repr round-trips)


def _table(path):
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if ln and not ln.startswith(("#", "w", "trial"))]
    head = lines[: len(lines) - len(body)]
    return head, np.array([[float(x) for x in ln.split(",")] for ln in body])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("tables")
    write_params(d / "frft.json", preset("separable_frft", theta=[0.7, 1.1]))
    write_params(d / "ft.json", preset("ft", 2))
    write_grid(d / "phi.grid", sample_generator("gaussian", sampling_grid(2, 16, n=2), sigma=0.5))
    write_sequence(d / "a.csv", SeqFn(2, {(0, 0): 0.7 + 0.1j, (-1, -1): 1.0, (-1, -2): 0.5}))
    return d


def test_dtsaft_and_sis_files_are_the_per_row_text(files, tmp_path, capsys):
    assert main(["dtsaft", "--params", str(files / "frft.json"), "--seq", str(files / "a.csv"),
                 "--wgrid=-0.5:0.5:5", "--out", str(tmp_path / "dt.csv")]) == 0
    head, rows = _table(tmp_path / "dt.csv")
    vals = rows[:, 2] + 1j * rows[:, 3]
    assert (tmp_path / "dt.csv").read_text() == oracle.dtsaft_text(head, rows[:, :2], vals)

    assert main(["sis", "--params", str(files / "ft.json"), "--phi", str(files / "phi.grid"),
                 "--out", str(tmp_path / "sis.csv"), "--cell-points", "4"]) == 0
    head, rows = _table(tmp_path / "sis.csv")
    assert (tmp_path / "sis.csv").read_text() == \
        oracle.sis_text(head, rows[:, :2], rows[:, 2], rows[:, 3])
    capsys.readouterr()


def test_dynsamp_check_and_verify_files_are_the_per_row_text(files, tmp_path, capsys):
    out = tmp_path / "field.csv"
    assert main(["dynsamp", "check", "--params", str(files / "ft.json"),
                 "--phi", str(files / "phi.grid"), "--filter", str(files / "a.csv"),
                 "--M", json.dumps([[2, 0], [0, 2]]), "--cell-points", "3",
                 "--out", str(out)]) == 0
    head, rows = _table(out)
    m = 4
    ent = rows[:, 2:2 + 2 * m * m].copy().view(complex).reshape(-1, m, m)
    assert out.read_text() == oracle.dynsamp_check_text(head, rows[:, :2], ent,
                                                        rows[:, -2], rows[:, -1])

    out = tmp_path / "verify.csv"
    assert main(["verify", "--theorem", "dd", "--trials", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    head, rows = _table(out)
    assert out.read_text() == oracle.verify_text(head, rows[:, 1].tolist())
    capsys.readouterr()
