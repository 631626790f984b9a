"""The text codec of ``saftlab.io`` against the per-row writers and parse
loops it replaced (kept in ``io_oracles.py``): every writer's bytes and
every reader's values must be identical, bit for bit."""

import ast
import json
import math
import os
import signal
import sys
import threading
import tracemalloc
from pathlib import Path
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
    params_from_dict,
    parse_rows,
    read_grid,
    read_measurements,
    read_sequence,
    write_grid,
    write_params,
    write_sequence,
)
from saftlab.params import preset, random_params, require_valid

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


def _zero_heavy(rows: int) -> np.ndarray:
    """A (rows, 2) block whose rows are 65% exact zeros, like the generator
    grid the cli_files benchmark sets up, whose far cells underflow: both
    columns take the dedupe route."""
    rng = np.random.default_rng(5)
    block = rng.standard_normal((rows, 2))
    block[rng.random(rows) < 0.65] = 0.0
    return block


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data(), rows=st.integers(0, 3000), chunk=st.integers(1, 7),
       fork=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_a_column_deduped_per_chunk_is_the_whole_column_text(data, rows, chunk, fork, seed):
    # each chunk keys its own rows by bit pattern: -0.0, NaN payloads and
    # subnormals keep their own text in every chunk, in either process
    rng = np.random.default_rng(seed)
    pool = data.draw(st.lists(st.one_of(FLOAT, st.sampled_from(NASTY.tolist())),
                              min_size=1, max_size=12))
    block = np.column_stack([_column(rng, "pool", rows, pool), _column(rng, "pool", rows, NASTY)])
    keys = rng.integers(-9, 9, size=(rows, 1), dtype=np.int64)
    with mock.patch.multiple(saftlab.io, _column_text=oracle._column_text,
                             _may_fork=lambda rows: False):
        want = format_rows(["k,a,b"], keys, block)
    may_fork = saftlab.io._may_fork if fork else (lambda rows: False)
    with mock.patch.multiple(saftlab.io, ROW_CHUNK=chunk, _may_fork=may_fork):
        assert format_rows(["k,a,b"], keys, block) == want
    assert _no_child_left()


def test_a_repeating_column_is_deduped_one_chunk_at_a_time():
    # the whole column was once deduped in the caller, before the fork:
    # only the sample is looked at there now, and each chunk in the process
    # that formats it
    block, where, seen = _zero_heavy(263_169), [], []
    real_unique = np.unique

    def unique(a, *args, **kwargs):
        seen.append((where[-1], len(a)))
        return real_unique(a, *args, **kwargs)

    def inside(name):
        real = getattr(saftlab.io, name)

        def call(*args):
            where.append(name)
            try:
                return real(*args)
            finally:
                where.pop()
        return call

    with mock.patch.object(np, "unique", unique), \
            mock.patch.multiple(saftlab.io, _columns=inside("_columns"),
                                _format_chunks=inside("_format_chunks"),
                                _may_fork=lambda rows: False):
        text = format_rows(["re,im"], block)
    assert text == _per_row_text(["re,im"], block)
    chunks = math.ceil(len(block) / saftlab.io.ROW_CHUNK)
    sizes = {name: [size for at, size in seen if at == name]
             for name in ("_columns", "_format_chunks")}
    assert len(seen) == 2 + 2 * chunks == sum(map(len, sizes.values()))
    assert max(sizes["_columns"]) <= saftlab.io.SAMPLE_ROWS
    assert max(sizes["_format_chunks"]) <= saftlab.io.ROW_CHUNK
    assert sum(sizes["_format_chunks"]) == 2 * len(block)


def test_formatting_distinct_values_peaks_near_the_text_size():
    # as many cells as each grid that the cli_files benchmark writes (513^2):
    # nearly all distinct (the plain route), and 65% exact zeros (the dedupe
    # route, which peaked at 4.66x when it deduped the whole column at once)
    for block in (np.random.default_rng(5).standard_normal((263_169, 2)), _zero_heavy(263_169)):
        tracemalloc.start()
        try:
            size = len(format_rows(["re,im"], block))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * size


def test_writing_a_grid_sized_table_peaks_below_twice_the_file_size(tmp_path):
    # as many rows as each grid that the cli_files benchmark writes (513^2):
    # the pieces go to the open file one by one, and the forked child's half
    # stays in its pipe reads, so no str of the whole file or of that half is
    # held beside its encoding (2.0x the file size, then 1.61x, before)
    block = np.random.default_rng(5).standard_normal((263_169, 2))
    values, path = block.view(complex)[:, 0], tmp_path / "t.csv"
    tracemalloc.start()
    try:
        saftlab.io._write_rows(path, values, ["re,im"], block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * path.stat().st_size


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
    # the reader splits the same cut: k..., b, c parsed back bit for bit, with
    # the keys in the range a float holds exactly (|k| < 2**53; past it a row is refused)
    exact = keys >> 11
    lines, calls[:] = [ln for ln in format_rows([], exact, block[:, 1:]).splitlines() if ln], []
    with mock.patch.object(saftlab.io, "ROW_CHUNK", chunk), \
            mock.patch.object(os, "fork", _forks(calls)):
        index, vals = parse_rows("t.csv", lines, ints)
        with mock.patch.object(saftlab.io, "_may_fork", lambda rows: False):
            serial = parse_rows("t.csv", lines, ints)
    assert calls == ([os.getpid()] if rows >= 2 * chunk else [])
    assert index.dtype == serial[0].dtype and index.shape == serial[0].shape == (rows, ints)
    np.testing.assert_array_equal(index, serial[0])
    np.testing.assert_array_equal(index, exact)
    np.testing.assert_array_equal(_bits(vals), _bits(serial[1]))
    np.testing.assert_array_equal(_bits(vals), _bits(block[:, 1:].copy().view(complex)[:, 0]))
    assert _no_child_left()


@linux_only
def test_a_large_table_forks_once_and_leaves_no_child_or_descriptor():
    block = np.random.default_rng(3).standard_normal((2 * saftlab.io.ROW_CHUNK + 5, 2))
    fds, calls = _open_fds(), []
    with mock.patch.object(os, "fork", _forks(calls)):      # once to write, once to read
        text = format_rows(["re,im"], block)
        vals = parse_rows("t.csv", text.splitlines()[1:], 0)[1]
    assert calls == [os.getpid()] * 2
    assert text == _per_row_text(["re,im"], block)
    np.testing.assert_array_equal(_bits(vals), _bits(block.view(complex)[:, 0]))
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
        vals = parse_rows("t.csv", want.splitlines()[1:], 0)[1]
    np.testing.assert_array_equal(_bits(vals), _bits(block.view(complex)[:, 0]))
    assert _no_child_left()
    assert _open_fds() == fds


@linux_only
@pytest.mark.parametrize("cut", [lambda t: t[:-1], lambda t: np.vstack([t, t[:1]])])
def test_a_child_table_of_the_wrong_size_is_not_used(cut):
    # the child exits 0 but sends one row too few or too many
    block = np.random.default_rng(9).standard_normal((40, 2))
    lines = format_rows([], block).splitlines()
    real, parent, fds = np.loadtxt, os.getpid(), _open_fds()

    def loadtxt(*args, **kwargs):
        table = real(*args, **kwargs)
        return table if os.getpid() == parent else cut(table)

    with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), mock.patch.object(np, "loadtxt", loadtxt):
        vals = parse_rows("t.csv", lines, 0)[1]
    np.testing.assert_array_equal(_bits(vals), _bits(block.view(complex)[:, 0]))
    assert _no_child_left()
    assert _open_fds() == fds


@linux_only
@pytest.mark.parametrize("fake", [_child_exits_3, _child_dies_mid_write])
def test_a_failed_child_is_redone_for_its_half_only(fake):
    # 40 rows in chunks of 8: this process does rows 0-15, the child 16-39;
    # after the child fails this process does rows 16-39, not 0-39
    block = np.random.default_rng(10).standard_normal((40, 2))
    lines = format_rows([], block).splitlines()
    real_format, real_load, parent = saftlab.io._format_chunks, np.loadtxt, os.getpid()
    formatted, loaded = [], []

    def format_chunks(columns, lo, hi):
        if os.getpid() == parent:
            formatted.append((lo, hi))
        return real_format(columns, lo, hi)

    def loadtxt(rows, *args, **kwargs):
        if os.getpid() == parent:
            loaded.append(len(rows))
        return real_load(rows, *args, **kwargs)

    with mock.patch.multiple(saftlab.io, ROW_CHUNK=8, _format_chunks=format_chunks), \
            mock.patch.object(os, "fork", fake), mock.patch.object(np, "loadtxt", loadtxt):
        text = format_rows([], block)
        vals = parse_rows("t.csv", lines, 0)[1]
    assert formatted == [(0, 16), (16, 40)]
    assert loaded == [8] * 5
    assert text == _per_row_text([], block)
    np.testing.assert_array_equal(_bits(vals), _bits(block.view(complex)[:, 0]))
    assert _no_child_left()


#: the ``os.fork`` stand-ins the writer must give the same bytes under
WRITER_FORKS = {"on": real_fork, "fails": _fails, "child exits 3": _child_exits_3,
                "child dies mid-write": _child_dies_mid_write}


@linux_only
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(chunk=st.integers(1, 6), rows=st.integers(0, 40), header=st.booleans(),
       fork=st.sampled_from([*WRITER_FORKS, "off"]), seed=st.integers(0, 2**32 - 1))
def test_every_table_sink_writes_the_whole_file_writers_bytes(tmp_path, chunk, rows, header,
                                                              fork, seed):
    # the grid and sequence writer, the figure writer and format_rows against
    # the writer that joined one str of the whole file
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(2**63), 2**63 - 1, size=(rows, 2), dtype=np.int64)
    block = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-320, 300, size=(rows, 2))
    values, head = block.copy().view(complex)[:, 0], ["k1,k2,re,im"] if header else []
    may_fork = (lambda rows: False) if fork == "off" else saftlab.io._may_fork
    with mock.patch.object(saftlab.io, "ROW_CHUNK", chunk):
        oracle._write_rows(tmp_path / "old.csv", values, head, keys, block)
        want = oracle.format_rows(head, keys, block)
        with mock.patch.object(os, "fork", WRITER_FORKS.get(fork, real_fork)), \
                mock.patch.object(saftlab.io, "_may_fork", may_fork):
            saftlab.io._write_rows(tmp_path / "new.csv", values, head, keys, block)
            with saftlab.io._writing_tables([(tmp_path / "fig.csv", head, keys, block)]):
                pass
            text = format_rows(head, keys, block)
    assert text == want == (tmp_path / "old.csv").read_text()
    for name in ("new.csv", "fig.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "old.csv").read_bytes(), name
    assert _no_child_left()


def _formats_once():
    """A `_format_chunks` that raises MemoryError on its second call."""
    real, calls = saftlab.io._format_chunks, []

    def format_chunks(columns, lo, hi):
        calls.append((lo, hi))
        if len(calls) == 2:
            raise MemoryError
        return real(columns, lo, hi)
    return format_chunks


@pytest.mark.parametrize("fake", [_fails, _child_exits_3])
def test_a_table_that_runs_out_of_memory_creates_no_file(tmp_path, capsys, fake):
    # 40 rows in chunks of 8: this process formats rows 0-15, then the
    # failed child's rows 16-39, and runs out of memory there, with pieces
    # of the table already made
    write_params(tmp_path / "ft.json", preset("ft", 1))
    write_sequence(tmp_path / "s.csv", SeqFn(1, {(0,): 1.0, (2,): -0.5j}))
    out, grid = tmp_path / "t.csv", tmp_path / "g.grid"
    with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), mock.patch.object(os, "fork", fake):
        with mock.patch.object(saftlab.io, "_format_chunks", _formats_once()), \
                pytest.raises(MemoryError):
            write_grid(grid, GridFn(1, (40,), [0.0], [1.0], np.arange(40.0) + 0.5j))
        with mock.patch.object(saftlab.io, "_format_chunks", _formats_once()):
            assert main(["dtsaft", "--params", str(tmp_path / "ft.json"),
                         "--seq", str(tmp_path / "s.csv"), "--wgrid=-1:1:40",
                         "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not grid.exists() and not out.exists()
    assert _no_child_left()


def _bad_row_error(lines, width, parse=parse_rows, **patches) -> str:
    with mock.patch.multiple(saftlab.io, **patches), pytest.raises(ValueError) as exc:
        parse("t.csv", lines, width)
    return str(exc.value)


def _oracle_error(lines, width, **patches) -> str:
    """The error of the reader before its one chunk loop."""
    return _bad_row_error(lines, width, oracle.whole_table_parse_rows, **patches)


@linux_only
@pytest.mark.parametrize("bad", ["1_0,1.0,0.0", "0,1.0", "0,1.0,0.0,2.0", "0.5,1.0,0.0",
                                 "0,nan,0.0", "0,1.0,-inf"])
@pytest.mark.parametrize("at", [0, 15, 16, 17, 39])
def test_a_bad_row_in_either_half_names_the_row_as_one_process_does(bad, at):
    # 40 rows in chunks of 8: this process parses rows 0-15, the child 16-39
    lines = [f"{k},{k}.5,-0.25" for k in range(40)]
    lines[at] = bad
    calls, fds = [], _open_fds()
    with mock.patch.object(os, "fork", _forks(calls)):
        two = _bad_row_error(lines, 1, ROW_CHUNK=8)
    assert calls == [os.getpid()]
    assert two == _bad_row_error(lines, 1, ROW_CHUNK=8, _may_fork=lambda rows: False)
    assert two == _oracle_error(lines, 1, ROW_CHUNK=8)
    assert f"t.csv: data row {at + 1} ({bad!r})" in two
    assert _no_child_left()
    assert _open_fds() == fds


@linux_only
@pytest.mark.parametrize("row", ["{},1.0", "{}"])
@pytest.mark.parametrize("rows", [range(8, 16), range(16, 40)])
def test_a_chunk_or_half_of_the_wrong_width_names_its_first_row(rows, row):
    # each part parses alone, but this process's chunk 8-15 or the child's
    # half 16-39 has two columns or one (which would broadcast), not three
    lines = [row.format(k) if k in rows else f"{k},{k}.5,-0.25" for k in range(40)]
    fds = _open_fds()
    two = _bad_row_error(lines, 1, ROW_CHUNK=8)
    assert two == _bad_row_error(lines, 1, ROW_CHUNK=8, _may_fork=lambda rows: False)
    assert two == _oracle_error(lines, 1, ROW_CHUNK=8)
    assert f"t.csv: data row {rows[0] + 1} ({lines[rows[0]]!r}) needs 1 index columns" in two
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
def test_an_error_in_the_parent_reaps_a_child_blocked_on_a_full_parse_pipe():
    # the child's 20,000 rows are 320 KiB of float64, far over a pipe's 64 KiB
    lines = format_rows([], np.random.default_rng(5).standard_normal((40_000, 2))).splitlines()
    real, parent = np.loadtxt, os.getpid()

    def loadtxt(*args, **kwargs):
        if os.getpid() == parent:
            raise MemoryError
        return real(*args, **kwargs)

    def hung(signum, frame):
        raise TimeoutError("the child was never reaped")

    fds, previous = _open_fds(), signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with mock.patch.object(saftlab.io, "ROW_CHUNK", 1000), \
                mock.patch.object(np, "loadtxt", loadtxt), pytest.raises(MemoryError):
            parse_rows("t.csv", lines, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _no_child_left()
    assert _open_fds() == fds


@linux_only
def test_no_fork_while_another_thread_runs(tmp_path):
    block = np.random.default_rng(6).standard_normal((40, 2))
    stop, calls = threading.Event(), []
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), \
                mock.patch.object(os, "fork", _forks(calls)):
            text = format_rows(["re,im"], block)
            vals = parse_rows("t.csv", text.splitlines()[1:], 0)[1]
        tables = _tables(tmp_path)
        with mock.patch.object(os, "fork", _forks(calls)), saftlab.io._writing_tables(tables):
            pass
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert calls == []
    assert text == _per_row_text(["re,im"], block)
    np.testing.assert_array_equal(_bits(vals), _bits(block.view(complex)[:, 0]))
    _assert_written(tables)


def test_a_forked_child_formats_and_parses_a_large_table_without_a_pipe():
    # the figure child, which cannot fork again, once opened and closed a
    # pipe for each table of two chunks or more before doing the work alone
    block = np.random.default_rng(7).standard_normal((40, 2))
    pipes, real_pipe = [], os.pipe
    with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), \
            mock.patch.object(saftlab.io, "_in_child", True), \
            mock.patch.object(os, "pipe", lambda: pipes.append(1) or real_pipe()):
        text = format_rows(["re,im"], block)
        vals = parse_rows("t.csv", text.splitlines()[1:], 0)[1]
    assert pipes == []
    assert text == _per_row_text(["re,im"], block)
    np.testing.assert_array_equal(_bits(vals), _bits(block.view(complex)[:, 0]))


# ---------------------------------------------------------------------------
# the figure writer: one forked child writes every table while the caller's
# with-block runs; this process writes them itself when the child cannot


def _tables(tmp_path) -> list:
    """(path, header, keys, block) tables; with `ROW_CHUNK` 8 the first two
    are long enough for `format_rows` to split them."""
    rng = np.random.default_rng(8)
    return [(tmp_path / f"t{i}.csv", [f"k,a,b{i}"], rng.integers(-9, 9, size=(rows, 1)),
             rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-300, 300, size=(rows, 2)))
            for i, rows in enumerate((40, 17, 3, 0))]


def _assert_written(tables) -> None:
    for path, header, keys, block in tables:
        assert path.read_text() == _per_row_text(header, block, keys), path.name


def _logged_forks(log):
    """An ``os.fork`` that appends the calling pid to the file `log`, so a
    fork made in a child is seen too."""
    def fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_fork()
    return fork


def _child_dies_mid_file_write():
    pid = real_fork()
    if pid == 0:
        def write_table(path, header, *blocks):         # in the child only
            Path(path).write_text(format_rows(header, *blocks)[:20])
            raise OSError("no space left")
        saftlab.io._write_table = write_table
    return pid


@linux_only
def test_the_figure_writer_forks_once_and_writes_every_table(tmp_path):
    tables, log, fds = _tables(tmp_path), tmp_path / "forks.log", _open_fds()
    with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), \
            mock.patch.object(os, "fork", _logged_forks(log)), \
            saftlab.io._writing_tables(tables):
        pass
    # the child formats every table in one process: no nested fork
    assert log.read_text().split() == [str(os.getpid())]
    _assert_written(tables)
    assert _no_child_left()
    assert _open_fds() == fds


@linux_only
@pytest.mark.parametrize("fake", [_fails, _child_exits_3, _child_dies_mid_file_write])
def test_a_failed_figure_child_leaves_this_process_to_write_every_table(tmp_path, fake):
    tables, fds = _tables(tmp_path), _open_fds()
    with mock.patch.object(saftlab.io, "ROW_CHUNK", 8), mock.patch.object(os, "fork", fake), \
            saftlab.io._writing_tables(tables):
        pass
    _assert_written(tables)
    assert _no_child_left()
    assert _open_fds() == fds


def test_os_fork_is_called_in_one_place():
    src = Path(saftlab.io.__file__).parent
    sites = [(f.name, node.lineno) for f in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.Attribute) and node.attr.startswith("fork")
             or isinstance(node, ast.alias) and node.name.startswith("fork")]
    assert len(sites) == 1 and sites[0][0] == "io.py", sites


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


def _exact_parse_loop(lines: list[str], width: int):
    """The parse loop, which read an index of 2**53 or more rounded: `parse_rows`
    refuses the first row that holds one instead, by the index rule."""
    index, vals = oracle.parse_rows("t.csv", lines, width)
    big = np.flatnonzero(np.any((index >= 2**53) | (index <= -(2**53)), axis=1))
    if big.size:
        i = int(big[0])
        with pytest.raises(ValueError) as exc:
            parse_rows("t.csv", lines, width)
        assert str(exc.value) == (f"t.csv: data row {i + 1} ({lines[i]!r}) has a non-finite, "
                                  "out-of-range or non-integer index")
        raise exc.value
    return index, vals


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
                             lambda: _exact_parse_loop(lines, width))
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


NO_FORK = {"_may_fork": lambda rows: False}


@SETTINGS
@given(rows=st.integers(1, 40), data=st.data(), width=st.integers(0, 2), chunk=st.integers(1, 9),
       bad=st.sampled_from(["1_0,{}", "{}", "{},0.0,1.0,2.0,3.0", "#,{}", "{},x"]))
def test_the_chunked_bad_row_search_names_the_row_the_row_by_row_search_names(
        rows, data, width, chunk, bad):
    # parse_rows' one chunk loop, in two processes and in one
    lines = [",".join([str(k)] * width + [f"{k}.5", "-0.25"]) for k in range(rows)]
    for at in data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=3)):
        lines[at] = bad.format(",".join(["0"] * width + ["1.0"]))
    want = str(oracle.bad_row("t.csv", lines, width))
    assert _bad_row_error(lines, width, ROW_CHUNK=chunk) == want
    assert _bad_row_error(lines, width, ROW_CHUNK=chunk, **NO_FORK) == want
    assert _oracle_error(lines, width, ROW_CHUNK=chunk) == want


@pytest.mark.parametrize("chunk", [8, None])
def test_a_table_bad_in_its_last_row_is_searched_a_chunk_at_a_time(chunk):
    # this process parses its half, then (the child failed) the child's
    # half, then the last chunk's rows one by one: at most rows + chunk rows
    chunk = chunk or saftlab.io.ROW_CHUNK
    rows = 3 * chunk + 5
    lines = [f"{k},{k}.5,-0.25" for k in range(rows - 1)] + ["0,1_0,0.0"]
    real, parent = np.loadtxt, os.getpid()
    for patches in ({}, NO_FORK):
        loaded = []

        def loadtxt(lines, *args, **kwargs):
            if os.getpid() == parent:
                loaded.append(len(lines))
            return real(lines, *args, **kwargs)

        with mock.patch.object(np, "loadtxt", loadtxt):
            err = _bad_row_error(lines, 1, ROW_CHUNK=chunk, **patches)
        assert err == f"t.csv: data row {rows} ('0,1_0,0.0') has a field that is not a number"
        assert sum(loaded) <= rows + chunk
        assert len(loaded) <= math.ceil(rows / chunk) + 1 + chunk
    assert err == _oracle_error(lines, 1, ROW_CHUNK=chunk)


TOKENS = ["1_0", "x", "#", "nan", "-inf", "0.5", "1e300", "9223372036854775808", "-0.0"]


@SETTINGS
@given(rows=st.integers(1, 40), data=st.data(), width=st.integers(0, 2), chunk=st.integers(1, 9))
def test_parse_rows_gives_the_arrays_or_the_error_of_the_whole_table_reader(
        rows, data, width, chunk):
    # a table with up to two edited rows: a field replaced, a field added
    # or the last field dropped
    lines = [",".join([str(k - 20)] * width + [f"{k}.5", "-0.25"]) for k in range(rows)]
    for at in data.draw(st.lists(st.integers(0, rows - 1), max_size=2, unique=True)):
        fields = lines[at].split(",")
        edit = data.draw(st.sampled_from(["replace", "add", "drop"]))
        if edit == "replace":
            fields[data.draw(st.integers(0, width + 1))] = data.draw(st.sampled_from(TOKENS))
        lines[at] = ",".join(fields + ["1.0"] if edit == "add" else fields[:-1]
                             if edit == "drop" else fields)

    def outcome(parse, **patches):
        try:
            with mock.patch.multiple(saftlab.io, ROW_CHUNK=chunk, **patches):
                index, vals = parse("t.csv", lines, width)
        except ValueError as exc:
            return str(exc)
        return index.dtype, index.shape, index.tolist(), _bits(vals).tolist()

    want = outcome(oracle.whole_table_parse_rows)
    assert outcome(parse_rows) == want
    assert outcome(parse_rows, **NO_FORK) == want


@pytest.mark.parametrize("channel", ["20000000", "1e18"])
def test_a_gap_in_the_channels_is_refused_before_a_table_of_its_size(tmp_path, channel):
    # the reader once built np.arange(max channel + 1): 153.6 MiB traced at
    # channel 20,000,000, and "out of memory" instead of this error at 1e18
    path = tmp_path / "m.csv"
    path.write_text(f"k1,channel,re,im\n0,0,1.0,0.0\n1,{channel},0.5,0.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"m\.csv: channel indices must be 0\.\.J-1"):
            read_measurements(path, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_measurement_channels_come_back_in_channel_order(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k1,channel,re,im\n0,2,1.0,0.0\n1,0,0.5,0.0\n2,1,0.25,0.0\n3,0,2.0,0.0\n")
    got = read_measurements(path, 1)
    assert [s.keys.tolist() for s in got] == [[[1], [3]], [[2]], [[0]]]
    assert [s.values.tolist() for s in got] == [[0.5, 2.0], [0.25], [1.0]]


@pytest.mark.parametrize("index", ["1e300", "nan", "-inf", "9223372036854775808",
                                   "9007199254740993", "-9007199254740992"])
def test_an_index_beyond_int64_names_the_file_and_row(index):
    # 9007199254740993 (2**53 + 1) was once read as the key 2**53
    with pytest.raises(ValueError, match=r"t\.csv: data row 2 .* index"):
        parse_rows("t.csv", ["0,1.0,0.0", f"{index},1.0,0.0"], 1)
    edge = parse_rows("t.csv", ["9007199254740991,1.0,0.0", "-9007199254740991,1.0,0.0"], 1)[0]
    assert edge.tolist() == [[2**53 - 1], [-(2**53) + 1]]


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


# ---------------------------------------------------------------------------
# one route for a parameter file against the two routes it replaced


def _as_the_cli_takes_it(read, d):
    """A file's n and matrices as bytes when the reader and then
    `require_valid` accept it, as ``cli._load_params`` composes them; None
    when either refuses."""
    try:
        p = read(json.loads(json.dumps(d)))
        require_valid(p)
    except (ValueError, KeyError):
        return None
    return p.n, [(getattr(p, k).shape, getattr(p, k).tobytes()) for k in "ABCDPQ"]


@st.composite
def _parameter_files(draw):
    """``write_params``' layout of a random block or a preset form, with a
    key now and then dropped, added or renamed and ``n`` kept, dropped or
    wrong."""
    k = draw(st.integers(1, 3))
    p = random_params(k, np.random.default_rng(draw(st.integers(0, 2**16))))
    theta = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    rotation = {"A": c.tolist(), "B": s.tolist(), "C": (-s).tolist(), "D": c.tolist()}
    forms = [
        {"n": k, **{name: getattr(p, name).tolist() for name in "ABCDPQ"}},
        {"n": k, **{name: getattr(p, name).tolist() for name in "ABCD"}},
        {"preset": "ft", "n": k},
        {"preset": draw(st.sampled_from(["separable_frft", "Separable-FRFT"])), "theta": theta},
        {"preset": "lct", **rotation},
        {"preset": "custom", **rotation, "P": p.P.tolist(), "Q": p.Q.tolist()},
        {"preset": "separable_lct", "a": np.cos(theta).tolist(), "b": np.sin(theta).tolist(),
         "c": (-np.sin(theta)).tolist(), "d": np.cos(theta).tolist()},
        {"preset": "nonseparable_fresnel", "B": (s @ s.T + np.eye(k)).tolist()},
        {"preset": "separable_fresnel", "b": theta},
        {"preset": "separable_lorentz", "phi": theta},
    ]
    d = draw(st.sampled_from(forms))
    names = ["A", "B", "C", "D", "P", "Q", "a", "b", "theta", "phi", "bogus", "preset"]
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["drop", "add", "rename"]))
        key = draw(st.sampled_from(sorted(d)))
        if edit == "drop":
            del d[key]
        elif edit == "add":
            d[draw(st.sampled_from(names))] = draw(st.sampled_from([0.0, [0.5] * k, "ft"]))
        else:
            d[draw(st.sampled_from(names))] = d.pop(key)
    n = draw(st.sampled_from(["keep", "drop", k, k + 1, 0, 2.0, True]))
    if n == "drop":
        d.pop("n", None)
    elif n != "keep":
        d["n"] = n
    return d


@settings(max_examples=400, deadline=None)
@given(d=_parameter_files())
def test_every_parameter_file_the_two_routes_read_gives_the_same_block(d):
    # a file the one route refuses, the two routes refused too
    old = _as_the_cli_takes_it(oracle.params_from_dict, d)
    if old is not None:
        assert _as_the_cli_takes_it(params_from_dict, d) == old


@pytest.mark.parametrize("d, key", [
    ({"A": 0, "B": True, "C": -1, "D": False}, "B"),
    ({"preset": "separable_frft", "theta": [True, 0.7]}, "theta"),
    ({"n": 2, "A": [[0, 0], [0, 0]], "B": [[1, 0], [0, 1]], "C": [[-1, 0], [0, -1]],
      "D": [[0, 0], [0, 0]], "Q": [0, False]}, "Q"),
])
def test_a_parameter_file_refuses_true_and_false_as_entries(d, key):
    # numpy read them as 1 and 0: the first file was once the plain Fourier block
    with pytest.raises(ValueError, match=f"^parameter file: {key} has an entry that is not a number$"):
        params_from_dict(d)
