"""Command-line interface: subcommands, file formats, exit codes, determinism.

Everything runs in-process through ``saftlab.cli.main(argv)`` so exit codes
and emitted files are asserted directly.
"""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import saftlab
from saftlab import sis
from saftlab.cli import build_parser, main
from saftlab.dynsamp import (
    build_B_from_samples,
    filtered_levels,
    integer_sample_levels,
    measure_from_samples,
    sampled_generator,
)
from saftlab.grid import SeqFn, sample_generator, sampling_grid
from saftlab.io import (
    read_grid,
    read_params,
    read_sequence,
    write_grid,
    write_params,
    write_sequence,
)
from saftlab.lattice import build_lattice
from saftlab.params import _physical_points, preset, random_params
from saftlab.sis import build_sis, grammian, synthesize

TRUTH = {(0,): 1.0 + 0.0j, (2,): -1.0 + 0.0j, (3,): 0.5j}
FILTER_1D = {(0,): 1.0, (1,): 0.5}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared fixture directory with params, grids, sequences, measurements."""
    d = tmp_path_factory.mktemp("cli")
    p1 = preset("ft", 1)
    write_params(d / "ft1.json", p1)
    write_params(d / "frft.json", preset("separable_frft", theta=[0.7]))

    g = sampling_grid(6, 16)
    phi = sample_generator("gaussian", g, sigma=0.6)
    write_grid(d / "phi1.grid", phi)
    write_grid(d / "gauss.grid", sample_generator("gaussian", g, sigma=0.8, center=0.3))

    filt = SeqFn(1, FILTER_1D)
    write_sequence(d / "filt1.csv", filt)
    write_sequence(d / "seq.csv", SeqFn(1, {(-1,): 0.5 + 0.25j, (0,): 1.0, (2,): -0.75}))
    write_sequence(d / "zero.csv", SeqFn(1, {}))

    # measurements for both recovery methods, from library primitives
    lat = build_lattice([[2]])
    c = SeqFn(1, TRUTH)
    levels = [sampled_generator(lv) for lv in filtered_levels(p1, filt, phi, lat.m, "cc")]
    ms = measure_from_samples(p1, lat, c, levels)
    _write_measurements(d / "meas.csv", ms.levels, 1)

    model = build_sis(p1, phi)
    h_levels = integer_sample_levels(p1, filt, synthesize(model, c), lat.m)
    _write_measurements(d / "meas_cont.csv", h_levels, 1)
    return d


def _write_measurements(path, channels, n):
    rows = ["k1,channel,re,im" if n == 1 else ",".join(f"k{i+1}" for i in range(n)) + ",channel,re,im"]
    for j, seq in enumerate(channels):
        for k in sorted(seq.entries):
            v = seq.entries[k]
            rows.append(",".join(str(int(x)) for x in k) + f",{j},{v.real!r},{v.imag!r}")
    path.write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# transform / inverse


def test_transform_inverse_roundtrip(work, tmp_path):
    spec = tmp_path / "F.grid"
    back = tmp_path / "f2.grid"
    assert main(["transform", "--params", str(work / "frft.json"), "--in", str(work / "gauss.grid"),
                 "--out", str(spec)]) == 0
    assert main(["inverse", "--params", str(work / "frft.json"), "--in", str(spec),
                 "--out", str(back)]) == 0
    orig = read_grid(work / "gauss.grid")
    rec = read_grid(back)
    err = np.linalg.norm(rec.values - orig.values) / np.linalg.norm(orig.values)
    assert err < 1e-10


def test_transform_backends_agree(work, tmp_path):
    fast = tmp_path / "fast.grid"
    quad = tmp_path / "quad.grid"
    base = ["transform", "--params", str(work / "frft.json"), "--in", str(work / "gauss.grid")]
    assert main(base + ["--backend", "fast", "--out", str(fast)]) == 0
    assert main(base + ["--backend", "quad", "--out", str(quad)]) == 0
    a, b = read_grid(fast), read_grid(quad)
    assert np.linalg.norm(a.values - b.values) / np.linalg.norm(b.values) < 1e-10


# ---------------------------------------------------------------------------
# dtsaft / conv


def test_dtsaft_stdout_and_file(work, tmp_path, capsys):
    # leading '-' values need the = form, or argparse reads them as flags
    argv = ["dtsaft", "--params", str(work / "ft1.json"), "--seq", str(work / "seq.csv"),
            "--wgrid=-1:1:9"]
    assert main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split(",") == ["w1", "re", "im"]
    out = tmp_path / "dt.csv"
    assert main(argv + ["--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10  # header + 9 points
    w, re, im = (float(x) for x in lines[1].split(","))
    assert w == -1.0
    assert "np.float64" not in out.read_text()


@pytest.mark.parametrize("axis", ["nan:1:3", "0:inf:2"])
def test_a_non_finite_wgrid_bound_exits_1(work, tmp_path, capsys, axis):
    out = tmp_path / "dt.csv"
    assert main(["dtsaft", "--params", str(work / "ft1.json"), "--seq", str(work / "seq.csv"),
                 f"--wgrid={axis}", "--out", str(out)]) == 1
    assert "bad range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis", ["0:1:1e3", "0:1:x", "x:1:3", "0:x:3"])
def test_a_non_numeric_wgrid_field_names_the_flag_and_the_range(work, tmp_path, capsys, axis):
    # once Python's bare "could not convert string to float: 'x'"
    out = tmp_path / "dt.csv"
    line = _refused(capsys, ["dtsaft", "--params", str(work / "ft1.json"),
                             "--seq", str(work / "seq.csv"), f"--wgrid={axis}",
                             "--out", str(out)], 1)
    assert line == f"error: --wgrid: lo and hi must be numbers and count an integer, got {axis!r}"
    assert not out.exists()


def test_running_out_of_memory_exits_1_with_an_error_line(work, tmp_path, monkeypatch, capsys):
    # what a huge --wgrid count gives (numpy's _ArrayMemoryError is a MemoryError)
    def huge(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)")

    monkeypatch.setattr("saftlab.saft.dtsaft", huge)
    out = tmp_path / "dt.csv"
    assert main(["dtsaft", "--params", str(work / "ft1.json"), "--seq", str(work / "seq.csv"),
                 "--wgrid=-1:1:200000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 298. GiB for an array with " \
                  "shape (200000, 200000)\n"
    assert not out.exists()


def test_conv_dd_writes_sequence(work, tmp_path):
    out = tmp_path / "sq.csv"
    assert main(["conv", "--kind", "dd", "--params", str(work / "ft1.json"),
                 "--lhs", str(work / "filt1.csv"), "--rhs", str(work / "filt1.csv"),
                 "--out", str(out)]) == 0
    sq = read_sequence(out, n=1)
    assert sq.get((0,)) == pytest.approx(1.0)
    assert sq.get((1,)) == pytest.approx(1.0)
    assert sq.get((2,)) == pytest.approx(0.25)


def test_conv_sd_writes_grid(work, tmp_path):
    out = tmp_path / "sd.grid"
    assert main(["conv", "--kind", "sd", "--params", str(work / "ft1.json"),
                 "--lhs", str(work / "seq.csv"), "--rhs", str(work / "phi1.grid"),
                 "--out", str(out)]) == 0
    g = read_grid(out)
    assert g.n == 1 and g.shape[0] > 0


def test_conv_operand_type_mismatch_is_structural(work, tmp_path):
    code = main(["conv", "--kind", "cc", "--params", str(work / "ft1.json"),
                 "--lhs", str(work / "seq.csv"), "--rhs", str(work / "phi1.grid"),
                 "--out", str(tmp_path / "x.grid")])
    assert code == 1


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("theorem,trials", [("dd", 3), ("cc", 2), ("sd", 2), ("commute", 2)])
def test_verify_passes_and_reports(work, tmp_path, theorem, trials):
    out = tmp_path / f"{theorem}.csv"
    assert main(["verify", "--theorem", theorem, "--trials", str(trials),
                 "--seed", "7", "--out", str(out)]) == 0
    text = out.read_text()
    head = text.splitlines()[0]
    assert head.startswith("#") and "seed=7" in head and f"theorem={theorem}" in head
    data_rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#") and not ln.startswith("trial")]
    assert len(data_rows) == trials


def test_verify_deterministic_bytes(work, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["verify", "--theorem", "dd", "--trials", "3", "--seed", "11"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_pinned_params(work, tmp_path):
    out = tmp_path / "pinned.csv"
    assert main(["verify", "--theorem", "dd", "--trials", "2", "--seed", "3",
                 "--params", str(work / "frft.json"), "--out", str(out)]) == 0


def test_verify_sd_in_two_dimensions(tmp_path):
    # the grid factor is transformed by a separable grid sum, so a 2-D trial is fast
    out = tmp_path / "sd2.csv"
    assert main(["verify", "--theorem", "sd", "--dim", "2", "--trials", "1",
                 "--seed", "7", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3      # comment, column names, one trial


def test_verify_cc_in_two_dimensions(tmp_path):
    # the factor transforms' outputs repeat each coordinate along the
    # convolution grid, so the grid sum forms each axis table row once
    out = tmp_path / "cc2.csv"
    assert main(["verify", "--theorem", "cc", "--dim", "2", "--trials", "1",
                 "--seed", "7", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3      # comment, column names, one trial


# ---------------------------------------------------------------------------
# sis


def test_sis_report_and_verdict(work, tmp_path, capsys):
    report = tmp_path / "gram.csv"
    assert main(["sis", "--params", str(work / "ft1.json"), "--phi", str(work / "phi1.grid"),
                 "--out", str(report), "--cell-points", "33"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["lower"] > 0
    lines = report.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["w1", "grammian"]
    assert len(lines) == 34


@pytest.mark.parametrize("n", [1, 2])
def test_sis_report_keeps_the_cell_mesh_bytes(tmp_path, capsys, n):
    # sis evaluates on the solve grid of [0, count - 1]; its report must be
    # the one built on the cell mesh q / count by hand, mapped to w = B q /
    # count by the one frame conversion, byte for byte
    rng = np.random.default_rng(70 + n)
    write_params(tmp_path / "p.json", random_params(n, rng))
    write_grid(tmp_path / "phi.grid",
               sample_generator("gaussian", sampling_grid(6, 16, n=n), sigma=0.6))
    report = tmp_path / "gram.csv"
    main(["sis", "--params", str(tmp_path / "p.json"), "--phi", str(tmp_path / "phi.grid"),
          "--out", str(report), "--cell-points", "5"])
    capsys.readouterr()

    p = read_params(tmp_path / "p.json")
    model = build_sis(p, read_grid(tmp_path / "phi.grid"))
    axes = [np.arange(5) / 5] * n
    wpts = _physical_points(p, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n))
    g = np.atleast_1d(grammian(model, wpts))
    u = np.sum(sis._shift_values(model, wpts), axis=-1)
    rows = [",".join(f"w{i + 1}" for i in range(n)) + ",grammian,unsquared_sum"] + [
        ",".join(repr(float(x)) for x in pt) + f",{float(gv)!r},{float(uv)!r}"
        for pt, gv, uv in zip(wpts, g, u)
    ]
    assert report.read_text() == "\n".join(rows) + "\n"


def test_sis_evaluates_the_shift_table_once(work, monkeypatch, capsys):
    calls = []
    shift_values = sis._shift_values

    def spy(model, w):
        calls.append(np.shape(w))
        return shift_values(model, w)

    monkeypatch.setattr(sis, "_shift_values", spy)
    assert main(["sis", "--params", str(work / "ft1.json"), "--phi", str(work / "phi1.grid"),
                 "--cell-points", "9"]) == 0
    capsys.readouterr()
    assert calls == [(9, 1)]


# ---------------------------------------------------------------------------
# dynsamp


def test_dynsamp_check_pass(work, tmp_path, capsys):
    out = tmp_path / "field.csv"
    assert main(["dynsamp", "check", "--params", str(work / "ft1.json"),
                 "--phi", str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"),
                 "--M", "[[2]]", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    head = out.read_text().splitlines()[0].split(",")
    assert head[0] == "w1" and "abs_det" in head and "cond" in head
    assert "B00_re" in head and "B11_im" in head


@pytest.mark.parametrize("n, M", [(1, [[2]]), (2, [[1, 2], [3, 1]])], ids=["n1", "n2"])
def test_dynsamp_check_csv_is_the_sample_route_field(tmp_path, capsys, n, M):
    # the check evaluates its cell mesh on the solve grid; the entries must
    # be the arbitrary-point evaluator's at the CSV's own points
    rng = np.random.default_rng(60 + n)
    write_params(tmp_path / "p.json", random_params(n, rng))
    write_grid(tmp_path / "phi.grid",
               sample_generator("gaussian", sampling_grid(2, 4, n=n), sigma=0.5))
    keys = [tuple(k) for k in rng.integers(-1, 2, size=(3, n))]
    write_sequence(tmp_path / "a.csv",
                   SeqFn(n, {k: complex(*rng.normal(size=2)) for k in keys}))
    out = tmp_path / "field.csv"
    main(["dynsamp", "check", "--params", str(tmp_path / "p.json"),
          "--phi", str(tmp_path / "phi.grid"), "--filter", str(tmp_path / "a.csv"),
          "--M", json.dumps(M), "--cell-points", "7", "--out", str(out)])
    capsys.readouterr()

    p = read_params(tmp_path / "p.json")
    lat = build_lattice(M)
    m = lat.m
    rows = np.array([[float(x) for x in ln.split(",")]
                     for ln in out.read_text().splitlines()[1:]])
    assert rows.shape == (7**n, n + 2 * m * m + 2)
    parts = rows[:, n:n + 2 * m * m]
    got = (parts[:, 0::2] + 1j * parts[:, 1::2]).reshape(-1, m, m)
    filt = read_sequence(tmp_path / "a.csv", n=n)
    samples = sampled_generator(read_grid(tmp_path / "phi.grid"))
    levels = filtered_levels(p, filt, samples, m, "cc")
    ref = build_B_from_samples(p, lat, rows[:, :n], levels).entries
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _strict_json(text: str):
    """``json.loads`` that rejects the non-standard NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_dynsamp_check_zero_filter_fails(work, tmp_path, capsys):
    code = main(["dynsamp", "check", "--params", str(work / "ft1.json"),
                 "--phi", str(work / "phi1.grid"), "--filter", str(work / "zero.csv"),
                 "--M", "[[2]]", "--out", str(tmp_path / "f.csv")])
    assert code == 2
    summary = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["verdict"] == "fail" and summary["max_cond"] == "inf"


@pytest.mark.parametrize("c1, c2", [("1", "0"), ("0", "0")])
def test_a_singular_section5_report_is_strict_json(tmp_path, capsys, c1, c2):
    # a singular field has an infinite condition number, which json.dumps
    # would write as the non-standard Infinity
    assert main(["repro", "section5", f"--c1={c1}", f"--c2={c2}",
                 "--outdir", str(tmp_path)]) == 2
    report = _strict_json((tmp_path / "report.json").read_text())
    assert report["verdict"] == "fail"
    assert report["periodization_stability"]["max_cond"] == "inf"


def test_repro_threshold_defaults_to_the_library_constant(monkeypatch, capsys):
    from saftlab import repro
    from saftlab.dynsamp import SAMPLE_THRESHOLD

    assert build_parser().parse_args(["repro", "section5"]).threshold is None
    built = []
    build_example = repro.build_example

    def spy(**kw):
        built.append(build_example(**kw))
        return built[-1]

    monkeypatch.setattr(repro, "build_example", spy)
    monkeypatch.setattr(repro, "run_example", lambda sc, outdir: ({"verdict": "pass"}, None))
    assert main(["repro", "section5"]) == 0
    assert built[0].sample_threshold == SAMPLE_THRESHOLD


@pytest.mark.parametrize("command, header_lines", [
    ("sis", 1), ("dynsamp check", 1), ("verify", 2),
])
def test_a_table_on_stdout_is_csv_and_its_summary_goes_to_stderr(
        work, capsys, command, header_lines):
    model = ["--params", str(work / "ft1.json"), "--phi", str(work / "phi1.grid")]
    argv = {
        "sis": ["sis", *model, "--cell-points", "5"],
        "dynsamp check": ["dynsamp", "check", *model, "--filter", str(work / "filt1.csv"),
                          "--M", "[[2]]", "--cell-points", "5"],
        "verify": ["verify", "--theorem", "dd", "--trials", "5", "--seed", "7"],
    }[command]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=header_lines, ndmin=2)
    assert len(rows) == 5
    if command == "verify":
        assert err.startswith("worst residual")
    else:
        assert json.loads(err)["verdict"] == "pass"


def test_dynsamp_recover_discrete(work, tmp_path):
    out = tmp_path / "rec.csv"
    assert main(["dynsamp", "recover", "--params", str(work / "ft1.json"),
                 "--phi", str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"),
                 "--M", "[[2]]", "--measurements", str(work / "meas.csv"),
                 "--method", "discrete", "--out", str(out)]) == 0
    rec = read_sequence(out, n=1)
    for k, v in TRUTH.items():
        assert abs(rec.get(k) - v) < 1e-9


def test_dynsamp_recover_continuous(work, tmp_path):
    out = tmp_path / "rec_cont.csv"
    assert main(["dynsamp", "recover", "--params", str(work / "ft1.json"),
                 "--phi", str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"),
                 "--M", "[[2]]", "--measurements", str(work / "meas_cont.csv"),
                 "--method", "continuous", "--out", str(out)]) == 0
    rec = read_sequence(out, n=1)
    for k, v in TRUTH.items():
        assert abs(rec.get(k) - v) < 1e-9


def test_dynsamp_recover_zero_filter_fails(work, tmp_path):
    code = main(["dynsamp", "recover", "--params", str(work / "ft1.json"),
                 "--phi", str(work / "phi1.grid"), "--filter", str(work / "zero.csv"),
                 "--M", "[[2]]", "--measurements", str(work / "meas.csv"),
                 "--method", "discrete", "--out", str(tmp_path / "r.csv")])
    assert code == 2


# ---------------------------------------------------------------------------
# refused inputs: exit 1 or 2 with one message line, no traceback


#: 1-D blocks whose transforms or channel fields overflow: a huge offset
#: turns the phases into NaN, and B = 1e-300 makes every field determinant
#: infinite though each entry is finite
OVERFLOWING_BLOCKS = {
    "offset-1e308": '{"n": 1, "A": [[0]], "B": [[1]], "C": [[-1]], "D": [[0]], '
                    '"P": [1e308], "Q": [0]}',
    "B-1e-300": '{"n": 1, "A": [[0]], "B": [[1e-300]], "C": [[-1e300]], "D": [[0]], '
                '"P": [0], "Q": [0]}',
}


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "file"])
def test_dtsaft_refuses_a_non_finite_transform(work, tmp_path, capsys, out):
    params = tmp_path / "p.json"
    params.write_text(OVERFLOWING_BLOCKS["offset-1e308"])
    argv = ["dtsaft", "--params", str(params), "--seq", str(work / "seq.csv"), "--wgrid=-1:1:9"]
    path = tmp_path / "dt.csv"
    assert main(argv + ["--out", str(path)] if out else argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0], err
    assert captured.out == "" and not path.exists()


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("theorem", ["dd", "sd"])
def test_verify_refuses_a_non_finite_residual(tmp_path, capsys, theorem, out):
    # a NaN residual is not above the tolerance: these trials once wrote rows
    # of nan, printed "worst residual nan" and exited 0
    params = tmp_path / "p.json"
    params.write_text(OVERFLOWING_BLOCKS["offset-1e308"])
    argv = ["verify", "--theorem", theorem, "--params", str(params), "--trials", "2"]
    path = tmp_path / "v.csv"
    assert main(argv + ["--out", str(path)] if out else argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {theorem} trial 0 has a non-finite residual (nan)\n"
    assert captured.out == "" and not path.exists()


@pytest.mark.parametrize("block", sorted(OVERFLOWING_BLOCKS))
@pytest.mark.parametrize("command", ["check", "recover"])
def test_dynsamp_refuses_an_overflowing_field(work, tmp_path, capsys, block, command):
    # the offset block once failed in numpy's SVD, and B = 1e-300 exited 2
    # with "min |det| = inf" and wrote inf into the table
    params = tmp_path / "p.json"
    params.write_text(OVERFLOWING_BLOCKS[block])
    out = tmp_path / "out.csv"
    argv = ["dynsamp", command, "--params", str(params), "--phi", str(work / "phi1.grid"),
            "--filter", str(work / "filt1.csv"), "--M", "[[2]]", "--out", str(out)]
    if command == "recover":
        argv += ["--measurements", str(work / "meas.csv"), "--method", "discrete"]
    err = _refused(capsys, argv, 1)
    assert "overflows at w = " in err
    assert not out.exists()


def test_sis_refuses_a_grammian_that_overflows(work, tmp_path, capsys):
    # a finite generator whose squared spectrum overflows once wrote a table
    # of inf, printed "lower": Infinity and exited 2 as a vanishing bound
    g = sample_generator("gaussian", sampling_grid(2, 16, n=1), sigma=0.5)
    write_grid(tmp_path / "big.grid", g.with_values(g.values * 1e160))
    out = tmp_path / "gram.csv"
    err = _refused(capsys, ["sis", "--params", str(work / "ft1.json"),
                            "--phi", str(tmp_path / "big.grid"), "--out", str(out)], 1)
    assert err == "error: Grammian overflows at w = [0.0]: its value is not finite"
    assert not out.exists()


@pytest.fixture(scope="module")
def work2(tmp_path_factory):
    """A 2-D block, generator, filter and measurement file."""
    d = tmp_path_factory.mktemp("cli2")
    write_params(d / "ft2.json", preset("ft", 2))
    write_grid(d / "phi2.grid", sample_generator("gaussian", sampling_grid(2, 8, n=2), sigma=0.5))
    write_sequence(d / "filt2.csv", SeqFn(2, {(0, 0): 1.0, (1, 0): 0.5}))
    (d / "meas2.csv").write_text("k1,k2,channel,re,im\n0,0,0,1.0,0.0\n0,0,1,0.5,0.0\n")
    (d / "halves.csv").write_text("k1,re,im\n1.5,1.0,0.0\n-0.7,2.0,0.0\n")
    return d


def _refused(capsys, argv, code: int, prefix: str = "error:") -> str:
    """Run ``argv`` in process; it must exit ``code`` with one stderr line."""
    assert main(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


@pytest.mark.parametrize("method", [None, "discrete", "continuous"])
def test_dynsamp_refuses_a_lattice_of_another_dimension(work2, tmp_path, capsys, method):
    # a 1 x 1 lattice with a 2-D block once split (K, 2) keys as (2K, 1)
    argv = ["dynsamp", "check" if method is None else "recover",
            "--params", str(work2 / "ft2.json"), "--phi", str(work2 / "phi2.grid"),
            "--filter", str(work2 / "filt2.csv"), "--M", "[[2]]"]
    if method:
        argv += ["--measurements", str(work2 / "meas2.csv"), "--method", method,
                 "--out", str(tmp_path / "r.csv")]
    line = _refused(capsys, argv, 1)
    assert "--M is 1x1" in line and "dimension 2" in line
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["transform", "sis", "dynsamp check",
                                     "dynsamp recover discrete", "dynsamp recover continuous"])
def test_a_grid_of_another_dimension_is_structural(work, work2, tmp_path, capsys, command):
    # a 1-D grid with a 2-D block; sis and dynsamp once exited 2 on it
    words = command.split()
    argv = words[:2] if words[0] == "dynsamp" else words[:1]
    argv += ["--params", str(work2 / "ft2.json")]
    grid = str(work / "phi1.grid")
    if command == "transform":
        argv += ["--in", grid, "--out", str(tmp_path / "F.grid")]
    else:
        argv += ["--phi", grid]
    if words[0] == "dynsamp":
        argv += ["--filter", str(work2 / "filt2.csv"), "--M", "[[2,0],[0,2]]"]
    if len(words) == 3:
        argv += ["--measurements", str(work2 / "meas2.csv"), "--method", words[2],
                 "--out", str(tmp_path / "r.csv")]
    line = _refused(capsys, argv, 1)
    assert "dimension 1" in line and "dimension 2" in line
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("method", [None, "discrete", "continuous"])
def test_dynsamp_refuses_a_filter_grid_of_another_dimension(work, work2, tmp_path, capsys,
                                                            method):
    # dynsamp recover --method discrete once exited 2 on it
    argv = ["dynsamp", "check" if method is None else "recover",
            "--params", str(work2 / "ft2.json"), "--phi", str(work2 / "phi2.grid"),
            "--filter", str(work / "phi1.grid"), "--M", "[[2,0],[0,2]]"]
    if method:
        argv += ["--measurements", str(work2 / "meas2.csv"), "--method", method,
                 "--out", str(tmp_path / "r.csv")]
    line = _refused(capsys, argv, 1)
    assert line.startswith("error: --filter has dimension 1") and "dimension 2" in line
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["transform", "inverse"])
def test_in_refuses_a_sequence_csv(work, tmp_path, capsys, command):
    line = _refused(capsys, [command, "--params", str(work / "ft1.json"),
                             "--in", str(work / "seq.csv"), "--out", str(tmp_path / "F.grid")], 1)
    assert "--in needs a grid file" in line


@pytest.mark.parametrize("command", ["sis", "dynsamp check", "dynsamp recover"])
def test_phi_refuses_a_sequence_csv(work, tmp_path, capsys, command):
    argv = command.split() + ["--params", str(work / "ft1.json"), "--phi", str(work / "seq.csv")]
    if command != "sis":
        argv += ["--filter", str(work / "filt1.csv"), "--M", "[[2]]"]
    if command == "dynsamp recover":
        argv += ["--measurements", str(work / "meas.csv"), "--out", str(tmp_path / "r.csv")]
    assert "--phi needs a grid file" in _refused(capsys, argv, 1)


@pytest.mark.parametrize("M, window, params_text", [
    ('[["a",0],[0,2]]', None, None),
    ('[[null,0],[0,2]]', None, None),
    ('[[Infinity,0],[0,2]]', None, None),
    ('[[true,0],[0,2]]', None, None),
    ('[[2.00001,0],[0,2]]', None, None),
    ('[[4611686018427387905,4611686018427387902],[1,1]]', None, None),
    ('[[2,0],[0,1]]', "0:99999999999999999999,0:1", None),
    ('[[2,0],[0,1]]', None, '[1,2]'),
    ('[[2,0],[0,1]]', None, '{"preset": 5}'),
    ('[[2,0],[0,1]]', None, '{"n": 1e400, "A": 0, "B": 1, "C": -1, "D": 0}'),
    ('[[2,0],[0,1]]', None, '{"preset": "ft", "n": 2, "bogus": 1}'),
    ('[[2,0],[0,1]]', None, '{"preset": "ft", "n": 2, "kind": 1}'),
    ('[[2,0],[0,1]]', None, '{"preset": "separable_frft", "theta": [0.7], "n": 2}'),
    ('[[2,0],[0,1]]', None, '{"preset": "separable_frft", "theta": [[0.7, 1.1]]}'),
    ('[[2,0],[0,1]]', None, '{"n": 2, "A": [[0,0],[0,0]], "B": [[1,0],[0,1]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,0]], "bogus": 1}'),
    ('[[2,0],[0,1]]', None, '{"n": 2, "A": [[null,0],[0,0]], "B": [[1,0],[0,1]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,0]]}'),
    ('[[2,0],[0,1]]', None, '{"n": 2, "A": [[0,0],[0,0]], "B": [[1,0],[0,1]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,0]], "P": [NaN, 0]}'),
    ('[[2,0],[0,1]]', None, '{"n": 2, "A": [[0,0],[0,0]], "B": [[1,0],[0,1]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,0]], "Q": [0, Infinity]}'),
    ('[[2,0],[0,1]]', None, '{"preset": "separable_frft", "theta": [NaN, 0.7]}'),
    ('[[2,0],[0,1]]', None, '{"preset": "separable_lorentz", "phi": [1000.0, 0.5]}'),
    ('[[2,0],[0,1]]', None, '{"A": {"x": 1}, "B": 1, "C": -1, "D": 0}'),
    ('[[2,0],[0,1]]', None, '{"n": 2, "A": [[0,{"x": 1}],[0,0]], "B": [[1,0],[0,1]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,0]]}'),
    ('[[2,0],[0,1]]', None, '{"preset": "separable_frft", "theta": [0.7, {"x": 1}]}'),
    ('[[2,0],[0,1]]', None, '{"n": 2, "A": [[0,0],[0,0]], "B": [[1,0],[0,1]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,0]], "P": [{"x": 1}, 0]}'),
    ('[[2,0],[0,1]]', None, '{"n": 2, "A": [[0,0],[0,0]], "B": [[1,0],[0,1]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,' + "9" * 400 + ']]}'),
    ('[[2,0],[0,1]]', None, '{"A": [[false,0],[0,false]], "B": [[true,0],[0,true]], '
                            '"C": [[-1,0],[0,-1]], "D": [[0,0],[0,0]]}'),
    ('[[2,0],[0,1]]', None, '{"preset": "separable_frft", "theta": [true, 0.7]}'),
], ids=["M-string", "M-null", "M-infinity", "M-true", "M-near-integer",
        "M-coset-products-past-int64",
        "window-past-int64",
        "params-list", "params-preset-number", "params-n-infinite", "params-preset-unread-key",
        "params-preset-kind-key", "params-preset-n-disagrees", "params-preset-matrix-angles",
        "params-block-unread-key", "params-block-null-entry", "params-block-nan-offset",
        "params-block-infinite-offset", "params-preset-nan-angle",
        "params-preset-overflowing-rapidity", "params-block-object-matrix",
        "params-block-object-entry", "params-preset-object-angle", "params-block-object-offset",
        "params-block-int-past-float", "params-block-true-entry", "params-preset-true-angle"])
def test_malformed_values_exit_1_with_one_error_line(work2, tmp_path, capsys, M, window,
                                                     params_text):
    # each once ended in a TypeError, OverflowError or AttributeError
    # traceback (a JSON object or a 400-digit integer in a parameter file
    # among them), a true in --M or in a parameter file was read as 1, an
    # --M entry of 2.00001 as 2, or a key the parameter file's form does not
    # read was ignored
    params = work2 / "ft2.json"
    if params_text is not None:
        params = tmp_path / "p.json"
        params.write_text(params_text)
    argv = ["dynsamp", "check" if window is None else "recover", "--params", str(params),
            "--phi", str(work2 / "phi2.grid"), "--filter", str(work2 / "filt2.csv"), "--M", M]
    if window is not None:
        argv += ["--measurements", str(work2 / "meas2.csv"), "--method", "discrete",
                 f"--window={window}", "--out", str(tmp_path / "r.csv")]
    _refused(capsys, argv, 1)
    assert not (tmp_path / "r.csv").exists()


#: a valid 1-D file of each form, by its ``preset`` (None: the full block)
_FORMS = {
    "lct": {"A": [[0.0]], "B": [[1.0]], "C": [[-1.0]], "D": [[0.0]]},
    "separable_lct": {"a": [0.0], "b": [1.0], "c": [-1.0], "d": [0.0]},
    "separable_frft": {"theta": [0.7]},
    "nonseparable_fresnel": {"B": [[2.0]]},
    "separable_fresnel": {"b": [2.0]},
    "separable_lorentz": {"phi": [0.5]},
    "custom": {"A": [[0.0]], "B": [[1.0]], "C": [[-1.0]], "D": [[0.0]], "P": [0.3], "Q": [0.0]},
    None: {"n": 1, "A": [[0.0]], "B": [[1.0]], "C": [[-1.0]], "D": [[0.0]], "P": [0.3]},
}


@pytest.mark.parametrize("kind, key", [("ft", "n")] + [
    (kind, key) for kind, form in _FORMS.items() for key in form if key not in ("n", "P", "Q")])
def test_a_parameter_file_without_a_key_it_needs_names_the_key(work, tmp_path, capsys, kind,
                                                               key):
    # a missing key was once a bare "error: 'A'", and the full block needed n
    form = dict(_FORMS.get(kind, {"n": 1}), **({"preset": kind} if kind else {}))
    params = tmp_path / "p.json"
    argv = ["transform", "--params", str(params), "--in", str(work / "gauss.grid"),
            "--out", str(tmp_path / "o.grid")]
    params.write_text(json.dumps(form))
    assert main(argv) == 0
    capsys.readouterr()
    del form[key]
    params.write_text(json.dumps(form))
    line = _refused(capsys, argv, 1)
    assert line == ("error: ft preset needs the dimension n" if kind == "ft" else
                    f"error: preset {kind or 'custom'!r} needs {key}")


def test_every_parameter_file_form_is_judged_by_one_validation(work, tmp_path, capsys):
    # a preset form was once validated at 1e-12 and refused with exit 1, and
    # the full block needed n
    block = {"A": [[1.0]], "B": [[1.0]], "C": [[0.5]], "D": [[1.0]]}
    forms = [({"preset": "lct", **block}, 2), ({"n": 1, **block}, 2),
             ({"preset": "lct", **block, "C": [[1e-11]]}, 0), ({**block, "C": [[1e-11]]}, 0),
             (_FORMS[None], 0), ({k: v for k, v in _FORMS[None].items() if k != "n"}, 0)]
    for i, (form, code) in enumerate(forms):
        (tmp_path / "p.json").write_text(json.dumps(form))
        out = tmp_path / f"{i}.grid"
        assert main(["transform", "--params", str(tmp_path / "p.json"),
                     "--in", str(work / "gauss.grid"), "--out", str(out)]) == code, form
        err = capsys.readouterr().err
        assert err.startswith("validation failure: invalid parameter block") if code else not err
        assert out.exists() == (code == 0)
    # the full block with and without n: the same transform, byte for byte
    assert (tmp_path / "4.grid").read_bytes() == (tmp_path / "5.grid").read_bytes()


@pytest.mark.parametrize("kind, spelled", [("separable_frft", "Separable-FRFT"),
                                           ("separable_lct", "separable-lct")])
def test_a_preset_name_is_read_in_any_case_with_hyphens_for_underscores(work, tmp_path, capsys,
                                                                       kind, spelled):
    blocks, outs = [], []
    for name in (kind, spelled):
        params = tmp_path / f"{name}.json"
        params.write_text(json.dumps({"preset": name, **_FORMS[kind]}))
        blocks.append(read_params(params))
        outs.append(tmp_path / f"{name}.grid")
        assert main(["transform", "--params", str(params), "--in", str(work / "gauss.grid"),
                     "--out", str(outs[-1])]) == 0, capsys.readouterr().err
    assert blocks[0].n == blocks[1].n == 1
    for name in "ABCDPQ":
        assert getattr(blocks[0], name).tobytes() == getattr(blocks[1], name).tobytes()
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("method", ["discrete", "continuous"])
def test_recover_refuses_a_window_past_physical_memory(work2, tmp_path, capsys, monkeypatch,
                                                      method):
    # inside the 2**62 bound, but its matrix field would not fit: numpy once
    # refused it with "array is too big" and the command exited 2
    from saftlab import dynsamp

    calls = []
    for name in ("build_B_window", "build_D", "continuous_solve_grid"):
        monkeypatch.setattr(dynsamp, name, lambda *a, name=name: calls.append(name))
    line = _refused(capsys, [
        "dynsamp", "recover", "--params", str(work2 / "ft2.json"),
        "--phi", str(work2 / "phi2.grid"), "--filter", str(work2 / "filt2.csv"),
        "--M", "[[2,0],[0,1]]", "--measurements", str(work2 / "meas2.csv"),
        "--method", method, "--window=0:4611686018427387903,0:1",
        "--out", str(tmp_path / "r.csv")], 1)
    assert line.startswith("error: --window spans 9223372036854775808 points"), line
    assert calls == [] and not any(tmp_path.iterdir())


@pytest.mark.parametrize("window, part", [("1.5:3", "1.5:3"), ("0:1,x:2", "x:2"),
                                          ("0:1e3,0:1", "0:1e3")])
def test_a_non_integer_window_bound_names_the_flag_and_the_range(work2, tmp_path, capsys,
                                                                 window, part):
    # once Python's bare "invalid literal for int() with base 10: '1.5'"
    line = _refused(capsys, [
        "dynsamp", "recover", "--params", str(work2 / "ft2.json"),
        "--phi", str(work2 / "phi2.grid"), "--filter", str(work2 / "filt2.csv"),
        "--M", "[[2,0],[0,1]]", "--measurements", str(work2 / "meas2.csv"),
        "--method", "discrete", "--window", window, "--out", str(tmp_path / "r.csv")], 1)
    assert line == f"error: --window: lo and hi must be integers, got {part!r}"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, ranges, line", [
    ("--wgrid", "0:1:3,0:1:3,0:1:3", "need 2 axis ranges, got 3"),
    ("--wgrid", "0:1", "expected lo:hi:count, got '0:1'"),
    ("--wgrid", "1:0:3", "bad range '1:0:3', need finite lo < hi and count >= 1"),
    ("--wgrid", "0:1:0", "bad range '0:1:0', need finite lo < hi and count >= 1"),
    ("--window", "0:1,0:1,0:1", "need 2 axis ranges, got 3"),
    ("--window", "0:1:2", "expected lo:hi, got '0:1:2'"),
    ("--window", "3:1", "bad range '3:1', need lo <= hi, both within 2**62 in magnitude"),
    ("--window", "0:1,0:4611686018427387904",
     "bad range '0:4611686018427387904', need lo <= hi, both within 2**62 in magnitude"),
])
def test_every_axis_range_refusal_names_its_flag(work2, tmp_path, capsys, flag, ranges, line):
    # the count refusals once read "need 2 axis ranges, got 3" and "window
    # needs 2 lo:hi ranges, got 3", and the other --window ones "window: ..."
    if flag == "--wgrid":
        argv = ["dtsaft", "--params", str(work2 / "ft2.json"), "--seq", str(work2 / "filt2.csv")]
    else:
        argv = ["dynsamp", "recover", "--params", str(work2 / "ft2.json"),
                "--phi", str(work2 / "phi2.grid"), "--filter", str(work2 / "filt2.csv"),
                "--M", "[[2,0],[0,1]]", "--measurements", str(work2 / "meas2.csv"),
                "--method", "discrete"]
    argv += [f"{flag}={ranges}", "--out", str(tmp_path / "r.csv")]
    assert _refused(capsys, argv, 1) == f"error: {flag}: {line}"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("fork", [True, False])
def test_a_table_on_stdout_is_its_out_file(work2, tmp_path, capsys, monkeypatch, fork):
    # 81 rows in chunks of 8: formatted in two processes on Linux
    monkeypatch.setattr(saftlab.io, "ROW_CHUNK", 8)
    if not fork:
        monkeypatch.setattr(saftlab.io, "_may_fork", lambda rows: False)
    argv = ["dtsaft", "--params", str(work2 / "ft2.json"), "--seq", str(work2 / "filt2.csv"),
            "--wgrid=-0.5:0.5:9"]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 0
    assert (tmp_path / "t.csv").read_text() == shown
    assert len(shown.splitlines()) == 82 and shown.endswith("\n")


def test_a_channel_past_the_channel_count_is_refused_by_its_rule(work2, tmp_path, capsys):
    # channel 1e18 once ended in "error: out of memory: Unable to allocate 6.94 EiB"
    meas = tmp_path / "meas.csv"
    meas.write_text("k1,k2,channel,re,im\n0,0,0,1.0,0.0\n0,0,1e18,0.5,0.0\n")
    line = _refused(capsys, [
        "dynsamp", "recover", "--params", str(work2 / "ft2.json"),
        "--phi", str(work2 / "phi2.grid"), "--filter", str(work2 / "filt2.csv"),
        "--M", "[[2,0],[0,1]]", "--measurements", str(meas), "--method", "discrete",
        "--out", str(tmp_path / "r.csv")], 1)
    assert line == f"error: {meas}: channel indices must be 0..J-1"
    assert not (tmp_path / "r.csv").exists()


def test_a_non_integer_index_is_refused_by_row(work, work2, tmp_path, capsys):
    # the keys 1.5 and -0.7 were once read as 1 and 0
    line = _refused(capsys, ["dtsaft", "--params", str(work / "ft1.json"),
                             "--seq", str(work2 / "halves.csv"), "--wgrid=-1:1:3",
                             "--out", str(tmp_path / "t.csv")], 1)
    assert "data row 1 ('1.5,1.0,0.0') has a non-finite, out-of-range or non-integer index" in line


def test_continuous_recovery_refuses_a_general_block_before_any_field_work(
        work, tmp_path, capsys, monkeypatch):
    from saftlab import dynsamp

    calls = []
    monkeypatch.setattr(dynsamp, "build_D", lambda *a, **k: calls.append("build_D"))
    monkeypatch.setattr(sis, "build_sis", lambda *a, **k: calls.append("build_sis"))
    line = _refused(capsys, ["dynsamp", "recover", "--params", str(work / "frft.json"),
                             "--phi", str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"),
                             "--M", "[[2]]", "--measurements", str(work / "meas_cont.csv"),
                             "--method", "continuous", "--out", str(tmp_path / "r.csv")],
                    2, "validation failure:")
    assert "implemented for the plain Fourier block" in line
    assert calls == []


def test_continuous_recovery_refuses_a_negative_lattice_entry(work, tmp_path, capsys):
    # [[-2]] generates the lattice of [[2]]; the route once padded the window
    # by -2, solved on an empty grid and exited 1 with numpy's "attempt to
    # get argmin of an empty sequence"
    line = _refused(capsys, ["dynsamp", "recover", "--params", str(work / "ft1.json"),
                             "--phi", str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"),
                             "--M", "[[-2]]", "--measurements", str(work / "meas_cont.csv"),
                             "--method", "continuous", "--out", str(tmp_path / "r.csv")],
                    2, "validation failure:")
    assert "positive diagonal entries, got [-2]" in line
    assert not any(tmp_path.iterdir())


def test_refused_inputs_exit_the_same_as_a_subprocess(work, work2, tmp_path):
    # the exit codes and message lines hold outside the in-process main too
    env = dict(os.environ, PYTHONPATH=str(Path(saftlab.__file__).parents[1]))
    cases = [
        (["dynsamp", "check", "--params", str(work2 / "ft2.json"), "--phi",
          str(work2 / "phi2.grid"), "--filter", str(work2 / "filt2.csv"), "--M", "[[2]]"],
         1, "error: --M is 1x1"),
        (["sis", "--params", str(work / "ft1.json"), "--phi", str(work / "seq.csv")],
         1, "error: --phi needs a grid file"),
        (["dtsaft", "--params", str(work / "ft1.json"), "--seq", str(work2 / "halves.csv"),
          "--wgrid=-1:1:3"], 1, f"error: {work2 / 'halves.csv'}: data row 1"),
        (["dynsamp", "recover", "--params", str(work / "frft.json"), "--phi",
          str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"), "--M", "[[2]]",
          "--measurements", str(work / "meas_cont.csv"), "--method", "continuous",
          "--out", str(tmp_path / "r.csv")], 2, "validation failure: the periodization"),
    ]
    for argv, code, start in cases:
        run = subprocess.run([sys.executable, "-m", "saftlab.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == code, run.stderr
        assert "Traceback" not in run.stderr
        assert run.stderr.strip().splitlines() == [run.stderr.strip()]
        assert run.stderr.startswith(start)


# ---------------------------------------------------------------------------
# selftest and exit-code contract


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_usage_errors_exit_64(capsys):
    assert main([]) == 64
    assert main(["no-such-command"]) == 64
    assert main(["transform", "--params"]) == 64
    assert main(["verify", "--theorem", "nope"]) == 64


def _command_argv(work, command: str) -> list[str]:
    """A run of `command` that succeeds with every input from `work`, less
    its --out or --outdir."""
    model = ["--params", str(work / "ft1.json"), "--phi", str(work / "phi1.grid")]
    dyn = [*model, "--filter", str(work / "filt1.csv"), "--M", "[[2]]"]
    return {
        "transform": ["transform", "--params", str(work / "ft1.json"),
                      "--in", str(work / "gauss.grid")],
        "inverse": ["inverse", "--params", str(work / "ft1.json"), "--in", str(work / "gauss.grid")],
        "dtsaft": ["dtsaft", "--params", str(work / "ft1.json"), "--seq", str(work / "seq.csv"),
                   "--wgrid=-1:1:3"],
        "conv": ["conv", "--kind", "dd", "--params", str(work / "ft1.json"),
                 "--lhs", str(work / "filt1.csv"), "--rhs", str(work / "seq.csv")],
        "verify": ["verify", "--theorem", "dd", "--trials", "1"],
        "sis": ["sis", *model, "--cell-points", "3"],
        "dynsamp check": ["dynsamp", "check", *dyn, "--cell-points", "3"],
        "dynsamp recover": ["dynsamp", "recover", *dyn, "--measurements", str(work / "meas.csv")],
        "repro section5": ["repro", "section5"],
    }[command]


#: the commands whose output is always a file, and those that write a table
#: to stdout without --out
FILE_COMMANDS = ["transform", "inverse", "conv", "dynsamp recover"]
TABLE_COMMANDS = ["dtsaft", "verify", "sis", "dynsamp check"]


@pytest.mark.parametrize("command", FILE_COMMANDS + TABLE_COMMANDS + ["repro section5"])
def test_an_empty_out_or_outdir_is_a_usage_error(work, tmp_path, capsys, monkeypatch, command):
    # an empty --out once sent a table to stdout but failed transform with
    # "Is a directory: '.'", and an empty --outdir wrote into the current directory
    monkeypatch.chdir(tmp_path)
    flag = "--outdir" if command.startswith("repro") else "--out"
    assert main(_command_argv(work, command) + [flag, ""]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {flag}: must not be empty" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_a_missing_out_is_a_usage_error_before_any_input_is_read(work, tmp_path, capsys, command):
    argv = [str(tmp_path / "absent") if arg.startswith(str(work)) else arg
            for arg in _command_argv(work, command)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "the following arguments are required: --out" in captured.err


@pytest.mark.parametrize("command", FILE_COMMANDS + TABLE_COMMANDS)
def test_out_help_says_stdout_only_where_a_table_goes_there(capsys, command):
    assert main([*command.split(), "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--out OUT output file" in text
    assert ("(default: stdout)" in text) == (command in TABLE_COMMANDS)


#: the help line of each input several commands share, in declaration order
SHARED_INPUTS = ["--params PARAMS parameter JSON", "--phi PHI generator grid file",
                 "--filter FILTER filter (.grid or .csv comb)",
                 '--M M lattice matrix, e.g. "[[2,0],[0,2]]"']


@pytest.mark.parametrize("command,count", [
    ("transform", 1), ("inverse", 1), ("dtsaft", 1), ("conv", 1), ("sis", 2),
    ("dynsamp check", 4), ("dynsamp recover", 4)])
def test_help_explains_each_shared_input_alike(capsys, command, count):
    # dynsamp recover once listed --phi, --filter and --M with no help, and
    # --params had help only on transform and inverse
    assert main([*command.split(), "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for line in SHARED_INPUTS[:count]:
        assert line in text, line


def test_a_scalar_b_fresnel_preset_is_the_1x1_block(work, tmp_path, capsys):
    # the scalar once ended in an IndexError traceback inside preset
    for name, B in (("scalar", "2.0"), ("matrix", "[[2.0]]")):
        (tmp_path / f"{name}.json").write_text(f'{{"preset": "nonseparable_fresnel", "B": {B}}}')
        assert main(["dtsaft", "--params", str(tmp_path / f"{name}.json"),
                     "--seq", str(work / "seq.csv"), "--wgrid=-1:1:5",
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "scalar.csv").read_bytes() == (tmp_path / "matrix.csv").read_bytes()


@pytest.mark.parametrize("argv", [["verify", "--theorem", "dd", "--trials", "1"], ["selftest"]])
def test_a_negative_seed_is_a_usage_error_and_zero_a_seed(capsys, argv):
    # np.random.default_rng refuses a negative seed; the parser refuses it first
    for seed in ("-1", "x"):
        assert main(argv + ["--seed", seed]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: saftlab")
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in captured.err
    assert main(argv + ["--seed", "0"]) == 0


def test_removed_threads_flag_is_a_usage_error(capsys):
    # the flag set BLAS variables after numpy had loaded, so it did nothing
    assert main(["selftest", "--threads", "2"]) == 64


def test_filter_taps_parse_as_complex_numbers():
    for text, value in [("1", 1 + 0j), ("0.5-0.25j", 0.5 - 0.25j), ("1+2i", 1 + 2j)]:
        args = build_parser().parse_args(["repro", "section5", f"--c1={text}", f"--c2={text}"])
        assert args.c1 == args.c2 == value


def test_missing_file_exits_1(tmp_path):
    assert main(["transform", "--params", str(tmp_path / "absent.json"),
                 "--in", str(tmp_path / "absent.grid"), "--out", str(tmp_path / "o.grid")]) == 1


def test_malformed_params_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["transform", "--params", str(bad), "--in", str(bad),
                 "--out", str(tmp_path / "o.grid")]) == 1


def test_invalid_block_exits_2(tmp_path, work):
    # structurally fine JSON whose matrices violate the constraints
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({"n": 1, "A": [[1.0]], "B": [[1.0]], "C": [[1.0]],
                               "D": [[1.0]], "P": [0.0], "Q": [0.0]}))
    code = main(["transform", "--params", str(bad), "--in", str(work / "gauss.grid"),
                 "--out", str(tmp_path / "o.grid")])
    assert code == 2


def test_grid_with_a_nan_exits_1(work, tmp_path, capsys):
    lines = (work / "gauss.grid").read_text().splitlines()
    row = lines.index("re,im") + 5
    lines[row] = "nan,0.0"
    bad = tmp_path / "nan.grid"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "F.grid"
    assert main(["transform", "--params", str(work / "ft1.json"), "--in", str(bad),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "data row 5" in err
    assert not out.exists()


def test_a_transform_that_overflows_exits_1_and_writes_no_file(work, tmp_path, capsys):
    # numpy's overflow and invalid-value warnings from the FFT and the phase
    # factors would reach stderr ahead of the writer's non-finite check
    huge = tmp_path / "huge.grid"
    huge.write_text("SAFTGRID v1\nn 1\nshape 4\norigin -1.0\nspacing 0.5\nre,im\n"
                    + "1e308,0.0\n" * 4)
    out = tmp_path / "F.grid"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["transform", "--params", str(work / "ft1.json"), "--in", str(huge),
                     "--out", str(out)])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {out}: data row 1 ('nan,nan') has a non-finite value"], err
    assert not out.exists()


def test_sequence_with_inf_exits_1(work, tmp_path, capsys):
    bad = tmp_path / "inf.csv"
    bad.write_text("k1,re,im\n0,1.0,0.0\n1,inf,0.0\n")
    assert main(["conv", "--kind", "dd", "--params", str(work / "ft1.json"),
                 "--lhs", str(work / "filt1.csv"), "--rhs", str(bad),
                 "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "data row 2" in err


def test_measurements_with_nan_exit_1(work, tmp_path, capsys):
    lines = (work / "meas.csv").read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1] + ["-nan"])
    bad = tmp_path / "meas_nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["dynsamp", "recover", "--params", str(work / "ft1.json"),
                 "--phi", str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"),
                 "--M", "[[2]]", "--measurements", str(bad),
                 "--method", "discrete", "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "data row 3" in err


def test_sequence_with_a_repeated_index_exits_1(work, tmp_path, capsys):
    bad = tmp_path / "dup.csv"
    bad.write_text("k1,re,im\n0,1.0,0.0\n0,2.0,0.0\n")
    assert main(["dtsaft", "--params", str(work / "ft1.json"), "--seq", str(bad),
                 "--wgrid=-1:1:3"]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "repeated index (0,)" in err


def test_measurements_with_a_repeated_index_exit_1(work, tmp_path, capsys):
    lines = (work / "meas.csv").read_text().splitlines()
    k, j = lines[2].split(",")[:2]
    bad = tmp_path / "meas_dup.csv"
    bad.write_text("\n".join(lines + [f"{k},{j},7.0,0.0"]) + "\n")
    assert main(["dynsamp", "recover", "--params", str(work / "ft1.json"),
                 "--phi", str(work / "phi1.grid"), "--filter", str(work / "filt1.csv"),
                 "--M", "[[2]]", "--measurements", str(bad),
                 "--method", "discrete", "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and f"repeated index ({k},)" in err


@pytest.mark.parametrize("command, flag", [
    ("dynsamp check", "--cell-points=0"),
    ("dynsamp check", "--cell-points=-3"),
    ("sis", "--cell-points=0"),
    ("sis", "--cell-points=-3"),
    ("verify", "--trials=0"),
    ("verify", "--dim=0"),
    ("verify", "--dim=-1"),
    ("verify", "--tol=0"),
    ("verify", "--tol=-1"),
    ("verify", "--tol=nan"),
    ("verify", "--tol=inf"),
    ("repro", "--threshold=-1"),
    ("repro", "--threshold=0"),
    ("repro", "--threshold=nan"),
    ("repro", "--threshold=inf"),
    ("repro", "--c1=nan"),
    ("repro", "--c1=inf"),
    ("repro", "--c2=1+nanj"),
    ("repro", "--c1=x"),
])
def test_non_positive_counts_and_cuts_are_usage_errors(work, tmp_path, capsys, command, flag):
    # every other argument is valid, so the flag alone must be the error
    model = ["--params", str(work / "ft1.json"), "--phi", str(work / "phi1.grid")]
    argv = {
        "dynsamp check": ["dynsamp", "check", *model, "--filter", str(work / "filt1.csv"),
                          "--M", "[[2]]", "--out", str(tmp_path / "f.csv")],
        "sis": ["sis", *model],
        "verify": ["verify", "--theorem", "dd", "--out", str(tmp_path / "v.csv")],
        "repro": ["repro", "section5", "--outdir", str(tmp_path / "out")],
    }[command]
    assert main(argv + [flag]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and flag.split("=")[0] in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flag", [
    ("transform", "--tol=1e-3"),
    ("transform", "--seed=1"),
    ("dtsaft", "--tol=1e-3"),
    ("dtsaft", "--seed=1"),
    ("conv", "--tol=1e-3"),
    ("sis", "--seed=1"),
    ("sis", "--report=x.csv"),  # the Grammian CSV goes to --out
    ("dynsamp check", "--seed=1"),
    # one threshold judges every channel field: the check's is the solvers'
    ("dynsamp check", "--tol=1e-3"),
    ("dynsamp check", "--tol=-1"),
    ("dynsamp check", "--tol=nan"),
    ("dynsamp check", "--tol=inf"),
    ("dynsamp recover", "--tol=1e-3"),
    ("repro", "--tol=1e-3"),
    ("repro", "--seed=1"),
    ("repro", "--out=D"),  # a prefix of --outdir is not --outdir
    ("selftest", "--tol=1e-3"),
    ("selftest", "--out=t.txt"),
    ("verify --params", "--dim=3"),  # a fixed block has its own dimension
    ("verify --params", "--dim=1"),
])
def test_flags_a_command_would_ignore_are_usage_errors(work, tmp_path, capsys, command, flag):
    # --tol, --seed and --out exist only where the command reads them
    model = ["--params", str(work / "ft1.json"), "--phi", str(work / "phi1.grid"),
             "--filter", str(work / "filt1.csv"), "--M", "[[2]]"]
    argv = {
        "transform": ["transform", "--params", str(work / "ft1.json"),
                      "--in", str(work / "gauss.grid"), "--out", str(tmp_path / "F.grid")],
        "dtsaft": ["dtsaft", "--params", str(work / "ft1.json"), "--seq", str(work / "seq.csv"),
                   "--wgrid=-1:1:3", "--out", str(tmp_path / "t.csv")],
        "conv": ["conv", "--kind", "dd", "--params", str(work / "ft1.json"),
                 "--lhs", str(work / "filt1.csv"), "--rhs", str(work / "seq.csv"),
                 "--out", str(tmp_path / "c.csv")],
        "sis": ["sis", "--params", str(work / "ft1.json"), "--phi", str(work / "phi1.grid")],
        "dynsamp check": ["dynsamp", "check", *model, "--out", str(tmp_path / "f.csv")],
        "dynsamp recover": ["dynsamp", "recover", *model, "--measurements",
                            str(work / "meas.csv"), "--out", str(tmp_path / "r.csv")],
        "repro": ["repro", "section5", "--outdir", str(tmp_path / "out")],
        "selftest": ["selftest"],
        "verify --params": ["verify", "--theorem", "dd", "--trials", "2",
                            "--params", str(work / "ft1.json"), "--out", str(tmp_path / "v.csv")],
    }[command]
    assert main(argv + [flag]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and flag.split("=")[0] in captured.err
    assert not any(tmp_path.iterdir())
