"""The worked two-dimensional recovery example and its window machinery.

`PSI_TIME_REFERENCE` holds integer time samples of the tensor window's 1-D
profile computed independently with 40-digit adaptive quadrature (mpmath) of
the defining cosine-taper integral; they are frozen here and the fast
DFT-based table is tested against them.
"""

import contextlib
import json
import os
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro_oracles as oracle
import saftlab.io
from saftlab import repro
from saftlab.grid import SeqFn, sampling_grid
from saftlab.lattice import build_lattice
from saftlab.params import preset, random_params
from saftlab.repro import (
    FLAT_END,
    SUPPORT_END,
    build_example,
    channel_vandermonde,
    factorization_residual,
    meyer_aux,
    meyer_psi,
    meyer_time_table,
    periodized_window_transform,
    run_example,
    tensor_window_samples,
    window_periodization_check,
)
from saftlab.saft import saft_plan

PSI_TIME_REFERENCE = {
    0: 1.0518219027880309742,
    1: -0.04956572303666609438,
    2: 0.043304943287781403196,
    3: -0.034396168810796448615,
    7: -0.0038214405375626410641,
    20: 4.7425809733526163589e-6,
}


_CACHE = {}


def _small_scenario(**kwargs):
    defaults = dict(table_kmax=256, halfwidth=4.0, per_unit=8)
    defaults.update(kwargs)
    if kwargs:
        return build_example(**defaults)
    # the unmodified small scenario is shared: ExampleScenario is frozen and
    # every consumer treats it as read-only
    if "default" not in _CACHE:
        _CACHE["default"] = build_example(**defaults)
    return _CACHE["default"]


# ---------------------------------------------------------------------------
# window profile


def test_taper_polynomial_endpoint_values():
    assert meyer_aux(0.0) == 0.0
    assert meyer_aux(1.0) == pytest.approx(1.0, abs=1e-15)
    x = np.linspace(0.0, 1.0, 101)
    # complementary symmetry: v(x) + v(1-x) = 1 on [0, 1]
    assert np.max(np.abs(meyer_aux(x) + meyer_aux(1.0 - x) - 1.0)) < 1e-14


def test_window_profile_plateau_and_support():
    assert meyer_psi(0.0) == 1.0
    assert meyer_psi(1.0 / 3.0) == pytest.approx(1.0)
    assert meyer_psi(2.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    assert meyer_psi(0.7) == 0.0
    assert meyer_psi(-0.25) == 1.0  # even
    x = np.linspace(-1, 1, 201)
    assert np.array_equal(meyer_psi(x), meyer_psi(-x))
    assert np.all(meyer_psi(x) >= 0.0)


def test_window_squares_partition_unity():
    # sum_k psi(w + k)^2 = 1 everywhere; three shifts cover [-1, 1]
    w = np.linspace(-0.5, 0.5, 1024)
    total = meyer_psi(w - 1.0) ** 2 + meyer_psi(w) ** 2 + meyer_psi(w + 1.0) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_time_table_matches_frozen_reference():
    table = meyer_time_table()
    for k, want in PSI_TIME_REFERENCE.items():
        assert abs(table[k] - want) < 1e-15, k


def test_time_table_quartic_decay():
    table = meyer_time_table(kmax=1024)
    ks = np.arange(2, 1025)
    assert np.all(np.abs(table[2:]) <= 17.0 / ks**4)


def test_time_table_alias_guard():
    with pytest.raises(ValueError):
        meyer_time_table(kmax=1 << 16)


# ---------------------------------------------------------------------------
# tensor samples


def test_tensor_samples_quadrant_symmetry_and_mass():
    table = meyer_time_table(kmax=128)
    s, kept, dropped = tensor_window_samples(table, 1e-10)
    assert s.get((0, 0)) == pytest.approx(table[0] ** 2)
    for k1, k2 in [(1, 2), (3, 0), (5, 7)]:
        v = s.get((k1, k2))
        assert s.get((-k1, k2)) == pytest.approx(v)
        assert s.get((k1, -k2)) == pytest.approx(v)
        assert s.get((-k1, -k2)) == pytest.approx(v)
    # bookkeeping: kept + discarded = (signed 1-D l1 mass)^2
    l1 = abs(table[0]) + 2 * np.sum(np.abs(table[1:]))
    assert kept + dropped == pytest.approx(l1**2, rel=1e-12)
    # tighter threshold keeps more mass
    s2, kept2, dropped2 = tensor_window_samples(table, 1e-14)
    assert kept2 >= kept and dropped2 <= dropped
    assert len(s2.entries) > len(s.entries)


# the sorted window table against the loop it replaced

# t[0..kmax] of an even profile with a nonzero center; ties and exact zeros
# (both signs) are common
TABLE_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1e-3]),
                        st.floats(-2, 2, allow_subnormal=False))
TABLE = st.builds(lambda t0, rest: np.array([t0] + rest),
                  st.floats(0.1, 2) | st.floats(-2, -0.1),
                  st.lists(TABLE_VALUE, max_size=40))


@settings(max_examples=150, deadline=None)
@given(table=TABLE, data=st.data())
def test_tensor_window_samples_match_the_loop(table, data):
    rel = np.abs(table) / abs(table[0])
    top = float(np.max(rel)) ** 2
    # from 0 up to above every product, exact products (the boundary of
    # the strict comparison) included
    threshold = data.draw(st.one_of(
        st.floats(0.0, 1.5 * top),
        st.just(1.5 * top),
        st.builds(lambda i, j: float(rel[i % rel.size] * rel[j % rel.size]),
                  st.integers(0, 100), st.integers(0, 100))))
    with np.errstate(all="ignore"):
        got = tensor_window_samples(table, threshold)
        want = oracle.tensor_window_samples(table, threshold)
    (gk, gv), (wk, wv) = got[0].as_arrays(), want[0].as_arrays()
    assert np.array_equal(gk, wk)
    assert gv.tobytes() == wv.tobytes()
    assert got[1].hex() == want[1].hex() and got[2].hex() == want[2].hex()
    if threshold >= 1.5 * top:
        assert len(got[0]) == 0


def test_tensor_window_samples_match_the_loop_on_the_default_table():
    table = meyer_time_table()
    got = tensor_window_samples(table, repro.SAMPLE_THRESHOLD)
    want = oracle.tensor_window_samples(table, repro.SAMPLE_THRESHOLD)
    assert len(got[0]) == len(want[0]) > 40000
    assert np.array_equal(got[0].as_arrays()[0], want[0].as_arrays()[0])
    assert got[0].as_arrays()[1].tobytes() == want[0].as_arrays()[1].tobytes()
    assert (got[1], got[2]) == (want[1], want[2])


# ---------------------------------------------------------------------------
# scenario construction


def test_scenario_invariants():
    sc = _small_scenario()
    # masking is exact by support disjointness, not approximately small
    assert sc.masking_residual == 0.0
    # the unsquared periodization of the window lives in [1, 2]
    assert 1.0 - 1e-12 <= sc.phi0_min <= 2.0 + 1e-12
    assert sc.filt.get((-1, -1)) == 1.0 and sc.filt.get((-1, -2)) == 0.5
    assert set(sc.coeffs.entries) == {(1, 0), (0, 1)}
    assert sc.lat.m == 4
    assert sc.discarded_l1 < 1e-6  # short table still captures nearly all mass


def test_scenario_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        build_example(params=preset("ft", n=1))


# the per-axis window checks against the full (N, 25) evaluation they replaced

EDGES = (FLAT_END, SUPPORT_END)
COMPLEX = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


def _near_edge(edge, sign, shift, steps):
    # a coordinate that lands within a few ulps of +-edge after the shift
    x = sign * edge - shift
    for _ in range(abs(steps)):
        x = np.nextafter(x, np.copysign(np.inf, steps))
    return float(x)


COORD = st.one_of(
    st.floats(-3, 3),
    st.builds(_near_edge, st.sampled_from(EDGES), st.sampled_from((-1.0, 1.0)),
              st.integers(-2, 2), st.integers(-3, 3)),
)


def _leaky_psi(monkeypatch):
    # the window plus a bump just outside its support, so that some shifted
    # points are live: (chi - 1) psi is nonzero there
    psi = repro.meyer_psi

    def leaky(x):
        xa = np.abs(np.asarray(x, dtype=float))
        bump = (xa > SUPPORT_END) & (xa < SUPPORT_END + 0.25)
        return psi(x) + np.where(bump, 1e-3 * (1.0 + xa), 0.0)

    monkeypatch.setattr(repro, "meyer_psi", leaky)


def _assert_same_bits(filt, nu0, p=None):
    p = preset("ft", n=2) if p is None else p
    got = repro._window_checks(p, filt, nu0)
    want = oracle.window_checks(p, filt, nu0)
    assert got[0].hex() == want[0].hex()
    assert got[1].tobytes() == want[1].tobytes()
    return got[0]


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(COORD, min_size=2, max_size=80), c1=COMPLEX, c2=COMPLEX,
       leak=st.booleans())
def test_window_checks_match_the_full_evaluation(coords, c1, c2, leak):
    with pytest.MonkeyPatch.context() as m:
        if leak:
            _leaky_psi(m)
        filt = SeqFn(2, {(-1, -1): c1, (-1, -2): c2})
        # the row of (0.7, 0) is live when the window leaks
        nu0 = np.array(coords[: len(coords) // 2 * 2] + [0.7, 0.0]).reshape(-1, 2)
        assert _assert_same_bits(filt, nu0) == 0.0 or leak


@pytest.mark.parametrize("leak", [False, True])
def test_window_checks_match_on_a_chirped_block(monkeypatch, leak):
    # B^-1 is not diagonal, so no coordinate lies on a grid line
    p = random_params(2, np.random.default_rng(31))
    assert np.count_nonzero(p.b_inv - np.diag(np.diag(p.b_inv)))
    if leak:
        _leaky_psi(monkeypatch)
    nu0 = saft_plan(p, sampling_grid(4.0, 8, n=2)).w_points().reshape(-1, 2) @ p.b_inv.T
    filt = SeqFn(2, {(-1, -1): 0.8 + 0.3j, (-1, -2): -0.4 + 0.2j})
    assert (_assert_same_bits(filt, nu0, p) > 0) == leak


def test_scenario_window_checks_match_the_oracle():
    p = random_params(2, np.random.default_rng(12))
    sc = _small_scenario(params=p)
    nu0 = saft_plan(p, sampling_grid(4.0, 8, n=2)).w_points().reshape(-1, 2) @ p.b_inv.T
    residual, phi0 = oracle.window_checks(p, sc.filt, nu0)
    assert sc.masking_residual == residual == 0.0
    assert sc.phi0_min.hex() == float(np.min(phi0)).hex()


def _chirped_nu0():
    p = random_params(2, np.random.default_rng(31))
    return p, saft_plan(p, sampling_grid(4.0, 8, n=2)).w_points().reshape(-1, 2) @ p.b_inv.T


@pytest.mark.parametrize("rows", [1, 4096, "N"])
@pytest.mark.parametrize("case", ["scenario", "scenario leaking", "chirped", "chirped leaking"])
def test_window_checks_keep_their_bits_at_any_chunk_size(monkeypatch, rows, case):
    if case.startswith("scenario"):
        # the reduced frequencies build_example checks (B = I)
        sc = _small_scenario()
        p, filt = sc.params, sc.filt
        nu0 = saft_plan(p, sampling_grid(4.0, 8, n=2)).out_template.points().reshape(-1, 2)
    else:
        (p, nu0), filt = _chirped_nu0(), SeqFn(2, {(-1, -1): 0.8 + 0.3j, (-1, -2): -0.4 + 0.2j})
    if case.endswith("leaking"):
        _leaky_psi(monkeypatch)
    monkeypatch.setattr(repro, "_CHECK_ROWS", nu0.shape[0] if rows == "N" else rows)
    calls = []
    symbol = repro.filter_symbol
    monkeypatch.setattr(repro, "filter_symbol", lambda *a: calls.append(1) or symbol(*a))
    residual = _assert_same_bits(filt, nu0, p)
    # the live rows of every chunk share one symbol batch
    assert calls == [1]
    assert (residual > 0) == case.endswith("leaking")


def test_window_periodization_two_routes():
    sc = _small_scenario(table_kmax=2048)
    rep = window_periodization_check(sc)
    # residuals are bounded by the discarded tail mass
    bound = max(1e-10, 10 * sc.discarded_l1)
    assert rep["periodization_residual"] < bound
    assert rep["factor_pullout_residual"] < bound


def test_periodized_window_transform_at_origin():
    sc = _small_scenario()
    # at x = 0 the FT-block sum reduces to the plain shift sum of the
    # tensor window, which is the squared-partition value 1
    val = periodized_window_transform(sc, np.zeros((1, 2)))
    assert val[0] == pytest.approx(1.0, abs=1e-12)


def test_channel_vandermonde_two_by_two_modulus():
    # for the stride-(1,2) sublattice the symbol difference has constant
    # modulus 2|c1|, independent of frequency
    sc = _small_scenario()
    lat12 = build_lattice([[1, 0], [0, 2]])
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, (40, 2))
    beta, det = channel_vandermonde(sc, lat12, w)
    assert beta.shape == (40, 2)
    assert np.max(np.abs(np.abs(det) - 2.0 * abs(sc.c1))) < 1e-12


def test_channel_vandermonde_full_lattice_min_modulus():
    # over the full 2x2 lattice the determinant modulus dips to exactly 12
    # at the worked coefficients c1=1, c2=1/2
    sc = _small_scenario()
    xs = np.linspace(0.0, 1.0, 41)
    w = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    _, det = channel_vandermonde(sc, sc.lat, w)
    assert np.min(np.abs(det)) == pytest.approx(12.0, abs=1e-9)


# ---------------------------------------------------------------------------
# end-to-end runs (small scenario; the full-size run is exercised by the
# acceptance suite)


def test_run_example_small_pass():
    sc = _small_scenario()
    report, recovered = run_example(sc)
    assert report["verdict"] == "pass"
    assert report["recovery_error"] < 1e-8
    assert report["recovery_error_continuous"] < 1e-6
    assert report["mutual_error"] < 1e-6
    assert report["factorization_residual"] < 1e-8
    assert report["min_det_E"] > 11.9
    assert recovered is not None
    for k in sc.coeffs.entries:
        assert abs(recovered.get(k) - sc.coeffs.get(k)) < 1e-8


def test_run_example_chirped_block_discrete_only():
    rng = np.random.default_rng(12)
    p = random_params(2, rng)
    sc = _small_scenario(params=p)
    report, recovered = run_example(sc)
    assert report["verdict"] == "pass"
    assert report["recovery_error"] < 1e-8
    # the periodization route requires the plain Fourier block
    assert report["recovery_error_continuous"] is None


def test_run_example_degenerate_filter_fails_loudly():
    sc = _small_scenario(c1=0.0, c2=0.0)
    report, recovered = run_example(sc)
    assert report["verdict"] == "fail"
    assert recovered is None
    assert report["recovery_error"] is None
    assert report["discrete_stability"]["verdict"] == "fail"


def test_figures_and_report_deterministic(tmp_path):
    sc = _small_scenario()
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    rep1, _ = run_example(sc, outdir=out1)
    rep2, _ = run_example(sc, outdir=out2)
    names = sorted(p.name for p in out1.iterdir())
    assert "report.json" in names
    assert sum(1 for n in names if n.startswith("fig")) == 10
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    data = json.loads((out1 / "report.json").read_text())
    assert data["verdict"] == "pass"
    assert "timings" not in data  # wall-clock noise must not break determinism
    assert rep1.keys() == rep2.keys()


real_fork = os.fork


def _counted_fork(calls: list):
    def fork():
        calls.append(os.getpid())
        return real_fork()
    return fork


def _no_fork():
    raise OSError("resource temporarily unavailable")


def _slow_child_fork():
    # the child starts writing only after the parent's recovery is done
    pid = real_fork()
    if pid == 0:
        time.sleep(0.5)
    return pid


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_report_json_follows_every_complete_figure(tmp_path):
    sc = _small_scenario()
    with mock.patch.object(os, "fork", _no_fork):
        run_example(sc, outdir=tmp_path / "alone")
    want = {p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}
    assert sum(name.startswith("fig") for name in want) == 10

    real_write, seen = Path.write_text, {}

    def write_text(self, data, *args, **kwargs):
        if self.name == "report.json":
            seen.update((p.name, p.read_bytes()) for p in self.parent.glob("fig*.csv"))
        return real_write(self, data, *args, **kwargs)

    calls = []
    with mock.patch.object(os, "fork", _counted_fork(calls)):
        run_example(sc, outdir=tmp_path / "forked")
        with mock.patch.object(Path, "write_text", write_text), \
                mock.patch.object(os, "fork", _slow_child_fork):
            run_example(sc, outdir=tmp_path / "slow")
    assert calls == [os.getpid()]
    for name in ("forked", "slow"):
        assert {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()} == want
    assert seen == {name: data for name, data in want.items() if name.startswith("fig")}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_an_error_during_the_recovery_reaps_the_figure_child(tmp_path):
    def fails(*args, **kwargs):
        raise MemoryError

    fds, calls = set(os.listdir("/proc/self/fd")), []
    with mock.patch.object(repro, "recover_discrete", fails), \
            mock.patch.object(os, "fork", _counted_fork(calls)), pytest.raises(MemoryError):
        run_example(_small_scenario(), outdir=tmp_path)
    assert calls == [os.getpid()]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/proc/self/fd")) == fds
    assert not (tmp_path / "report.json").exists()


def _failing_child_fork():
    # the child cannot write, so it exits nonzero and the parent falls back
    pid = real_fork()
    if pid == 0:
        saftlab.io._write_table = lambda *args: _no_fork()
    return pid


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
@pytest.mark.parametrize("fork", ["forked", "no fork", "child fails"])
def test_the_figure_child_starts_before_the_levels_and_fig10_precedes_the_report(
        tmp_path, fork):
    sc = _small_scenario()
    run_example(sc, outdir=tmp_path / "want")
    want = {p.name: p.read_bytes() for p in (tmp_path / "want").iterdir()}

    # every figure goes out through the table writer, report.json through
    # Path.write_text
    parent, events, seen = os.getpid(), [], {}
    real_table, real_write, levels = saftlab.io._write_table, Path.write_text, repro.filtered_levels

    def write_table(path, *args):
        if os.getpid() == parent:
            events.append(Path(path).name)
        return real_table(path, *args)

    def write_text(self, data, *args, **kwargs):
        if os.getpid() == parent and self.name == "report.json":
            events.append(self.name)
            seen.update((p.name, p.read_bytes()) for p in self.parent.glob("fig*.csv"))
        return real_write(self, data, *args, **kwargs)

    def forks(start):
        def fork():
            events.append("fork")
            return start()
        return fork

    start = {"forked": real_fork, "no fork": _no_fork, "child fails": _failing_child_fork}
    with mock.patch.object(saftlab.io, "_write_table", write_table), \
            mock.patch.object(repro, "_write_table", write_table), \
            mock.patch.object(Path, "write_text", write_text), \
            mock.patch.object(os, "fork", forks(start[fork])), \
            mock.patch.object(repro, "filtered_levels",
                              lambda *a: events.append("levels") or levels(*a)):
        run_example(sc, outdir=tmp_path / "got")
    assert {p.name: p.read_bytes() for p in (tmp_path / "got").iterdir()} == want
    assert seen == {name: data for name, data in want.items() if name.startswith("fig")}
    # this process writes fig10 while the child writes the other nine, or
    # writes them itself once the block is over
    nine = [] if fork == "forked" else sorted(n for n in want if n < "fig10")
    assert events == ["fork", "levels", "fig10_samples_imag.csv", *nine, "report.json"]


def test_run_example_measures_once_for_both_routes(tmp_path):
    # the continuous route solves from the discrete route's measurement set:
    # three filter levels, the figures' samples and the window check form
    # the only sequence products, and nothing is downsampled; each field (B,
    # D and the printed 2 x 2 D) is scanned once, and the solvers and the
    # factorization check read that scan
    import saftlab

    calls = {"conv_dd": 0, "downsample": 0, "stability_report": 0}
    fields = []

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            if name == "stability_report":
                fields.append(args[0])
            return fn(*args, **kwargs)
        return spy

    with contextlib.ExitStack() as stack:
        for module in vars(saftlab).values():
            if getattr(module, "__package__", None) == "saftlab":
                for name in calls:
                    if hasattr(module, name):
                        stack.enter_context(mock.patch.object(
                            module, name, counted(name, getattr(module, name))))
        stack.enter_context(mock.patch.object(os, "fork", _no_fork))
        report, _ = run_example(_small_scenario(), outdir=tmp_path)
    assert report["verdict"] == "pass"
    assert report["recovery_error_continuous"] < 1e-9
    assert calls["conv_dd"] <= 5 and calls["downsample"] == 0
    assert calls["stability_report"] == 3
    assert all(field.stability is field.stability for field in fields)


def test_factorization_residual_consistency():
    sc = _small_scenario()
    from saftlab.dynsamp import build_D, continuous_solve_grid

    lo, hi = np.array([-4, -4]), np.array([4, 4])
    wpts, _, _, _ = continuous_solve_grid(sc.params, sc.lat, lo, hi)
    field = build_D(sc.model, sc.filt, sc.lat, wpts)
    resid, min_det = factorization_residual(sc, sc.lat, field)
    assert resid < 1e-8
    assert min_det > 0


def _per_element_write_csv(path, header, rows):
    # the writer before rows were converted as a whole
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")


def test_write_csv_matches_the_per_element_writer(tmp_path):
    from saftlab.io import format_rows

    def _write_csv(path, header, rows):
        # the figure writers pass one float block
        path.write_text(format_rows([header], np.asarray(rows, dtype=float)))

    rng = np.random.default_rng(4)
    cases = {
        "tuples": [(x, float(np.cos(x))) for x in np.linspace(-1.5, 1.5, 7)],
        "ints_and_zeros": [(0, -3, -0.0), (12, 7, 1e-300), (-1, 2, 5e-324)],
        "numpy_scalars": [(np.float64(0.1), np.int64(3), np.inf, np.nan)],
        "array": np.column_stack([rng.normal(size=(50, 2)), 1e-12 * rng.normal(size=50)]),
        "empty": [],
    }
    for name, rows in cases.items():
        _write_csv(tmp_path / f"{name}.csv", "h", rows)
        _per_element_write_csv(tmp_path / f"{name}_ref.csv", "h", rows)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()
