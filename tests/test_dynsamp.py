"""Dynamical sampling: channel measurement, matrix fields, exact recovery.

The recovery tests are exactness tests: every route here (folded transforms,
per-frequency solves, window DFT inversion) is algebraically exact for
finitely supported data, so coefficients must come back to rounding error,
not merely to a modeling tolerance.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import dynsamp_oracles as oracle
import numpy as np
import pytest
from conftest import coarse_sis
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import saftlab
from saftlab.dynsamp import (
    COND_MAX,
    DET_RTOL,
    MatrixField,
    MeasurementSet,
    build_B_from_samples,
    build_B_window,
    build_D,
    continuous_solve_grid,
    filtered_levels,
    folded_dt_values,
    integer_sample_levels,
    measure_from_samples,
    recover_continuous,
    recover_discrete,
    sampled_generator,
    solve_grid,
    stability_report,
)
from saftlab.grid import SeqFn, mesh, sample_generator, sampling_grid
from saftlab.lattice import build_lattice
from saftlab.params import _physical_points, modulation, preset, random_params
from saftlab.saft import downsample, dtsaft, kernel_quadrature
from saftlab.sis import build_sis, resolved_band_mask


def _rand_seq(rng, n, count, radius):
    keys = rng.integers(-radius, radius + 1, (count, n))
    return SeqFn(
        n, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(count, 2)))}
    )


def _r_window(lat, s, pad=0):
    """Smallest coset-index window containing every index of ``s``."""
    rs, _ = lat.split(s.keys)
    return rs.min(axis=0) - pad, rs.max(axis=0) + pad


ASYM_FILTER_1D = {(0,): 1.0, (1,): 0.5}


def _channels(p, lat, h_levels):
    """The measurement set of plain integer samples: each kept on M^T Z^n."""
    return MeasurementSet(params=p, lat=lat, levels=tuple(downsample(lat, h) for h in h_levels))


# ---------------------------------------------------------------------------
# channels and coset bookkeeping


def test_filtered_levels_shape_and_identity_level():
    p = preset("ft", 1)
    g = sampling_grid(4, 8)
    phi = sample_generator("gaussian", g, sigma=0.6)
    a = SeqFn(1, ASYM_FILTER_1D)
    levels = filtered_levels(p, a, phi, 3, "cc")
    assert len(levels) == 3
    assert levels[0] is phi
    # FT block: twisted filtering is classical filtering
    classical = filtered_levels(p, a, phi, 3, "classical")
    for lv_cc, lv_cl in zip(levels[1:], classical[1:]):
        assert np.max(np.abs(lv_cc.values - lv_cl.values)) < 1e-12


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.float64)


@pytest.mark.parametrize("n", [1, 2])
def test_classical_filtering_is_the_twisted_kernel_under_ft_bitwise(n):
    # "classical" filtering on any block runs the twisted kernels under the
    # plain Fourier block; the removed untwisted helpers are the reference
    rng = np.random.default_rng(40 + n)
    p = random_params(n, rng)
    g = sample_generator("gaussian", sampling_grid(2, 4, n=n), sigma=0.6,
                         modulation=list(rng.uniform(-1, 1, n)))
    h = sample_generator("gaussian", sampling_grid(1, 4, n=n), sigma=0.4)
    a = _rand_seq(rng, n, 3, 1)
    s = _rand_seq(rng, n, 9, 4)
    pairs = [
        (filtered_levels(p, h, g, 2, "classical")[1], oracle.classical_conv_grids(h, g)),
        (filtered_levels(p, a, g, 2, "classical")[1], oracle.classical_comb_apply(a, g)),
    ]
    for new, ref in pairs:
        assert new.same_geometry(ref)
        np.testing.assert_array_equal(_bits(new.values), _bits(ref.values))
    new = filtered_levels(p, a, s, 2, "classical")[1]
    ref = oracle.classical_comb_compose(a, s)
    assert list(new.entries) == list(ref.entries)
    np.testing.assert_array_equal(_bits(list(new.entries.values())),
                                  _bits(list(ref.entries.values())))


@pytest.mark.parametrize("seed", [0, 1])
def test_measure_routes_agree(seed):
    rng = np.random.default_rng(90 + seed)
    p = preset("ft", 1) if seed == 0 else random_params(1, rng)
    lat = build_lattice([[2]])
    g = sampling_grid(6, 16)
    phi = sample_generator("gaussian", g, sigma=0.6)
    model = build_sis(p, phi)
    a = SeqFn(1, ASYM_FILTER_1D)
    c = _rand_seq(rng, 1, 4, 2)

    grid_ms = oracle.measure(model, c, a, lat)
    phi_levels = [sampled_generator(lv) for lv in filtered_levels(p, a, phi, lat.m, "cc")]
    exact_ms = measure_from_samples(p, lat, c, phi_levels)

    for gch, ech in zip(grid_ms.levels, exact_ms.levels):
        for k in gch.entries:
            assert abs(gch.get(k) - ech.get(k)) < 1e-10


def test_folded_transform_equals_direct_on_solve_nodes():
    rng = np.random.default_rng(2)
    p = random_params(2, rng)
    s = _rand_seq(rng, 2, 15, 9)  # support wider than the window: must fold
    wpts, shape, lo = solve_grid(p, [-2, -1], [1, 2])
    direct = dtsaft(p, s, wpts)
    folded = modulation(p, wpts) * folded_dt_values(p, s, shape).reshape(-1)
    assert np.max(np.abs(direct - folded)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


def test_build_B_window_matches_sample_route():
    rng = np.random.default_rng(3)
    p = random_params(1, rng)
    lat = build_lattice([[2]])
    phi_levels = [_rand_seq(rng, 1, 8, 4) for _ in range(2)]
    lo, hi = np.array([-3]), np.array([3])
    wpts, _, _ = solve_grid(p, lo, hi)
    fast = build_B_window(p, lat, lo, hi, phi_levels)
    slow = build_B_from_samples(p, lat, wpts, phi_levels)
    assert np.max(np.abs(fast.entries - slow.entries)) < 1e-12


def test_matrix_fields_reject_points_of_another_dimension():
    # both fields take (..., n) point arrays and name the dimension they need
    rng = np.random.default_rng(10)
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    wrong = np.zeros((3, 2))
    with pytest.raises(ValueError, match="trailing dimension 1"):
        build_B_from_samples(p, lat, wrong, [_rand_seq(rng, 1, 4, 2) for _ in range(2)])
    model = build_sis(p, sample_generator("gaussian", sampling_grid(6, 16), sigma=0.6))
    with pytest.raises(ValueError, match="trailing dimension 1"):
        build_D(model, SeqFn(1, ASYM_FILTER_1D), lat, wrong)


# ---------------------------------------------------------------------------
# stability verdicts


def test_stability_report_pass_and_margin_knob():
    rng = np.random.default_rng(4)
    p = random_params(1, rng)
    lat = build_lattice([[2]])
    phi_levels = [_rand_seq(rng, 1, 8, 4) for _ in range(2)]
    field = build_B_window(p, lat, [-3], [3], phi_levels)
    rep = stability_report(field)
    assert rep.ok and rep.verdict == "pass"
    assert rep.min_abs_det > 0
    # rows e1, e1 + 1e-5 e2 and e1 + 1e-5 e3: |det| is 1e-10 of the Hadamard
    # bound while cond is 3e5, so the margin alone fails it (for m <= 2,
    # |det| / prod(row norms) >= 1 / cond, so it cannot fail alone there)
    rows = np.eye(3)[[0, 0, 0]] + 1e-5 * np.diag([0, 1, 1])
    near = MatrixField(wpoints=np.zeros((1, 1)), entries=rows.astype(complex)[None])
    rep = stability_report(near)
    assert rep.max_cond < COND_MAX and not rep.ok
    assert np.abs(rep.det[0]) / np.prod(np.linalg.norm(near.entries[0], axis=1)) < DET_RTOL


@pytest.mark.parametrize("order", [(2, 3), (3, 2)])
def test_nodes_tied_within_rounding_report_the_first_node(order):
    # nodes 2 and 3 differ by one ulp, in either order; node 1 is 16 eps
    # above the minimum, outside the 4 eps tie
    low = 0.8885263529672334
    dets = np.empty(5)
    dets[[0, 1, 4]] = 3.0, low * (1 + 16 * np.finfo(float).eps), 2.0
    dets[list(order)] = low, np.nextafter(low, 1.0)
    field = MatrixField(wpoints=np.arange(10.0).reshape(5, 2) / 10,
                        entries=dets.astype(complex).reshape(5, 1, 1))
    rep = stability_report(field)
    assert rep.argmin_w.tolist() == [0.4, 0.5]
    assert rep.min_abs_det == low


def test_even_filter_even_generator_is_singular_at_band_midpoint():
    # a symmetric filter on a symmetric generator makes two channels
    # proportional at the frequency where the filter symbol vanishes; the
    # verdict must catch this degeneracy
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    g = sampling_grid(6, 16)
    phi = sample_generator("gaussian", g, sigma=0.6)
    a = SeqFn(1, {(-1,): 0.5, (1,): 0.5})
    levels = [sampled_generator(lv) for lv in filtered_levels(p, a, phi, lat.m, "cc")]
    # even window extent puts a solve node exactly at the half-band frequency
    field = build_B_window(p, lat, [-4], [3], levels)
    rep = stability_report(field)
    assert not rep.ok
    assert rep.min_abs_det < 1e-12
    assert rep.argmin_w[0] == pytest.approx(0.5)


def test_zero_filter_gives_singular_system():
    rng = np.random.default_rng(5)
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    g = sampling_grid(6, 16)
    phi = sample_generator("gaussian", g, sigma=0.6)
    zero = SeqFn(1, {})
    levels = [sampled_generator(lv) for lv in filtered_levels(p, zero, phi, lat.m, "cc")]
    field = build_B_window(p, lat, [-4], [4], levels)
    assert not stability_report(field).ok
    c = _rand_seq(rng, 1, 3, 2)
    ms = measure_from_samples(p, lat, c, levels)
    with pytest.raises(ValueError, match="singular"):
        recover_discrete(ms, field, window=([-4], [4]))


def _nearly_singular_at(field, i, margin):
    """``field`` with the matrix at point ``i`` replaced by one whose |det|
    is ``margin`` times its Hadamard bound (2 x 2: rows v and v + margin u,
    u orthogonal to v with |u| = |v|)."""
    ent = field.entries.copy()
    v = ent[i, 0]
    u = np.array([-np.conj(v[1]), np.conj(v[0])])
    ent[i, 1] = v + margin * u
    return MatrixField(wpoints=field.wpoints, entries=ent)


def test_recover_discrete_enforces_the_stability_verdict():
    # |det| / Hadamard = 1e-10 lies between the old solver threshold (1e-13)
    # and the verdict's 1e-8: the check and the solver must agree it fails
    rng = np.random.default_rng(8)
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    phi_levels = [_rand_seq(rng, 1, 8, 3) for _ in range(2)]
    c = _rand_seq(rng, 1, 4, 3)
    ms = measure_from_samples(p, lat, c, phi_levels)
    lo, hi = [-4], [4]
    good = build_B_window(p, lat, lo, hi, phi_levels)
    assert stability_report(good).ok
    bad = _nearly_singular_at(good, 3, 1e-10)
    rep = stability_report(bad)
    ratio = np.abs(rep.det[3]) / np.prod(np.linalg.norm(bad.entries[3], axis=1))
    assert 1e-13 < ratio < 1e-8 and not rep.ok
    with pytest.raises(ValueError, match="singular") as err:
        recover_discrete(ms, bad, window=(lo, hi))
    assert str(rep.argmin_w.tolist()) in str(err.value)


def test_recover_continuous_enforces_the_stability_verdict():
    rng = np.random.default_rng(9)
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    phi = sample_generator("gaussian", sampling_grid(6, 16), sigma=0.55)
    model = build_sis(p, phi)
    a = SeqFn(1, ASYM_FILTER_1D)
    c = _rand_seq(rng, 1, 4, 2)
    from saftlab.sis import synthesize

    h_levels = integer_sample_levels(p, a, synthesize(model, c), lat.m)
    lo, hi = np.array([-3]), np.array([3])
    wpts, _, _, _ = continuous_solve_grid(p, lat, lo, hi)
    good = build_D(model, a, lat, wpts)
    assert stability_report(good).ok
    bad = _nearly_singular_at(good, 1, 1e-10)
    rep = stability_report(bad)
    ratio = np.abs(rep.det[1]) / np.prod(np.linalg.norm(bad.entries[1], axis=1))
    assert 1e-13 < ratio < 1e-8 and not rep.ok
    with pytest.raises(ValueError, match="singular") as err:
        recover_continuous(_channels(p, lat, h_levels), bad, window=(lo, hi))
    assert str(rep.argmin_w.tolist()) in str(err.value)


# ---------------------------------------------------------------------------
# discrete-route recovery (exact)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recover_discrete_exact_1d(seed):
    rng = np.random.default_rng(700 + seed)
    p = preset("ft", 1) if seed == 0 else random_params(1, rng)
    lat = build_lattice([[2]])
    phi_levels = [_rand_seq(rng, 1, 10, 4) for _ in range(lat.m)]
    c = _rand_seq(rng, 1, 6, 5)
    ms = measure_from_samples(p, lat, c, phi_levels)
    lo, hi = _r_window(lat, c, pad=1)
    field = build_B_window(p, lat, lo, hi, phi_levels)
    assert field.stability.ok
    rec = recover_discrete(ms, field, window=(lo, hi))
    assert field.stability.min_abs_det > 0
    for k in c.entries:
        assert abs(rec.get(k) - c.get(k)) < 1e-10
    extras = [abs(rec.get(k)) for k in rec.entries if k not in c.entries]
    assert not extras or max(extras) < 1e-10


def test_recover_discrete_exact_2d_chirped():
    rng = np.random.default_rng(800)
    p = random_params(2, rng)
    lat = build_lattice([[2, 0], [0, 2]])
    phi_levels = [_rand_seq(rng, 2, 14, 3) for _ in range(lat.m)]
    c = _rand_seq(rng, 2, 6, 4)
    ms = measure_from_samples(p, lat, c, phi_levels)
    lo, hi = _r_window(lat, c, pad=1)
    field = build_B_window(p, lat, lo, hi, phi_levels)
    assert field.stability.ok
    rec = recover_discrete(ms, field, window=(lo, hi))
    for k in c.entries:
        assert abs(rec.get(k) - c.get(k)) < 1e-9


#: the comb filter of the sheared-lattice recovery, {index: tap}
SHEARED_COMB = {(0, 0): 0.6 * np.exp(0.4j), (-1, -1): 1.0, (-1, -2): -0.7j}


@pytest.mark.parametrize("M", [[[2, 1], [0, 2]], [[2, 1], [1, 3]]], ids=["m4", "m5"])
@pytest.mark.parametrize("kind", ["ft", "separable_frft"])
def test_recover_discrete_on_a_sheared_lattice(M, kind):
    # every other recovery test has m <= 2 or a diagonal M, where the Hermite
    # box order is the lexicographic one: here the coset index l of the
    # generator's coset samples, of the field's columns and of eta_l in the
    # reassembly must agree for the truth to come back
    p = preset(kind, 2, **({"theta": (0.7, 1.1)} if kind != "ft" else {}))
    lat = build_lattice(M)
    phi = sample_generator("gaussian", sampling_grid(2, 16, n=2), sigma=0.5)
    levels = filtered_levels(p, SeqFn(2, SHEARED_COMB), sampled_generator(phi), lat.m, "cc")
    c = SeqFn(2, {(0, 0): 1.0, (1, -1): 0.5j, (-2, 1): -0.8, (2, 3): 0.3 + 0.4j})
    ms = measure_from_samples(p, lat, c, levels)
    keys = np.concatenate([v.keys for v in ms.levels])     # the CLI's default window
    lo, hi = keys.min(axis=0), keys.max(axis=0)
    field = build_B_window(p, lat, lo, hi, levels)
    assert field.stability.ok
    rec = recover_discrete(ms, field, window=(lo, hi))
    for k in c.entries:
        assert abs(rec.get(k) - c.get(k)) < 1e-10, k
    extras = [abs(rec.get(k)) for k in rec.entries if k not in c.entries]
    assert not extras or max(extras) < 1e-10


def test_recover_discrete_rejects_mismatched_field():
    rng = np.random.default_rng(6)
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    phi_levels = [_rand_seq(rng, 1, 8, 3) for _ in range(2)]
    c = _rand_seq(rng, 1, 4, 3)
    ms = measure_from_samples(p, lat, c, phi_levels)
    field = build_B_window(p, lat, [-9], [9], phi_levels)  # wrong window
    with pytest.raises(ValueError, match="solve grid"):
        recover_discrete(ms, field, window=([-2], [2]))
    with pytest.raises(ValueError, match="channels"):
        bad = measure_from_samples(p, lat, c, phi_levels[:1])
        f2 = build_B_window(p, lat, [-2], [2], phi_levels[:1])
        recover_discrete(bad, f2, window=([-2], [2]))


def test_recover_discrete_grid_route_end_to_end():
    # full pipeline with a real generator: synthesize, measure on grids,
    # build the field from sampled filtered generators, invert
    rng = np.random.default_rng(900)
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    g = sampling_grid(8, 16)
    phi = sample_generator("gaussian", g, sigma=0.6)
    model = build_sis(p, phi)
    a = SeqFn(1, ASYM_FILTER_1D)
    c = _rand_seq(rng, 1, 5, 3)
    ms = oracle.measure(model, c, a, lat)
    lo, hi = _r_window(lat, c, pad=2)
    levels = [sampled_generator(lv) for lv in filtered_levels(p, a, phi, lat.m, "cc")]
    field = build_B_window(p, lat, lo, hi, levels)
    assert stability_report(field).ok
    rec = recover_discrete(ms, field, window=(lo, hi))
    for k in c.entries:
        assert abs(rec.get(k) - c.get(k)) < 1e-9


# ---------------------------------------------------------------------------
# periodization-route recovery (plain Fourier block)


def test_recover_continuous_exact():
    rng = np.random.default_rng(1000)
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    g = sampling_grid(8, 16)
    phi = sample_generator("gaussian", g, sigma=0.55)
    model = build_sis(p, phi)
    a = SeqFn(1, ASYM_FILTER_1D)
    c = _rand_seq(rng, 1, 5, 3)
    from saftlab.sis import synthesize

    f = synthesize(model, c)
    h_levels = integer_sample_levels(p, a, f, lat.m)
    keys = c.keys
    lo, hi = keys.min(axis=0) - 1, keys.max(axis=0) + 1
    wpts, shape, lo_pad, qshape = continuous_solve_grid(p, lat, lo, hi)
    field = build_D(model, a, lat, wpts)
    assert stability_report(field).ok
    rec = recover_continuous(_channels(p, lat, h_levels), field, window=(lo, hi))
    for k in c.entries:
        assert abs(rec.get(k) - c.get(k)) < 1e-9
    extras = [abs(rec.get(k)) for k in rec.entries if k not in c.entries]
    assert not extras or max(extras) < 1e-9


def test_recover_continuous_refuses_a_wrong_channel_count_like_recover_discrete():
    p = preset("ft", 1)
    lat = build_lattice([[2]])
    phi = sample_generator("gaussian", sampling_grid(6, 16), sigma=0.55)
    a = SeqFn(1, ASYM_FILTER_1D)
    one = MeasurementSet(params=p, lat=lat, levels=(SeqFn(1, {(0,): 1.0}),))
    lo, hi = np.array([-3]), np.array([3])
    wpts, _, _, _ = continuous_solve_grid(p, lat, lo, hi)
    with pytest.raises(ValueError) as err:
        recover_continuous(one, build_D(build_sis(p, phi), a, lat, wpts), window=(lo, hi))
    levels = [sampled_generator(lv) for lv in filtered_levels(p, a, phi, lat.m, "cc")]
    with pytest.raises(ValueError) as want:
        recover_discrete(one, build_B_window(p, lat, lo, hi, levels), window=(lo, hi))
    assert str(err.value) == str(want.value) == "need 2 channels for a square system, got 1"


# the coset index as an array axis, bit for bit against the per-coset loops

#: sheared and negative-determinant lattices in 1-D, 2-D and 3-D
COSET_LATTICES = [
    [[2]], [[3]], [[-2]],
    [[2, 0], [0, 2]], [[2, 1], [0, 3]], [[1, 2], [3, 1]],
    [[1, 1, 0], [0, 2, 1], [1, 0, 2]], [[0, 1, 0], [1, 0, 0], [0, 0, 2]],
]

#: positive diagonals with unequal entries, the periodization route's lattices
DIAGONALS = [(2,), (3,), (1, 2), (2, 1), (3, 2), (2, 3), (1, 2, 3), (2, 1, 2)]

COSET_SETTINGS = settings(max_examples=30, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


def _coset_case(data, lattices):
    """A lattice from ``lattices``, a seeded rng and a window of extent 1 to 4 per axis."""
    lat = build_lattice(data.draw(st.sampled_from(lattices)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    lo = rng.integers(-3, 2, lat.n)
    return lat, rng, lo, lo + rng.integers(0, 4, lat.n)


def _well_posed_field(rng, wpts, m):
    """A random field that passes `stability_report`: m I plus entries in the unit square."""
    size = (len(wpts), m, m)
    ent = m * np.eye(m) + rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
    return MatrixField(wpoints=wpts, entries=ent)


def _random_channels(rng, p, lat):
    return MeasurementSet(params=p, lat=lat, levels=tuple(
        _rand_seq(rng, lat.n, int(rng.integers(1, 10)), 4) for _ in range(lat.m)))


def _assert_same_sequence(new, ref):
    np.testing.assert_array_equal(new.keys, ref.keys)
    np.testing.assert_array_equal(_bits(new.values), _bits(ref.values))


@COSET_SETTINGS
@given(data=st.data())
def test_build_B_window_is_bit_equal_to_the_per_coset_loop(data):
    lat, rng, lo, hi = _coset_case(data, COSET_LATTICES)
    p = preset("ft", lat.n) if data.draw(st.booleans()) else random_params(lat.n, rng)
    levels = [_rand_seq(rng, lat.n, int(rng.integers(0, 12)), 5)
              for _ in range(data.draw(st.integers(1, 3)))]
    new = build_B_window(p, lat, lo, hi, levels)
    ref = oracle.build_B_window(p, lat, lo, hi, levels)
    np.testing.assert_array_equal(new.wpoints, ref.wpoints)
    np.testing.assert_array_equal(_bits(new.entries), _bits(ref.entries))


@COSET_SETTINGS
@given(data=st.data())
def test_recover_discrete_is_bit_equal_to_the_per_coset_loop(data):
    lat, rng, lo, hi = _coset_case(data, COSET_LATTICES)
    p = preset("ft", lat.n) if data.draw(st.booleans()) else random_params(lat.n, rng)
    field = _well_posed_field(rng, solve_grid(p, lo, hi)[0], lat.m)
    ms = _random_channels(rng, p, lat)
    _assert_same_sequence(recover_discrete(ms, field, window=(lo, hi)),
                          oracle.recover_discrete(ms, field, window=(lo, hi)))


@COSET_SETTINGS
@given(data=st.data())
def test_recover_continuous_is_bit_equal_to_the_coset_scatter(data):
    lat, rng, lo, hi = _coset_case(data, [np.diag(d) for d in DIAGONALS])
    p = preset("ft", lat.n)
    field = _well_posed_field(rng, continuous_solve_grid(p, lat, lo, hi)[0], lat.m)
    ms = _random_channels(rng, p, lat)
    _assert_same_sequence(recover_continuous(ms, field, window=(lo, hi)),
                          oracle.recover_continuous(ms, field, window=(lo, hi)))


# build_D against entries summed with the direct kernel: one term per
# (frequency, grid sample), no separable sums


def _shift_stack(p, lat, wpts, K):
    """Points M^{-1}(w + gamma_v) + n of the periodization sums: (Np, m, S, n)."""
    x = (wpts[:, None, :] + np.array(lat.gamma, dtype=float)) @ lat.m_inverse().T
    n = np.stack(np.meshgrid(*([np.arange(-K, K + 1)] * p.n), indexing="ij"), axis=-1)
    return x[:, :, None, :] + n.reshape(-1, p.n)


def _direct_transform(p, g, pts):
    return kernel_quadrature(
        p, g.points().reshape(-1, p.n), g.values.reshape(-1), g.cell_volume, pts)


def _direct_band_transform(model, g, pts):
    out = np.zeros(pts.shape[:-1], dtype=complex)
    mask = resolved_band_mask(model, pts)
    out[mask] = _direct_transform(model.params, g, pts[mask])
    return out


@pytest.mark.parametrize("block", ["chirped", "scaled"])
def test_build_D_refuses_blocks_that_are_not_plain_fourier(monkeypatch, block):
    # a chirped block (A != 0) and a chirp-free one with B = 2I: the
    # periodization route takes neither, so no transform is evaluated
    from saftlab import dynsamp

    rng = np.random.default_rng(1100)
    p = random_params(2, rng) if block == "chirped" else preset(
        "separable_lct", a=[0.0, 0.0], b=[2.0, 2.0], c=[-0.5, -0.5], d=[0.0, 0.0])
    assert p.is_chirp_free(1e-14) == (block == "scaled")
    phi = sample_generator("gaussian", sampling_grid(3, 8, n=2), sigma=0.6)
    model = coarse_sis(p, phi)
    lat = build_lattice([[2, 0], [0, 1]])
    calls = []
    monkeypatch.setattr(dynsamp, "spectrum_at", lambda *a: calls.append(a))
    with pytest.raises(ValueError) as err:
        build_D(model, SeqFn(2, {(0, 0): 1.0, (1, 0): 0.5}), lat, rng.uniform(-0.5, 0.5, (5, 2)))
    with pytest.raises(ValueError) as want:
        continuous_solve_grid(p, lat, [0, 0], [3, 3])
    assert str(err.value) == str(want.value)
    assert "plain Fourier block" in str(err.value)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2])
def test_build_D_grid_filter_symbol_matches_direct_sums(n):
    # plain Fourier block, filter given as a grid: entries are sums of
    # (filter symbol)^j times the generator transform
    rng = np.random.default_rng(1200 + n)
    p = preset("ft", n)
    lat = build_lattice(np.diag([2] + [1] * (n - 1)).tolist())
    phi = sample_generator("gaussian", sampling_grid(3, 8, n=n), sigma=0.6)
    model = coarse_sis(p, phi)
    filt = sample_generator("gaussian", sampling_grid(1, 8, n=n), sigma=0.3,
                            modulation=list(rng.uniform(-1, 1, n)))
    wpts = rng.uniform(-0.5, 0.5, (5, n))
    field = build_D(model, filt, lat, wpts)
    pts = _shift_stack(p, lat, wpts, model.cutoff)
    # plain Fourier: the symbol is the transform of the filter grid
    sym = _direct_transform(p, filt, pts)
    base = _direct_band_transform(model, phi, pts)
    for j in range(2):
        ref = np.sum(sym**j * base, axis=-1)
        assert np.max(np.abs(field.entries[:, j, :] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_continuous_route_guards():
    p = preset("separable_frft", theta=[0.7])
    lat = build_lattice([[2]])
    with pytest.raises(ValueError, match="plain"):
        recover_continuous(
            _channels(p, lat, [SeqFn(1, {}), SeqFn(1, {})]),
            build_B_window(preset("ft", 1), lat, [0], [3], [SeqFn(1, {(0,): 1.0})] * 2),
            window=([0], [3]),
        )
    with pytest.raises(ValueError, match="diagonal"):
        continuous_solve_grid(preset("ft", 2), build_lattice([[2, 1], [0, 2]]), [0, 0], [3, 3])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_continuous_solve_points_are_the_solve_grid_of_the_reduced_window(n):
    # the periodization nodes q d / N of the padded window and the solve
    # grid's q / (N / d) are correctly rounded quotients of the same
    # rational, so they have the same bits
    p = preset("ft", n)
    for diag in [(1,) * n, (2,) * n, (3,) + (1,) * (n - 1), (2, 3, 4)[:n]]:
        lat = build_lattice(np.diag(diag))
        for lo, hi in [((0,) * n, (3,) * n), ((-8,) * n, (8,) * n),
                       ((-3,) * n, (4, 5, 6)[:n]), ((-5,) * n, (10,) * n)]:
            wpts, shape, lo_pad, qshape = continuous_solve_grid(p, lat, lo, hi)
            assert all(N % d == 0 and N - d < b - a + 1 <= N
                       for N, d, a, b in zip(shape, diag, lo, hi))
            assert qshape == tuple(N // d for N, d in zip(shape, diag))
            nodes = mesh([np.arange(Nq) * d / N for Nq, d, N in zip(qshape, diag, shape)])
            want = _physical_points(p, nodes.reshape(-1, n))
            assert wpts.tobytes() == want.tobytes()
            assert np.array_equal(lo_pad, lo)


def test_measurement_set_channel_count():
    rng = np.random.default_rng(7)
    p = preset("ft", 1)
    lat = build_lattice([[3]])
    phi_levels = [_rand_seq(rng, 1, 6, 3) for _ in range(3)]
    ms = measure_from_samples(p, lat, _rand_seq(rng, 1, 4, 3), phi_levels)
    assert ms.J == 3 and ms.lat.m == 3


# ---------------------------------------------------------------------------
# exports

#: the defaulted parameters of every public function and method, and the
#: defaulted fields of every dataclass, per module; each is an option that
#: some caller sets, so adding one means adding it here
KNOBS = {
    "grid": {"sampling_grid": ("n",), "dft": ("sign", "out")},
    "params": {"SaftParams.is_chirp_free": ("tol",), "validate": ("tol",), "preset": ("n",)},
    "repro": {
        "meyer_time_table": ("kmax",),
        "build_example": (
            "params", "c1", "c2", "threshold", "halfwidth", "per_unit", "table_kmax",
        ),
        "run_example": ("outdir",),
    },
    "saft": {"saft_plan": ("backend",)},
    "sis": {"build_sis": ("spectrum_fn",)},
}


#: the exported names no program reaches: no `src/` code references them
#: outside their own definition (by name or attribute), and no `benchmarks/`
#: file names them.  These are the README's capabilities; any other such name
#: is an option or helper that only tests use, to be deleted
TEST_ONLY = {"conv_power", "comb_power", "riesz_bounds", "frame_check"}


def test_every_export_but_the_readme_capabilities_is_reached_by_a_program():
    src = Path(saftlab.__file__).parent
    bench = [path.read_text() for path in (src.parents[1] / "benchmarks").rglob("*")
             if path.suffix in (".py", ".md")]
    reached = set()
    for path in src.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name != own:
                    reached.add(name)
    exported = {name for m in pkgutil.iter_modules(saftlab.__path__) if m.name != "cli"
                for name in importlib.import_module(f"saftlab.{m.name}").__all__}
    assert {name for name in exported - reached
            if not any(re.search(rf"\b{name}\b", text) for text in bench)} == TEST_ONLY


def _knobs(module) -> dict:
    def defaulted(fn):
        return tuple(k for k, v in inspect.signature(fn).parameters.items()
                     if v.default is not v.empty)

    out = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            out[name] = defaulted(obj)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                out[name] = tuple(
                    f.name for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                )
            for key, attr in vars(obj).items():
                fn = getattr(attr, "__func__", attr)      # class and static methods
                if not key.startswith("_") and inspect.isfunction(fn):
                    out[f"{name}.{key}"] = defaulted(fn)
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(saftlab.__path__) if m.name != "cli"
))
def test_every_public_function_and_class_is_exported(name):
    module = importlib.import_module(f"saftlab.{name}")
    public = {
        key for key, obj in vars(module).items()
        if not key.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert public == set(module.__all__)
    assert _knobs(module) == KNOBS.get(name, {})


def test_package_exports_exist():
    assert set(saftlab.__all__) == {
        "GridFn", "SeqFn", "SaftParams", "preset", "sampling_grid", "sample_generator",
        "saft_plan", "saft_forward", "saft_inverse", "__version__",
    }
    assert [name for name in saftlab.__all__ if not hasattr(saftlab, name)] == []
