"""Forward/inverse transforms, discrete-time transform, summation identities.

The reference values in `ORACLE_W` / `ORACLE_VALUES` were computed
independently with 40-digit adaptive quadrature (mpmath) of the defining
integral for the pinned parameter block and Gaussian input below, then
rounded to the digits shown.  They are frozen here; the tests compare the
library against them, never against itself.
"""

import numpy as np
import pytest

from saftlab.grid import (
    SeqFn,
    reciprocal_grid,
    sample_generator,
    sampling_grid,
    uniform_grid,
)
from saftlab.lattice import build_lattice
from saftlab.params import SaftParams, inverse_params, modulation, preset, random_params
from saftlab.saft import (
    dtsaft,
    downsample,
    downsample_check,
    integer_samples,
    kernel_quadrature,
    parseval_check,
    poisson_check,
    saft_forward,
    saft_inverse,
    saft_plan,
)

# pinned block: a=0.6, b=1.25, c=-0.416, d=0.8 (ad - bc = 1), offsets p=0.3,
# q=-0.45; input is the unit-peak Gaussian exp(-pi (t/0.65)^2)
ORACLE_BLOCK = dict(A=[[0.6]], B=[[1.25]], C=[[-0.416]], D=[[0.8]], P=[0.3], Q=[-0.45])
ORACLE_SIGMA = 0.65
ORACLE_W = np.array([[0.0], [0.5], [-1.2]])
ORACLE_VALUES = np.array(
    [
        0.53286125668036992389 + 0.045483579157855792836j,
        0.083232356633630408312 - 0.55081494519486719921j,
        0.034929844521995733821 + 0.084882140231092475064j,
    ]
)


def _oracle_setup():
    p = preset("custom", **ORACLE_BLOCK)
    g = sampling_grid(8, 16)
    f = sample_generator("gaussian", g, sigma=ORACLE_SIGMA)
    return p, g, f


def test_quadrature_matches_frozen_reference():
    p, g, f = _oracle_setup()
    pts = g.points().reshape(-1, g.n)
    vals = kernel_quadrature(p, pts, f.values.reshape(-1), g.cell_volume, ORACLE_W)
    assert np.max(np.abs(vals - ORACLE_VALUES)) < 1e-12


def test_fast_backend_matches_frozen_reference():
    # the fast path evaluates on its own frequency grid; with 200 cells of
    # width 1/16 the DFT resolution is 0.08, so the reduced frequencies
    # nu = w/1.25 in {0, 0.4, -0.96} of the reference points are all on-grid
    p = preset("custom", **ORACLE_BLOCK)
    g = uniform_grid(-6.25, 6.25, 200)
    f = sample_generator("gaussian", g, sigma=ORACLE_SIGMA)
    plan = saft_plan(p, g, backend="fast")
    F = saft_forward(plan, f)
    wpts = plan.w_points().reshape(-1, 1)
    for wi, want in zip(ORACLE_W[:, 0], ORACLE_VALUES):
        j = int(np.argmin(np.abs(wpts[:, 0] - wi)))
        assert abs(wpts[j, 0] - wi) < 1e-9  # reference frequency is on-grid
        assert abs(F.values.reshape(-1)[j] - want) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_equals_quadrature_random_params(seed):
    rng = np.random.default_rng(100 + seed)
    p = random_params(1, rng)
    g = sampling_grid(6, 16)
    f = sample_generator("gaussian", g, sigma=0.8, center=0.2, modulation=0.4)
    plan = saft_plan(p, g, backend="fast")
    fast = saft_forward(plan, f)
    quad = saft_forward(saft_plan(p, g, backend="quad"), f)
    num = np.linalg.norm(fast.values - quad.values)
    den = np.linalg.norm(quad.values)
    assert num / den < 1e-12


def test_fast_equals_quadrature_2d():
    rng = np.random.default_rng(200)
    p = random_params(2, rng)
    g = sampling_grid(4, 8, n=2)
    f = sample_generator("gaussian", g, sigma=[0.7, 0.9], center=[0.1, -0.2])
    fast = saft_forward(saft_plan(p, g, "fast"), f)
    quad = saft_forward(saft_plan(p, g, "quad"), f)
    assert np.linalg.norm(fast.values - quad.values) / np.linalg.norm(quad.values) < 1e-12


@pytest.mark.parametrize("backend", ["fast", "quad"])
def test_round_trip_identity(backend):
    rng = np.random.default_rng(300)
    p = random_params(1, rng)
    g = sampling_grid(6, 16)
    f = sample_generator("gaussian", g, sigma=0.7, chirp=0.5)
    plan = saft_plan(p, g, backend=backend)
    back = saft_inverse(plan, saft_forward(plan, f))
    err = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
    assert err < (1e-12 if backend == "fast" else 1e-9)


def test_inverse_params_route_agrees_with_inverse():
    # applying the forward transform with the inverse block to the spectrum
    # (in physical coordinates) must reproduce the input samples
    rng = np.random.default_rng(301)
    p = random_params(1, rng)
    g = sampling_grid(6, 16)
    f = sample_generator("gaussian", g, sigma=0.75)
    plan = saft_plan(p, g, "fast")
    F = saft_forward(plan, f)
    w_flat = plan.w_points().reshape(-1, 1)
    weight = p.abs_det_b * plan.out_template.cell_volume
    t_flat = g.points().reshape(-1, g.n)
    back = kernel_quadrature(inverse_params(p), w_flat, F.values.reshape(-1), weight, t_flat)
    err = np.linalg.norm(back - f.values.reshape(-1)) / np.linalg.norm(f.values)
    assert err < 1e-9


def test_plan_rejects_bad_geometry():
    p = preset("ft", 1)
    g = sampling_grid(4, 8)
    with pytest.raises(ValueError):
        saft_plan(p, sampling_grid(4, 8, n=2))
    with pytest.raises(ValueError):
        saft_plan(p, g, backend="warp")
    plan = saft_plan(p, g)
    with pytest.raises(ValueError):
        saft_forward(plan, sampling_grid(4, 4))


def test_ft_preset_reduces_to_plain_fourier():
    g = sampling_grid(6, 16)
    f = sample_generator("gaussian", g, sigma=0.8)
    plan = saft_plan(preset("ft", 1), g)
    F = saft_forward(plan, f)
    # FT of exp(-pi (t/s)^2) is s exp(-pi s^2 w^2)
    w = plan.w_points().reshape(-1)
    want = 0.8 * np.exp(-np.pi * 0.64 * w**2)
    assert np.max(np.abs(F.values.reshape(-1) - want)) < 1e-12


# ---------------------------------------------------------------------------
# discrete-time transform


def test_dtsaft_exact_sum_for_ft():
    p = preset("ft", 1)
    s = SeqFn(1, {(-1,): 0.5 + 0.2j, (0,): 1.0, (2,): -0.3j})
    w = np.array([[0.25], [0.0], [-1.4]])
    got = dtsaft(p, s, w)
    # explicit finite sum, written out independently
    for i, wi in enumerate(w[:, 0]):
        want = (0.5 + 0.2j) * np.exp(2j * np.pi * wi) + 1.0 + (-0.3j) * np.exp(-4j * np.pi * wi)
        assert abs(got[i] - want) < 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dtsaft_modulus_periodic_on_output_lattice(seed):
    rng = np.random.default_rng(400 + seed)
    p = random_params(1, rng)
    keys = rng.integers(-3, 4, (6, 1))
    s = SeqFn(1, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(6, 2)))})
    w = rng.uniform(-2, 2, (32, 1))
    base = np.abs(dtsaft(p, s, w))
    for l in (-3, -1, 1, 2):
        shifted = np.abs(dtsaft(p, s, w + l * p.B[0, 0]))
        assert np.max(np.abs(shifted - base)) < 1e-12 * max(1.0, base.max())


def test_integer_samples_requires_aligned_grid():
    g = sampling_grid(3, 4)
    vals = sample_generator("gaussian", g, sigma=1.0)
    k, v = integer_samples(vals)
    assert k.shape == (7, 1)
    i0 = np.where(k[:, 0] == 0)[0][0]
    assert v[i0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        integer_samples(uniform_grid(-2, 2, 17))


# ---------------------------------------------------------------------------
# summation identities


def test_poisson_identity_ft():
    p = preset("ft", 1)
    g = sampling_grid(8, 16)
    f = sample_generator("gaussian", g, sigma=0.7, center=0.1)
    rep = poisson_check(p, f, np.array([[0.1], [0.37], [-0.8]]))
    assert rep.decayed
    assert rep.sup < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_poisson_identity_random_block(seed):
    rng = np.random.default_rng(500 + seed)
    p = random_params(1, rng)
    g = sampling_grid(8, 16)
    f = sample_generator("gaussian", g, sigma=0.6)
    rep = poisson_check(p, f, rng.uniform(-1, 1, (8, 1)))
    assert rep.decayed
    assert rep.sup < 1e-10


@pytest.mark.parametrize("seed", [1, 35])
def test_poisson_image_window_follows_the_offset_spectrum(seed):
    # the selftest block of this seed: its offset phase B^{-1}P (1.918 for
    # seed 35) moves the input spectrum's peak off zero, so an image window
    # centred on n = 0 cut off images that carry the mass
    rng = np.random.default_rng(seed)
    p = random_params(1, rng)
    g = sampling_grid(6.0, 16, n=1)
    f = sample_generator("gaussian", g, sigma=float(rng.uniform(0.45, 0.9)),
                         center=float(rng.uniform(-0.5, 0.5)))
    rep = poisson_check(p, f, np.linspace(-2, 2, 41)[:, None])
    assert rep.decayed
    assert rep.sup / np.max(np.abs(rep.rhs)) <= 1e-6


def test_poisson_flags_poor_decay():
    p = preset("ft", 1)
    g = sampling_grid(2, 8)
    f = sample_generator("gaussian", g, sigma=4.0)  # nowhere near zero at the edge
    rep = poisson_check(p, f, np.array([[0.0]]))
    assert not rep.decayed


def test_downsample_keeps_divisible_indices():
    lat = build_lattice([[2, 0], [0, 2]])
    c = SeqFn(2, {(0, 0): 1.0, (2, -4): 2.0, (1, 2): 3.0, (-2, 2): 4.0})
    d = downsample(lat, c)
    assert set(d.entries) == {(0, 0), (1, -2), (-1, 1)}
    assert d.get((1, -2)) == 2.0


@pytest.mark.parametrize(
    "M", [[[2]], [[3]], [[2, 0], [0, 2]], [[2, 1], [0, 2]]]
)
def test_downsample_identity_ft(M):
    rng = np.random.default_rng(600)
    lat = build_lattice(M)
    n = lat.n
    p = preset("ft", n)
    keys = rng.integers(-4, 5, (8, n))
    c = SeqFn(n, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(8, 2)))})
    w = rng.uniform(-1.5, 1.5, (24, n))
    assert downsample_check(p, lat, c, w) < 1e-12


def test_downsample_identity_general_chirp_free_block():
    # chirp-free but with nontrivial B, D, Q: A=0, D = S B with S symmetric,
    # C = -B^{-T} keeps the block symplectic
    B = np.array([[1.5, 0.0], [0.5, 2.0]])
    S = np.array([[0.4, -0.1], [-0.1, 0.3]])
    p = SaftParams(2, np.zeros((2, 2)), B, -np.linalg.inv(B).T, S @ B, np.zeros(2), [0.3, -0.7])
    lat = build_lattice([[2, 1], [0, 2]])
    rng = np.random.default_rng(601)
    keys = rng.integers(-3, 4, (7, 2))
    c = SeqFn(2, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(7, 2)))})
    w = rng.uniform(-2, 2, (20, 2))
    assert downsample_check(p, lat, c, w) < 1e-12


def test_downsample_check_rejects_chirped_block():
    rng = np.random.default_rng(602)
    p = preset("separable_frft", theta=[0.7])
    lat = build_lattice([[2]])
    c = SeqFn(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        downsample_check(p, lat, c, rng.uniform(-1, 1, (4, 1)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parseval_energy_identity(seed):
    rng = np.random.default_rng(700 + seed)
    p = random_params(1, rng)
    keys = rng.integers(-5, 6, (9, 1))
    s = SeqFn(1, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(9, 2)))})
    rep = parseval_check(p, s)
    assert rep["abs_err"] < 1e-10 * max(1.0, rep["energy"])


def test_parseval_empty_sequence():
    rep = parseval_check(preset("ft", 1), SeqFn(1, {}))
    assert rep["cell_integral"] == 0.0 and rep["energy"] == 0.0
