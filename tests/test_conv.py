"""Convolution calculus: the three products, their transform factorizations,
and the commutation of function-side and sequence-side filtering."""

import numpy as np
import pytest

from saftlab.conv import (
    comb_power,
    commute_check,
    conv_cc,
    conv_dd,
    conv_power,
    conv_sd,
    theorem_residual_cc,
    theorem_residual_dd,
    theorem_residual_sd,
)
from saftlab.grid import SeqFn, sample_generator, sampling_grid, uniform_grid
from saftlab.params import preset, random_params


def _gaussian(sigma, center=0.0, halfwidth=6, per_unit=16):
    g = sampling_grid(halfwidth, per_unit)
    return sample_generator("gaussian", g, sigma=sigma, center=center)


def _rand_seq(rng, n=1, count=5, radius=3):
    keys = rng.integers(-radius, radius + 1, (count, n))
    return SeqFn(
        n, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(count, 2)))}
    )


# ---------------------------------------------------------------------------
# product semantics


def test_conv_cc_ft_matches_closed_form():
    # for the plain Fourier block the product is ordinary convolution;
    # two Gaussians exp(-pi (t/s)^2) convolve to
    # s1 s2 / r * exp(-pi (t/r)^2) with r = sqrt(s1^2 + s2^2)
    p = preset("ft", 1)
    f = _gaussian(0.6)
    g = _gaussian(0.8)
    h = conv_cc(p, f, g)
    xs = h.points().reshape(-1, h.n)[:, 0]
    r = np.hypot(0.6, 0.8)
    want = 0.6 * 0.8 / r * np.exp(-np.pi * (xs / r) ** 2)
    assert np.max(np.abs(h.values.reshape(-1) - want)) < 1e-12


def test_conv_cc_output_geometry():
    p = preset("ft", 1)
    f = _gaussian(0.5, halfwidth=2)
    g = _gaussian(0.5, halfwidth=3)
    h = conv_cc(p, f, g)
    assert h.shape == (f.shape[0] + g.shape[0] - 1,)
    assert np.allclose(h.origin, f.origin + g.origin + f.spacing / 2.0)
    with pytest.raises(ValueError):
        conv_cc(p, f, sampling_grid(3, 8))  # different spacing


def test_conv_cc_commutative():
    rng = np.random.default_rng(10)
    p = random_params(1, rng)
    f = _gaussian(0.6, center=0.3)
    g = _gaussian(0.9, center=-0.2)
    assert np.allclose(conv_cc(p, f, g).values, conv_cc(p, g, f).values, atol=1e-12)


def test_conv_dd_ft_is_plain_discrete_convolution():
    p = preset("ft", 1)
    a = SeqFn(1, {(0,): 1.0, (1,): 2.0, (3,): -1.0})
    b = SeqFn(1, {(-1,): 0.5, (0,): 1.0})
    c = conv_dd(p, a, b)
    # coefficients of (1 + 2x + 0x^2 - x^3)(0.5/x + 1)
    want = {(-1,): 0.5, (0,): 2.0, (1,): 2.0, (2,): -0.5, (3,): -1.0}
    assert set(c.entries) == set(want)
    for k, v in want.items():
        assert c.get(k) == pytest.approx(v)


def test_conv_dd_comb_squared():
    # the worked filter coefficients used downstream: {(-1,-1): 1, (-1,-2): 1/2}
    p = preset("ft", 2)
    a = SeqFn(2, {(-1, -1): 1.0, (-1, -2): 0.5})
    c = comb_power(p, a, 2)
    want = {(-2, -2): 1.0, (-2, -3): 1.0, (-2, -4): 0.25}
    assert set(c.entries) == set(want)
    for k, v in want.items():
        assert c.get(k) == pytest.approx(v)


def test_conv_sd_is_translate_sum():
    rng = np.random.default_rng(11)
    p = random_params(1, rng)
    s = SeqFn(1, {(1,): 1.5, (-2,): 1j})
    phi = _gaussian(0.7, halfwidth=4)
    out = conv_sd(p, s, phi)
    # independent direct evaluation of the weighted translate sum
    from saftlab.params import chirp

    xs = out.points().reshape(-1, out.n)[:, 0]
    acc = np.zeros_like(xs, dtype=complex)
    phi_xs = phi.points().reshape(-1, phi.n)[:, 0]
    for k, z in [((1,), 1.5), ((-2,), 1j)]:
        shifted = np.interp(xs - k[0], phi_xs, phi.values.real) + 1j * np.interp(
            xs - k[0], phi_xs, phi.values.imag
        )
        outside = (xs - k[0] < phi_xs[0]) | (xs - k[0] > phi_xs[-1])
        shifted[outside] = 0.0
        lam_k = chirp(p, np.array([float(k[0])]))
        lam_shift = chirp(p, (xs - k[0]).reshape(-1, 1))
        acc += z * lam_k * lam_shift * shifted
    acc *= np.conj(chirp(p, xs.reshape(-1, 1)))
    acc /= np.sqrt(p.abs_det_b)
    # interpolation lands exactly on grid points, so this is exact
    assert np.max(np.abs(out.values.reshape(-1) - acc)) < 1e-10


def test_conv_sd_empty_sequence_gives_zero():
    p = preset("ft", 1)
    phi = _gaussian(0.5, halfwidth=3)
    out = conv_sd(p, SeqFn(1, {}), phi)
    assert np.all(out.values == 0)


def test_power_rejects_nonpositive_order():
    p = preset("ft", 1)
    with pytest.raises(ValueError):
        conv_power(p, _gaussian(0.5), 0)
    with pytest.raises(ValueError):
        comb_power(p, SeqFn(1, {(0,): 1.0}), 0)


def test_conv_power_iterates():
    p = preset("ft", 1)
    a = _gaussian(0.5, halfwidth=3)
    assert conv_power(p, a, 1) is a
    h2 = conv_power(p, a, 2)
    assert np.allclose(h2.values, conv_cc(p, a, a).values, atol=0)


def test_dimension_mismatch_raises():
    p = preset("ft", 1)
    with pytest.raises(ValueError):
        conv_sd(p, SeqFn(2, {(0, 0): 1.0}), _gaussian(0.5))
    with pytest.raises(ValueError):
        conv_dd(p, SeqFn(1, {(0,): 1.0}), SeqFn(2, {(0, 0): 1.0}))


# ---------------------------------------------------------------------------
# transform factorizations (two independent code paths per theorem)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_factorization_function_function(seed):
    rng = np.random.default_rng(20 + seed)
    p = random_params(1, rng) if seed else preset("ft", 1)
    f = _gaussian(0.6, center=0.2)
    g = _gaussian(0.75, center=-0.1)
    assert theorem_residual_cc(p, f, g) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_factorization_sequence_function(seed):
    rng = np.random.default_rng(30 + seed)
    p = random_params(1, rng) if seed else preset("ft", 1)
    s = _rand_seq(rng)
    phi = _gaussian(0.6)
    assert theorem_residual_sd(p, s, phi) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_factorization_sequence_sequence(seed):
    rng = np.random.default_rng(40 + seed)
    p = random_params(1, rng) if seed else preset("ft", 1)
    s = _rand_seq(rng)
    t = _rand_seq(rng)
    w = rng.uniform(-2, 2, (40, 1))
    assert theorem_residual_dd(p, s, t, w) < 1e-13


def test_factorization_sequence_sequence_2d():
    rng = np.random.default_rng(50)
    p = random_params(2, rng)
    s = _rand_seq(rng, n=2)
    t = _rand_seq(rng, n=2)
    w = rng.uniform(-2, 2, (30, 2))
    assert theorem_residual_dd(p, s, t, w) < 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_filtering_commutes_across_sides(seed):
    rng = np.random.default_rng(60 + seed)
    p = random_params(1, rng) if seed else preset("ft", 1)
    f = _gaussian(0.6, halfwidth=4)
    g = _gaussian(0.8, halfwidth=4)
    s = _rand_seq(rng, count=4, radius=2)
    assert commute_check(p, f, s, g) < 1e-10
