"""Shift-invariant spaces: spectra, Grammians, Riesz bounds, frame energies.

The two frozen Grammian references were computed independently with
40-digit arithmetic (mpmath): for the plain Fourier block and generator
exp(-pi (t/0.6)^2) the transform is 0.6 exp(-pi 0.36 w^2) in closed form,
and the shift-square sums below follow by summing it to convergence.
"""

import numpy as np
import pytest

from saftlab.grid import SeqFn, sample_generator, sampling_grid, uniform_grid
from saftlab.params import preset, random_params
from saftlab.sis import (
    build_sis,
    frame_check,
    _shift_values,
    grammian,
    resolved_band_mask,
    riesz_bounds,
    spectrum_at,
    synthesize,
)

GRAM_SIGMA = 0.6
GRAM_AT_0 = 0.4350709402070435338
GRAM_AT_HALF = 0.41345724186744559904


def _gauss_model(sigma=GRAM_SIGMA, halfwidth=8, per_unit=16, **kwargs):
    p = kwargs.pop("params", preset("ft", 1))
    g = sampling_grid(halfwidth, per_unit, n=p.n)
    phi = sample_generator("gaussian", g, sigma=sigma)
    return build_sis(p, phi, **kwargs)


def test_grammian_matches_frozen_reference():
    m = _gauss_model()
    assert abs(grammian(m, np.array([0.0])) - GRAM_AT_0) < 1e-12
    assert abs(grammian(m, np.array([0.5])) - GRAM_AT_HALF) < 1e-12


def test_grammian_is_cell_periodic():
    m = _gauss_model()
    w = np.linspace(-0.5, 0.5, 11).reshape(-1, 1)
    g0 = grammian(m, w)
    g1 = grammian(m, w + 1.0)  # B = I: one output-lattice step
    assert np.max(np.abs(g0 - g1)) < 1e-12


def test_grammian_array_and_scalar_forms_agree():
    m = _gauss_model()
    w = np.array([[0.1], [0.3]])
    arr = grammian(m, w)
    assert arr.shape == (2,)
    assert grammian(m, np.array([0.1])) == pytest.approx(arr[0])
    u = np.sum(_shift_values(m, w), axis=-1)
    # magnitudes < 1, so the unsquared sum dominates the squared one
    assert np.all(u >= arr)


def test_spectrum_quadrature_matches_closed_form():
    m = _gauss_model()
    w = np.array([[0.0], [0.7], [-1.3]])
    got = spectrum_at(m, w)
    want = GRAM_SIGMA * np.exp(-np.pi * GRAM_SIGMA**2 * w[:, 0] ** 2)
    assert np.max(np.abs(got - want)) < 1e-13


def test_spectrum_masked_outside_resolved_band():
    m = _gauss_model(per_unit=10)
    # band edge in reduced frequency is ~ per_unit/2 = 5; far outside it the
    # evaluation must return exactly zero rather than aliased garbage
    far = np.array([[25.0]])
    assert not resolved_band_mask(m, far).any()
    assert spectrum_at(m, far)[0] == 0.0
    near = np.array([[0.5]])
    assert resolved_band_mask(m, near).all()


def test_spectrum_fn_bypasses_quadrature_and_mask():
    p = preset("ft", 1)
    g = sampling_grid(4, 12)
    phi = sample_generator("gaussian", g, sigma=GRAM_SIGMA)
    m = build_sis(p, phi, spectrum_fn=lambda w: GRAM_SIGMA * np.exp(-np.pi * GRAM_SIGMA**2 * w[..., 0] ** 2))
    far = np.array([[25.0]])
    assert spectrum_at(m, far)[0] > 0.0
    assert abs(grammian(m, np.array([0.0])) - GRAM_AT_0) < 1e-12


def test_build_sis_rejects_undecayed_generator():
    p = preset("ft", 1)
    g = sampling_grid(4, 8)
    # a hat of half-width 0.25: its spectrum ~ sinc^2 decays slowly, so its
    # value at the reciprocal window's edge is far above DECAY_TOL times the peak
    phi = g.with_values(np.maximum(0.0, 1.0 - np.abs(g.points()[..., 0] / 0.25)).astype(complex))
    with pytest.raises(ValueError):
        build_sis(p, phi)


def test_riesz_bounds_pass_for_gaussian():
    m = _gauss_model()
    # cell grid containing w = 0 and w = 0.5 exactly, where the Grammian of
    # a centered Gaussian attains its max and min
    cell = np.linspace(0.0, 1.0, 64, endpoint=False).reshape(-1, 1)
    rep = riesz_bounds(m, cell)
    assert rep.ok
    eta1, eta2 = rep.eta1, rep.eta2
    assert 0 < eta1 <= eta2
    assert eta1 == pytest.approx(GRAM_AT_HALF, abs=1e-12)
    assert eta2 == pytest.approx(GRAM_AT_0, abs=1e-12)
    assert rep.argmin[0] == pytest.approx(0.5)
    assert rep.argmax[0] == pytest.approx(0.0)


def test_riesz_bounds_fail_when_translates_degenerate():
    # antisymmetric pair of Gaussians: transform carries sin(pi w), which
    # vanishes at every integer at once, so the Grammian dies at w = 0
    p = preset("ft", 1)
    g = sampling_grid(8, 16)
    pts = g.points()[..., 0]
    vals = np.exp(-np.pi * ((pts - 0.5) / 0.5) ** 2) - np.exp(-np.pi * ((pts + 0.5) / 0.5) ** 2)
    phi = g.with_values(vals.astype(complex))
    m = build_sis(p, phi)
    cell = uniform_grid(0.0, 1.0, 65)  # odd count puts a sample at w = 0.5… and near 0
    rep = riesz_bounds(m, np.linspace(0, 1, 64, endpoint=False).reshape(-1, 1))
    assert not rep.ok
    assert "fail" in rep.verdict


def test_synthesize_is_translate_sum():
    m = _gauss_model(halfwidth=4)
    s = SeqFn(1, {(0,): 1.0, (1,): -0.5})
    f = synthesize(m, s)
    xs = f.points()[..., 0]
    want = np.exp(-np.pi * (xs / GRAM_SIGMA) ** 2) - 0.5 * np.exp(-np.pi * ((xs - 1) / GRAM_SIGMA) ** 2)
    assert np.max(np.abs(f.values - want)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_frame_energy_between_riesz_bounds(seed):
    rng = np.random.default_rng(80 + seed)
    p = random_params(1, rng) if seed else preset("ft", 1)
    g = sampling_grid(8, 16)
    phi = sample_generator("gaussian", g, sigma=0.55)
    m = build_sis(p, phi)
    keys = rng.integers(-3, 4, (5, 1))
    s = SeqFn(1, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(5, 2)))})
    rep = frame_check(m, s)
    bounds = riesz_bounds(m, (np.linspace(0, 1, 128, endpoint=False).reshape(-1, 1) @ p.B.T))
    assert bounds.eta1 - 1e-9 <= rep["ratio"] <= bounds.eta2 + 1e-9


def test_frame_energy_matches_synthesized_signal_energy():
    # the cell integral must equal the L2 energy of the synthesized signal
    m = _gauss_model(halfwidth=6)
    s = SeqFn(1, {(0,): 1.0, (2,): 1j})
    rep = frame_check(m, s)
    f = synthesize(m, s)
    direct = float(np.sum(np.abs(f.values) ** 2) * f.cell_volume)
    assert rep["energy"] == pytest.approx(direct, rel=1e-9)
