"""The "only if" of the recovery theorem, for plain Fourier blocks.

For coefficients ``c`` split into coset sequences ``sigma_l(r) = c(M^T r +
eta_l)`` with transforms ``X_l(xi)``, the channels of `measure_from_samples`
have transforms ``B(xi) X(xi)`` up to a unimodular factor, with ``B`` the
field of `build_B_window`.  By Parseval, ``||v||^2 / ||c||^2`` is a weighted
mean of ``|B(xi) X(xi)|^2 / |X(xi)|^2`` over the cell, so ``||v|| / ||c||``
is at least the least ``sigma_min`` of the field (the "if").  The tests check the other
side: coefficients whose ``X`` concentrates at a node ``xi*`` along a right
singular vector ``u`` of ``B(xi*)``,

    c(M^T r + eta_l) = u_l e^{2 i pi r.xi*} F_R(r),

with the Fejer taper ``F_R(r) = prod_i (1 - |r_i| / (R + 1))`` for ``|r_i| <=
R``, give a ratio that tends to ``sigma`` at ``xi*``.  At a node where
``B`` is singular it falls like ``1 / R``, so no constant bounds ``||c||`` by
``||v||`` and recovery is not stable; with the opposite phase sign ``X``
concentrates at ``-xi*`` instead, and the ratio does not fall.  At a pass
node the ratio is within 1% of ``sigma_min`` and of ``sigma_max``: the
stability constant is the field's least singular value, with constant 1.

The 1-D example is the comb filter ``{0: 0.3, 1: 1, 3: -e^{2 i pi / 17}}``
with ``--M [[2]]``, singular at ``xi* = 1/17`` of a 17-point window.  The
2-D one, the comb ``{(0, 0): 0.3, (1, 0): 1, (1, 2): -e^{2 i pi / 3}}`` on
the lattice ``[[1, 1], [-1, 1]]`` with a 9 x 9 window, is singular on the
line ``xi_1 + xi_2 = 1/3``, which holds the node ``(1/9, 2/9)``.
"""

import numpy as np
import pytest

from saftlab.dynsamp import (build_B_window, filtered_levels, measure_from_samples,
                             sampled_generator)
from saftlab.grid import SeqFn, sample_generator, sampling_grid
from saftlab.lattice import build_lattice
from saftlab.params import preset

#: each example by its dimension: the lattice, the generator grid, the comb
#: filter's taps, the window's points per axis, the singular node, the pass
#: nodes (flat window indices), the taper radii at the singular node and at
#: the pass nodes
EXAMPLES = {
    1: dict(M=[[2]], halfwidth=2, per_unit=16,
            taps=([[0], [1], [3]], [0.3, 1.0, -np.exp(2j * np.pi / 17)]),
            N=17, singular=(1,), pass_nodes=[0, 3, 8], radii=[8, 32, 128, 512], pass_radius=512),
    2: dict(M=[[1, 1], [-1, 1]], halfwidth=2, per_unit=8,
            taps=([[0, 0], [1, 0], [1, 2]], [0.3, 1.0, -np.exp(2j * np.pi / 3)]),
            N=9, singular=(1, 2), pass_nodes=[0, 40, 66], radii=[4, 8, 16, 32], pass_radius=16),
}


@pytest.fixture(scope="module", params=sorted(EXAMPLES), ids=["1d", "2d"])
def example(request):
    """The block, lattice, filtered generator samples, window field and the
    ratio ``||v|| / ||c||`` of the tapered coefficients at a node."""
    n, ex = request.param, EXAMPLES[request.param]
    p = preset("ft", n)
    lat = build_lattice(ex["M"])
    grid = sampling_grid(ex["halfwidth"], ex["per_unit"], n=n)
    phi = sample_generator("gaussian", grid, sigma=0.5)
    a = SeqFn.from_arrays(n, *ex["taps"])
    levels = [sampled_generator(g) for g in filtered_levels(p, a, phi, lat.m, "cc")]
    field = build_B_window(p, lat, [0] * n, [ex["N"] - 1] * n, levels)

    def ratio(u, xi, R):
        r = np.arange(-R, R + 1)
        rr = np.stack(np.meshgrid(*[r] * n, indexing="ij"), axis=-1).reshape(-1, n)
        taper = np.prod(1 - np.abs(rr) / (R + 1), axis=1)
        wave = np.exp(2j * np.pi * (rr @ xi)) * taper
        keys = np.concatenate([rr @ lat.M + np.array(eta) for eta in lat.eta])    # M^T r + eta_l
        c = SeqFn.from_arrays(n, keys, np.concatenate([u_l * wave for u_l in u]))
        v = measure_from_samples(p, lat, c, levels).levels
        return np.sqrt(sum(s.l2norm() ** 2 for s in v)) / c.l2norm()

    return ex, field, ratio


def _singular_vectors(field, q):
    """Singular values of the field at node ``q``, largest first, and the
    right singular vectors as rows."""
    _, s, vh = np.linalg.svd(field.entries[q])
    return s, vh.conj()


def test_at_a_singular_node_the_ratio_falls_like_one_over_r(example):
    ex, field, ratio = example
    q = np.ravel_multi_index(ex["singular"], (ex["N"],) * len(ex["singular"]))
    s, v = _singular_vectors(field, q)
    assert s[-1] < 1e-13 * s[0]
    xi = field.wpoints[q]
    radii = ex["radii"]
    falling = [ratio(v[-1], xi, R) for R in radii]
    for (r0, f0), (r1, f1) in zip(zip(radii, falling), zip(radii[1:], falling[1:])):
        # 1/R would divide the ratio by r1 / r0 exactly
        assert 0.85 * r1 / r0 < f0 / f1 <= r1 / r0, falling
    assert falling[-1] < 3.0 / radii[-1]
    # the same taper at -xi* sees the field where it is not singular
    opposite = [ratio(v[-1], -xi, R) for R in (radii[0], radii[-1])]
    assert min(opposite) > 0.5 and opposite[-1] > 0.95 * opposite[0], opposite


def test_at_a_pass_node_the_ratio_is_the_singular_value(example):
    ex, field, ratio = example
    for q in ex["pass_nodes"]:
        s, v = _singular_vectors(field, q)
        for i in (-1, 0):
            got = ratio(v[i], field.wpoints[q], ex["pass_radius"])
            assert got == pytest.approx(s[i], rel=0.01), (q, i)
