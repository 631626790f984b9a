"""Grid-route measurement and classical filtering as they were in
``saftlab.dynsamp`` before the recovery pipeline was reduced to one route.

`measure` synthesized the signal on a grid, filtered the grid and read the
channels off cell centers; `measure_from_samples` now computes the same
channels exactly from integer samples.  The ``classical_*`` helpers filtered
without the chirp twist; that is the twisted kernel under the plain Fourier
block.  They are kept verbatim as test oracles, apart from dropping the
leading underscore of the ``classical_*`` names, an unused local, and the
``filter_kind``, ``window_lo`` and ``window_hi`` fields that
`MeasurementSet` no longer has: ``test_dynsamp.py`` checks the library
against them.
"""

from __future__ import annotations

import itertools

import numpy as np

from saftlab.conv import integer_alignment, pair_sums
from saftlab.dynsamp import MeasurementSet, _window_mesh, filtered_levels
from saftlab.grid import GridFn, SeqFn, uniform_grid
from saftlab.lattice import SamplingLattice
from saftlab.params import chirp
from saftlab.sis import SisModel, synthesize

# ---------------------------------------------------------------------------
# classical (untwisted) filtering


def classical_conv_grids(f: GridFn, g: GridFn) -> GridFn:
    out_shape = tuple(a + b - 1 for a, b in zip(f.shape, g.shape))
    F = np.fft.fftn(f.values, s=out_shape, axes=tuple(range(f.n)))
    G = np.fft.fftn(g.values, s=out_shape, axes=tuple(range(f.n)))
    prod = np.fft.ifftn(F * G) * f.cell_volume
    origin = f.origin + g.origin + f.spacing / 2.0
    out = uniform_grid(origin, origin + out_shape * f.spacing, out_shape)
    return out.with_values(prod)


def classical_comb_apply(coeffs: SeqFn, f: GridFn) -> GridFn:
    q = integer_alignment(f)
    if not coeffs.entries:
        return f.with_values(np.zeros(f.shape, dtype=complex))
    keys = np.array(sorted(coeffs.entries), dtype=int)
    k_min = keys.min(axis=0)
    k_max = keys.max(axis=0)
    out_shape = tuple(np.array(f.shape) + (k_max - k_min) * q)
    origin = f.origin + k_min
    out = uniform_grid(origin, origin + np.array(out_shape) * f.spacing, out_shape)
    acc = np.zeros(out_shape, dtype=complex)
    for k in keys:
        shift = (k - k_min) * q
        sl = tuple(slice(o, o + n) for o, n in zip(shift, f.shape))
        acc[sl] += coeffs.entries[tuple(k)] * f.values
    return out.with_values(acc)


def classical_comb_compose(a: SeqFn, b: SeqFn) -> SeqFn:
    ak, av = a.as_arrays()
    bk, bv = b.as_arrays()
    return SeqFn.from_arrays(a.n, *pair_sums(ak, av, bk, (bv,)))


# ---------------------------------------------------------------------------
# grid-route measurement


def _grid_value_at_integers(g: GridFn, pts: np.ndarray, tol: float = 1e-9):
    """Values of ``g`` at the given physical points, which must be cell
    centers; returns (values, in_bounds_mask)."""
    idx = np.empty(pts.shape, dtype=int)
    ok = np.ones(pts.shape[0], dtype=bool)
    for i in range(g.n):
        first = g.origin[i] + g.spacing[i] / 2.0
        fi = (pts[:, i] - first) / g.spacing[i]
        ri = np.round(fi).astype(int)
        on_center = np.abs(fi - ri) <= tol * max(1.0, float(np.max(np.abs(fi))) if fi.size else 1.0)
        if not np.all(on_center):
            raise ValueError(
                "requested points are not cell centers on axis %d; sample on "
                "an integer-aligned grid" % i
            )
        ok &= (ri >= 0) & (ri < g.shape[i])
        idx[:, i] = np.clip(ri, 0, g.shape[i] - 1)
    vals = g.values[tuple(idx.T)]
    vals = np.where(ok, vals, 0.0)
    return vals, ok


def _window_inside(lat: SamplingLattice, grids: list[GridFn]) -> tuple[np.ndarray, np.ndarray]:
    """Largest simple index box K with M^T k a cell center inside every grid."""
    mt = lat.M.T.astype(float)
    lo = None
    hi = None
    for g in grids:
        t_lo = g.origin + g.spacing / 2.0
        t_hi = g.origin + (np.array(g.shape) - 0.5) * g.spacing
        inv = np.linalg.inv(mt)
        corners = np.array(list(itertools.product(*zip(t_lo, t_hi))))
        kc = corners @ inv.T
        g_lo = np.ceil(kc.min(axis=0) - 1e-9).astype(int)
        g_hi = np.floor(kc.max(axis=0) + 1e-9).astype(int)
        for _ in range(1000):
            box = np.array(list(itertools.product(*zip(g_lo, g_hi))), dtype=float)
            mapped = box @ mt.T
            if np.all(mapped >= t_lo - 1e-9) and np.all(mapped <= t_hi + 1e-9):
                break
            g_lo = g_lo + 1
            g_hi = g_hi - 1
            if np.any(g_hi < g_lo):
                raise ValueError("no index window fits inside the sampled grids")
        lo = g_lo if lo is None else np.maximum(lo, g_lo)
        hi = g_hi if hi is None else np.minimum(hi, g_hi)
    if np.any(hi < lo):
        raise ValueError("sampled grids have no common index window")
    return lo, hi


def measure(
    model: SisModel,
    s: SeqFn,
    a,
    lat: SamplingLattice,
    J: int | None = None,
    filter_kind: str = "cc",
) -> MeasurementSet:
    """Synthesize ``f = s *_sd phi`` and record the J filtered channels on
    the largest index window the grids support.

    ``a`` is a grid function or a comb coefficient sequence; the j = 0
    channel is the unfiltered signal.  Channel values carry the chirp
    correction ``lam(M^T k) conj(lam)(k)``.
    """
    p = model.params
    J = lat.m if J is None else int(J)
    if J < 1:
        raise ValueError("need at least one channel")
    f = synthesize(model, s)
    levels_g = filtered_levels(p, a, f, J, filter_kind)
    lo, hi = _window_inside(lat, levels_g)
    kmesh = _window_mesh(lo, hi)
    pts = kmesh.astype(float) @ lat.M.astype(float)      # rows are M^T k
    fix = chirp(p, pts) * np.conj(chirp(p, kmesh.astype(float)))
    seqs = []
    for g in levels_g:
        vals, _ = _grid_value_at_integers(g, pts)
        seqs.append(SeqFn.from_arrays(lat.n, kmesh, vals * fix))
    return MeasurementSet(params=p, lat=lat, levels=tuple(seqs))
