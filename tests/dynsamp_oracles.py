"""Code paths of ``saftlab.dynsamp`` as they were before being replaced,
kept as test oracles: ``test_dynsamp.py`` checks the library against them.

Grid-route measurement and classical filtering predate the reduction of the
recovery pipeline to one route.  `measure` synthesized the signal on a grid,
filtered the grid and read the channels off cell centers;
`measure_from_samples` now computes the same channels exactly from integer
samples.  The ``classical_*`` helpers filtered without the chirp twist; that
is the twisted kernel under the plain Fourier block.  They are kept
verbatim, apart from dropping the leading underscore of the ``classical_*``
names, an unused local, and the ``filter_kind``, ``window_lo`` and
``window_hi`` fields that `MeasurementSet` no longer has.

The per-coset loops predate the coset index as an array axis:
`generator_coset_samples` built one `SeqFn` per coset, `build_B_window` ran
one folded FFT per (level, coset), `recover_discrete` one inverse DFT per
coset, and `recover_continuous` scattered each coset's channel values into
the full DFT grid.  They are kept verbatim, with the library's private
helpers imported and `_folded_fft` and `_invert_window_dft` copied too, as
the library's now work over a batch axis.
"""

from __future__ import annotations

import itertools

import numpy as np

from saftlab.conv import integer_alignment, pair_sums
from saftlab.dynsamp import (MatrixField, MeasurementSet, _solve, _thresholded, _window_mesh,
                             continuous_solve_grid, filtered_levels, folded_dt_values, solve_grid)
from saftlab.grid import GridFn, SeqFn, mesh, uniform_grid
from saftlab.lattice import SamplingLattice
from saftlab.params import (SaftParams, _fixed_product, _offset_phase, chirp, modulation,
                            require_valid)
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


# ---------------------------------------------------------------------------
# per-coset loops


def generator_coset_samples(
    params: SaftParams,
    lat: SamplingLattice,
    phi_j_samples: SeqFn,
) -> list[SeqFn]:
    """Coset subsequences of integer generator samples, one per ``eta_l``:
    ``phi_l^j(r) = phi_j(M^T r - eta_l) * lam(M^T r - eta_l)``.

    ``phi_j_samples`` holds integer samples of the filtered generator (keys
    are the integer points); each key ``k`` lands in the one coset with
    ``k + eta_l = M^T r``, found by a single split of ``-k``.
    """
    keys, vals = phi_j_samples.as_arrays()
    r, j = lat.split(-keys)                     # -k = M^T r'' + eta_l, r = -r''
    vals = vals * chirp(params, keys.astype(float))
    return [SeqFn.from_arrays(lat.n, -r[j == l], vals[j == l]) for l in range(lat.m)]


def _folded_fft(p: SaftParams, keys: np.ndarray, weights: np.ndarray, shape: tuple) -> np.ndarray:
    """Weighted integer keys accumulated into an index box modulo its
    extents, then one FFT over the box, over ``sqrt|det B|``."""
    box = np.zeros(shape, dtype=complex)
    if keys.size:
        idx = np.ravel_multi_index(tuple((keys % np.array(shape)).T), shape)
        size = int(np.prod(shape))
        box = (
            np.bincount(idx, weights=weights.real, minlength=size)
            + 1j * np.bincount(idx, weights=weights.imag, minlength=size)
        ).reshape(shape)
    return np.fft.fftn(box) / np.sqrt(p.abs_det_b)


def build_B_window(
    params: SaftParams,
    lat: SamplingLattice,
    window_lo,
    window_hi,
    phi_levels: list[SeqFn],
) -> MatrixField:
    """Discrete-characterization field on a recovery window's solve grid.

    Matches `build_B_from_samples` evaluated on `solve_grid` points, but
    computes each entry by index folding plus one FFT, which stays cheap
    for very large generator-sample supports.  The coset chirp and the
    transform chirp cancel exactly, leaving only the offset phase.
    """
    require_valid(params)
    p = params
    wpts, shape, lo = solve_grid(p, window_lo, window_hi)
    m = lat.m
    J = len(phi_levels)
    eta_flat = modulation(p, wpts)
    entries = np.zeros((wpts.shape[0], J, m), dtype=complex)
    for j, samples in enumerate(phi_levels):
        for l, phi_lj in enumerate(generator_coset_samples(p, lat, samples)):
            rk, rv = phi_lj.as_arrays()
            wts = rv * np.exp(2j * np.pi * _offset_phase(p, rk))
            entries[:, j, l] = eta_flat * _folded_fft(p, rk, wts, shape).reshape(-1)
    return MatrixField(wpoints=wpts, entries=entries)


def _invert_window_dft(Z: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Values y(lo + idx) from samples of Y(xi_q) = sum_r y(r) e^{-2 i pi r.xi_q}."""
    shape = Z.shape
    W = Z.copy()
    for i, N in enumerate(shape):
        ph = np.exp(2j * np.pi * lo[i] * np.arange(N) / N)
        sl = [None] * len(shape)
        sl[i] = slice(None)
        W = W * ph[tuple(sl)]
    return np.fft.ifftn(W)


def recover_discrete(
    ms: MeasurementSet, Bfield: MatrixField, window: tuple
) -> SeqFn:
    """Invert the per-frequency coset system and reassemble the coefficients.

    ``window`` = ``(lo, hi)`` bounds the coset-index support of the unknown
    coefficients.  ``Bfield`` must be evaluated on the dual `solve_grid` of
    that window — the per-coset inversion is then an exact inverse DFT
    after removing the unimodular factors.  Raises when ``Bfield.stability``
    fails; its min |det| and max condition number are read there.
    """
    p = ms.params
    lat = ms.lat
    wpts, shape, lo = solve_grid(p, window[0], window[1])
    eta_w = modulation(p, wpts)
    # one eta from the channel transform itself, one from the identity
    X = _solve(ms, Bfield, wpts, "solve grid of the recovery window; build it on "
               "dynsamp.solve_grid(params, lo, hi) points", "coset",
               lambda v: eta_w**2 * folded_dt_values(p, v, shape).reshape(-1))

    rmesh = _window_mesh(lo, lo + np.array(shape) - 1)
    mtr = _fixed_product(rmesh, lat.M.T)                    # M^T r, exact in int64
    offset = np.exp(-2j * np.pi * _offset_phase(p, rmesh))
    sqrt_d = np.sqrt(p.abs_det_b)
    keys, vals = [], []
    for l in range(lat.m):
        Z = (sqrt_d * np.conj(eta_w) * X[:, l]).reshape(shape)
        sig_c = _invert_window_dft(Z, lo).reshape(-1)
        k = mtr + np.array(lat.eta[l], dtype=np.int64)
        keys.append(k)
        vals.append(sig_c * offset * np.conj(chirp(p, k.astype(float))))
    return _thresholded(p.n, np.concatenate(keys), np.concatenate(vals))


def recover_continuous(
    ms: MeasurementSet, Dfield: MatrixField, window: tuple
) -> SeqFn:
    """Coefficient recovery from the channels ``v_j(r) = h_j(M^T r)`` via
    periodization, where ``h_j = (a^j * f)|_Z^n`` are the plain integer
    samples (for the plain Fourier block, the channels `measure_from_samples`
    forms).

    Solves ``m * conj(eta)(w) (S v_j)(w) = sum_v D[j][v] C_v(w)`` per
    frequency, reads the coefficient symbol off the ``C_v`` channels, and
    inverts it over the (padded) coefficient window.  ``Dfield`` must be
    evaluated on `continuous_solve_grid` points and ``Dfield.stability``
    must pass, as `recover_discrete` requires of its field.
    """
    p = ms.params
    lat = ms.lat
    wpts, shape, lo, qshape = continuous_solve_grid(p, lat, window[0], window[1])
    m = lat.m
    # the solve nodes are w = q*diag/N, i.e. reduced nodes q/qshape for the
    # channel sequences on M^T Z^n, so the folded evaluator applies; the
    # conj(eta) of the identity cancels the transform's own eta exactly
    C = _solve(ms, Dfield, wpts, "continuous solve grid; build it on "
               "dynsamp.continuous_solve_grid(...) points", "periodization",
               lambda v: m * folded_dt_values(p, v, qshape).reshape(-1))

    # scatter the channel values onto the full DFT grid of the window
    full = np.zeros(shape, dtype=complex)
    filled = np.zeros(shape, dtype=bool)
    q_idx = mesh([np.arange(Nq) for Nq in qshape]).reshape(-1, lat.n)
    for v in range(m):
        # reduced node q/N plus the coset offset gamma_v/diag lands on the
        # full-grid node (q + N*gamma_v/diag)/N, and N/diag = qshape exactly
        offs = np.array(qshape) * np.array(lat.gamma[v])
        pidx = (q_idx + offs[None, :]) % np.array(shape)[None, :]
        full[tuple(pidx.T)] = C[:, v]
        filled[tuple(pidx.T)] = True
    if not np.all(filled):
        raise AssertionError("frequency tiling left holes; window padding bug")
    swin = _invert_window_dft(full, lo)
    keys = _window_mesh(lo, lo + np.array(shape) - 1)
    return _thresholded(p.n, keys, swin.reshape(-1))
