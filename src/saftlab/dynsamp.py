"""Recovery of shift-invariant-space coefficients from filtered lattice
samples ("dynamical sampling"): one signal observed through powers of a
filter, sampled on a sublattice.

Measurement model
-----------------
With generator ``phi``, coefficients ``s``, filter ``a`` and integer lattice
matrix ``M`` (``m = |det M|``), the j-th channel records

    v_j(k) = lam(M^T k) conj(lam)(k) * (a^j * f)(M^T k),        j = 0..J-1,

where ``lam`` is the input-side chirp, ``f = s *_sd phi``, and ``a^0`` means
"no filtering".  Splitting the integer lattice into the ``m`` cosets of
``M^T Z^n`` turns the channels into an exact m-by-m linear system per
frequency:

    eta(w) (S v_j)(w) = sum_l  B[j][l](w) * X_l(w),

with ``X_l`` the transform of the chirp-corrected coset coefficients

    sigma_l(r) = conj(lam)(r) lam(M^T r + eta_l) s(M^T r + eta_l)

and matrix entries ``B[j][l] = S[ chi_l^j ]``, where
``chi_l^j(r) = conj(lam)(r) * phi_l^j(r)`` carries the same chirp correction
applied to the lattice-sampled filtered generators ``phi_l^j``
(`generator_coset_samples`).  The correction factors are unimodular and
cancel identically when the input-side chirp vanishes (A = 0), so for plain
Fourier blocks the system reduces to classic multichannel sampling; keeping
them is what makes the per-frequency identity exact for every valid
parameter block rather than only chirp-free ones.

Two independent characterizations are implemented: the discrete one above
(`build_B` / `recover_discrete`) and a periodization-based one
(`build_D` / `recover_continuous`) that works from plain integer samples
``h_j = (a^j * f)|_Z^n`` with classical filtering.

Everything accepts filters as either grid functions or finitely supported
coefficient sequences (point-mass combs); the comb route is exact and is
what the worked-example reproduction uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .conv import comb_apply, conv_cc, conv_dd, pair_sums
from .grid import GridFn, SeqFn, uniform_grid
from .lattice import SamplingLattice
from .params import SaftParams, chirp, modulation, require_valid
from .saft import DEFAULT_LATTICE_CUTOFF, downsample, dtsaft, grid_phase_sum, lattice_shifts
from .sis import SisModel, spectrum_at, synthesize

__all__ = [
    "MeasurementSet",
    "MatrixField",
    "StabilityReport",
    "coset_coefficients",
    "measure",
    "measure_from_samples",
    "generator_coset_samples",
    "build_B",
    "build_B_from_samples",
    "build_D",
    "stability_report",
    "solve_grid",
    "recover_discrete",
    "continuous_solve_grid",
    "recover_continuous",
    "integer_sample_levels",
]

#: magnitudes below this are dropped when lattice-sampling filtered generators
SAMPLE_THRESHOLD = 1e-14


@dataclass(frozen=True)
class MeasurementSet:
    """Per-channel sample sequences over a common finite index window."""

    params: SaftParams
    lat: SamplingLattice
    levels: tuple[SeqFn, ...]
    window_lo: np.ndarray
    window_hi: np.ndarray
    filter_kind: str

    @property
    def J(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class MatrixField:
    """m-by-m complex matrix attached to each frequency point."""

    wpoints: np.ndarray          # (Np, n)
    entries: np.ndarray          # (Np, m, m)
    label: str

    @property
    def m(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True)
class StabilityReport:
    min_abs_det: float
    argmin_w: np.ndarray
    max_cond: float
    argmax_w: np.ndarray
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


# ---------------------------------------------------------------------------
# filtering helpers (twisted and classical composition)


def _classical_conv_grids(f: GridFn, g: GridFn) -> GridFn:
    out_shape = tuple(a + b - 1 for a, b in zip(f.shape, g.shape))
    F = np.fft.fftn(f.values, s=out_shape)
    G = np.fft.fftn(g.values, s=out_shape)
    prod = np.fft.ifftn(F * G) * f.cell_volume
    origin = f.origin + g.origin + f.spacing / 2.0
    out = uniform_grid(origin, origin + out_shape * f.spacing, out_shape)
    return out.with_values(prod)


def _classical_comb_apply(coeffs: SeqFn, f: GridFn) -> GridFn:
    from .conv import integer_alignment

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


def _classical_comb_compose(a: SeqFn, b: SeqFn) -> SeqFn:
    ak, av = a.entry_arrays()
    bk, bv = b.entry_arrays()
    return SeqFn.from_arrays(a.n, *pair_sums(ak, av, bk, (bv,)))


def _apply_filter(p: SaftParams, a, f, kind: str):
    if isinstance(f, SeqFn):
        if not isinstance(a, SeqFn):
            raise ValueError("sequence signals take point-mass (sequence) filters")
        return conv_dd(p, a, f) if kind == "cc" else _classical_comb_compose(a, f)
    if isinstance(a, SeqFn):
        return comb_apply(p, a, f) if kind == "cc" else _classical_comb_apply(a, f)
    return conv_cc(p, a, f) if kind == "cc" else _classical_conv_grids(a, f)


def filtered_levels(p: SaftParams, a, f, J: int, kind: str) -> list:
    """[f, a@f, a@a@f, ...] under the chosen composition ("cc" or "classical").

    ``f`` may be a grid function or an integer-sample sequence; point-mass
    filters act on sampled signals through the twisted sequence product,
    which agrees with sampling the filtered function at the integers."""
    if kind not in ("cc", "classical"):
        raise ValueError("filter_kind must be 'cc' or 'classical'")
    out = [f]
    for _ in range(J - 1):
        out.append(_apply_filter(p, a, out[-1], kind))
    return out


# ---------------------------------------------------------------------------
# lattice sampling of grid functions


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
    n = lat.n
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


def _window_mesh(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))


# ---------------------------------------------------------------------------
# chirp-corrected coset quantities


def coset_coefficients(params: SaftParams, lat: SamplingLattice, s: SeqFn) -> list[SeqFn]:
    """Chirp-corrected coset subsequences
    ``sigma_l(r) = conj(lam)(r) lam(M^T r + eta_l) s(M^T r + eta_l)``.

    Reduces to the plain coset split when the input chirp vanishes.
    """
    require_valid(params)
    keys, vals = s.entry_arrays()
    r, j = lat.split(keys)
    vals = vals * np.conj(chirp(params, r.astype(float))) * chirp(params, keys.astype(float))
    return [SeqFn.from_arrays(lat.n, r[j == l], vals[j == l]) for l in range(lat.m)]


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
    return MeasurementSet(
        params=p, lat=lat, levels=tuple(seqs),
        window_lo=lo, window_hi=hi, filter_kind=filter_kind,
    )


def measure_from_samples(
    params: SaftParams,
    lat: SamplingLattice,
    s: SeqFn,
    phi_levels: list[SeqFn],
    window: tuple | None = None,
) -> MeasurementSet:
    """Channels computed exactly from integer samples of the filtered
    generators (no grids): v_j is the twisted semidiscrete sum of ``s``
    against ``phi_levels[j]`` restricted to the transposed lattice.

    The support is finite (sum of the two supports), so with ``window=None``
    the channels are complete — nothing is truncated.
    """
    require_valid(params)
    p = params
    sqrt_d = np.sqrt(p.abs_det_b)
    sk, sv = s.entry_arrays()
    zc = sv * chirp(p, sk.astype(float))
    seqs, support = [], [np.zeros((0, lat.n), dtype=np.int64)]
    for h in phi_levels:
        hk, hv = h.entry_arrays()
        keys, sums = pair_sums(sk, zc, hk, (hv * chirp(p, hk.astype(float)),))
        r, j = lat.split(keys)                  # keep M^T r = support + m
        order = np.lexsort(r[j == 0].T[::-1])
        r, sums = r[j == 0][order], sums[j == 0][order]
        fix = np.conj(chirp(p, r.astype(float))) / sqrt_d
        seqs.append(SeqFn.from_arrays(lat.n, r, sums * fix))
        support.append(r)
    support = np.concatenate(support)
    if window is not None:
        lo_all, hi_all = (np.asarray(window[0], dtype=int), np.asarray(window[1], dtype=int))
    elif len(support):
        lo_all, hi_all = support.min(axis=0), support.max(axis=0)
    else:
        lo_all, hi_all = np.zeros(lat.n, dtype=int), np.zeros(lat.n, dtype=int)
    return MeasurementSet(
        params=p, lat=lat, levels=tuple(seqs),
        window_lo=lo_all, window_hi=hi_all, filter_kind="cc",
    )


def generator_coset_samples(
    params: SaftParams,
    lat: SamplingLattice,
    phi_j_samples: SeqFn,
    l: int,
    chirped: bool = True,
) -> SeqFn:
    """Coset subsequence of integer generator samples:
    ``phi_l^j(r) = phi_j(M^T r - eta_l) * lam(M^T r - eta_l)``.

    ``phi_j_samples`` holds integer samples of the filtered generator (keys
    are the integer points); only keys congruent to ``-eta_l`` contribute.
    With ``chirped=False`` the unimodular factor is omitted.
    """
    keys, vals = phi_j_samples.entry_arrays()
    r, j = lat.split(keys + np.array(lat.eta[l], dtype=np.int64))   # M^T r = k + eta_l
    keep = j == 0
    v = vals[keep]
    if chirped:
        v = v * chirp(params, keys[keep].astype(float))
    return SeqFn.from_arrays(lat.n, r[keep], v)


def sampled_generator(
    g: GridFn, threshold: float = SAMPLE_THRESHOLD
) -> SeqFn:
    """Integer samples of a grid function as a sequence, small values dropped."""
    from .saft import integer_samples

    pts, vals = integer_samples(g)
    keep = np.abs(vals) > threshold
    return SeqFn.from_arrays(g.n, pts[keep].astype(np.int64), vals[keep])


# ---------------------------------------------------------------------------
# matrix fields


def _as_points(wgrid, n: int) -> np.ndarray:
    pts = wgrid.points() if isinstance(wgrid, GridFn) else np.asarray(wgrid, dtype=float)
    if pts.shape[-1] != n:
        raise ValueError(f"points must have trailing dimension {n}")
    return pts.reshape(-1, n)


def build_B_from_samples(
    params: SaftParams,
    lat: SamplingLattice,
    wgrid,
    phi_levels: list[SeqFn],
) -> MatrixField:
    """Discrete-characterization field from integer samples of the filtered
    generators: entry (j, l) is the transform of the chirp-corrected coset
    subsequence of ``phi_levels[j]``."""
    require_valid(params)
    p = params
    wpts = _as_points(wgrid, p.n)
    m = lat.m
    J = len(phi_levels)
    entries = np.zeros((wpts.shape[0], J, m), dtype=complex)
    for j, samples in enumerate(phi_levels):
        for l in range(m):
            phi_lj = generator_coset_samples(p, lat, samples, l, chirped=True)
            if not phi_lj.entries:
                continue
            rk, rv = phi_lj.as_arrays()
            corrected = SeqFn.from_arrays(p.n, rk, rv * np.conj(chirp(p, rk.astype(float))))
            entries[:, j, l] = dtsaft(p, corrected, wpts)
    return MatrixField(wpoints=wpts, entries=entries, label="B")


def build_B(
    model: SisModel,
    a,
    lat: SamplingLattice,
    wgrid,
    filter_kind: str = "cc",
    threshold: float = SAMPLE_THRESHOLD,
    J: int | None = None,
) -> MatrixField:
    """Discrete-characterization field (grid route): filter the generator,
    sample it on the integer lattice, and assemble the coset system."""
    p = model.params
    J = lat.m if J is None else int(J)
    levels_g = filtered_levels(p, a, model.phi, J, filter_kind)
    phi_levels = [sampled_generator(g, threshold) for g in levels_g]
    return build_B_from_samples(p, lat, wgrid, phi_levels)


def _filter_symbol(p: SaftParams, a, pts_xi: np.ndarray) -> np.ndarray:
    """Classical frequency symbol of the filter at reduced frequencies."""
    if isinstance(a, SeqFn):
        if not a.entries:
            return np.zeros(pts_xi.shape[:-1], dtype=complex)
        k, v = a.as_arrays()
        return np.exp(-2j * np.pi * (pts_xi @ k.astype(float).T)) @ v
    axes = [a.axis_coords(i) for i in range(p.n)]
    return grid_phase_sum(pts_xi, axes, a.values * a.cell_volume).reshape(pts_xi.shape[:-1])


def build_D(
    model: SisModel,
    a,
    lat: SamplingLattice,
    wgrid,
    cutoff: int | None = None,
    J: int | None = None,
) -> MatrixField:
    """Periodization-characterization field: entry (j, v) is

        Phi_j(M^{-1}(w + gamma_v)),
        Phi_j(x) = sum_n conj(eta)^2(x + n) * (S phi_j)(x + n),

    with ``phi_j`` the j-fold *classical* filter power applied to the
    generator.  For chirp-free blocks the filtered transform factorizes into
    (filter symbol)^j times the generator transform, which is exact and
    cheap; otherwise the filtered generator grids are materialized.
    """
    p = model.params
    require_valid(p)
    m = lat.m
    J = m if J is None else int(J)
    K = model.cutoff if cutoff is None else int(cutoff)
    wpts = _as_points(wgrid, p.n)
    minv = lat.m_inverse()
    gammas = np.array(lat.gamma, dtype=float)
    # evaluation points x_v = M^{-1}(w + gamma_v): (Np, m, n)
    x = (wpts[:, None, :] + gammas[None, :, :]) @ minv.T
    pts = x[:, :, None, :] + lattice_shifts(p.n, K)      # (Np, m, S, n)
    eta_sq = np.conj(modulation(p, pts)) ** 2

    entries = np.zeros((wpts.shape[0], J, m), dtype=complex)
    if p.is_chirp_free(1e-14):
        base = spectrum_at(model, pts)                    # (Np, m, S)
        sym = _filter_symbol(p, a, (pts - p.P) @ p.b_inv.T)
        for j in range(J):
            entries[:, j, :] = np.sum(eta_sq * sym**j * base, axis=-1)
    else:
        phi_j = model.phi
        for j in range(J):
            if j > 0:
                phi_j = _apply_filter(p, a, phi_j, "classical")
            vals = spectrum_at(model, pts, None if j == 0 else phi_j)
            entries[:, j, :] = np.sum(eta_sq * vals, axis=-1)
    return MatrixField(wpoints=wpts, entries=entries, label="D")


def stability_report(
    field: MatrixField,
    det_rtol: float = 1e-8,
    cond_max: float = 1e8,
) -> StabilityReport:
    """Pointwise invertibility scan of a matrix field.

    Pass requires ``|det| > det_rtol * prod(row norms)`` (a scale-free
    Hadamard-style margin) and condition number below ``cond_max`` at every
    grid point.
    """
    ent = field.entries
    dets = np.abs(np.linalg.det(ent))
    row_norms = np.linalg.norm(ent, axis=2)
    hadamard = np.prod(row_norms, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.linalg.cond(ent)
    conds = np.where(np.isfinite(conds), conds, np.inf)
    margin = dets - det_rtol * hadamard
    i_det = int(np.argmin(margin))
    i_cond = int(np.argmax(conds))
    ok = margin[i_det] > 0 and conds[i_cond] < cond_max
    return StabilityReport(
        min_abs_det=float(dets[int(np.argmin(dets))]),
        argmin_w=field.wpoints[int(np.argmin(dets))],
        max_cond=float(conds[i_cond]),
        argmax_w=field.wpoints[i_cond],
        verdict="pass" if ok else "fail",
    )


# ---------------------------------------------------------------------------
# recovery


def solve_grid(
    params: SaftParams, window_lo, window_hi
) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Frequency points dual to an index window.

    For a window of extent N per axis the reduced frequencies are the
    natural DFT nodes q/N (row-major), mapped through B; sampling any
    sequence transform there makes the window inversion an exact inverse
    DFT.  Returns (points (Np, n), shape, window_lo).
    """
    lo = np.asarray(window_lo, dtype=int)
    hi = np.asarray(window_hi, dtype=int)
    shape = tuple(int(b - a + 1) for a, b in zip(lo, hi))
    axes = [np.arange(N) / N for N in shape]
    xi = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))
    return xi @ params.B.T, shape, lo


def _fold_to_box(keys: np.ndarray, weights: np.ndarray, shape: tuple) -> np.ndarray:
    """Accumulate weighted integer keys into an index box modulo its extents."""
    box = np.zeros(shape, dtype=complex)
    if keys.size:
        idx = np.ravel_multi_index(tuple((keys % np.array(shape)).T), shape)
        size = int(np.prod(shape))
        box = (
            np.bincount(idx, weights=weights.real, minlength=size)
            + 1j * np.bincount(idx, weights=weights.imag, minlength=size)
        ).reshape(shape)
    return box


def _folded_dt_values(p: SaftParams, s: SeqFn, shape: tuple) -> np.ndarray:
    """Sequence transform on the solve-grid nodes w = B(q/N), sans the
    output modulation factor (callers reapply it as their identity needs).

    On those nodes the frequency phase e^{-2 i pi k.(q/N)} depends on k only
    through k mod N per axis, so arbitrarily large supports fold into the
    window box exactly and one FFT evaluates every node.
    """
    k, v = s.as_arrays()
    kf = k.astype(float)
    wts = v * chirp(p, kf) * np.exp(2j * np.pi * (kf @ p.b_inv_p))
    box = _fold_to_box(k, wts, shape)
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
    sqrt_d = np.sqrt(p.abs_det_b)
    eta_flat = modulation(p, wpts)
    entries = np.zeros((wpts.shape[0], J, m), dtype=complex)
    for j, samples in enumerate(phi_levels):
        for l in range(m):
            phi_lj = generator_coset_samples(p, lat, samples, l, chirped=True)
            if not phi_lj.entries:
                continue
            rk, rv = phi_lj.as_arrays()
            wts = rv * np.exp(2j * np.pi * (rk.astype(float) @ p.b_inv_p))
            box = _fold_to_box(rk, wts, shape)
            entries[:, j, l] = eta_flat * (np.fft.fftn(box) / sqrt_d).reshape(-1)
    return MatrixField(wpoints=wpts, entries=entries, label="B")


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


def _thresholded(n: int, keys: np.ndarray, vals: np.ndarray, rel: float) -> SeqFn:
    """The entries with ``|value| > rel * max |value|``, in array order."""
    mags = np.abs(vals)
    keep = mags > rel * mags.max(initial=0.0)
    return SeqFn.from_arrays(n, keys[keep], vals[keep])


def recover_discrete(
    ms: MeasurementSet,
    Bfield: MatrixField,
    r_window: tuple | None = None,
    threshold_rel: float = 1e-12,
) -> tuple[SeqFn, dict]:
    """Invert the per-frequency coset system and reassemble the coefficients.

    ``r_window`` bounds the coset-index support of the unknown coefficients
    (default: the measurement window).  ``Bfield`` must be evaluated on the
    dual `solve_grid` of that window — the per-coset inversion is then an
    exact inverse DFT after removing the unimodular factors.  Raises when
    the system is numerically singular at some frequency; ill-conditioned
    points are reported in the info dict.
    """
    p = ms.params
    lat = ms.lat
    lo, hi = (ms.window_lo, ms.window_hi) if r_window is None else (
        np.asarray(r_window[0], dtype=int), np.asarray(r_window[1], dtype=int))
    wpts, shape, lo = solve_grid(p, lo, hi)
    if Bfield.wpoints.shape != wpts.shape or not np.allclose(
        Bfield.wpoints, wpts, atol=1e-9
    ):
        raise ValueError(
            "matrix field was not evaluated on the solve grid of the recovery "
            "window; build it on dynsamp.solve_grid(params, lo, hi) points"
        )
    m = lat.m
    if ms.J != m:
        raise ValueError(f"need {m} channels for a square system, got {ms.J}")
    eta_w = modulation(p, wpts)
    # one eta from the channel transform itself, one from the identity
    rhs = np.stack(
        [
            eta_w**2 * _folded_dt_values(p, ms.levels[j], shape).reshape(-1)
            for j in range(m)
        ],
        axis=-1,
    )
    ent = Bfield.entries
    dets = np.abs(np.linalg.det(ent))
    row_norms = np.linalg.norm(ent, axis=2)
    hadamard = np.prod(row_norms, axis=1)
    bad = dets <= 1e-13 * np.maximum(hadamard, 1e-300)
    if np.any(bad):
        wbad = wpts[int(np.argmax(bad))]
        raise ValueError(f"coset system is singular at w = {wbad.tolist()}")
    info: dict = {"min_abs_det": float(dets.min()), "warnings": []}
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = np.linalg.cond(ent)
    info["max_cond"] = float(np.max(conds[np.isfinite(conds)], initial=1.0))
    if info["max_cond"] > 1e8:
        info["warnings"].append(
            f"ill-conditioned system (max cond {info['max_cond']:.2e}); "
            "recovered values may lose precision"
        )
    X = np.linalg.solve(ent, rhs[..., None])[..., 0]       # (Np, m)

    rmesh = _window_mesh(lo, lo + np.array(shape) - 1)
    rf = rmesh.astype(float)
    mtr = rf @ lat.M.astype(float)                          # M^T r
    eta_l_arr = np.array(lat.eta, dtype=float)
    sqrt_d = np.sqrt(p.abs_det_b)
    keys, vals = [], []
    for l in range(m):
        Z = (sqrt_d * np.conj(eta_w) * X[:, l]).reshape(shape)
        sig_c = _invert_window_dft(Z, lo).reshape(-1)
        kf = mtr + eta_l_arr[l]
        keys.append(np.rint(kf).astype(np.int64))
        vals.append(sig_c * np.exp(-2j * np.pi * (rf @ p.b_inv_p)) * np.conj(chirp(p, kf)))
    return _thresholded(p.n, np.concatenate(keys), np.concatenate(vals), threshold_rel), info


def continuous_solve_grid(
    params: SaftParams,
    lat: SamplingLattice,
    window_lo,
    window_hi,
) -> tuple[np.ndarray, tuple, np.ndarray, tuple]:
    """Dual frequency points for the periodization route.

    The coefficient window is padded so each axis extent is divisible by the
    (diagonal) lattice stride; the solve points are then w = M q / N over
    the reduced q-range, and the m channel values per point tile the full
    DFT grid of the window exactly once.  Returns (points, full shape,
    padded window_lo, reduced q shape).
    """
    M = lat.M
    diag = np.diag(M)
    if not np.array_equal(M, np.diag(diag)):
        raise ValueError("the periodization route requires a diagonal lattice matrix")
    lo = np.asarray(window_lo, dtype=int)
    hi = np.asarray(window_hi, dtype=int)
    shape = hi - lo + 1
    pad = (-shape) % diag
    shape = tuple(int(x) for x in (shape + pad))
    qshape = tuple(int(N // d) for N, d in zip(shape, diag))
    axes = [np.arange(Nq) * d / N for Nq, d, N in zip(qshape, diag, shape)]
    xi = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lat.n)
    return xi @ params.B.T, shape, lo, qshape


def _require_plain_fourier(p: SaftParams) -> None:
    plain = (
        p.is_chirp_free(1e-12)
        and float(np.max(np.abs(p.D))) <= 1e-12
        and np.allclose(p.B, np.eye(p.n), atol=1e-12)
        and float(np.max(np.abs(p.P))) <= 1e-12
        and float(np.max(np.abs(p.Q))) <= 1e-12
    )
    if not plain:
        raise ValueError(
            "the periodization recovery route is implemented for the plain "
            "Fourier block (A = D = 0, B = I, zero offsets); use the "
            "discrete route for general parameter blocks"
        )


def integer_sample_levels(
    p: SaftParams,
    a,
    f: GridFn,
    J: int,
    threshold: float = SAMPLE_THRESHOLD,
) -> list[SeqFn]:
    """Plain integer samples h_j = (a^j * f)|_Z^n with classical filtering."""
    return [
        sampled_generator(g, threshold)
        for g in filtered_levels(p, a, f, J, "classical")
    ]


def recover_continuous(
    params: SaftParams,
    lat: SamplingLattice,
    h_levels: list[SeqFn],
    Dfield: MatrixField,
    window: tuple,
    threshold_rel: float = 1e-12,
) -> tuple[SeqFn, dict]:
    """Coefficient recovery from plain integer samples via periodization.

    Solves ``m * conj(eta)(w) (S [keep M^T-samples of h_j])(w) = sum_v
    D[j][v] C_v(w)`` per frequency, reads the coefficient symbol off the
    ``C_v`` channels, and inverts it over the (padded) coefficient window.
    ``Dfield`` must be evaluated on `continuous_solve_grid` points.
    """
    p = params
    _require_plain_fourier(p)
    wpts, shape, lo, qshape = continuous_solve_grid(p, lat, window[0], window[1])
    if Dfield.wpoints.shape != wpts.shape or not np.allclose(
        Dfield.wpoints, wpts, atol=1e-9
    ):
        raise ValueError(
            "matrix field was not evaluated on the continuous solve grid; "
            "build it on dynsamp.continuous_solve_grid(...) points"
        )
    m = lat.m
    if len(h_levels) != m:
        raise ValueError(f"need {m} channels for a square system, got {len(h_levels)}")
    # the solve nodes are w = q*diag/N, i.e. reduced nodes q/qshape for the
    # downsampled channel sequences, so the folded evaluator applies; the
    # conj(eta) of the identity cancels the transform's own eta exactly
    rhs = np.stack(
        [
            m * _folded_dt_values(p, downsample(lat, h), qshape).reshape(-1)
            for h in h_levels
        ],
        axis=-1,
    )
    ent = Dfield.entries
    dets = np.abs(np.linalg.det(ent))
    row_norms = np.linalg.norm(ent, axis=2)
    bad = dets <= 1e-13 * np.maximum(np.prod(row_norms, axis=1), 1e-300)
    if np.any(bad):
        wbad = wpts[int(np.argmax(bad))]
        raise ValueError(f"periodization system is singular at w = {wbad.tolist()}")
    info: dict = {"min_abs_det": float(dets.min()), "warnings": []}
    C = np.linalg.solve(ent, rhs[..., None])[..., 0]       # (Np, m)

    # scatter the channel values onto the full DFT grid of the window
    diag = np.diag(lat.M)
    full = np.zeros(shape, dtype=complex)
    filled = np.zeros(shape, dtype=bool)
    q_idx = np.stack(
        np.meshgrid(*[np.arange(Nq) for Nq in qshape], indexing="ij"), axis=-1
    ).reshape(-1, lat.n)
    minv_gamma = np.array(lat.gamma, dtype=float) / diag   # M^{-1} gamma_v
    for v in range(m):
        # reduced node q/N plus the coset offset gamma_v/diag lands on the
        # full-grid node (q + N*gamma_v/diag)/N
        offs = np.round(np.array(shape) * minv_gamma[v]).astype(int)
        pidx = (q_idx + offs[None, :]) % np.array(shape)[None, :]
        full[tuple(pidx.T)] = C[:, v]
        filled[tuple(pidx.T)] = True
    if not np.all(filled):
        raise AssertionError("frequency tiling left holes; window padding bug")
    swin = _invert_window_dft(full, lo)
    keys = _window_mesh(lo, lo + np.array(shape) - 1)
    return _thresholded(p.n, keys, swin.reshape(-1), threshold_rel), info
