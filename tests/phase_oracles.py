"""Output-chunked phase sums as they were before the budgeted kernels.

These are the loops that ``saftlab.saft`` (`kernel_quadrature`, `dtsaft`,
both sides of `poisson_check`) and ``saftlab.dynsamp`` (`_filter_symbol`,
`_quad_spectrum`, now the masked path of `sis.spectrum_at`) ran: one
exponential per (output, sample) pair, outputs taken `_QUAD_CHUNK` at a
time.  They are kept verbatim as test oracles, apart from two renames
(`filter_symbol`, `quad_spectrum`) and the imports `_quad_spectrum` made
inside its body; the two source-factor helpers they called
(`_chirped_input`, `_seq_arrays`) are copied here as they were, since
``saftlab.saft`` no longer has them.  ``test_phase_kernels.py`` checks the
budgeted direct kernel and the separable grid kernel against them.
`filter_symbol`'s comb branch is also the complex mat-vec ``np.exp(...) @ v``
that ``saftlab.dynsamp.filter_symbol`` ran on combs before it took the
direct kernel; being BLAS, it rounds a point by its batch.

`grid_phase_sum` is the separable grid kernel as it was before it formed
its axis tables and first-axis product once per distinct output
coordinate of a chunk: one table row and one product row per output.

`_phase_rows` and `_phase_sum` are the budgeted direct kernel as it was
before it formed per-axis tables over the sources' distinct coordinates:
one reduced phase, cosine and sine per (output, source) pair, in chunks
of ``PHASE_BUDGET // _WORKERS // M`` rows.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from saftlab.grid import GridFn, SeqFn, dft
from saftlab.params import SaftParams, chirp, modulation, require_valid
from saftlab.saft import (
    DEFAULT_LATTICE_CUTOFF,
    PHASE_BUDGET,
    _WORKERS,
    PoissonReport,
    _product,
    integer_samples,
)
from saftlab.sis import resolved_band_mask

#: output points per chunk in the direct-kernel path (bounds peak memory)
_QUAD_CHUNK = 4096


def _chirped_input(p: SaftParams, f: GridFn) -> np.ndarray:
    """f(t) * exp(i pi t.B^{-1}A t) * exp(2 i pi (B^{-1}P).t) on f's grid."""
    pts = f.points()
    lin = pts @ p.b_inv_p
    return f.values * chirp(p, pts) * np.exp(2j * np.pi * lin)


def _seq_arrays(p: SaftParams, s: SeqFn) -> tuple[np.ndarray, np.ndarray]:
    """Support points and source-side factors s(k) lambda(k) e^{2ipi(B^{-1}P).k}."""
    k, z = s.as_arrays()
    kf = k.astype(float)
    coeff = z * chirp(p, kf) * np.exp(2j * np.pi * (kf @ p.b_inv_p))
    return kf, coeff


def kernel_quadrature(
    p: SaftParams,
    in_points: np.ndarray,
    in_values: np.ndarray,
    weight: float,
    out_points: np.ndarray,
) -> np.ndarray:
    """Direct evaluation of the defining integral as a weighted kernel sum.

    ``in_points``: (M, n) sample locations with quadrature weight ``weight``
    each; ``out_points``: (..., n) arbitrary physical frequencies.  Chunked
    over outputs so memory stays bounded.  This is the slow-oracle backend.
    """
    t = np.asarray(in_points, dtype=float).reshape(-1, p.n)
    fv = np.asarray(in_values).reshape(-1)
    w = np.asarray(out_points, dtype=float)
    out_shape = w.shape[:-1]
    wf = w.reshape(-1, p.n)
    # source-side factor: f(t) lambda(t) e^{2 i pi (B^{-1}P).t} * weight
    src = fv * chirp(p, t) * np.exp(2j * np.pi * (t @ p.b_inv_p)) * weight
    nu = wf @ p.b_inv.T                      # B^{-1} w for every output
    acc = np.empty(wf.shape[0], dtype=complex)
    for lo in range(0, wf.shape[0], _QUAD_CHUNK):
        hi = min(lo + _QUAD_CHUNK, wf.shape[0])
        phase = np.exp(-2j * np.pi * (nu[lo:hi] @ t.T))
        acc[lo:hi] = phase @ src
    acc *= modulation(p, wf) / sqrt(p.abs_det_b)
    return acc.reshape(out_shape)


def dtsaft(params: SaftParams, s: SeqFn, wgrid) -> GridFn | np.ndarray:
    """Discrete-time transform: exact finite sum over the support of ``s``.

    ``wgrid`` is either a `GridFn` whose points are the physical evaluation
    frequencies (result: grid of the same geometry) or a plain array of
    points with trailing dimension n (result: array of values).  The
    modulus of the result is periodic with periodicity matrix ``B``.
    """
    require_valid(params)
    p = params
    as_grid = isinstance(wgrid, GridFn)
    pts = wgrid.points() if as_grid else np.asarray(wgrid, dtype=float)
    if pts.shape[-1] != p.n:
        raise ValueError(f"evaluation points must have trailing dimension {p.n}")
    if s.n != p.n:
        raise ValueError(f"sequence dimension {s.n} != params dimension {p.n}")
    out_shape = pts.shape[:-1]
    wf = pts.reshape(-1, p.n)
    if not s.entries:
        vals = np.zeros(wf.shape[0], dtype=complex)
    else:
        kf, coeff = _seq_arrays(p, s)
        nu = wf @ p.b_inv.T
        vals = np.empty(wf.shape[0], dtype=complex)
        for lo in range(0, wf.shape[0], _QUAD_CHUNK):
            hi = min(lo + _QUAD_CHUNK, wf.shape[0])
            vals[lo:hi] = np.exp(-2j * np.pi * (nu[lo:hi] @ kf.T)) @ coeff
    vals *= modulation(p, wf) / sqrt(p.abs_det_b)
    vals = vals.reshape(out_shape)
    return wgrid.with_values(vals) if as_grid else vals


def poisson_check(
    params: SaftParams,
    g: GridFn,
    wgrid,
    cutoff: int = DEFAULT_LATTICE_CUTOFF,
) -> PoissonReport:
    """Residual of the summation identity linking integer samples of ``g``
    to the lattice of modulated transform values:

        conj(eta)(w) (S g|_Z)(w)  =  sum_n conj(eta)(w + B n) (S g)(w + B n)

    Both sides are computed independently: the left as the exact finite sum
    over integer samples, the right by direct quadrature of the transform at
    the shifted points.  The image sum is truncated at ``||n - n_0||_inf <=
    cutoff``, where ``n_0`` (per point) is the image nearest the peak of the
    spectrum of the chirped, offset input: a linear offset phase moves that
    peak off zero, and a window centred on ``n = 0`` would cut off images
    that carry most of the mass.
    A decay flag is set when the input's boundary values are not negligible
    (the identity then cannot be expected to hold numerically).
    """
    require_valid(params)
    p = params
    as_grid = isinstance(wgrid, GridFn)
    pts = wgrid.points() if as_grid else np.asarray(wgrid, dtype=float)
    wf = pts.reshape(-1, p.n)

    # decay check: max |g| on the boundary shell vs global max
    mags = np.abs(g.values)
    peak = float(mags.max()) if mags.size else 0.0
    boundary = 0.0
    for i in range(g.n):
        sl = [slice(None)] * g.n
        for edge in (0, -1):
            sl[i] = edge
            boundary = max(boundary, float(np.max(mags[tuple(sl)])))
    decayed = peak == 0.0 or boundary <= 1e-12 * peak

    # LHS: conj(eta)(w) * dtsaft of the integer samples
    kf, gk = integer_samples(g)
    coeff = gk * chirp(p, kf) * np.exp(2j * np.pi * (kf @ p.b_inv_p))
    nu = wf @ p.b_inv.T
    lhs = np.empty(wf.shape[0], dtype=complex)
    for lo in range(0, wf.shape[0], _QUAD_CHUNK):
        hi = min(lo + _QUAD_CHUNK, wf.shape[0])
        lhs[lo:hi] = np.exp(-2j * np.pi * (nu[lo:hi] @ kf.T)) @ coeff
    lhs /= sqrt(p.abs_det_b)

    # RHS: image sum of conj(eta)(w + Bn) (S g)(w + Bn); the two factors
    # reduce to the plain FT of the chirped input at B^{-1}w + n.
    t = g.points().reshape(-1, p.n)
    chirped = g.with_values(_chirped_input(p, g))
    src = chirped.values.reshape(-1) * g.cell_volume
    spec = dft(chirped)
    nu_peak = spec.points()[np.unravel_index(np.argmax(np.abs(spec.values)), spec.shape)]
    centre = nu + np.rint(nu_peak - nu)     # the image B^{-1}w + n_0 nearest the peak
    rhs = np.zeros(wf.shape[0], dtype=complex)
    rng = range(-cutoff, cutoff + 1)
    shifts = np.stack(
        np.meshgrid(*([list(rng)] * p.n), indexing="ij"), axis=-1
    ).reshape(-1, p.n)
    for n_vec in shifts:
        freq = centre + n_vec        # B^{-1} w + n
        for lo in range(0, wf.shape[0], _QUAD_CHUNK):
            hi = min(lo + _QUAD_CHUNK, wf.shape[0])
            rhs[lo:hi] += np.exp(-2j * np.pi * (freq[lo:hi] @ t.T)) @ src
    rhs /= sqrt(p.abs_det_b)

    residual = (lhs - rhs).reshape(pts.shape[:-1])
    return PoissonReport(
        residual=residual,
        sup=float(np.max(np.abs(residual))) if residual.size else 0.0,
        decayed=decayed,
        lhs=lhs.reshape(pts.shape[:-1]),
        rhs=rhs.reshape(pts.shape[:-1]),
    )


def filter_symbol(p: SaftParams, a, pts_xi: np.ndarray) -> np.ndarray:
    """Classical frequency symbol of the filter at reduced frequencies."""
    if isinstance(a, SeqFn):
        if not a.entries:
            return np.zeros(pts_xi.shape[:-1], dtype=complex)
        k, v = a.as_arrays()
        return np.exp(-2j * np.pi * (pts_xi @ k.astype(float).T)) @ v
    t = a.points().reshape(-1, p.n)
    src = a.values.reshape(-1) * a.cell_volume
    return (np.exp(-2j * np.pi * (pts_xi.reshape(-1, p.n) @ t.T)) @ src).reshape(
        pts_xi.shape[:-1]
    )


def quad_spectrum(model, g: GridFn, pts: np.ndarray) -> np.ndarray:
    """Band-limited direct quadrature for a filtered generator grid.

    The filtered grid shares the generator's spacing, hence the same
    resolved band; outside it the transform is treated as zero (the
    filter's absolute-sum only scales the generator's decay bound).
    """
    p = model.params
    mask = resolved_band_mask(model, pts)
    out = np.zeros(pts.shape[:-1], dtype=complex)
    if np.any(mask):
        out[mask] = kernel_quadrature(
            p, g.points().reshape(-1, p.n), g.values.reshape(-1),
            g.cell_volume, pts[mask],
        )
    return out


def grid_phase_sum(nu, axes, values) -> np.ndarray:
    """``sum_a values[a] exp(-2 i pi sum_i nu_i axes[i][a_i])`` for each row
    of ``nu`` (No, n), over the grid spanned by the 1-D coordinates ``axes``.

    The phase factorizes: per chunk of outputs, one table ``exp(-2 i pi nu_i
    t_i)`` per axis, a matrix product over the first axis and a batched row
    product over each further one; No * sum N_i exponentials, not No * prod
    N_i, for the same terms in another order.  Chunks hold about
    `PHASE_BUDGET` elements of tables and partial sums.
    """
    nu = np.asarray(nu, dtype=float).reshape(-1, len(axes))
    shape = tuple(len(t) for t in axes)
    vals = np.asarray(values, dtype=complex).reshape(shape[0], -1)
    per_out = sum(shape) + 2 * vals.shape[1]
    step = max(1, PHASE_BUDGET // per_out)
    out = np.empty(nu.shape[0], dtype=complex)
    for lo in range(0, nu.shape[0], step):
        v = nu[lo:lo + step]
        acc = np.exp(-2j * np.pi * (v[:, :1] * axes[0])) @ vals    # (c, N_2 ... N_n)
        for i in range(1, len(axes)):
            table = np.exp(-2j * np.pi * (v[:, i:i + 1] * axes[i]))
            acc = np.matmul(table[:, None, :], acc.reshape(len(v), shape[i], -1))[:, 0]
        out[lo:lo + step] = acc[:, 0]
    return out


def _phase_rows(v: np.ndarray, k: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """One chunk of `_phase_sum` (the direct-kernel contract in the module docstring)."""
    arg = v[:, :1] * k[:, 0]
    for i in range(1, k.shape[1]):
        arg += v[:, i:i + 1] * k[:, i]
    arg -= np.rint(arg)
    arg *= -2 * np.pi
    terms = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=terms.real)
    np.sin(arg, out=terms.imag)
    if len(coeff) == 1:
        # one term per row: numpy would run the product below down the rows
        return _product(terms[:, 0], coeff[0])
    terms *= coeff
    return terms.sum(axis=1)


def _phase_sum(nu: np.ndarray, k: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``sum_m coeff[m] exp(-2 i pi nu.k_m)`` for each row of ``nu`` (No, n):
    the direct kernel, whose contract is in the module docstring."""
    rows, m = nu.shape[0], max(1, k.shape[0])
    out = np.empty(rows, dtype=complex)
    step = max(1, PHASE_BUDGET // _WORKERS // m)
    # a row of more than PHASE_BUDGET // _WORKERS terms is a chunk alone:
    # then fewer blocks run at once, as many rows as fit one budget
    blocks = min(_WORKERS, max(1, PHASE_BUDGET // (step * m)), -(-rows // step))
    err = np.geterr()

    def run(lo: int, hi: int) -> None:
        with np.errstate(**err):
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                out[a:b] = _phase_rows(nu[a:b], k, coeff)

    if blocks <= 1:
        run(0, rows)
        return out
    # imported here: concurrent.futures (with logging) adds about 7 ms to
    # every `import saftlab`, and most processes never split a call
    from concurrent.futures import ThreadPoolExecutor

    edges = [rows * i // blocks for i in range(blocks + 1)]
    with ThreadPoolExecutor(blocks - 1) as pool:
        futures = [pool.submit(run, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
        run(edges[0], edges[1])
        for f in futures:
            f.result()
    return out
