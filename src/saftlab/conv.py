"""Chirp-twisted convolutions.

All three flavors share one pattern: multiply each factor by the input-side
chirp, convolve classically, then strip the chirp from the result and divide
by ``sqrt(|det B|)``:

* `conv_cc`   — function * function (quadrature-weighted linear convolution),
* `conv_sd`   — sequence * function (exact sum of integer translates),
* `conv_dd`   — sequence * sequence (exact discrete sum).

Under the transform each flavor factorizes into the pointwise product of the
factor transforms times the conjugate output modulation; tests verify those
identities by computing both sides independently.

A finitely supported sequence acts on functions exactly like a chirped comb
of point masses: filtering by that comb *is* `conv_sd`, and composing two
comb filters multiplies their coefficient sequences under `conv_dd`.  The
sampling-recovery code uses combs in place of grid filters whenever a filter
is supported on the integer lattice.
"""

from __future__ import annotations

from math import prod, sqrt

import numpy as np

from .grid import COORD_TOL, GridFn, SeqFn, uniform_grid
from .params import SaftParams, chirp, modulation, require_valid
from .saft import dtsaft, grid_quadrature, saft_forward, saft_plan

__all__ = [
    "conv_cc",
    "conv_sd",
    "conv_dd",
    "pair_sums",
    "commute_check",
    "conv_power",
    "comb_power",
    "integer_alignment",
    "theorem_residual_cc",
    "theorem_residual_sd",
    "theorem_residual_dd",
]

#: support pairs `pair_sums` forms at once (about 130 bytes of temporaries each)
PAIR_BUDGET = 1 << 18


def integer_alignment(g: GridFn) -> np.ndarray:
    """Samples per unit length, verifying integer shifts map centers to centers.

    Returns the per-axis integer ``q = 1/spacing``; raises when the spacing
    does not divide 1.
    """
    q = np.round(1.0 / g.spacing).astype(int)
    if np.any(q < 1) or np.max(np.abs(q * g.spacing - 1.0)) > COORD_TOL:
        raise ValueError(
            f"grid spacing {g.spacing.tolist()} does not divide 1; integer "
            "translates would fall between cell centers"
        )
    return q


def _check_same_spacing(f: GridFn, g: GridFn) -> None:
    if f.n != g.n:
        raise ValueError("operands have different dimensions")
    if not np.allclose(f.spacing, g.spacing, rtol=1e-12, atol=0):
        raise ValueError(
            f"operand spacings differ: {f.spacing.tolist()} vs {g.spacing.tolist()}"
        )


def conv_cc(params: SaftParams, f: GridFn, g: GridFn) -> GridFn:
    """Function-function convolution on the common spacing.

    Linear (zero-padded) convolution of the chirped factors, scaled by the
    cell volume as the quadrature weight; the output grid is the Minkowski
    sum of the input grids (shape ``Nf + Ng - 1`` per axis).
    """
    require_valid(params)
    _check_same_spacing(f, g)
    p = params
    fv = f.values * chirp(p, f.points())
    gv = g.values * chirp(p, g.points())
    out_shape = tuple(a + b - 1 for a, b in zip(f.shape, g.shape))
    axes = tuple(range(f.n))
    F = np.fft.fftn(fv, s=out_shape, axes=axes)
    G = np.fft.fftn(gv, s=out_shape, axes=axes)
    prod = np.fft.ifftn(F * G, axes=axes)
    origin = f.origin + g.origin + f.spacing / 2.0
    out = uniform_grid(origin, origin + out_shape * f.spacing, out_shape)
    pts = out.points()
    vals = prod * f.cell_volume * np.conj(chirp(p, pts)) / sqrt(p.abs_det_b)
    return out.with_values(vals)


def conv_sd(params: SaftParams, s: SeqFn, phi: GridFn) -> GridFn:
    """Sequence-function convolution: chirp-weighted sum of integer translates.

    The output grid is ``phi``'s grid enlarged by the support hull of ``s``,
    so no translate is truncated — summing translates exactly is what makes
    the mixed associativity with `conv_cc` hold to rounding error.
    """
    require_valid(params)
    p = params
    if s.n != phi.n:
        raise ValueError("sequence and grid dimensions differ")
    q = integer_alignment(phi)
    if not len(s):
        return phi.with_values(np.zeros(phi.shape, dtype=complex))
    keys, vals = s.as_arrays()
    k_min = keys.min(axis=0)
    k_max = keys.max(axis=0)
    out_shape = tuple(np.array(phi.shape) + (k_max - k_min) * q)
    origin = phi.origin + k_min
    out = uniform_grid(origin, origin + np.array(out_shape) * phi.spacing, out_shape)
    chirped = phi.values * chirp(p, phi.points())
    acc = np.zeros(out_shape, dtype=complex)
    for k, z in zip(keys, vals.tolist()):       # Python complex, as chirp returns
        shift = (k - k_min) * q
        sl = tuple(slice(o, o + n) for o, n in zip(shift, phi.shape))
        acc[sl] += z * chirp(p, k.astype(float)) * chirped
    pts = out.points()
    vals = acc * np.conj(chirp(p, pts)) / sqrt(p.abs_det_b)
    return out.with_values(vals)


def pair_sums(s_keys, s_terms, c_keys, c_factors) -> tuple[np.ndarray, np.ndarray]:
    """Sums over all support pairs, grouped by key sum: the distinct keys
    (sorted) and the sums of ``s_terms[i] * c_factors[0][j] * ...`` over the
    pairs with ``s_keys[i] + c_keys[j] == key``.

    Each key's terms are added onto zero one at a time in outer-major order,
    as the double loop ``for i: for j: acc[key] += term`` does, also across
    the chunks of `PAIR_BUDGET` pairs.  Keys are linearized over the output's
    bounding box, which must fit an int64 index.
    """
    n = s_keys.shape[1]
    nc = len(c_keys)
    total = len(s_keys) * nc
    if total == 0:
        return np.zeros((0, n), dtype=np.int64), np.zeros(0, dtype=complex)
    lo_s, lo_c = s_keys.min(axis=0), c_keys.min(axis=0)
    ext = tuple(int(e) for e in s_keys.max(axis=0) - lo_s + c_keys.max(axis=0) - lo_c + 1)
    if prod(ext) >= 2**63:
        raise ValueError(f"support box {ext} of the pair sums exceeds an int64 index")
    s_lin = np.ravel_multi_index(tuple((s_keys - lo_s).T), ext)
    c_lin = np.ravel_multi_index(tuple((c_keys - lo_c).T), ext)
    lin = np.zeros(0, dtype=np.int64)
    sums = np.zeros(0, dtype=complex)
    for start in range(0, total, PAIR_BUDGET):
        i, j = np.divmod(np.arange(start, min(total, start + PAIR_BUDGET)), nc)
        term = s_terms[i]
        for f in c_factors:
            term = term * f[j]
        lin, inv = np.unique(np.concatenate([lin, s_lin[i] + c_lin[j]]), return_inverse=True)
        acc = np.zeros(len(lin), dtype=complex)
        acc[inv[: len(sums)]] = sums
        np.add.at(acc, inv[len(sums):], term)
        sums = acc
    keys = np.stack(np.unravel_index(lin, ext), axis=1) + lo_s + lo_c
    return keys, sums


def conv_dd(params: SaftParams, s: SeqFn, c: SeqFn) -> SeqFn:
    """Sequence-sequence convolution; exact finite sum over support pairs.

    ``out(l) = conj(lam)(l) / sqrt|det B| * sum_{k+k'=l} (s(k) lam(k) lam(k')) c(k')``
    with the input chirp ``lam`` evaluated once per distinct key.  Each sum
    runs in the key order of ``s`` (outer-major); pairs are formed at most
    `PAIR_BUDGET` at a time, so memory stays bounded.  Rounding: with real
    values on a chirp-free block the result is bit-for-bit the scalar double
    loop's; numpy's complex multiply may fuse a multiply-add, so complex
    products can differ from scalar ones by a few eps of the term sizes.
    Residues are kept: where a key's terms cancel exactly, such as the
    pairs (k, k') and (k', k) of antisymmetric factors, a complex result can
    keep an entry of about 1e-16 (``|value| <= 4 eps sum|terms|``); no
    threshold drops it, and entry counts (such as ``report.json``'s
    ``sizes``) include such entries.
    """
    require_valid(params)
    p = params
    if s.n != c.n:
        raise ValueError("sequence dimensions differ")
    sk, sv = s.as_arrays()
    ck, cv = c.as_arrays()
    a = sv * chirp(p, sk.astype(float))
    keys, sums = pair_sums(sk, a, ck, (chirp(p, ck.astype(float)), cv))
    scale = 1.0 / sqrt(p.abs_det_b)
    return SeqFn.from_arrays(s.n, keys, sums * np.conj(chirp(p, keys.astype(float))) * scale)


def commute_check(params: SaftParams, f: GridFn, s: SeqFn, g: GridFn) -> float:
    """Relative L2 gap between ``f * (s * g)`` and ``s * (f * g)``.

    Both associations land on the same output grid by construction, so the
    comparison is pointwise.
    """
    lhs = conv_cc(params, f, conv_sd(params, s, g))
    rhs = conv_sd(params, s, conv_cc(params, f, g))
    if not lhs.same_geometry(rhs):
        raise AssertionError("associations produced different grids")
    denom = np.linalg.norm(rhs.values.reshape(-1))
    if denom == 0:
        return float(np.linalg.norm(lhs.values.reshape(-1)))
    return float(np.linalg.norm((lhs.values - rhs.values).reshape(-1)) / denom)


def conv_power(params: SaftParams, a: GridFn, j: int) -> GridFn:
    """j-fold convolution power of ``a`` under `conv_cc` (j >= 1).

    The zeroth power is the identity *action* — a chirped point mass, not a
    grid function — so it is deliberately not representable here; callers
    that need "apply the filter zero times" should use the input unchanged.
    """
    j = int(j)
    if j < 1:
        raise ValueError(
            "power must be >= 1; the zeroth power is the identity action and "
            "has no grid representation"
        )
    out = a
    for _ in range(j - 1):
        out = conv_cc(params, out, a)
    return out


def comb_power(params: SaftParams, coeffs: SeqFn, j: int) -> SeqFn:
    """Coefficients of the j-fold comb filter (j >= 1): `conv_dd` powers."""
    j = int(j)
    if j < 1:
        raise ValueError("power must be >= 1")
    out = coeffs
    for _ in range(j - 1):
        out = conv_dd(params, out, coeffs)
    return out


# ---------------------------------------------------------------------------
# factorization residuals: each convolution's transform must equal
# conj(modulation) * (product of the factor transforms) -- the root-volume
# constants in the convolution and transform normalizations cancel exactly --
# with both sides computed along independent code paths


def theorem_residual_cc(params: SaftParams, f: GridFn, g: GridFn) -> float:
    """Relative L2 gap of the function-function factorization.

    The left side transforms the convolution with the fast backend on its
    own reciprocal frame; the right side evaluates both factor transforms
    there by grid quadrature (a separable Riemann sum, no FFT), so no code
    is shared between the sides.
    """
    p = params
    h = conv_cc(p, f, g)
    plan = saft_plan(p, h)
    lhs = saft_forward(plan, h).values.reshape(-1)
    wpts = plan.w_points().reshape(-1, p.n)
    rhs = (
        np.conj(modulation(p, wpts))
        * grid_quadrature(p, f, wpts)
        * grid_quadrature(p, g, wpts)
    )
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def theorem_residual_sd(params: SaftParams, s: SeqFn, phi: GridFn) -> float:
    """Relative L2 gap of the sequence-function factorization (the sequence
    enters through its discrete transform)."""
    p = params
    h = conv_sd(p, s, phi)
    plan = saft_plan(p, h)
    lhs = saft_forward(plan, h).values.reshape(-1)
    wpts = plan.w_points().reshape(-1, p.n)
    rhs = (
        np.conj(modulation(p, wpts))
        * dtsaft(p, s, wpts)
        * grid_quadrature(p, phi, wpts)
    )
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def theorem_residual_dd(
    params: SaftParams, s: SeqFn, t: SeqFn, wpts: np.ndarray
) -> float:
    """Relative sup gap of the sequence-sequence factorization at the given
    frequencies; every quantity is an exact finite sum, so this is a
    rounding-error check."""
    p = params
    pts = np.asarray(wpts, dtype=float).reshape(-1, p.n)
    lhs = dtsaft(p, conv_dd(p, s, t), pts)
    rhs = (
        np.conj(modulation(p, pts))
        * dtsaft(p, s, pts)
        * dtsaft(p, t, pts)
    )
    scale = float(np.max(np.abs(rhs)))
    if scale == 0.0:
        return float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)
