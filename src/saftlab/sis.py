"""Shift-invariant signal spaces spanned by chirp-twisted integer translates
of a generator.

A model pairs a parameter block with a generator ``phi``; signals are
synthesized as ``s *_sd phi`` (see `conv.conv_sd`).  Stability of that
representation is governed by the generator's Grammian

    G(w) = sum_k |(S phi)(w + B k)|^2,

whose essential bounds are the Riesz constants of the translate family.

The generator's transform can be evaluated two ways: by quadrature over the
stored grid (default; a separable grid phase sum, `saft.grid_quadrature`),
or through an exact ``spectrum_fn`` callback when a closed form is known.
Grid quadrature is spectrally accurate for fast-decay generators but tops
out near 1e-3 for generators with slow polynomial tails (the compactly
band-limited windows used in the worked example decay like |t|^{-4}); the
callback path exists so Grammian-level certificates are not limited by
window truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conv import conv_sd
from .grid import GridFn, SeqFn, mesh
from .params import SaftParams, _physical_points, _reduced_points, require_valid
from .saft import (
    DEFAULT_LATTICE_CUTOFF, _boundary_max, dtsaft, grid_quadrature, lattice_shifts,
    saft_forward, saft_plan,
)

__all__ = [
    "SisModel",
    "build_sis",
    "spectrum_at",
    "synthesize",
    "grammian",
    "riesz_bounds",
    "RieszReport",
    "frame_check",
    "resolved_band_mask",
]

#: relative decay budget for the generator spectrum at the working window edge
DECAY_TOL = 1e-10

#: `riesz_bounds` passes only with the Grammian's minimum above this fraction of its maximum
RIESZ_RTOL = 1e-8

#: `frame_check`'s fewest midpoint-rule points per axis of the frequency cell
FRAME_MESH = 32


@dataclass(frozen=True)
class SisModel:
    """Generator + parameter block with a cached working spectrum.

    ``spectrum`` holds the generator transform on the reduced-frequency grid
    reciprocal to the generator's grid (physical points ``B nu``);
    ``spectrum_fn``, when given, is an exact evaluator ``w_points -> values``
    used instead of quadrature everywhere.
    """

    params: SaftParams
    phi: GridFn
    cutoff: int
    spectrum: GridFn
    spectrum_fn: Callable | None


def build_sis(params: SaftParams, phi: GridFn, spectrum_fn: Callable | None = None) -> SisModel:
    """Construct the model and run the spectrum decay check.

    The model's Grammian sums run over the shifts up to
    `saft.DEFAULT_LATTICE_CUTOFF` per axis.  The generator's transform must
    be negligible (< `DECAY_TOL` relative) at the edge of the working
    frequency window, otherwise those truncated sums are meaningless; a
    generator that fails the check is refused with a ValueError.
    """
    require_valid(params)
    if params.n != phi.n:
        raise ValueError("params and generator dimensions differ")
    plan = saft_plan(params, phi, backend="fast")
    if spectrum_fn is not None:
        cached = plan.out_template.with_values(
            np.asarray(spectrum_fn(plan.w_points()), dtype=complex)
        )
    else:
        cached = saft_forward(plan, phi)
    peak = float(np.max(np.abs(cached.values))) if cached.values.size else 0.0
    if not (peak == 0.0 or _boundary_max(cached.values) <= DECAY_TOL * peak):
        raise ValueError(
            "generator spectrum does not decay below "
            f"{DECAY_TOL:g} (relative) at the working window edge; enlarge "
            "the generator grid"
        )
    return SisModel(
        params=params,
        phi=phi,
        cutoff=DEFAULT_LATTICE_CUTOFF,
        spectrum=cached,
        spectrum_fn=spectrum_fn,
    )


def resolved_band_mask(model: SisModel, w_points: np.ndarray) -> np.ndarray:
    """True where the generator grid can resolve the frequency.

    Quadrature over a step-``h`` grid aliases with period ``1/h`` in reduced
    frequency, so values requested outside the cached band would be garbage.
    The construction-time decay check bounds the true transform there below
    ``DECAY_TOL`` (relative), so callers treat it as zero instead.  ``nu``
    has the bits that `saft.grid_quadrature` sums at.
    """
    tmpl = model.spectrum
    nu = _reduced_points(model.params, w_points)
    lo = tmpl.origin - 0.5 * tmpl.spacing
    hi = tmpl.origin + (np.asarray(tmpl.shape) - 0.5) * tmpl.spacing
    return np.all((nu >= lo) & (nu <= hi), axis=-1)


def spectrum_at(model: SisModel, w_points) -> np.ndarray:
    """Generator transform at arbitrary physical frequencies.

    Uses the exact callback when present, else the Riemann sum of the
    defining integral over the generator grid, summed axis by axis
    (`saft.grid_quadrature`; no interpolation).  Quadrature is restricted
    to the resolved band; outside it the value is reported as zero, which
    the decay check keeps below ``DECAY_TOL``.
    """
    pts = np.asarray(w_points, dtype=float)
    if model.spectrum_fn is not None:
        return np.asarray(model.spectrum_fn(pts), dtype=complex)
    mask = resolved_band_mask(model, pts)
    out = np.zeros(pts.shape[:-1], dtype=complex)
    if np.any(mask):
        out[mask] = grid_quadrature(model.params, model.phi, pts[mask])
    return out


def synthesize(model: SisModel, s: SeqFn) -> GridFn:
    """Signal with coefficient sequence ``s``: the twisted sum of translates."""
    return conv_sd(model.params, s, model.phi)


def _shift_values(model: SisModel, w) -> np.ndarray:
    """|S phi| at every cutoff-window lattice shift of each point ``w``
    (..., n), shape ``w.shape[:-1] + (num_shifts,)``."""
    p = model.params
    shifts = _physical_points(p, lattice_shifts(p.n, model.cutoff))
    return np.abs(spectrum_at(model, np.asarray(w, dtype=float)[..., None, :] + shifts))


def grammian(model: SisModel, w) -> float | np.ndarray:
    """Truncated Grammian sum of squared transform magnitudes.

    ``w`` may be a single n-vector (returns float) or an (..., n) array.
    """
    mags = _shift_values(model, w)
    out = np.sum(mags**2, axis=-1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RieszReport:
    eta1: float
    eta2: float
    argmin: np.ndarray
    argmax: np.ndarray
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"


def riesz_bounds(model: SisModel, wpts) -> RieszReport:
    """Extremes of the Grammian over points ``wpts`` (..., n) covering one
    fundamental cell.

    ``eta1 > RIESZ_RTOL * eta2`` is the pass condition; a vanishing lower
    bound means the translates fail to form a Riesz family.
    """
    flat = np.asarray(wpts, dtype=float).reshape(-1, model.params.n)
    return _riesz_report(flat, grammian(model, flat))


def _riesz_report(flat: np.ndarray, g: np.ndarray) -> RieszReport:
    """The `riesz_bounds` verdict from Grammian values ``g`` at the points ``flat``."""
    i_min = int(np.argmin(g))
    i_max = int(np.argmax(g))
    eta1 = float(g[i_min])
    eta2 = float(g[i_max])
    verdict = "pass" if eta1 > RIESZ_RTOL * max(eta2, 1e-300) else "fail (lower bound vanishes)"
    return RieszReport(eta1=eta1, eta2=eta2, argmin=flat[i_min], argmax=flat[i_max], verdict=verdict)


def frame_check(model: SisModel, s: SeqFn) -> dict:
    """Spot-check the frame inequality for one coefficient sequence.

    The synthesized signal's transform energy equals the cell integral of
    ``|S s|^2 G``; dividing by the sequence energy must land between the
    Riesz bounds.  The integrand is smooth and cell-periodic, so the
    midpoint rule on at least `FRAME_MESH` points per axis (more when the
    sequence's index spread is wider) converges spectrally.
    """
    p = model.params
    k, _ = s.as_arrays()
    npts = np.maximum(np.ptp(k, axis=0) + 1, FRAME_MESH) if len(k) else np.full(p.n, FRAME_MESH)
    w = _physical_points(p, mesh([(np.arange(m) + 0.5) / m for m in npts]))
    ss = np.abs(dtsaft(p, s, w)) ** 2
    g = grammian(model, w)
    energy = float(np.mean(ss * g) * p.abs_det_b)
    norm2 = float(s.l2norm() ** 2)
    ratio = energy / norm2 if norm2 else 0.0
    return {"energy": energy, "coeff_energy": norm2, "ratio": ratio}

