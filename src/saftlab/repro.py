"""Worked end-to-end recovery example with a smooth band-limited window.

The scenario: a two-dimensional generator whose frequency profile is the
tensor square root of a partition of unity (a compactly supported "Meyer
style" window), a two-term point-mass filter, the coefficient sequence
c(1,0)=1, c(0,1)=2, and four measurement channels sampled on 2Z^2.  Both
recovery routes run end to end, the per-frequency channel matrix is checked
against its Vandermonde-times-diagonal factorization, and deterministic CSV
surfaces plus a JSON report are emitted for external plotting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conv import conv_dd, conv_sd
from .dynsamp import (
    SAMPLE_THRESHOLD,
    build_B_window,
    build_D,
    continuous_solve_grid,
    filter_symbol,
    filtered_levels,
    folded_dt_values,
    measure_from_samples,
    recover_continuous,
    recover_discrete,
    solve_grid,
)
from .grid import SeqFn, mesh, sampling_grid
from .io import _write_table, _writing_tables
from .lattice import SamplingLattice, build_lattice
from .params import (SaftParams, _offset_phase, _physical_points, _reduced_points,
                     chirp, modulation, preset, require_valid)
from .saft import lattice_shifts, saft_inverse, saft_plan
from .sis import SisModel, build_sis

__all__ = [
    "ExampleScenario",
    "meyer_aux",
    "meyer_psi",
    "meyer_time_table",
    "tensor_window_samples",
    "build_example",
    "periodized_window_transform",
    "window_periodization_check",
    "channel_vandermonde",
    "factorization_residual",
    "run_example",
]

DEFAULT_TABLE_KMAX = 8192
TABLE_NFREQ = 1 << 17

#: the coefficient index window (lower corner, upper corner) `run_example` recovers
EXAMPLE_WINDOW = ((-8, -8), (8, 8))

#: `window_periodization_check`'s mesh points per axis of the unit cell
CHECK_GRID_N = 33

#: the rows of reduced frequencies `_window_checks` evaluates at a time
_CHECK_ROWS = 1 << 12

#: the smooth window: 1 up to FLAT_END, a taper through the quartic
#: x^4 (t0 + t1 x + t2 x^2 + t3 x^3) with TAPER = (t0, ..., t3) until SUPPORT_END, 0 beyond
TAPER = (35.0, -84.0, 70.0, -20.0)
FLAT_END = 1.0 / 3.0
SUPPORT_END = 2.0 / 3.0


def meyer_aux(x):
    """Transition profile v on [0, 1]: v(0)=0, v(1)=1, v(x)+v(1-x)=1, with
    three vanishing derivatives at both ends (that symmetry is what makes
    the window squares sum to one across the seam)."""
    xv = np.asarray(x, dtype=float)
    t0, t1, t2, t3 = TAPER
    out = xv**4 * (t0 + xv * (t1 + xv * (t2 + xv * t3)))
    return float(out) if out.ndim == 0 else out


def meyer_psi(x):
    """Even frequency window: 1 on the flat core, cosine-of-taper on the
    transition band, 0 outside; continuous, and its squares over integer
    shifts form a partition of unity."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xa = np.abs(np.atleast_1d(arr))
    out = np.zeros_like(xa)
    out[xa <= FLAT_END] = 1.0
    mid = (xa > FLAT_END) & (xa < SUPPORT_END)
    if np.any(mid):
        t = (xa[mid] - FLAT_END) / (SUPPORT_END - FLAT_END)
        out[mid] = np.cos(0.5 * np.pi * meyer_aux(t))
    return float(out[0]) if scalar else out.reshape(arr.shape)


def meyer_time_table(kmax: int = DEFAULT_TABLE_KMAX) -> np.ndarray:
    """Integer-argument samples of the window's time-domain profile.

    The window is supported inside [-1, 1], so one DFT of its `TABLE_NFREQ`
    samples on that interval yields every integer time sample at once; the
    only error is index aliasing at offset TABLE_NFREQ/2, which the |t|^-4
    tail puts below double precision for ``kmax`` up to the default.
    Returns t[0..kmax] (the profile is real and even).
    """
    if 2 * kmax >= TABLE_NFREQ:
        raise ValueError("kmax must stay below TABLE_NFREQ/2 for the aliasing margin")
    xi = -1.0 + 2.0 * np.arange(TABLE_NFREQ) / TABLE_NFREQ
    coef = np.fft.ifft(meyer_psi(xi))
    idx = (2 * np.arange(kmax + 1)) % TABLE_NFREQ
    return 2.0 * np.real(coef[idx])


def tensor_window_samples(
    table: np.ndarray, threshold: float
) -> tuple[SeqFn, float, float]:
    """Thresholded integer samples of the tensor window on Z^2.

    Keeps index pairs whose product magnitude exceeds ``threshold`` relative
    to the center value; the kept set is hyperbola-shaped because the 1-D
    profile decays like |t|^-4.  Returns (samples, kept_l1, discarded_l1),
    the l1 masses of the kept and discarded products over the full signed
    index range of the table.
    """
    t0 = abs(table[0])
    if t0 == 0:
        raise ValueError("degenerate window: zero center sample")
    rel = np.abs(table) / t0
    asc = np.argsort(rel)
    k1s = np.flatnonzero(rel)
    counts = rel.size - np.searchsorted(rel[asc], threshold / rel[k1s], side="right")
    # the k2 that k1 keeps, rel[k2] > threshold / rel[k1], are the first
    # counts[k1] of the descending order; each run is put back in index order
    K1 = np.repeat(k1s, counts)
    K2 = asc[::-1][np.arange(K1.size) - np.repeat(np.cumsum(counts) - counts, counts)]
    order = np.lexsort((K2, K1))
    K1, K2 = K1[order], K2[order]
    V = table[K1] * table[K2]
    keys, vals = [], []
    kept_l1 = 0.0
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        mask = np.ones(K1.size, dtype=bool)
        if s1 < 0:
            mask &= K1 > 0
        if s2 < 0:
            mask &= K2 > 0
        keys.append(np.stack([s1 * K1[mask], s2 * K2[mask]], axis=1))
        vals.append(V[mask])
        kept_l1 += float(np.sum(np.abs(vals[-1])))
    signed_l1_1d = t0 + 2.0 * float(np.sum(np.abs(table[1:])))
    discarded_l1 = max(signed_l1_1d**2 - kept_l1, 0.0)
    return SeqFn.from_arrays(2, np.concatenate(keys), np.concatenate(vals)), kept_l1, discarded_l1


@dataclass(frozen=True)
class ExampleScenario:
    """Everything the worked example needs, fully constructed."""

    params: SaftParams
    c1: complex
    c2: complex
    lat: SamplingLattice
    filt: SeqFn
    coeffs: SeqFn
    window_samples: SeqFn       # plain tensor-window integer samples
    phi_samples: SeqFn          # generator samples (window / input phases)
    sample_threshold: float
    kept_l1: float
    discarded_l1: float
    model: SisModel
    masking_residual: float
    phi0_min: float


def _tensor_psi(nu: np.ndarray) -> np.ndarray:
    return meyer_psi(nu[..., 0]) * meyer_psi(nu[..., 1])


def _window_checks(p: SaftParams, filt: SeqFn, nu0: np.ndarray):
    """(max |(chi_E - 1) a psi| over ``nu0 + lattice_shifts(2, 2)``, the shift
    sum of psi on ``nu0``'s unit-cell images), from (rows, 2, 5) per-axis
    values, `_CHECK_ROWS` rows of ``nu0`` at a time.  The filter symbol takes
    one call (each has a fixed cost) on the rows of every chunk where
    (chi_E - 1) psi is nonzero."""
    def per_axis(nu):
        x = nu[:, :, None] + np.arange(-2.0, 3.0)
        return meyer_psi(x), np.abs(x) <= SUPPORT_END

    def tensor(a):  # (rows, 25) products in shift order
        return (a[:, 0, :, None] * a[:, 1, None, :]).reshape(-1, 25)

    def off(nu):  # (chi_E - 1) psi
        psi, inside = per_axis(nu)
        return (tensor(inside).astype(float) - 1.0) * tensor(psi)

    phi0 = np.zeros(nu0.shape[0])
    live = np.zeros(nu0.shape[0], dtype=bool)
    for lo in range(0, nu0.shape[0], _CHECK_ROWS):
        nu = nu0[lo:lo + _CHECK_ROWS]
        live[lo:lo + _CHECK_ROWS] = np.any(off(nu), axis=1)
        for term in tensor(per_axis(nu - np.floor(nu))[0]).T:
            phi0[lo:lo + _CHECK_ROWS] += term
    sym = filter_symbol(p, filt, nu0[live, None, :] + lattice_shifts(2, 2))
    return float(np.max(np.abs(sym * off(nu0[live])), initial=0.0)), phi0


def build_example(
    params: SaftParams | None = None,
    c1: complex = 1.0,
    c2: complex = 0.5,
    threshold: float = SAMPLE_THRESHOLD,
    halfwidth: float = 8.0,
    per_unit: int = 16,
    table_kmax: int = DEFAULT_TABLE_KMAX,
) -> ExampleScenario:
    """Assemble the worked scenario.

    The window is the fixed one of `meyer_psi`; its time table has
    ``table_kmax + 1`` samples, and products below ``threshold`` relative to
    the center are dropped.  The model truncates its shift sums at
    `saft.DEFAULT_LATTICE_CUTOFF`.  The generator is chosen so its transform
    is exactly the tensor window on the reduced frequencies: for non-Fourier
    parameter blocks that means dividing the window profile by the input
    chirp and offset phase.  The point-mass filter has symbol
    c1 e^{2 i pi (w1+w2)} + c2 e^{2 i pi (w1+2w2)}; masking it with the
    indicator of the window's support box turns it into the band-limited
    filter whose action on the generator's span is identical (the masking
    residual is reported, and is zero by support disjointness; the comment
    at its evaluation says why the per-axis form has the bits of the
    pointwise one).
    """
    p = preset("ft", n=2) if params is None else params
    require_valid(p)
    if p.n != 2:
        raise ValueError("the worked example is two-dimensional")
    c1 = complex(c1)
    c2 = complex(c2)
    filt = SeqFn.from_arrays(2, np.array([[-1, -1], [-1, -2]]), [c1, c2])
    coeffs = SeqFn.from_arrays(2, np.array([[1, 0], [0, 1]]), [1.0, 2.0])
    lat = build_lattice([[2, 0], [0, 2]])

    table = meyer_time_table(table_kmax)
    window, kept_l1, discarded_l1 = tensor_window_samples(table, threshold)

    # generator samples: window divided by the input-side phases, so the
    # transform is eta(w) psi(nu1) psi(nu2) / sqrt(d) on nu = B^{-1} w
    if p.is_chirp_free(1e-14) and not np.any(p.b_inv_p):
        phi_samples = window
    else:
        keys, vals = window.as_arrays()
        kf = keys.astype(float)
        fac = np.conj(chirp(p, kf)) * np.exp(-2j * np.pi * _offset_phase(p, kf))
        phi_samples = SeqFn.from_arrays(2, keys, vals * fac)

    def spectrum_fn(wpts):
        wf = np.asarray(wpts, dtype=float)
        return (
            modulation(p, wf) * _tensor_psi(_reduced_points(p, wf)) / np.sqrt(p.abs_det_b)
        ).astype(complex)

    tgrid = sampling_grid(halfwidth, per_unit, n=2)
    plan = saft_plan(p, tgrid)
    spec_grid = plan.out_template.with_values(spectrum_fn(plan.w_points()))
    phi_grid = saft_inverse(plan, spec_grid)
    model = build_sis(p, phi_grid, spectrum_fn=spectrum_fn)

    # masking identity: with the filter band-limited to the support box E,
    # (masked symbol) x (window) == (full symbol) x (window) at every
    # shifted reduced frequency, because the window vanishes off E; the
    # periodization is 1-periodic, so it is summed on the unit-cell images.
    # Per-axis values in chunks of rows keep the bits of the full (N, 25)
    # evaluation: the per-axis values are the same floats as the broadcast
    # ones, chi - 1 is exactly 0 or -1, a point's symbol does not depend on
    # its batch, a max is exact, and phi0 adds each row's terms in order.
    nu0 = plan.out_template.points().reshape(-1, p.n)
    masking_residual, phi0 = _window_checks(p, filt, nu0)

    return ExampleScenario(
        params=p,
        c1=c1,
        c2=c2,
        lat=lat,
        filt=filt,
        coeffs=coeffs,
        window_samples=window,
        phi_samples=phi_samples,
        sample_threshold=threshold,
        kept_l1=kept_l1,
        discarded_l1=discarded_l1,
        model=model,
        masking_residual=masking_residual,
        phi0_min=float(np.min(phi0)),
    )


def periodized_window_transform(scenario: ExampleScenario, x_points: np.ndarray) -> np.ndarray:
    """Shift sum of the generator transform with the squared conjugate
    modulation weights, evaluated at physical frequencies (the diagonal
    factor of the channel-matrix factorization)."""
    p = scenario.params
    pts = np.asarray(x_points, dtype=float)
    stacked = pts[..., None, :] + lattice_shifts(2, 2)
    eta_sq = np.conj(modulation(p, stacked)) ** 2
    vals = scenario.model.spectrum_fn(stacked)
    return np.sum(eta_sq * vals, axis=-1)


def window_periodization_check(scenario: ExampleScenario) -> dict:
    """Two-route check of the window periodization and its filter pull-out,
    on the `CHECK_GRID_N` x `CHECK_GRID_N` mesh of the unit cell.

    Route one periodizes the analytic spectrum directly; route two
    transforms the thresholded integer samples (a genuinely independent
    computation).  Both the unfiltered sum and the once-filtered sum are
    compared; the once-filtered sum must equal the filter symbol times the
    unfiltered one.  Residuals are bounded by the discarded sample mass.
    """
    pft = preset("ft", n=2)
    shape = (CHECK_GRID_N, CHECK_GRID_N)
    x = mesh([np.arange(CHECK_GRID_N) / CHECK_GRID_N] * 2).reshape(-1, 2)

    freq0 = np.zeros(x.shape[0])
    for s in lattice_shifts(2, 1):
        freq0 = freq0 + _tensor_psi(x + s)
    samp0 = folded_dt_values(pft, scenario.window_samples, shape).reshape(-1)

    level1 = conv_dd(pft, scenario.filt, scenario.window_samples)
    samp1 = folded_dt_values(pft, level1, shape).reshape(-1)
    sym = filter_symbol(pft, scenario.filt, x)

    return {
        "periodization_residual": float(np.max(np.abs(samp0 - freq0))),
        "factor_pullout_residual": float(np.max(np.abs(samp1 - sym * freq0))),
    }


def channel_vandermonde(
    scenario: ExampleScenario, lat: SamplingLattice, wpts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Filter-symbol values on the dual cosets and their Vandermonde
    determinant (the all-symbols-distinct stability factor): entry v is the
    symbol at the reduced M^{-1}(w + gamma_v), and the determinant is the
    product of pairwise differences."""
    p = scenario.params
    pts = np.asarray(wpts, dtype=float).reshape(-1, p.n)
    beta = filter_symbol(p, scenario.filt, _reduced_points(p, lat.coset_points(pts) - p.P))
    m = lat.m
    det = np.ones(pts.shape[0], dtype=complex)
    for v in range(m):
        for u in range(v + 1, m):
            det = det * (beta[:, u] - beta[:, v])
    return beta, det


def factorization_residual(
    scenario: ExampleScenario, lat: SamplingLattice, field
) -> tuple[float, float]:
    """How exactly the channel matrix splits into Vandermonde times the
    diagonal of unfiltered periodizations.

    Row j of the periodization field is (symbol)^j times row 0, so its
    determinant must equal the Vandermonde determinant of the symbols times
    the product of the row-0 entries.  The determinants are those of
    ``field.stability``.  Returns (max residual, min |Vandermonde det|).
    """
    _, detE = channel_vandermonde(scenario, lat, field.wpoints)
    predicted = detE * np.prod(field.entries[:, 0, :], axis=-1)
    return float(np.max(np.abs(field.stability.det - predicted))), float(np.min(np.abs(detE)))


def _restrict_stems(s: SeqFn, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys and values of the entries with ``max |k_i| <= radius``."""
    keys, vals = s.as_arrays()
    keep = np.max(np.abs(keys), axis=1, initial=0) <= radius
    return keys[keep], vals[keep]


def _emit_figures(scenario: ExampleScenario, outdir: Path) -> tuple[list, dict]:
    """The figure CSVs but fig10, as the ``(path, header, block)`` tables of
    `io._writing_tables`, and their grid sizes for report.json.

    They need no filtered level: fig05/06 are the coefficients convolved
    with the generator samples ``scenario.phi_samples`` (the level 0 of
    `filtered_levels`), so one forked child can write the text while the
    levels and the recovery are computed.  fig10 is `_fig10`."""
    p = scenario.params
    outdir.mkdir(parents=True, exist_ok=True)
    tables = []

    def table(name, header, *columns):
        # every column is written as a float, the stem indices too
        tables.append((outdir / name, [header], np.column_stack(columns)))

    xs = (np.arange(-600, 601)) / 400.0
    table("fig01_psi.csv", "x,psi", xs, meyer_psi(xs))

    tmpl = scenario.model.spectrum
    nu = tmpl.points().reshape(-1, 2)
    table("fig02_spectrum.csv", "nu1,nu2,window", nu, _tensor_psi(nu))

    f_grid = conv_sd(p, scenario.coeffs, scenario.model.phi)
    fpts = f_grid.points().reshape(-1, 2)
    fv = f_grid.values.reshape(-1)
    table("fig03_f_real.csv", "x1,x2,value", fpts, fv.real)
    table("fig04_f_imag.csv", "x1,x2,value", fpts, fv.imag)

    keys, vals = _restrict_stems(conv_dd(p, scenario.coeffs, scenario.phi_samples), 12)
    table("fig05_samples_real.csv", "k1,k2,value", keys, vals.real)
    table("fig06_samples_imag.csv", "k1,k2,value", keys, vals.imag)

    xg = mesh([np.arange(64) / 64.0] * 2).reshape(-1, 2)
    phi0 = periodized_window_transform(scenario, _physical_points(p, xg))
    table("fig07_periodization_real.csv", "w1,w2,value", xg, phi0.real)
    table("fig08_periodization_imag.csv", "w1,w2,value", xg, phi0.imag)

    filtered = conv_sd(p, scenario.filt, scenario.model.phi)
    gpts = filtered.points().reshape(-1, 2)
    table("fig09_filtered_real.csv", "x1,x2,value", gpts, filtered.values.reshape(-1).real)

    return tables, {
        "time_grid": list(scenario.model.phi.shape),
        "spectrum_grid": list(tmpl.shape),
        "f_grid": list(f_grid.shape),
    }


def _fig10(outdir: Path, levels: list) -> None:
    """Write fig10, ``levels[1]`` (the filter applied once to the generator
    samples) on the stems with max |k_i| <= 12.  Its at most 625 rows are
    formatted in this process: `io._table_pieces` splits none that small."""
    keys, vals = _restrict_stems(levels[1], 12)
    _write_table(outdir / "fig10_samples_imag.csv", ["k1,k2,value"],
                 np.column_stack([keys, vals.imag]))


def run_example(
    scenario: ExampleScenario, outdir: str | Path | None = None
) -> tuple[dict, SeqFn | None]:
    """Measure, check stability, recover the coefficients on the index
    window `EXAMPLE_WINDOW` along both routes, verify the factorizations,
    and (optionally) emit figure CSVs and report.json.

    With `outdir`, one forked child writes nine figure CSVs
    (`_emit_figures`) while this process computes the filtered levels,
    writes fig10 and runs the recovery (`io._writing_tables`, which writes
    the nine in this process after the recovery when it cannot fork), and
    report.json is written once all ten figures are complete.

    Returns (report, recovered coefficients or None).  A structurally
    degenerate filter (vanishing symbol differences) produces verdict
    "fail" with the offending frequency, never a silent wrong answer.
    """
    lo, hi = np.array(EXAMPLE_WINDOW, dtype=int)
    report: dict = {
        "c1": [scenario.c1.real, scenario.c1.imag],
        "c2": [scenario.c2.real, scenario.c2.imag],
        "sample_threshold": scenario.sample_threshold,
        "kept_l1": scenario.kept_l1,
        "discarded_l1": scenario.discarded_l1,
        "masking_residual": scenario.masking_residual,
        "phi0_min": scenario.phi0_min,
        "window": [lo.tolist(), hi.tolist()],
        "sizes": {
            "generator_samples": len(scenario.phi_samples),
            "time_grid": list(scenario.model.phi.shape),
        },
    }

    def levels():
        return filtered_levels(scenario.params, scenario.filt, scenario.phi_samples,
                               scenario.lat.m, "cc")

    if outdir is None:
        return report, _recover(scenario, levels(), lo, hi, report)

    out = Path(outdir)
    figures, sizes = _emit_figures(scenario, out)
    with _writing_tables(figures):
        filtered = levels()
        _fig10(out, filtered)
        recovered = _recover(scenario, filtered, lo, hi, report)
    report["sizes"].update(sizes)
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, recovered


def _recover(scenario: ExampleScenario, levels: list, lo: np.ndarray, hi: np.ndarray,
             report: dict) -> SeqFn | None:
    """`run_example`'s measurement, stability scans, recoveries and checks,
    recorded in `report`; returns the discrete route's coefficients, or
    None when its field is unstable.  Both routes solve from the one
    `MeasurementSet`."""
    p = scenario.params
    lat = scenario.lat
    ms = measure_from_samples(p, lat, scenario.coeffs, levels)
    report["sizes"]["level_samples"] = [len(l) for l in levels]
    report["sizes"]["channel_samples"] = [len(v) for v in ms.levels]

    field = build_B_window(p, lat, lo, hi, levels)
    stab = field.stability
    report["discrete_stability"] = stab.summary()
    wpts, shape, _ = solve_grid(p, lo, hi)
    report["sizes"]["solve_grid"] = list(shape)

    recovered: SeqFn | None = None
    if stab.ok:
        recovered = recover_discrete(ms, field, window=(lo, hi))
        diff = recovered.plus(scenario.coeffs.scaled(-1.0))
        report["recovery_error"] = diff.l2norm() / scenario.coeffs.l2norm()
    else:
        report["recovery_error"] = None

    report["min_det_E"] = None
    report["min_det_D"] = None
    report["recovery_error_continuous"] = None
    report["mutual_error"] = None
    report["factorization_residual"] = None
    report["factorization_residual_2x2"] = None
    cont_ok = True
    # periodization route and factorization checks need plain-Fourier blocks
    if p.is_plain_fourier():
        wptsC, shapeC, loC, qsh = continuous_solve_grid(p, lat, lo, hi)
        Dfield = build_D(scenario.model, scenario.filt, lat, wptsC)
        stabD = Dfield.stability
        report["sizes"]["continuous_solve_grid"] = list(qsh)
        report["periodization_stability"] = stabD.summary()
        report["factorization_residual"], report["min_det_E"] = factorization_residual(
            scenario, lat, Dfield)
        report["min_det_D"] = stabD.min_abs_det

        # printed two-channel subsystem: cosets {0, (0,1)} of diag(1, 2)
        lat2 = build_lattice([[1, 0], [0, 2]])
        w9 = mesh([np.arange(9) / 9.0] * 2).reshape(-1, 2)
        D2 = build_D(scenario.model, scenario.filt, lat2, w9)
        resid2, _ = factorization_residual(scenario, lat2, D2)
        report["factorization_residual_2x2"] = resid2

        cont_ok = stabD.ok
        if stabD.ok:
            rec_c = recover_continuous(ms, Dfield, (lo, hi))
            diff = rec_c.plus(scenario.coeffs.scaled(-1.0))
            report["recovery_error_continuous"] = (
                diff.l2norm() / scenario.coeffs.l2norm()
            )
            if recovered is not None:
                report["mutual_error"] = (
                    recovered.plus(rec_c.scaled(-1.0)).l2norm()
                    / scenario.coeffs.l2norm()
                )
        report["window_checks"] = window_periodization_check(scenario)

    report["verdict"] = "pass" if (stab.ok and cont_ok) else "fail"
    return recovered
