"""Command-line entry point.

Subcommands
    transform / inverse   apply the transform between a grid file and its
                          reduced-frequency counterpart
    dtsaft                evaluate the discrete-time transform of a sequence
    conv                  twisted convolution of two operands
    verify                seeded residual trials for the factorization and
                          commutation identities, written as a CSV table
    sis                   generator diagnostics: Grammian profile and Riesz
                          verdict over one frequency cell
    dynsamp check         per-frequency channel-matrix scan with verdict
    dynsamp recover       coefficient recovery from measurement sequences
    repro section5        the worked two-dimensional recovery example with
                          figure CSVs and report.json
    selftest              fast invariant suite, pass/fail table

Exit codes: 0 success; 2 a validation failed (invalid parameter block,
residual over tolerance, singular channel matrix, fail verdict); 1
structural problems (unreadable files, malformed values); 64 usage errors.

File formats are those of `saftlab.io`: "SAFTGRID v1" text grids, sequence
CSVs ``k1,...,kn,re,im``, measurement CSVs ``k1,...,kn,channel,re,im`` and
parameter JSON (full blocks or preset form).
Identical invocations write identical files; random trials derive from
``--seed`` and the seed is recorded in the output header.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import TextIO

import numpy as np

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64


class ValidationFailure(Exception):
    """A well-formed input failed a mathematical check."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a prefix of a long flag is not that flag (``--out`` is not ``--outdir``)
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# argument helpers


def _positive(kind):
    """argparse type: a finite ``kind`` (int or float) above zero."""
    def positive(text: str):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
        return value
    return positive


def _path(text: str) -> str:
    """argparse type: an output path, which may not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _seed(text: str) -> int:
    """argparse type: a seed of ``np.random.default_rng``, an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _axis_ranges(text: str, n: int, flag: str, kinds: tuple, ok, rule: str) -> list[tuple]:
    """The n comma-separated ranges of `text`, one per axis (a single range
    stands for every axis), each of ``len(kinds)`` fields ``lo:hi`` or
    ``lo:hi:count`` read by `kinds` and passing ``ok(*fields)``, which
    `rule` states; every refusal names `flag` and the range."""
    parts = text.split(",")
    if len(parts) == 1:
        parts *= n
    if len(parts) != n:
        raise ValueError(f"{flag}: need {n} axis ranges, got {len(parts)}")
    out = []
    for part in parts:
        fields = part.split(":")
        if len(fields) != len(kinds):
            raise ValueError(f"{flag}: expected {':'.join(['lo', 'hi', 'count'][:len(kinds)])}, "
                             f"got {part!r}")
        try:
            out.append(tuple(kind(x) for kind, x in zip(kinds, fields)))
        except ValueError:
            what = "integers" if kinds[0] is int else "numbers and count an integer"
            raise ValueError(f"{flag}: lo and hi must be {what}, got {part!r}") from None
        if not ok(*out[-1]):
            raise ValueError(f"{flag}: bad range {part!r}, need {rule}")
    return out


def _require_window_fits(lo: np.ndarray, hi: np.ndarray, m: int) -> None:
    """Refuses a recovery window whose matrix field, one m x m complex
    matrix per window point, would not fit in physical memory."""
    points = math.prod(b - a + 1 for a, b in zip(lo.tolist(), hi.tolist()))
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if points * m * m * np.dtype(complex).itemsize > memory:
        raise ValueError(f"--window spans {points} points; their {m}x{m} matrix field "
                         f"would not fit in the {memory} bytes of physical memory")


def _parse_int_matrix(text: str) -> list:
    from .io import _has_bool

    value = json.loads(text)
    if not isinstance(value, list) or _has_bool(value):
        raise ValueError("lattice matrix must be a JSON array of rows of integers")
    return value


def _finite_complex(text: str) -> complex:
    """argparse type: a finite complex number; a trailing ``i`` may stand for ``j``."""
    t = text.replace(" ", "")
    try:
        value = complex(t[:-1] + "j" if t.endswith("i") else t)
        if np.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite complex number, got {text!r}")


def _load_params(path: str):
    from .io import read_params
    from .params import require_valid

    p = read_params(path)
    try:
        require_valid(p)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    return p


def _load_operand(path: str, n: int | None = None, grid_flag: str | None = None):
    """A sequence CSV or a grid file; only a grid file for ``grid_flag``."""
    from .io import read_grid, read_sequence

    if str(path).endswith(".csv"):
        if grid_flag:
            raise ValueError(f"{grid_flag} needs a grid file, got the sequence CSV {path}")
        return read_sequence(path, n=n)
    return read_grid(path)


def _of_dimension(flag: str, operand, p):
    """`operand`, refused unless it has the parameter block's dimension."""
    if operand.n != p.n:
        raise ValueError(f"{flag} has dimension {operand.n}, but the parameter block has "
                         f"dimension {p.n}")
    return operand


def _emit_rows(out: str | None, header: list[str], *blocks) -> TextIO:
    """Write a table (`io._table_pieces`) to the file `out`, or to stdout
    when `out` is None; return the stream for the summary line, stderr when
    the table took stdout, so that stdout stays a valid table."""
    from .io import _table_pieces, _write_table

    if out is None:
        sys.stdout.writelines(_table_pieces(header, *blocks))
        return sys.stderr
    _write_table(out, header, *blocks)
    return sys.stdout


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_transform(args, direction: str) -> int:
    from .grid import reciprocal_grid
    from .io import write_grid
    from .saft import saft_forward, saft_inverse, saft_plan

    p = _load_params(args.params)
    g = _load_operand(args.infile, grid_flag="--in")
    out_path = Path(args.out)
    if direction == "transform":
        plan = saft_plan(p, g, backend=args.backend)
        result = saft_forward(plan, g)
    else:
        # the centered reciprocal-frame construction is an involution, so
        # the time geometry is recovered from the spectrum geometry
        plan = saft_plan(p, reciprocal_grid(g), backend=args.backend)
        result = saft_inverse(plan, g)
    write_grid(out_path, result)
    print(f"wrote {out_path} shape={list(result.shape)}")
    return EXIT_OK


def _cmd_dtsaft(args) -> int:
    from .grid import mesh
    from .io import _require_finite_rows, read_sequence
    from .saft import dtsaft

    p = _load_params(args.params)
    s = read_sequence(args.seq, n=p.n)
    ranges = _axis_ranges(args.wgrid, p.n, "--wgrid", (float, float, int),
                          lambda lo, hi, count: -np.inf < lo < hi < np.inf and count >= 1,
                          "finite lo < hi and count >= 1")
    pts = mesh([np.linspace(*r) for r in ranges]).reshape(-1, p.n)
    vals = dtsaft(p, s, pts)
    header = [",".join(f"w{i + 1}" for i in range(p.n)) + ",re,im"]
    table = np.column_stack([pts, vals.real, vals.imag])
    # a transform that overflowed is refused before any row is written
    _require_finite_rows(args.out or "dtsaft output", vals, table)
    _emit_rows(args.out, header, table)
    return EXIT_OK


def _cmd_conv(args) -> int:
    from .conv import conv_cc, conv_dd, conv_sd
    from .grid import GridFn, SeqFn
    from .io import write_grid, write_sequence

    p = _load_params(args.params)
    lhs = _load_operand(args.lhs, n=p.n)
    rhs = _load_operand(args.rhs, n=p.n)
    kind = args.kind
    expect = {"cc": (GridFn, GridFn), "sd": (SeqFn, GridFn), "dd": (SeqFn, SeqFn)}
    want_l, want_r = expect[kind]
    if not isinstance(lhs, want_l) or not isinstance(rhs, want_r):
        raise ValueError(
            f"kind {kind!r} needs ({want_l.__name__}, {want_r.__name__}); "
            f"got ({type(lhs).__name__}, {type(rhs).__name__})"
        )
    out_path = Path(args.out)
    if kind == "cc":
        result = conv_cc(p, lhs, rhs)
        write_grid(out_path, result)
    elif kind == "sd":
        result = conv_sd(p, lhs, rhs)
        write_grid(out_path, result)
    else:
        result = conv_dd(p, lhs, rhs)
        write_sequence(out_path, result)
    print(f"wrote {out_path}")
    return EXIT_OK


_VERIFY_DEFAULT_TOL = {"cc": 1e-6, "sd": 1e-6, "dd": 1e-12, "commute": 1e-6}


def _random_sequence(rng, n: int, count: int = 6, radius: int = 3):
    from .grid import SeqFn

    keys = rng.integers(-radius, radius + 1, size=(count, n))
    vals = rng.normal(size=(count, 2)).view(complex)[:, 0]
    # a repeated key keeps its last draw
    _, last = np.unique(keys[::-1], axis=0, return_index=True)
    return SeqFn.from_arrays(n, keys[count - 1 - last], vals[count - 1 - last])


def _random_gaussian(rng, grid):
    from .grid import sample_generator

    return sample_generator(
        "gaussian",
        grid,
        sigma=float(rng.uniform(0.45, 0.9)),
        center=float(rng.uniform(-0.5, 0.5)),
    )


def _verify_trial(theorem: str, p, rng) -> float:
    from .conv import (
        commute_check,
        theorem_residual_cc,
        theorem_residual_dd,
        theorem_residual_sd,
    )
    from .grid import sampling_grid

    grid = sampling_grid(6.0, 16, n=p.n)
    if theorem == "cc":
        return theorem_residual_cc(p, _random_gaussian(rng, grid), _random_gaussian(rng, grid))
    if theorem == "sd":
        return theorem_residual_sd(p, _random_sequence(rng, p.n), _random_gaussian(rng, grid))
    if theorem == "dd":
        w = rng.uniform(-4.0, 4.0, size=(256, p.n))
        return theorem_residual_dd(p, _random_sequence(rng, p.n), _random_sequence(rng, p.n), w)
    return commute_check(
        p, _random_gaussian(rng, grid), _random_sequence(rng, p.n), _random_gaussian(rng, grid)
    )


def _cmd_verify(args) -> int:
    from .params import random_params

    theorem = args.theorem
    tol = args.tol if args.tol is not None else _VERIFY_DEFAULT_TOL[theorem]
    seed = args.seed
    rng = np.random.default_rng(seed)
    fixed = _load_params(args.params) if args.params else None
    residuals = []
    for trial in range(args.trials):
        p = fixed if fixed is not None else random_params(args.dim, rng)
        residuals.append(_verify_trial(theorem, p, rng))
    residuals = np.array(residuals)
    # NaN compares false with the tolerance, so a trial that overflowed is
    # refused before any row is written
    bad = np.flatnonzero(~np.isfinite(residuals))
    if bad.size:
        raise ValueError(f"{theorem} trial {bad[0]} has a non-finite residual "
                         f"({float(residuals[bad[0]])})")
    header = [
        f"# theorem={theorem} trials={args.trials} seed={seed} tol={tol!r}",
        "trial,residual",
    ]
    summary = _emit_rows(args.out, header, np.arange(len(residuals)), residuals)
    worst = residuals.max()
    print(f"worst residual {worst:.3e} (tol {tol:g})", file=summary)
    if worst > tol:
        raise ValidationFailure(
            f"{theorem} factorization residual {worst:.3e} exceeds {tol:g}"
        )
    return EXIT_OK


def _cmd_sis(args) -> int:
    from .dynsamp import solve_grid
    from .sis import _riesz_report, _shift_values, build_sis

    p = _load_params(args.params)
    phi = _of_dimension("--phi", _load_operand(args.phi, grid_flag="--phi"), p)
    try:
        model = build_sis(p, phi)
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    wpts, _shape, _lo = solve_grid(p, [0] * p.n, [args.cell_points - 1] * p.n)
    # one pass over the shift table serves both sums and the Riesz verdict
    mags = _shift_values(model, wpts)
    g, u = np.sum(mags**2, axis=-1), np.sum(mags, axis=-1)
    header = [",".join(f"w{i + 1}" for i in range(p.n)) + ",grammian,unsquared_sum"]
    summary = _emit_rows(args.out, header, np.column_stack([wpts, g, u]))
    rep = _riesz_report(wpts, g)
    print(json.dumps({
        "lower": rep.eta1,
        "upper": rep.eta2,
        "argmin_w": rep.argmin.tolist(),
        "verdict": rep.verdict,
    }, sort_keys=True), file=summary)
    if not rep.ok:
        raise ValidationFailure(f"Riesz lower bound vanishes: {rep.verdict}")
    return EXIT_OK


def _sample_levels(p, phi, filt, J: int):
    """Integer-sample sequences of the generator and its filtered iterates."""
    from .dynsamp import filtered_levels, sampled_generator
    from .grid import GridFn

    if isinstance(filt, GridFn):
        grids = filtered_levels(p, filt, phi, J, "cc")
        return [sampled_generator(g) for g in grids]
    samples = sampled_generator(phi)
    return filtered_levels(p, filt, samples, J, "cc")


def _load_dynsamp_inputs(args):
    """`dynsamp`'s block, generator grid, filter and lattice of the same dimension."""
    from .lattice import build_lattice

    p = _load_params(args.params)
    phi = _of_dimension("--phi", _load_operand(args.phi, grid_flag="--phi"), p)
    filt = _of_dimension("--filter", _load_operand(args.filter, n=p.n), p)
    lat = build_lattice(_parse_int_matrix(args.M))
    if lat.n != p.n:
        raise ValueError(f"--M is {lat.n}x{lat.n}, but the parameter block has dimension {p.n}")
    return p, phi, filt, lat


def _cmd_dynsamp_check(args) -> int:
    from .dynsamp import build_B_window, stability_report

    p, phi, filt, lat = _load_dynsamp_inputs(args)
    levels = _sample_levels(p, phi, filt, lat.m)
    # the cell mesh q/count is the solve grid of the window [0, count - 1]
    last = [args.cell_points - 1] * p.n
    field = build_B_window(p, lat, [0] * p.n, last, levels)
    stab = field.stability if args.tol is None else stability_report(field, args.tol)

    m = lat.m
    header = [
        ",".join(f"w{i + 1}" for i in range(p.n))
        + ","
        + ",".join(f"B{j}{l}_{part}" for j in range(m) for l in range(m) for part in ("re", "im"))
        + ",abs_det,cond"
    ]
    # entry columns B_jl re, im in row-major (j, l) order
    entries = field.entries.reshape(len(field.wpoints), m * m)
    parts = np.stack([entries.real, entries.imag], axis=-1).reshape(len(entries), 2 * m * m)
    table = np.column_stack([field.wpoints, parts, np.abs(stab.det), stab.cond])
    summary = _emit_rows(args.out, header, table)
    print(json.dumps(stab.summary(), sort_keys=True), file=summary)
    if not stab.ok:
        raise ValidationFailure(
            f"channel matrix fails at w = {stab.argmin_w.tolist()} "
            f"(min |det| = {stab.min_abs_det:.3e})"
        )
    return EXIT_OK


def _cmd_dynsamp_recover(args) -> int:
    from .dynsamp import (
        MeasurementSet,
        build_B_window,
        build_D,
        continuous_solve_grid,
        recover_continuous,
        recover_discrete,
    )
    from .io import read_measurements, write_sequence
    from .saft import downsample
    from .sis import build_sis

    p, phi, filt, lat = _load_dynsamp_inputs(args)
    vlevels = read_measurements(args.measurements, p.n)
    if len(vlevels) != lat.m:
        raise ValueError(
            f"{len(vlevels)} channels for a lattice of index {lat.m}; "
            "the per-frequency system must be square"
        )
    if args.window:
        lo, hi = np.array(_axis_ranges(args.window, p.n, "--window", (int, int),
                                       lambda lo, hi: -2**62 <= lo <= hi < 2**62,
                                       "lo <= hi, both within 2**62 in magnitude")).T
    else:
        keys = np.concatenate([s.keys for s in vlevels])
        lo, hi = keys.min(axis=0), keys.max(axis=0)
    _require_window_fits(lo, hi, lat.m)

    try:
        if args.method == "discrete":
            levels = _sample_levels(p, phi, filt, lat.m)
            field = build_B_window(p, lat, lo, hi, levels)
            ms = MeasurementSet(params=p, lat=lat, levels=tuple(vlevels))
            solve = recover_discrete
        else:
            # refuses a block the route does not take before any field work
            wpts, _shape, _lo, _qshape = continuous_solve_grid(p, lat, lo, hi)
            field = build_D(build_sis(p, phi), filt, lat, wpts)
            # the rows are plain integer samples; the channels are their
            # values on M^T Z^n
            ms = MeasurementSet(params=p, lat=lat,
                                levels=tuple(downsample(lat, h) for h in vlevels))
            solve = recover_continuous
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    # a field that overflowed is refused (exit 1) before the solver judges it
    stab = field.stability
    try:
        recovered = solve(ms, field, (lo, hi))
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    write_sequence(args.out, recovered)
    print(json.dumps({
        "method": args.method,
        "entries": len(recovered),
        "window": [lo.tolist(), hi.tolist()],
        "min_abs_det": stab.min_abs_det,
        "max_cond": stab.max_cond,
    }, sort_keys=True))
    return EXIT_OK


def _cmd_repro(args) -> int:
    from .repro import build_example, run_example

    params = _load_params(args.params) if args.params else None
    # without the flag, build_example's own default threshold applies
    kw = {} if args.threshold is None else {"threshold": args.threshold}
    scenario = build_example(params=params, c1=args.c1, c2=args.c2, **kw)
    report, _recovered = run_example(scenario, outdir=args.outdir)
    summary_keys = (
        "verdict", "min_det_E", "min_det_D", "recovery_error",
        "recovery_error_continuous", "mutual_error", "factorization_residual",
        "factorization_residual_2x2", "masking_residual", "phi0_min",
    )
    print(json.dumps({k: report.get(k) for k in summary_keys}, sort_keys=True))
    if report["verdict"] != "pass":
        raise ValidationFailure(
            "recovery verdict fail at w = "
            f"{report['discrete_stability']['argmin_w']}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def _selftest_items(seed: int):
    from .conv import (
        commute_check,
        theorem_residual_cc,
        theorem_residual_dd,
        theorem_residual_sd,
    )
    from .grid import sample_generator, sampling_grid
    from .lattice import build_lattice
    from .params import modulation, preset, random_params, validate
    from .repro import build_example, meyer_psi
    from .saft import (
        downsample_check,
        dtsaft,
        parseval_check,
        poisson_check,
        saft_forward,
        saft_inverse,
        saft_plan,
        kernel_quadrature,
    )

    rng = np.random.default_rng(seed)
    p1 = random_params(1, rng)
    g1 = sampling_grid(6.0, 16, n=1)
    f1 = _random_gaussian(rng, g1)

    def check_presets():
        ok = validate(preset("ft", 2)).ok
        ok &= validate(preset("separable_frft", theta=[0.7, 1.1])).ok
        ok &= validate(preset("separable_fresnel", b=[1.5])).ok
        ok &= validate(preset("separable_lorentz", phi=[0.8])).ok
        return 0.0 if ok else 1.0

    def check_fast_vs_quad():
        plan_f = saft_plan(p1, g1, backend="fast")
        F = saft_forward(plan_f, f1)
        wpts = plan_f.w_points().reshape(-1, 1)
        ref = kernel_quadrature(
            p1, g1.points().reshape(-1, 1), f1.values.reshape(-1),
            g1.cell_volume, wpts,
        )
        return float(np.linalg.norm(F.values.reshape(-1) - ref) / np.linalg.norm(ref))

    def check_roundtrip():
        plan = saft_plan(p1, g1)
        back = saft_inverse(plan, saft_forward(plan, f1))
        return float(np.linalg.norm((back.values - f1.values).reshape(-1))
                     / np.linalg.norm(f1.values.reshape(-1)))

    def check_periodicity():
        s = _random_sequence(rng, 1)
        w = rng.uniform(-3, 3, size=(64, 1))
        base = np.abs(dtsaft(p1, s, w))
        worst = 0.0
        for l in (-2, 1, 3):
            shifted = np.abs(dtsaft(p1, s, w + l * p1.B[0, 0]))
            worst = max(worst, float(np.max(np.abs(shifted - base))))
        return worst / float(np.max(base))

    def check_poisson():
        rep = poisson_check(p1, f1, rng.uniform(-2, 2, size=(40, 1)))
        scale = float(np.max(np.abs(rep.rhs)))
        return rep.sup / max(scale, 1e-300)

    def check_downsample():
        pft = preset("ft", 2)
        lat = build_lattice([[2, 0], [0, 2]])
        c = _random_sequence(rng, 2, count=10)
        return downsample_check(pft, lat, c, rng.uniform(-3, 3, size=(60, 2)))

    def check_parseval():
        rep = parseval_check(p1, _random_sequence(rng, 1))
        return rep["abs_err"] / max(rep["energy"], 1e-300)

    def check_window():
        x = np.linspace(-2.0, 2.0, 1024, endpoint=False)
        part = sum(meyer_psi(x + k) ** 2 for k in range(-3, 4))
        return float(np.max(np.abs(part - 1.0)))

    def check_masking():
        sc = build_example(table_kmax=256, halfwidth=4.0, per_unit=8)
        bad = 0.0 if abs(sc.phi0_min - 1.0) < 1e-9 else 1.0
        return max(sc.masking_residual, bad)

    s1, t1 = _random_sequence(rng, 1), _random_sequence(rng, 1)
    return [
        ("parameter presets valid", check_presets, 0.5),
        ("fast backend matches quadrature", check_fast_vs_quad, 1e-6),
        ("inverse of forward is identity", check_roundtrip, 1e-6),
        ("function-function factorization", lambda: theorem_residual_cc(
            p1, f1, _random_gaussian(rng, g1)), 1e-6),
        ("sequence-function factorization", lambda: theorem_residual_sd(
            p1, s1, f1), 1e-6),
        ("sequence-sequence factorization", lambda: theorem_residual_dd(
            p1, s1, t1, rng.uniform(-4, 4, size=(128, 1))), 1e-12),
        ("mixed associativity", lambda: commute_check(
            p1, f1, s1, _random_gaussian(rng, g1)), 1e-6),
        ("transform modulus periodicity", check_periodicity, 1e-12),
        ("lattice summation identity", check_poisson, 1e-6),
        ("restriction identity", check_downsample, 1e-10),
        ("energy identity", check_parseval, 1e-8),
        ("window partition of unity", check_window, 1e-12),
        ("support masking identity", check_masking, 1e-10),
    ]


def _cmd_selftest(args) -> int:
    items = _selftest_items(args.seed)
    width = max(len(name) for name, _, _ in items)
    failures = 0
    for name, fn, tol in items:
        try:
            value = fn()
            ok = value <= tol
        except Exception as exc:          # noqa: BLE001 - reported in the table
            value, ok = float("nan"), False
            print(f"{name:<{width}}  ERROR {exc}")
            failures += 1
            continue
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {value:.3e} (tol {tol:g})")
        failures += 0 if ok else 1
    print(f"{len(items) - failures}/{len(items)} checks passed")
    if failures:
        raise ValidationFailure(f"{failures} selftest checks failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and dispatch


def _add_common(sp, *, out: str | None = "table", tol: bool = False, seed: bool = False) -> None:
    """The shared flags, offered only where the command reads them: a flag
    that is accepted and then ignored would be silently wrong.  `out` is
    "table" (stdout without --out), "file" (--out required) or None."""
    if tol:
        sp.add_argument("--tol", type=_positive(float), default=None,
                        help="override the default tolerance of this command")
    if seed:
        sp.add_argument("--seed", type=_seed, default=0,
                        help="seed for the randomized trials")
    if out == "table":
        sp.add_argument("--out", type=_path, help="output file (default: stdout)")
    elif out == "file":
        sp.add_argument("--out", type=_path, required=True, help="output file")


def build_parser() -> _Parser:
    parser = _Parser(prog="saftlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    for name in ("transform", "inverse"):
        sp = sub.add_parser(name, help=f"{name} a grid file")
        sp.add_argument("--params", required=True, help="parameter JSON")
        sp.add_argument("--in", dest="infile", required=True, help="input grid")
        sp.add_argument("--backend", choices=("fast", "quad"), default="fast")
        _add_common(sp, out="file")
        sp.set_defaults(func=lambda a, d=name: _cmd_transform(a, d))

    sp = sub.add_parser("dtsaft", help="discrete-time transform of a sequence")
    sp.add_argument("--params", required=True)
    sp.add_argument("--seq", required=True, help="sequence CSV")
    sp.add_argument("--wgrid", required=True,
                    help="evaluation mesh, lo:hi:count per axis, comma-separated")
    _add_common(sp)
    sp.set_defaults(func=_cmd_dtsaft)

    sp = sub.add_parser("conv", help="twisted convolution of two operands")
    sp.add_argument("--kind", choices=("cc", "sd", "dd"), required=True)
    sp.add_argument("--params", required=True)
    sp.add_argument("--lhs", required=True, help=".grid or .csv operand")
    sp.add_argument("--rhs", required=True, help=".grid or .csv operand")
    _add_common(sp, out="file")
    sp.set_defaults(func=_cmd_conv)

    sp = sub.add_parser("verify", help="seeded residual trials for the identities")
    sp.add_argument("--theorem", choices=("cc", "sd", "dd", "commute"), required=True)
    sp.add_argument("--trials", type=_positive(int), default=20)
    blocks = sp.add_mutually_exclusive_group()
    blocks.add_argument("--params", default=None,
                        help="fixed parameter JSON (default: random valid blocks)")
    # a string default is converted by the type, so an explicit "--dim 1"
    # is still not the default object and conflicts with --params
    blocks.add_argument("--dim", type=_positive(int), default="1",
                        help="dimension for random blocks")
    _add_common(sp, tol=True, seed=True)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sis", help="generator Grammian profile and Riesz verdict")
    sp.add_argument("--params", required=True)
    sp.add_argument("--phi", required=True, help="generator grid file")
    sp.add_argument("--cell-points", type=_positive(int), default=64,
                    help="mesh nodes per axis over one frequency cell")
    _add_common(sp)
    sp.set_defaults(func=_cmd_sis)

    dyn = sub.add_parser("dynsamp", help="multichannel sampling system tools")
    dsub = dyn.add_subparsers(dest="subcommand", parser_class=_Parser)

    sp = dsub.add_parser("check", help="scan the per-frequency channel matrix")
    sp.add_argument("--params", required=True)
    sp.add_argument("--phi", required=True, help="generator grid file")
    sp.add_argument("--filter", required=True, help="filter (.grid or .csv comb)")
    sp.add_argument("--M", required=True, help='lattice matrix, e.g. "[[2,0],[0,2]]"')
    sp.add_argument("--cell-points", type=_positive(int), default=17,
                    help="mesh nodes per axis over one frequency cell")
    _add_common(sp, tol=True)
    sp.set_defaults(func=_cmd_dynsamp_check)

    sp = dsub.add_parser("recover", help="recover coefficients from measurements")
    sp.add_argument("--params", required=True)
    sp.add_argument("--phi", required=True)
    sp.add_argument("--filter", required=True)
    sp.add_argument("--M", required=True)
    sp.add_argument("--measurements", required=True,
                    help="CSV rows k1..kn,channel,re,im")
    sp.add_argument("--method", choices=("discrete", "continuous"), default="discrete")
    sp.add_argument("--window", default=None,
                    help="coefficient index window lo:hi per axis, comma-separated")
    _add_common(sp, out="file")
    sp.set_defaults(func=_cmd_dynsamp_recover)

    rep = sub.add_parser("repro", help="worked end-to-end examples")
    rsub = rep.add_subparsers(dest="subcommand", parser_class=_Parser)
    sp = rsub.add_parser("section5", help="two-dimensional recovery example")
    sp.add_argument("--c1", type=_finite_complex, default="1", help="first filter coefficient")
    sp.add_argument("--c2", type=_finite_complex, default="0.5", help="second filter coefficient")
    sp.add_argument("--params", default=None, help="parameter JSON (default: plain FT)")
    sp.add_argument("--outdir", type=_path, help="directory for figure CSVs + report.json")
    sp.add_argument("--threshold", type=_positive(float), default=None,
                    help="relative cut for the generator sample table "
                         "(default: dynsamp.SAMPLE_THRESHOLD)")
    sp.set_defaults(func=_cmd_repro)

    sp = sub.add_parser("selftest", help="fast invariant suite")
    _add_common(sp, out=None, seed=True)
    sp.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (and --help); surface the code as a
        # return value so in-process callers always get an int back
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        # numpy's warnings would come ahead of the writers' non-finite check
        with np.errstate(all="ignore"):
            return args.func(args)
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except MemoryError as exc:
        # an input too large for this machine, such as a huge --wgrid count
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    sys.exit(main())
