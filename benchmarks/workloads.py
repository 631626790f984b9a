"""The three benchmark workloads: seeded inputs, operations and their checks.

Each workload builds its inputs from the workload seed in `setup` (the
program sees only the generated inputs) and yields the operations of one
iteration from `ops`.  An operation's `run` calls into saftlab; its `check`
compares the output with an independent reference and returns a problem
string, or None when the output is within the stated tolerance, plus
information fields that are recorded but never fail an operation.

Tolerances are those of the acceptance suite (``tests/test_acceptance.py``)
where it has one; the others are stated next to the check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# criterion 10 of the acceptance suite (the worked example)
RECOVERY_TOL = 1e-6
FACTORIZATION_TOL = 1e-8
# criterion 1 (fast vs quadrature) and criterion 3 (cc / sd factorizations)
QUAD_TOL = 1e-6
FACTOR_CC_SD_TOL = 1e-6
# round trips through the fast pair and through grid files
ROUNDTRIP_TOL = 1e-10
# exact finite sums evaluated two ways (dtsaft against the direct kernel,
# the dd factorization of a written convolution): rounding level
EXACT_SUM_TOL = 1e-10


class ReportedFailure(Exception):
    """The program itself reported failure (nonzero exit code)."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str | None, dict]]


def _no_check(_out) -> tuple[str | None, dict]:
    return None, {}


def _cli(argv: list[str]) -> Callable[[], str]:
    """An in-process ``saftlab`` invocation; returns its captured stdout."""

    def run() -> str:
        from saftlab import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            failing = [ln.strip() for ln in out.getvalue().splitlines()
                       if " FAIL " in ln or " ERROR " in ln]
            raise ReportedFailure("; ".join([f"exit code {code}", err.getvalue().strip()[-300:]]
                                            + failing))
        return out.getvalue()

    return run


def _rel(a, b) -> float:
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _over(name: str, value: float, tol: float) -> str | None:
    # written so that NaN fails
    return None if value < tol else f"{name} {value:.3e} >= {tol:g}"


def _draw_filter_pair(rng) -> tuple[complex, complex]:
    """Two filter taps with moduli in [0.25, 1] and |c1| >= 1.25 |c2|.

    The four coset symbols of the worked example's filter are
    +-(c1 e1 + c2 e2) and +-(c1 e1 - c2 e2); they stay distinct at every
    frequency exactly when |c1| != |c2|, so the moduli are kept apart and the
    channel matrices are invertible for every seed.
    """
    m1 = rng.uniform(0.625, 1.0)
    m2 = rng.uniform(0.25, 0.5)
    a1, a2 = rng.uniform(0.0, 2 * np.pi, 2)
    return complex(m1 * np.exp(1j * a1)), complex(m2 * np.exp(1j * a2))


def _complex_arg(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}j"


def _random_sequence(rng, n_terms: int, radius: int):
    from saftlab.grid import SeqFn

    side = 2 * radius + 1
    flat = rng.choice(side * side, size=n_terms, replace=False)
    keys = np.stack([flat // side - radius, flat % side - radius], axis=1)
    vals = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return SeqFn(n=2, entries={(int(a), int(b)): complex(v) for (a, b), v in zip(keys, vals)})


def _gaussian(rng, halfwidth: int, per_unit: int):
    from saftlab.grid import sample_generator, sampling_grid

    return sample_generator(
        "gaussian", sampling_grid(halfwidth, per_unit, n=2),
        sigma=float(rng.uniform(0.45, 0.9)), center=float(rng.uniform(-0.5, 0.5)),
    )


# ---------------------------------------------------------------------------
# section5: the paper's worked two-dimensional recovery, through the CLI


class Section5:
    """``saftlab repro section5`` on the default scenario (257^2 grids and
    42,901 generator samples); ``tiny`` raises the sample threshold."""

    # relative cut for the generator sample table (the CLI default at full)
    THRESHOLDS = {"full": None, "tiny": 1e-10}

    def __init__(self, size: str):
        self.threshold = self.THRESHOLDS[size]

    def setup(self, seed: int, workdir: Path) -> None:
        from saftlab.repro import build_example

        if seed == 0:
            self.c1, self.c2 = 1.0 + 0j, 0.5 + 0j    # the paper's filter
        else:
            self.c1, self.c2 = _draw_filter_pair(np.random.default_rng(seed))
        kw = {} if self.threshold is None else {"threshold": self.threshold}
        scenario = build_example(c1=self.c1, c2=self.c2, **kw)
        self.generator_samples = len(scenario.phi_samples.entries)
        self.outdir = workdir / "section5"

    def ops(self, iteration: int) -> list[Op]:
        argv = ["repro", "section5", f"--c1={_complex_arg(self.c1)}",
                f"--c2={_complex_arg(self.c2)}", "--outdir", str(self.outdir)]
        if self.threshold is not None:
            argv += ["--threshold", repr(self.threshold)]
        return [Op("repro_section5", _cli(argv), self._check)]

    def _check(self, _stdout) -> tuple[str | None, dict]:
        raw = (self.outdir / "report.json").read_bytes()
        report = json.loads(raw)
        info = {"report_sha256": hashlib.sha256(raw).hexdigest(),
                "generator_samples": report["sizes"]["generator_samples"],
                "level_samples": report["sizes"]["level_samples"]}
        problems = [] if report["verdict"] == "pass" else [f"verdict {report['verdict']}"]
        for key in ("recovery_error", "recovery_error_continuous", "mutual_error"):
            value = report[key]
            problems.append(_over(key, np.nan if value is None else value, RECOVERY_TOL))
        value = report["factorization_residual"]
        problems.append(_over("factorization_residual",
                              np.nan if value is None else value, FACTORIZATION_TOL))
        if report["sizes"]["generator_samples"] != self.generator_samples:
            problems.append(f"generator_samples {report['sizes']['generator_samples']} "
                            f"!= {self.generator_samples} of the scenario")
        problems = [p for p in problems if p]
        return ("; ".join(problems) or None), info


# ---------------------------------------------------------------------------
# spectral: the library's dense path, called directly


class Spectral:
    """Four seeded 2-D blocks (three random, one separable FrFT); per block a
    fast forward+inverse, conv_cc, conv_sd, dtsaft and a fast-vs-quadrature
    cross-check."""

    SIZES = {
        # fwd/inv halfwidth, conv halfwidth, sd terms, dtsaft terms, dtsaft
        # points, quadrature outputs
        "full": dict(fwd=8, conv=4, sd_terms=40, dt_terms=3000, dt_points=4096, quad_out=1024),
        "tiny": dict(fwd=2, conv=1, sd_terms=6, dt_terms=60, dt_points=128, quad_out=64),
    }
    PER_UNIT = 16

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, seed: int, workdir: Path) -> None:
        from saftlab.params import preset, random_params

        sz = self.size
        rng = np.random.default_rng(seed)
        params = [random_params(2, rng) for _ in range(3)]
        params.append(preset("separable_frft", theta=list(rng.uniform(0.3, 1.3, 2))))
        self.blocks = []
        for p in params:
            f_big = _gaussian(rng, sz["fwd"], self.PER_UNIT)
            f_small = _gaussian(rng, sz["conv"], self.PER_UNIT)
            g_small = _gaussian(rng, sz["conv"], self.PER_UNIT)
            s_short = _random_sequence(rng, sz["sd_terms"], 3)
            s_long = _random_sequence(rng, sz["dt_terms"], 30)
            w = rng.uniform(-4.0, 4.0, size=(sz["dt_points"], 2))
            n_out = f_small.values.size
            quad_idx = np.sort(rng.choice(n_out, size=sz["quad_out"], replace=False))
            probe = rng.uniform(-2.0, 2.0, size=(16, 2))
            self.blocks.append(dict(p=p, f_big=f_big, f_small=f_small, g_small=g_small,
                                    s_short=s_short, s_long=s_long, w=w,
                                    quad_idx=quad_idx, probe=probe))

    def ops(self, iteration: int) -> list[Op]:
        out = []
        for i, b in enumerate(self.blocks):
            out += [
                Op(f"fwd_inv_{i}", lambda b=b: self._fwd_inv(b),
                   lambda back, b=b: (_over("round trip", _rel(back.values, b["f_big"].values),
                                            ROUNDTRIP_TOL), {})),
                Op(f"conv_cc_{i}", lambda b=b: self._conv_cc(b),
                   lambda h, b=b: self._check_cc(b, h)),
                Op(f"conv_sd_{i}", lambda b=b: self._conv_sd(b),
                   lambda h, b=b: self._check_sd(b, h)),
                Op(f"dtsaft_{i}", lambda b=b: self._dtsaft(b),
                   lambda v, b=b: self._check_dtsaft(b, v)),
                Op(f"quad_check_{i}", lambda b=b: self._quad(b),
                   lambda pair: (_over("fast vs quadrature", _rel(*pair), QUAD_TOL), {})),
            ]
        return out

    @staticmethod
    def _fwd_inv(b):
        from saftlab.saft import saft_forward, saft_inverse, saft_plan

        plan = saft_plan(b["p"], b["f_big"])
        return saft_inverse(plan, saft_forward(plan, b["f_big"]))

    @staticmethod
    def _conv_cc(b):
        from saftlab.conv import conv_cc

        return conv_cc(b["p"], b["f_small"], b["g_small"])

    @staticmethod
    def _conv_sd(b):
        from saftlab.conv import conv_sd

        return conv_sd(b["p"], b["s_short"], b["f_small"])

    @staticmethod
    def _dtsaft(b):
        from saftlab.saft import dtsaft

        return dtsaft(b["p"], b["s_long"], b["w"])

    @staticmethod
    def _quad(b):
        from saftlab.saft import kernel_quadrature, saft_forward, saft_plan

        p, f = b["p"], b["f_small"]
        plan = saft_plan(p, f)
        fast = saft_forward(plan, f).values.reshape(-1)[b["quad_idx"]]
        w = plan.w_points().reshape(-1, 2)[b["quad_idx"]]
        ref = kernel_quadrature(p, f.points().reshape(-1, 2), f.values.reshape(-1),
                                f.cell_volume, w)
        return fast, ref

    # The grid factorizations are checked at 16 probe frequencies, each side
    # by direct quadrature; the Riemann sums factor exactly, so only rounding
    # separates them.

    @staticmethod
    def _quad_of(p, g, w):
        from saftlab.saft import kernel_quadrature

        return kernel_quadrature(p, g.points().reshape(-1, 2), g.values.reshape(-1),
                                 g.cell_volume, w)

    def _check_cc(self, b, h):
        from saftlab.params import modulation

        p, w = b["p"], b["probe"]
        lhs = self._quad_of(p, h, w)
        rhs = np.conj(modulation(p, w)) * self._quad_of(p, b["f_small"], w) \
            * self._quad_of(p, b["g_small"], w)
        return _over("cc factorization", _rel(lhs, rhs), FACTOR_CC_SD_TOL), {}

    def _check_sd(self, b, h):
        from saftlab.params import modulation
        from saftlab.saft import dtsaft

        p, w = b["p"], b["probe"]
        lhs = self._quad_of(p, h, w)
        rhs = np.conj(modulation(p, w)) * dtsaft(p, b["s_short"], w) \
            * self._quad_of(p, b["f_small"], w)
        return _over("sd factorization", _rel(lhs, rhs), FACTOR_CC_SD_TOL), {}

    @staticmethod
    def _check_dtsaft(b, vals):
        from saftlab.saft import kernel_quadrature

        keys, coeff = b["s_long"].as_arrays()
        idx = slice(0, None, max(1, len(vals) // 64))
        ref = kernel_quadrature(b["p"], keys.astype(float), coeff, 1.0, b["w"][idx])
        return _over("dtsaft vs direct kernel", _rel(vals[idx], ref), EXACT_SUM_TOL), {}


# ---------------------------------------------------------------------------
# cli_files: file-driven CLI calls on seeded input files


class CliFiles:
    """transform + inverse of a grid file, conv dd and dtsaft of CSVs, and
    dynsamp check / recover (both methods) on a Gaussian generator grid."""

    SIZES = {
        # grid halfwidth, sequence terms and radius, dtsaft mesh side
        "full": dict(grid=16, seq_terms=6000, seq_radius=50, mesh=48),
        "tiny": dict(grid=2, seq_terms=50, seq_radius=6, mesh=6),
    }
    PER_UNIT = 16
    LATTICE = "[[2,0],[0,2]]"

    def __init__(self, size: str):
        self.size = self.SIZES[size]

    def setup(self, seed: int, workdir: Path) -> None:
        from saftlab.dynsamp import (
            filtered_levels,
            integer_sample_levels,
            measure_from_samples,
            sampled_generator,
        )
        from saftlab.grid import SeqFn, sample_generator, sampling_grid
        from saftlab.io import write_grid, write_params, write_sequence
        from saftlab.lattice import build_lattice
        from saftlab.params import preset
        from saftlab.sis import build_sis, synthesize

        sz = self.size
        rng = np.random.default_rng(seed)
        d = workdir / "cli_files"
        d.mkdir(parents=True, exist_ok=True)
        self.d = d
        self.frft = preset("separable_frft", theta=list(rng.uniform(0.3, 1.3, 2)))
        write_params(d / "frft.json", self.frft)
        ft = preset("ft", n=2)
        write_params(d / "ft.json", ft)

        # Writing and reading grid files formats every value as text, so the
        # cost depends on how many samples underflow to exact zeros; a fixed
        # width and center keep that count, and with it the work, the same
        # for every seed, while the seeded plane wave sets the values.
        self.grid = sample_generator(
            "gaussian", sampling_grid(sz["grid"], self.PER_UNIT, n=2), sigma=0.7,
            modulation=list(rng.uniform(-2.0, 2.0, 2)))
        write_grid(d / "f.grid", self.grid)
        c1, c2 = _draw_filter_pair(rng)
        a0 = complex(rng.uniform(0.25, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        self.filt = SeqFn(n=2, entries={(0, 0): a0, (-1, -1): c1, (-1, -2): c2})
        write_sequence(d / "filt.csv", self.filt)
        self.seq = _random_sequence(rng, sz["seq_terms"], sz["seq_radius"])
        write_sequence(d / "seq.csv", self.seq)

        # The generator and the truth's support are fixed, so the recovery
        # window, and with it the work, is the same for every seed.  The
        # width suits both grids: build_sis requires the spectrum to decay
        # at the band edge.
        phi = sample_generator("gaussian", sampling_grid(2, self.PER_UNIT, n=2), sigma=0.5)
        write_grid(d / "phi.grid", phi)
        lat = build_lattice(json.loads(self.LATTICE))
        self.truth = SeqFn(n=2, entries={
            k: complex(*rng.normal(size=2))
            for k in [(-2, -2), (-2, 2), (0, 0), (2, -2), (2, 2)]})
        levels = [sampled_generator(g) for g in filtered_levels(ft, self.filt, phi, lat.m, "cc")]
        ms = measure_from_samples(ft, lat, self.truth, levels)
        _write_measurements(d / "meas.csv", ms.levels)
        signal = synthesize(build_sis(ft, phi), self.truth)
        _write_measurements(d / "meas_cont.csv",
                            integer_sample_levels(ft, self.filt, signal, lat.m))
        self.probe = rng.uniform(-0.5, 0.5, size=(32, 2))

    def ops(self, iteration: int) -> list[Op]:
        d = {k: str(self.d / v) for k, v in dict(
            frft="frft.json", ft="ft.json", f="f.grid", F="F.grid", back="back.grid",
            filt="filt.csv", seq="seq.csv", conv="conv.csv", dt="dt.csv", phi="phi.grid",
            field="field.csv", meas="meas.csv", meas_cont="meas_cont.csv",
            rec_d="rec_d.csv", rec_c="rec_c.csv").items()}
        m = self.size["mesh"]
        dyn = ["--params", d["ft"], "--phi", d["phi"], "--filter", d["filt"], "--M", self.LATTICE]
        return [
            Op("transform", _cli(["transform", "--params", d["frft"], "--in", d["f"],
                                  "--out", d["F"]]), _no_check),
            Op("inverse", _cli(["inverse", "--params", d["frft"], "--in", d["F"],
                                "--out", d["back"]]), self._check_roundtrip),
            Op("conv_dd", _cli(["conv", "--kind", "dd", "--params", d["frft"], "--lhs", d["filt"],
                                "--rhs", d["seq"], "--out", d["conv"]]), self._check_conv),
            Op("dtsaft", _cli(["dtsaft", "--params", d["frft"], "--seq", d["seq"],
                               f"--wgrid=-0.5:0.5:{m}", "--out", d["dt"]]), self._check_dtsaft),
            Op("dynsamp_check", _cli(["dynsamp", "check"] + dyn + ["--out", d["field"]]),
               self._check_verdict),
            Op("recover_discrete", _cli(["dynsamp", "recover"] + dyn + [
                "--measurements", d["meas"], "--method", "discrete", "--out", d["rec_d"]]),
               lambda _o: self._check_recovered("rec_d.csv")),
            Op("recover_continuous", _cli(["dynsamp", "recover"] + dyn + [
                "--measurements", d["meas_cont"], "--method", "continuous", "--out", d["rec_c"]]),
               lambda _o: self._check_recovered("rec_c.csv")),
        ]

    def _check_roundtrip(self, _stdout):
        from saftlab.io import read_grid

        back = read_grid(self.d / "back.grid")
        return _over("file round trip", _rel(back.values, self.grid.values), ROUNDTRIP_TOL), {}

    def _check_conv(self, _stdout):
        from saftlab.io import read_sequence
        from saftlab.params import modulation
        from saftlab.saft import dtsaft

        p, w = self.frft, self.probe
        out = read_sequence(self.d / "conv.csv", n=2)
        lhs = dtsaft(p, out, w)
        rhs = np.conj(modulation(p, w)) * dtsaft(p, self.filt, w) * dtsaft(p, self.seq, w)
        return _over("dd factorization", _rel(lhs, rhs), EXACT_SUM_TOL), {}

    def _check_dtsaft(self, _stdout):
        from saftlab.saft import kernel_quadrature

        rows = np.loadtxt(self.d / "dt.csv", delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (self.size["mesh"] ** 2, 4):
            return f"dtsaft CSV has shape {rows.shape}", {}
        rows = rows[:: max(1, len(rows) // 64)]
        keys, coeff = self.seq.as_arrays()
        ref = kernel_quadrature(self.frft, keys.astype(float), coeff, 1.0, rows[:, :2])
        return _over("dtsaft CSV vs direct kernel", _rel(rows[:, 2] + 1j * rows[:, 3], ref),
                     EXACT_SUM_TOL), {}

    @staticmethod
    def _check_verdict(stdout):
        verdict = json.loads(stdout.strip().splitlines()[-1])["verdict"]
        return (None if verdict == "pass" else f"verdict {verdict}"), {}

    def _check_recovered(self, name: str):
        from saftlab.io import read_sequence

        rec = read_sequence(self.d / name, n=2)
        keys = set(rec.entries) | set(self.truth.entries)
        err = max(abs(rec.get(k) - self.truth.get(k)) for k in keys)
        return _over("recovered coefficients", err, RECOVERY_TOL), {}


def _write_measurements(path: Path, channels) -> None:
    rows = ["k1,k2,channel,re,im"]
    for j, seq in enumerate(channels):
        for k in sorted(seq.entries):
            v = seq.entries[k]
            rows.append(f"{k[0]},{k[1]},{j},{v.real!r},{v.imag!r}")
    path.write_text("\n".join(rows) + "\n")


WORKLOADS = {"section5": Section5, "spectral": Spectral, "cli_files": CliFiles}
