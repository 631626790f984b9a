"""Acceptance suite: the contractual checks, one test and one printed
pass/fail line per criterion.

Each criterion prints a single summary line through the capture manager's
disabled context, so a plain ``pytest`` run shows the verdict table even
though passing tests normally swallow their output.  Tolerances are
pinned constants here — they are the contract, not tunables.
"""

import sys
import time

import numpy as np
import pytest

from saftlab.conv import (
    commute_check,
    theorem_residual_cc,
    theorem_residual_dd,
    theorem_residual_sd,
)
from saftlab.grid import (
    SeqFn,
    sample_generator,
    sampling_grid,
    uniform_grid,
)
from saftlab.lattice import build_lattice
from saftlab.params import preset, random_params
from saftlab.repro import build_example, meyer_psi, run_example
from saftlab.saft import (
    downsample_check,
    dtsaft,
    parseval_check,
    poisson_check,
    saft_forward,
    saft_inverse,
    saft_plan,
)
from saftlab.sis import grammian

MASTER_SEED = 987654321

_CAPMAN = None


@pytest.fixture(scope="module", autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def _line(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    msg = f"[criterion {num:02d}] {tag} {detail}"
    if _CAPMAN is not None:
        # fd-level capture swallows even sys.__stdout__; suspend it so the
        # verdict line reaches the terminal for passing tests too
        with _CAPMAN.global_and_fixture_disabled():
            print("\n" + msg, flush=True)
    else:
        print(msg, flush=True)
    assert ok, f"criterion {num}: {detail}"


def _rand_seq(rng, n=1, count=6, radius=3):
    keys = rng.integers(-radius, radius + 1, (count, n))
    return SeqFn(
        n, {tuple(k): complex(a, b) for k, (a, b) in zip(keys, rng.normal(size=(count, 2)))}
    )


def _gaussian(rng, grid):
    sigma = rng.uniform(0.45, 0.9)
    center = rng.uniform(-0.5, 0.5)
    mod = rng.uniform(-0.7, 0.7)
    return sample_generator("gaussian", grid, sigma=sigma, center=center, modulation=mod)


ALL_PRESETS = [
    preset("ft", 1),
    preset("ft", 2),
    preset("ft", 3),
    preset("lct", A=[[0.6]], B=[[1.25]], C=[[-0.416]], D=[[0.8]]),
    preset("separable_lct", a=[0.6, 1.0], b=[1.25, 0.5], c=[-0.416, -2.0], d=[0.8, 0.0]),
    preset("separable_frft", theta=[0.7]),
    preset("separable_frft", theta=[0.4, 1.9]),
    preset("nonseparable_fresnel", B=[[1.0, 0.3], [0.3, 2.0]]),
    preset("separable_fresnel", b=[0.8, 1.6]),
    preset("separable_lorentz", phi=[0.5]),
    preset("custom", A=[[0.6]], B=[[1.25]], C=[[-0.416]], D=[[0.8]], P=[0.3], Q=[-0.45]),
]


@pytest.fixture(scope="module")
def scenario():
    return build_example()


def test_criterion_01_fast_backend_matches_quadrature():
    budget = 30.0
    tol = 1e-6
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    cases = []
    for trial in range(20):
        cases.append((random_params(1, rng), 1))
    for p in ALL_PRESETS:
        cases.append((p, p.n))
    grids = {1: sampling_grid(6, 16), 2: sampling_grid(4, 8, n=2), 3: sampling_grid(2, 4, n=3)}
    for p, n in cases:
        f = _gaussian(rng, grids[n])
        fast = saft_forward(saft_plan(p, grids[n], "fast"), f)
        quad = saft_forward(saft_plan(p, grids[n], "quad"), f)
        err = np.linalg.norm((fast.values - quad.values).reshape(-1)) / np.linalg.norm(
            quad.values.reshape(-1)
        )
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    _line(
        1,
        worst < tol and elapsed < budget,
        f"fast vs quadrature: worst rel L2 {worst:.2e} < {tol:g} over 20 random "
        f"n=1 blocks + {len(ALL_PRESETS)} presets ({elapsed:.1f}s < {budget:g}s)",
    )


def test_criterion_02_inverse_forward_identity():
    budget = 60.0
    tol = 1e-6
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    # n = 1, 512 samples
    p1 = random_params(1, rng)
    g1 = uniform_grid(-8.0, 8.0, 512)
    f1 = sample_generator("gaussian", g1, sigma=0.8, center=0.2, chirp=0.4)
    plan1 = saft_plan(p1, g1, "fast")
    back1 = saft_inverse(plan1, saft_forward(plan1, f1))
    worst = max(worst, float(np.linalg.norm(back1.values - f1.values) / np.linalg.norm(f1.values)))
    # n = 2, 256 x 256 samples
    p2 = random_params(2, rng)
    g2 = uniform_grid([-4.0, -4.0], [4.0, 4.0], (256, 256))
    f2 = sample_generator("gaussian", g2, sigma=[0.7, 0.9], center=[0.1, -0.3])
    plan2 = saft_plan(p2, g2, "fast")
    back2 = saft_inverse(plan2, saft_forward(plan2, f2))
    worst = max(worst, float(np.linalg.norm(back2.values - f2.values) / np.linalg.norm(f2.values)))
    elapsed = time.perf_counter() - t0
    _line(
        2,
        worst < tol and elapsed < budget,
        f"inverse(forward(f)) = f: worst rel L2 {worst:.2e} < {tol:g} for "
        f"n=1 N=512 and n=2 256x256 ({elapsed:.1f}s < {budget:g}s)",
    )


def test_criterion_03_convolution_factorizations():
    tol_cc, tol_sd, tol_dd = 1e-6, 1e-6, 1e-12
    rng = np.random.default_rng(MASTER_SEED + 2)
    grid = sampling_grid(6, 16)
    worst_cc = worst_sd = worst_dd = 0.0
    for _ in range(20):
        p = random_params(1, rng)
        worst_cc = max(worst_cc, theorem_residual_cc(p, _gaussian(rng, grid), _gaussian(rng, grid)))
    for _ in range(20):
        p = random_params(1, rng)
        worst_sd = max(worst_sd, theorem_residual_sd(p, _rand_seq(rng), _gaussian(rng, grid)))
    for _ in range(20):
        p = random_params(1, rng)
        w = rng.uniform(-2, 2, (32, 1))
        worst_dd = max(worst_dd, theorem_residual_dd(p, _rand_seq(rng), _rand_seq(rng), w))
    ok = worst_cc < tol_cc and worst_sd < tol_sd and worst_dd < tol_dd
    _line(
        3,
        ok,
        f"convolution factorizations (20 trials each): cc {worst_cc:.2e} < {tol_cc:g}, "
        f"sd {worst_sd:.2e} < {tol_sd:g}, dd {worst_dd:.2e} < {tol_dd:g}",
    )


def test_criterion_04_sequence_transform_modulus_periodicity():
    tol = 1e-12
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst = 0.0
    for _ in range(20):
        p = random_params(1, rng)
        s = _rand_seq(rng)
        w = rng.uniform(-2, 2, (16, 1))
        base = np.abs(dtsaft(p, s, w))
        scale = max(float(base.max()), 1.0)
        for l in range(-3, 4):
            if l == 0:
                continue
            shifted = np.abs(dtsaft(p, s, w + l * p.B[0, 0]))
            worst = max(worst, float(np.max(np.abs(shifted - base))) / scale)
    _line(
        4,
        worst < tol,
        f"sequence-transform modulus is output-lattice periodic (20 sequences, "
        f"|l| <= 3): worst rel dev {worst:.2e} < {tol:g}",
    )


def test_criterion_05_poisson_summation():
    tol = 1e-6
    rng = np.random.default_rng(MASTER_SEED + 4)
    grid = sampling_grid(8, 16)
    blocks = [preset("ft", 1)] + [random_params(1, rng) for _ in range(5)]
    worst = 0.0
    decayed = True
    for p in blocks:
        f = sample_generator("gaussian", grid, sigma=rng.uniform(0.5, 0.8))
        rep = poisson_check(p, f, rng.uniform(-1, 1, (12, 1)))
        decayed = decayed and rep.decayed
        worst = max(worst, rep.sup)
    _line(
        5,
        worst < tol and decayed,
        f"summation identity (plain FT + 5 random n=1 blocks): worst sup residual "
        f"{worst:.2e} < {tol:g}",
    )


def test_criterion_06_lattice_restriction():
    tol = 1e-10
    rng = np.random.default_rng(MASTER_SEED + 5)
    p = preset("ft", 2)
    lat = build_lattice([[2, 0], [0, 2]])
    worst = 0.0
    for _ in range(10):
        c = _rand_seq(rng, n=2, count=10, radius=4)
        w = rng.uniform(-1.5, 1.5, (20, 2))
        worst = max(worst, downsample_check(p, lat, c, w))
    _line(
        6,
        worst < tol,
        f"restriction-to-sublattice identity (M = 2I, 10 sequences): worst rel "
        f"residual {worst:.2e} < {tol:g}",
    )


def test_criterion_07_filter_commutation():
    tol = 1e-6
    rng = np.random.default_rng(MASTER_SEED + 6)
    grid = sampling_grid(5, 16)
    worst = 0.0
    for _ in range(10):
        p = random_params(1, rng)
        worst = max(
            worst,
            commute_check(p, _gaussian(rng, grid), _rand_seq(rng, count=4, radius=2), _gaussian(rng, grid)),
        )
    _line(
        7,
        worst < tol,
        f"continuous/discrete filtering commutes (10 trials): worst rel gap "
        f"{worst:.2e} < {tol:g}",
    )


def test_criterion_08_energy_identity():
    tol = 1e-8
    rng = np.random.default_rng(MASTER_SEED + 7)
    worst = 0.0
    for _ in range(10):
        p = random_params(1, rng)
        s = _rand_seq(rng, count=8, radius=5)
        rep = parseval_check(p, s)
        worst = max(worst, rep["abs_err"])
    _line(
        8,
        worst < tol,
        f"cell-integral energy identity (10 sequences): worst abs err {worst:.2e} < {tol:g}",
    )


def test_criterion_09_window_partition_and_grammian(scenario):
    tol_partition = 1e-12
    gram_tol = 1e-8
    w = np.linspace(-0.5, 0.5, 1024)
    total = meyer_psi(w - 1.0) ** 2 + meyer_psi(w) ** 2 + meyer_psi(w + 1.0) ** 2
    part_dev = float(np.max(np.abs(total - 1.0)))

    xs = np.arange(33) / 33.0
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    cell = mesh @ scenario.params.B.T
    g = grammian(scenario.model, cell)
    gram_dev = float(np.max(np.abs(g - 1.0)))
    ok = part_dev < tol_partition and gram_dev < gram_tol
    _line(
        9,
        ok,
        f"squared window partition of unity {part_dev:.2e} < {tol_partition:g} "
        f"(1024-point grid); generator Grammian within {gram_dev:.2e} of 1 "
        f"(< {gram_tol:g}) over the fundamental cell",
    )


def test_criterion_10_worked_example_end_to_end(scenario):
    budget = 120.0
    tol_fact = 1e-8
    tol_rec = 1e-6
    t0 = time.perf_counter()
    report, recovered = run_example(scenario)
    elapsed = time.perf_counter() - t0
    checks = {
        "verdict": report["verdict"] == "pass",
        "stability": report["discrete_stability"]["verdict"] == "pass",
        "factorization": report["factorization_residual"] is not None
        and report["factorization_residual"] < tol_fact,
        "discrete recovery": report["recovery_error"] is not None
        and report["recovery_error"] < tol_rec,
        "continuous recovery": report["recovery_error_continuous"] is not None
        and report["recovery_error_continuous"] < tol_rec,
        "mutual agreement": report["mutual_error"] is not None
        and report["mutual_error"] < tol_rec,
        "coefficients returned": recovered is not None,
        "runtime": elapsed < budget,
    }
    failed = [k for k, v in checks.items() if not v]
    _line(
        10,
        not failed,
        (
            f"worked 2-D recovery (c1=1, c2=1/2): factorization "
            f"{report['factorization_residual']:.2e} < {tol_fact:g}, discrete "
            f"{report['recovery_error']:.2e} / continuous "
            f"{report['recovery_error_continuous']:.2e} / mutual "
            f"{report['mutual_error']:.2e} < {tol_rec:g} ({elapsed:.1f}s < {budget:g}s)"
            if not failed
            else f"failed checks: {failed}"
        ),
    )


def test_criterion_11_degenerate_filters_fail_loudly(tmp_path):
    from saftlab.cli import main
    from saftlab.io import write_grid, write_params, write_sequence

    p1 = preset("ft", 1)
    write_params(tmp_path / "p.json", p1)
    g = sampling_grid(6, 16)
    write_grid(tmp_path / "phi.grid", sample_generator("gaussian", g, sigma=0.6))
    write_sequence(tmp_path / "zero.csv", SeqFn(1, {}))

    code_zero_filter = main(
        ["dynsamp", "check", "--params", str(tmp_path / "p.json"),
         "--phi", str(tmp_path / "phi.grid"), "--filter", str(tmp_path / "zero.csv"),
         "--M", "[[2]]", "--out", str(tmp_path / "field.csv")]
    )
    code_zero_coeffs = main(
        ["repro", "section5", "--c1", "0", "--c2", "0",
         "--outdir", str(tmp_path / "figs")]
    )
    ok = code_zero_filter == 2 and code_zero_coeffs == 2
    _line(
        11,
        ok,
        f"degenerate filters are rejected with exit code 2: zero filter -> "
        f"{code_zero_filter}, zero symbol coefficients -> {code_zero_coeffs}",
    )
