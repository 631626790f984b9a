"""Budgeted phase-sum kernels against the output-chunked loops they replaced.

The oracles in ``phase_oracles.py`` sum one exponential per (output, sample)
pair, outputs taken 4,096 at a time.  Two kernels replace them:

* the direct kernel (`_phase_sum`, behind `kernel_quadrature`, the
  sparse side of `_seq_phase_sum` and `filter_symbol` on combs, where it
  replaced a complex mat-vec) still sums one term per (output, sample)
  pair, in chunks sized by an element budget.  Scattered samples get one
  phase ``nu.t`` per pair, summed elementwise.  Samples that repeat
  their coordinates and fill at least a quarter of their box (a grid) take
  the box route, which contracts the dense box with one table of
  exponentials per (output, distinct coordinate) on each axis, axis by
  axis; in a sparser box they get one phase per pair too.  A row's terms
  go through numpy's pairwise sum, where the oracles used BLAS for the
  phases and the sums, and every exponential is the real cosine and sine
  of a phase reduced to a fraction of a turn, where the oracles took
  complex ``np.exp`` of the whole phase (and rounded ``2 pi nu.t`` at its
  full size).  Values agree within those rounding bounds, and the box
  route agrees with the per-pair kernel as it was (kept in
  ``phase_oracles.py``) within a few eps of the term mass per turn of
  phase; so does `grid_quadrature` on the same boxes, within its own bound.
  Every step treats an output alone, so a point gets the same bits alone
  as in any batch; and where the phase itself is exact (a quarter turn
  past 10^6 turns), so is the exponential to a few eps.  Its outputs are
  split over `_WORKERS` threads whose chunks share one budget, and the
  bits depend neither on how many nor on the budget;
* the grid kernel (`grid_phase_sum`, `grid_quadrature`, the quad inverse,
  `sis.spectrum_at`, `filter_symbol` on grid filters, the image sum of
  `poisson_check`) forms one exponential per (distinct output coordinate
  of a chunk, axis sample) and adds the same terms in a different order.
  Its phases are rounded per axis, so values agree within ``1e-12`` of the
  term mass ``sum |f| h^n / sqrt|det B|``, which bounds every output of the
  sum.  Outputs drawn from small per-axis pools check it against its own
  form before the per-chunk dedupe as well.

Integer supports (`dtsaft`, the left side of `poisson_check`) go through
`_seq_phase_sum`.  It sums over the support's dense bounding box on the grid
kernel when that forms no more exponentials than there are keys and the box
is small next to the support and the budget; a sparse or wide support takes
the direct kernel, which costs nothing per empty box cell.  Both routes are
checked against the direct kernel within ``1e-12`` of the term mass, and
`dtsaft` still against its oracle within the direct kernel's own bound.

Patching `PHASE_BUDGET` down to a few elements runs every case over many
chunks, down to one output per chunk, and moves boxes onto the direct route.
"""

import threading
import tracemalloc
from math import ceil, prod
from unittest.mock import patch

import numpy as np
import phase_oracles as oracle
import pytest
from conftest import coarse_sis
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saftlab import saft, sis
from saftlab.dynsamp import filter_symbol
from saftlab.grid import GridFn, SeqFn, mesh, sample_generator, sampling_grid
from saftlab.params import _reduced_points, inverse_params, preset, random_params
from saftlab.saft import (
    DEFAULT_LATTICE_CUTOFF,
    PHASE_BUDGET,
    _phase_sum,
    _seq_phase_sum,
    dtsaft,
    grid_phase_sum,
    grid_quadrature,
    integer_samples,
    kernel_quadrature,
    poisson_check,
    saft_forward,
    saft_inverse,
    saft_plan,
)
from saftlab.sis import resolved_band_mask, spectrum_at

EPS = np.finfo(float).eps
GRID_RTOL = 1e-12

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: per-axis sample counts: non-square, down to one sample per axis
_MAX_SIDE = {1: 40, 2: 14, 3: 6}

_BUDGETS = st.one_of(st.integers(1, 64), st.just(PHASE_BUDGET))


@st.composite
def _case(draw, n: int):
    """A random chirped block with offsets, a random complex grid and a
    random number of output points (0 and 1 included)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_params(n, rng)
    shape = tuple(draw(st.integers(1, _MAX_SIDE[n])) for _ in range(n))
    g = GridFn(n, shape, rng.uniform(-3.0, 0.0, n), rng.uniform(0.1, 0.5, n),
               rng.normal(size=shape) + 1j * rng.normal(size=shape))
    n_out = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    w = rng.uniform(-6.0, 6.0, (n_out, n))
    return p, g, w


def _mass(p, g: GridFn) -> float:
    """Sum of the term magnitudes, which bounds every value of the sum."""
    return float(np.sum(np.abs(g.values))) * g.cell_volume / np.sqrt(p.abs_det_b)


def _direct(p, g: GridFn, w):
    return oracle.kernel_quadrature(
        p, g.points().reshape(-1, p.n), g.values.reshape(-1), g.cell_volume, w)


# ---------------------------------------------------------------------------
# grid kernel against the direct sum


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_grid_quadrature_matches_direct_sum(n, data, budget):
    p, g, w = data.draw(_case(n))
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = grid_quadrature(p, g, w)
    ref = _direct(p, g, w)
    assert got.shape == ref.shape == (len(w),)
    if len(w):
        assert np.max(np.abs(got - ref)) <= GRID_RTOL * _mass(p, g)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_filter_symbol_of_a_grid_filter_matches_direct_sum(n, data, budget):
    # the classical symbol of a grid filter: a plain phase sum, no chirps
    _, g, w = data.draw(_case(n))
    xi = w.reshape(-1, 1, n)
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = filter_symbol(preset("ft", n), g, xi)
    ref = oracle.filter_symbol(preset("ft", n), g, xi)
    assert got.shape == ref.shape == (len(w), 1)
    if len(w):
        mass = float(np.sum(np.abs(g.values))) * g.cell_volume
        assert np.max(np.abs(got - ref)) <= GRID_RTOL * mass


@st.composite
def _comb_case(draw, n: int):
    """A comb of 1 to 12 distinct taps in [-6, 6]^n, or in 2-D the worked
    example's taps at (-1, -1) and (-1, -2) with 0.5j and 0.25 + 0.5j and a
    row at (0.7, 0), whose symbol a BLAS mat-vec rounds by its batch;
    each of 1 to 30 reduced frequencies comes with a stack of integer
    shifts, and a permutation of the flattened points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 30))
    centres = rng.uniform(-3.0, 3.0, (rows, 1, n))
    if n == 2 and draw(st.booleans()):
        filt = SeqFn.from_arrays(2, np.array([[-1, -1], [-1, -2]]), [0.5j, 0.25 + 0.5j])
        centres[0] = (0.7, 0.0)
    else:
        keys = np.unique(rng.integers(-6, 7, (draw(st.integers(1, 12)), n)), axis=0)
        vals = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
        filt = SeqFn.from_arrays(n, keys, vals)
    pts = centres + saft.lattice_shifts(n, draw(st.integers(0, 2)))
    return filt, pts, rng.permutation(pts.size // n)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_filter_symbol_of_a_comb_does_not_depend_on_the_batch(n, data, budget):
    # the direct kernel: a point's symbol has the same bits alone, in its
    # batch and in a permuted flat batch, and it agrees with the mat-vec
    filt, pts, perm = data.draw(_comb_case(n))
    p, flat = preset("ft", n), pts.reshape(-1, n)
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = filter_symbol(p, filt, pts)
        alone = np.array([filter_symbol(p, filt, x[None])[0] for x in flat])
        permuted = filter_symbol(p, filt, flat[perm])
    assert got.shape == pts.shape[:-1]
    assert np.array_equal(_bits(got.reshape(-1)), _bits(alone))
    assert np.array_equal(_bits(got.reshape(-1)[perm]), _bits(permuted))
    k, v = filt.as_arrays()
    ref = oracle.filter_symbol(p, filt, pts)
    bound = _dot_bound(p, flat, k.astype(float), float(np.sum(np.abs(v))))
    assert np.max(np.abs(got - ref)) <= bound


def test_grid_quadrature_on_a_shift_stack():
    # the shape build_D asks for: (points, cosets, shifts, n)
    rng = np.random.default_rng(3)
    p = random_params(2, rng)
    g = sample_generator("gaussian", sampling_grid(2, 8, n=2), sigma=0.6)
    w = rng.uniform(-2.0, 2.0, (9, 4, 17, 2))
    got = grid_quadrature(p, g, w)
    assert got.shape == (9, 4, 17)
    ref = _direct(p, g, w.reshape(-1, 2)).reshape(got.shape)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@st.composite
def _pooled_outputs(draw, n: int):
    """A random complex grid on random, non-square axes (down to one
    sample each), and outputs whose coordinates come from small per-axis
    pools, so they repeat within and across chunks; a pool may hold both
    ``0.0`` and ``-0.0``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.integers(1, _MAX_SIDE[n])) for _ in range(n))
    axes = [rng.uniform(-3.0, 3.0, m) for m in shape]
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    n_out = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    cols = []
    for _ in range(n):
        pool = list(rng.uniform(-6.0, 6.0, draw(st.integers(1, 4))))
        pool += [0.0, -0.0] if draw(st.booleans()) else []
        cols.append(rng.choice(pool, n_out))
    return np.stack(cols, axis=-1), axes, vals


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_grid_phase_sum_of_repeated_coordinates_matches_the_oracles(n, data, budget):
    nu, axes, vals = data.draw(_pooled_outputs(n))
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = grid_phase_sum(nu, axes, vals)
    before = oracle.grid_phase_sum(nu, axes, vals)
    # the Fourier block has no chirp, offset or scale: the bare phase sum
    direct = kernel_quadrature(preset("ft", n), mesh(axes).reshape(-1, n),
                               vals.reshape(-1), 1.0, nu)
    assert got.shape == before.shape == direct.shape == (len(nu),)
    if len(nu):
        bound = GRID_RTOL * float(np.sum(np.abs(vals)))
        assert np.max(np.abs(got - before)) <= bound
        assert np.max(np.abs(got - direct)) <= bound


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_grid_phase_sum_forms_one_table_row_per_distinct_coordinate(n, data, budget):
    nu, axes, vals = data.draw(_pooled_outputs(n))
    with patch.object(saft, "PHASE_BUDGET", budget), \
            patch.object(saft, "_axis_table", wraps=saft._axis_table) as table:
        grid_phase_sum(nu, axes, vals)
    # chunks as the kernel sizes them; a set holds 0.0 and -0.0 once
    step = max(1, budget // (sum(vals.shape) + 2 * prod(vals.shape[1:])))
    want = [sorted(set(nu[lo:lo + step, i].tolist()))
            for lo in range(0, len(nu), step) for i in range(n)]
    assert [sorted(c.args[0].tolist()) for c in table.call_args_list] == want


@pytest.mark.parametrize("n", [1, 2])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_spectrum_at_inside_and_outside_the_resolved_band(n, data, budget):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p = random_params(n, rng)
    phi = sample_generator("gaussian", sampling_grid(2, 4, n=n), sigma=0.6)
    model = coarse_sis(p, phi)
    tmpl = model.spectrum
    half = 0.5 * np.asarray(tmpl.shape) * tmpl.spacing
    centre = tmpl.origin + half
    # reduced frequencies over 1.6x the band: about half fall outside
    n_out = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)))
    nu = centre + rng.uniform(-1.6, 1.6, (n_out, n)) * half
    w = nu @ p.B.T
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = spectrum_at(model, w)
    ref = oracle.quad_spectrum(model, phi, w)
    mask = resolved_band_mask(model, w)
    assert np.all(got[~mask] == 0) and np.all(ref[~mask] == 0)
    if np.any(mask):
        assert np.max(np.abs(got - ref)) <= GRID_RTOL * _mass(p, phi)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_quad_inverse_matches_direct_sum(n, data, budget):
    # the sources w = B nu of the quad inverse sit on a sheared grid; the
    # inverse block's B is -B^T, so the grid kernel sums at the outputs -t
    # over the rectangular reduced grid nu
    p, g, _ = data.draw(_case(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    plan = saft_plan(p, g, "quad")
    out = plan.out_template
    F = out.with_values(rng.normal(size=out.shape) + 1j * rng.normal(size=out.shape))
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = saft_inverse(plan, F).values.reshape(-1)
    p_inv = inverse_params(p)
    weight = p.abs_det_b * out.cell_volume
    ref = kernel_quadrature(p_inv, plan.w_points().reshape(-1, n), F.values.reshape(-1),
                            weight, g.points().reshape(-1, n))
    mass = float(np.sum(np.abs(F.values))) * weight / np.sqrt(p_inv.abs_det_b)
    assert np.max(np.abs(got - ref)) <= GRID_RTOL * mass


def _quad_table_rows(p, g: GridFn, budget: int) -> list[list[int]]:
    """Rows of each `_axis_table` call of the quad forward and inverse of
    ``g``, per transform: one list of row counts, axis by axis per chunk."""
    plan = saft_plan(p, g, "quad")
    rows = []
    for run in (lambda: saft_forward(plan, g),
                lambda: saft_inverse(plan, plan.out_template.with_values(g.values))):
        with patch.object(saft, "PHASE_BUDGET", budget), \
                patch.object(saft, "_axis_table", wraps=saft._axis_table) as table:
            run()
        rows.append([len(c.args[0]) for c in table.call_args_list])
    return rows


@pytest.mark.parametrize("budget", [4096, PHASE_BUDGET])
def test_quad_transforms_form_at_most_one_table_row_per_grid_coordinate(budget):
    # both sum at outputs on a rectangular grid (nu forward, -t inverse),
    # so a chunk holds at most N_i distinct coordinates on axis i, for a
    # sheared B as for a diagonal one; outputs that passed through w = B nu
    # and back would carry rounding that splits equal coordinates
    rng = np.random.default_rng(5)
    sheared = random_params(2, rng)
    assert sheared.B[0, 1] != 0 and sheared.B[1, 0] != 0
    g = GridFn(2, (41, 30), np.array([-3.0, -2.5]), np.array([0.15, 0.17]),
               rng.normal(size=(41, 30)) + 1j * rng.normal(size=(41, 30)))
    got = _quad_table_rows(sheared, g, budget)
    for counts in got:
        assert all(c <= g.shape[i % 2] for i, c in enumerate(counts))
    assert got == _quad_table_rows(preset("ft", 2), g, budget)


def test_spectrum_at_uses_the_callback_only_for_the_generator():
    p = preset("ft", 1)
    phi = sample_generator("gaussian", sampling_grid(4, 8), sigma=0.6)
    exact = coarse_sis(p, phi, spectrum_fn=lambda w: np.full(w.shape[:-1], 7.0 + 0j))
    w = np.array([[0.1], [0.3]])
    with patch.object(sis, "grid_quadrature", side_effect=AssertionError("quadrature ran")):
        assert np.all(spectrum_at(exact, w) == 7.0)


# ---------------------------------------------------------------------------
# direct kernel: the same exponentials, chunked by elements


def _dot_bound(p, w, t, mass: float) -> float:
    """Rounding allowed between two direct sums of the same terms: the
    phase ``nu.t`` rounds differently as a matrix product and elementwise
    (up to ``n eps sum_i |nu_i t_i|`` in each), and BLAS and the pairwise
    sum add a row of M terms in different orders (up to ``(M + 2) eps`` of
    the mass in each)."""
    nu = np.abs(np.asarray(w, dtype=float).reshape(-1, p.n) @ p.b_inv.T)
    phase = 2 * np.pi * p.n * float(np.sum(nu.max(axis=0) * np.abs(t).max(axis=0)))
    return EPS * mass * 2.0 * ((len(t) + 2) + phase + 4)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_kernel_quadrature_matches_chunked_oracle(n, data, budget):
    p, g, w = data.draw(_case(n))
    t = g.points().reshape(-1, n)
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = kernel_quadrature(p, t, g.values.reshape(-1), g.cell_volume, w)
    ref = _direct(p, g, w)
    assert got.shape == ref.shape == (len(w),)
    if len(w):
        assert np.max(np.abs(got - ref)) <= _dot_bound(p, w, t, _mass(p, g))


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS, size=st.integers(0, 30))
def test_dtsaft_matches_chunked_oracle(n, data, budget, size):
    p, _, w = data.draw(_case(n))
    rng = np.random.default_rng(size)
    keys = rng.integers(-6, 7, (size, n))
    s = SeqFn(n, {tuple(k): complex(*rng.normal(size=2)) for k in keys})
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = dtsaft(p, s, w)
    ref = oracle.dtsaft(p, s, w)
    mass = sum(abs(v) for v in s.entries.values()) / np.sqrt(p.abs_det_b)
    assert got.shape == ref.shape == (len(w),)
    if len(w) and s.entries:
        k = s.as_arrays()[0].astype(float)
        assert np.max(np.abs(got - ref)) <= _dot_bound(p, w, k, mass)
    else:
        assert np.array_equal(got, ref)


def _turn_bound(nu, t, mass: float) -> float:
    """Rounding allowed between the box route and one phase per pair: the
    phase ``nu.t`` rounds per axis in one and as a sum in the other (up to
    ``(n + 1) eps sum_i |nu_i t_i|`` turns apart), and the box route
    multiplies n complex factors (a few eps each)."""
    n = nu.shape[1]
    turns = float(np.sum(np.abs(nu).max(axis=0) * np.abs(t).max(axis=0)))
    return EPS * mass * (4 * n + 2 * np.pi * (n + 1) * turns)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_repeated_coordinates_match_both_oracles(n, data, budget):
    p, s, (t, f), w, _ = data.draw(_repeated_case(n))
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = _phase_sum(w, t, f)
        quad = kernel_quadrature(p, t, f, 0.3, w)
        dt = dtsaft(p, s, w)
    # the kernel with one phase per pair, as it was
    assert np.max(np.abs(got - oracle._phase_sum(w, t, f))) <= \
        _turn_bound(w, t, float(np.sum(np.abs(f))))
    # the output-chunked BLAS oracles
    mass = 0.3 * float(np.sum(np.abs(f))) / np.sqrt(p.abs_det_b)
    assert np.max(np.abs(quad - oracle.kernel_quadrature(p, t, f, 0.3, w))) <= \
        _dot_bound(p, w, t, mass)
    k, z = s.as_arrays()
    mass = float(np.sum(np.abs(z))) / np.sqrt(p.abs_det_b)
    assert np.max(np.abs(dt - oracle.dtsaft(p, s, w))) <= _dot_bound(p, w, k.astype(float), mass)


def _filled_cells(rng, shape, fill: float) -> np.ndarray:
    """Flat indices of distinct cells of a box of ``shape``: a ``fill`` share
    of them (rounded up), at least one on each coordinate of each axis."""
    cover = np.ravel_multi_index([np.arange(max(shape)) % side for side in shape], shape)
    rest = np.setdiff1d(np.arange(prod(shape)), cover)
    more = rng.choice(rest, max(0, ceil(fill * prod(shape)) - len(cover)), replace=False)
    return np.concatenate([cover, more])


@pytest.mark.parametrize("n,shape", [(2, (13, 11)), (3, (5, 4, 6))])
@pytest.mark.parametrize("budget", [16, 4096, PHASE_BUDGET])
def test_direct_kernel_takes_the_route_its_box_fill_names(n, shape, budget):
    # a full, half-full or quarter-full box: sum_i U_i exponentials per
    # output contracted over the box, in chunks of budget // 4 elements,
    # after n plain sorts and n inverses; a box about 15% full, or one point
    # repeated: one phase per pair in chunks of a whole budget, after n
    # plain sorts and no inverse; scattered sources: the same, after
    # sorting only their first column.  No route gathers
    rng = np.random.default_rng(budget)
    sparse = {2: (32, 32), 3: (8, 8, 8)}[n]
    grid = mesh([rng.uniform(-3.0, 3.0, side) for side in shape]).reshape(-1, n)
    wide = mesh([rng.uniform(-3.0, 3.0, side) for side in sparse]).reshape(-1, n)
    nu = rng.uniform(-6.0, 6.0, (37, n))
    box, pairs = ("_box_rows", n, budget // 4), ("_phase_rows", 0, budget)
    cases = [(grid, box, shape, n),
             (grid[_filled_cells(rng, shape, 0.5)], box, shape, n),
             (wide[_filled_cells(rng, sparse, 0.25)], box, sparse, n),
             (wide[_filled_cells(rng, sparse, 0.15)], pairs, None, n),
             (np.repeat(grid[:1], 8, axis=0), pairs, None, n),
             (rng.uniform(-3.0, 3.0, grid.shape), pairs, None, 1)]
    for t, (route, inverses, chunk), cells, sorts in cases:
        per_output, width = (sum(cells), prod(cells)) if cells else (len(t), len(t))
        coeff = rng.normal(size=len(t)) + 1j * rng.normal(size=len(t))
        with patch.object(saft, "PHASE_BUDGET", budget), patch.object(saft, "_WORKERS", 1), \
                patch.object(saft, "_turns", wraps=saft._turns) as turns, \
                patch.object(saft, route, wraps=getattr(saft, route)) as rows, \
                patch.object(saft.np, "unique", wraps=np.unique) as unique, \
                patch.object(saft.np, "take", wraps=np.take) as take:
            _phase_sum(nu, t, coeff)
        assert sum(c.args[0].size for c in turns.call_args_list) == len(nu) * per_output
        assert [c.kwargs.get("return_inverse", False) for c in unique.call_args_list] == \
            [False] * sorts + [True] * inverses
        assert not take.called
        assert len(rows.call_args_list[0].args[0]) == min(len(nu), max(1, chunk // width))


@pytest.mark.parametrize("n", [1, 2])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), budget=_BUDGETS, n_out=st.sampled_from([0, 1, 7]))
def test_poisson_check_matches_chunked_oracle(n, seed, budget, n_out):
    rng = np.random.default_rng(seed)
    p = random_params(n, rng)
    g = sample_generator("gaussian", sampling_grid(3, 4, n=n), sigma=0.7,
                         modulation=list(rng.uniform(-1, 1, n)))
    w = rng.uniform(-2.0, 2.0, (n_out, n))
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = poisson_check(p, g, w)
    ref = oracle.poisson_check(p, g, w, cutoff=DEFAULT_LATTICE_CUTOFF)
    assert got.lhs.shape == ref.lhs.shape == (n_out,)
    assert got.decayed == ref.decayed
    if n_out:
        images = (2 * DEFAULT_LATTICE_CUTOFF + 1) ** n
        k, gk = integer_samples(g)
        lhs_mass = float(np.sum(np.abs(gk))) / np.sqrt(p.abs_det_b)
        assert np.max(np.abs(got.lhs - ref.lhs)) <= _dot_bound(p, w, k, lhs_mass)
        assert np.max(np.abs(got.rhs - ref.rhs)) <= GRID_RTOL * images * _mass(p, g)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("key", [10**6 + 1, -(10**6) - 3])
def test_direct_kernel_reduces_each_phase_to_a_fraction_of_a_turn(n, key):
    # nu.k = 250000.25 (or 750000.75, -250000.75, -750002.25) turns: the
    # fraction of a turn is exact, so the exponentials are -i and +i to a
    # few eps; rounding 2 pi nu.k at its full size is off by about 1e6 eps
    k = np.array([[key] + [7, -5][:n - 1]], dtype=float)
    nu = np.zeros((2, n))
    nu[:, 0] = [0.25, 0.75]
    got = _phase_sum(nu, k, np.array([1.0 + 0j]))
    assert np.max(np.abs(got - np.array([-1j, 1j]))) <= 4 * EPS
    # the same point eight times over repeats every coordinate, but its box
    # has one cell: one phase per pair, reduced as a whole
    got = _phase_sum(nu, np.repeat(k, 8, axis=0), np.full(8, 0.125 + 0j))
    assert np.max(np.abs(got - np.array([-1j, 1j]))) <= 4 * EPS


@st.composite
def _wide_sparse_case(draw, n: int):
    """A random block, a few keys spread over a box far wider than 32 keys
    (the direct route of `_seq_phase_sum`), scattered quadrature points and
    1 to 30 outputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_params(n, rng)
    k = draw(st.integers(2, 12))
    corners = np.array([[-5000] * n, [5000] * n])
    keys = np.concatenate([corners, rng.integers(-5000, 5001, (k - 2, n))])
    s = SeqFn(n, {tuple(int(x) for x in key): complex(*rng.normal(size=2)) for key in keys})
    t = rng.uniform(-3.0, 3.0, (draw(st.integers(1, 40)), n))
    f = rng.normal(size=len(t)) + 1j * rng.normal(size=len(t))
    w = rng.uniform(-6.0, 6.0, (draw(st.integers(1, 30)), n))
    return p, s, (t, f), w, rng.permutation(len(w))


@st.composite
def _repeated_case(draw, n: int):
    """As `_wide_sparse_case`, but the points and keys repeat coordinates
    (``2 sum_i U_i <= M`` for U_i distinct coordinates on axis i), so that
    `_phase_sum` counts them on every axis.  The points fill 15% of a box
    of random coordinates (n >= 2, one phase per pair) or a quarter of it
    (the box route at its cut; `_box_sources` fill more of it), or they are
    integer points drawn from a small box, or points drawn from small
    per-axis pools that may hold ``0.0`` next to ``-0.0``.  The keys come
    from per-axis pools spanning [-5000, 5000], whose box `_seq_phase_sum`
    refuses; distinct 1-D keys repeat no coordinate, so for n = 1 they keep
    one phase per pair."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_params(n, rng)
    kind = draw(st.sampled_from(["sparse", "box", "pool"] if n > 1 else ["box", "pool"]))
    if kind == "sparse":
        shape = tuple(draw(st.integers({2: 28, 3: 7}[n], {2: 32, 3: 8}[n])) for _ in range(n))
        t = mesh([rng.uniform(-3.0, 3.0, side) for side in shape]).reshape(-1, n)
        t = t[_filled_cells(rng, shape, draw(st.sampled_from([0.15, 0.25])))]
    else:
        if kind == "box":
            pools = [np.arange(draw(st.integers(1, 5))) + float(rng.integers(-5, 6))
                     for _ in range(n)]
        else:
            pools = [np.concatenate([rng.uniform(-3.0, 3.0, draw(st.integers(1, 4))),
                                     [0.0, -0.0] if draw(st.booleans()) else []])
                     for _ in range(n)]
        m = draw(st.integers(2 * sum(map(len, pools)), 60))
        t = np.stack([rng.choice(pool, m) for pool in pools], axis=-1)
    f = rng.normal(size=len(t)) + 1j * rng.normal(size=len(t))
    # 3, 4 or 3 values per axis: for n >= 2 enough tuples that 2 sum_i U_i <= K
    pools = [np.concatenate([[-5000, 5000], rng.integers(-4999, 5000, {1: 1, 2: 2, 3: 1}[n])])
             for _ in range(n)]
    box = mesh(pools).reshape(-1, n)
    k = draw(st.integers(min(len(box), 2 * sum(map(len, pools))), len(box)))
    keys = box[rng.choice(len(box), k, replace=False)]
    s = SeqFn(n, {tuple(int(x) for x in key): complex(*rng.normal(size=2)) for key in keys})
    w = rng.uniform(-6.0, 6.0, (draw(st.integers(1, 30)), n))
    return p, s, (t, f), w, rng.permutation(len(w))


@st.composite
def _box_sources(draw, n: int):
    """A random block, 0, 1 or more outputs, and sources on a box of evenly
    spaced coordinates (two or more per axis) that fill all of it, half or
    a quarter, plus repeats with fresh coefficients, at least enough that
    ``2 sum_i U_i <= M``: for n >= 2 the direct kernel's box route.  The
    box comes as a grid whose values add up each cell's coefficients."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_params(n, rng)
    shape = tuple(draw(st.integers(2, _MAX_SIDE[n])) for _ in range(n))
    cells = _filled_cells(rng, shape, draw(st.sampled_from([1.0, 0.5, 0.25])))
    extra = max(draw(st.integers(0, 10)), 2 * sum(shape) - len(cells))
    cells = np.concatenate([cells, rng.choice(cells, extra)])
    f = rng.normal(size=len(cells)) + 1j * rng.normal(size=len(cells))
    dense = np.zeros(shape, dtype=complex)
    np.add.at(dense, np.unravel_index(cells, shape), f)
    g = GridFn(n, shape, rng.uniform(-3.0, 0.0, n), rng.uniform(0.1, 0.5, n), dense)
    n_out = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    return p, g, (g.points().reshape(-1, n)[cells], f), rng.uniform(-6.0, 6.0, (n_out, n))


@pytest.mark.parametrize("n", [2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_box_route_and_grid_quadrature_match_the_per_pair_oracle(n, data, budget):
    # both sum the same box, with loops or with a GEMM; each is checked
    # against the direct kernel as it was, one phase per pair over the
    # sources as given, so a repeated point must add its coefficients
    p, g, (t, f), w = data.draw(_box_sources(n))
    with patch.object(saft, "PHASE_BUDGET", budget), \
            patch.object(saft, "_box_rows", wraps=saft._box_rows) as box:
        nu = _reduced_points(p, w)
        got = _phase_sum(nu, t, f)
        quad = kernel_quadrature(p, t, f, g.cell_volume, w)
        grid = grid_quadrature(p, g, w)
    assert box.called == (len(w) > 0)
    assert got.shape == quad.shape == grid.shape == (len(w),)
    if len(w):
        mass = float(np.sum(np.abs(f)))
        assert np.max(np.abs(got - oracle._phase_sum(nu, t, f))) <= _turn_bound(nu, t, mass)
        src = saft._chirped(p, t, f) * g.cell_volume
        ref = saft._modulated(p, w, oracle._phase_sum(nu, t, src))
        mass *= g.cell_volume / np.sqrt(p.abs_det_b)
        assert np.max(np.abs(quad - ref)) <= _turn_bound(nu, t, mass)
        assert np.max(np.abs(grid - ref)) <= GRID_RTOL * mass


@st.composite
def _filled_case(draw, n: int):
    """As `_wide_sparse_case`, but the points are `_box_sources`."""
    p, s, _, w, perm = draw(_wide_sparse_case(n))
    return p, s, draw(_box_sources(n))[2], w, perm


# every example draws all three: scattered sources and wide sparse keys (one
# phase per pair), sources that repeat their coordinates (either route) and
# sources that fill their box (the box route for n >= 2)
_DIRECT_CASES = (_wide_sparse_case, _repeated_case, _filled_case)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_direct_kernel_values_do_not_depend_on_the_batch(n, data, budget):
    # a point gets the same bits alone, in its batch and in a permuted batch
    for case in _DIRECT_CASES:
        p, s, (t, f), w, perm = data.draw(case(n))
        evaluators = {
            "kernel_quadrature": lambda pts: kernel_quadrature(p, t, f, 0.3, pts),
            "dtsaft": lambda pts: dtsaft(p, s, pts),
        }
        with patch.object(saft, "PHASE_BUDGET", budget), \
                patch.object(saft, "grid_phase_sum", side_effect=AssertionError("box route")):
            for name, fn in evaluators.items():
                batch = fn(w)
                alone = np.array([fn(w[i:i + 1])[0] for i in range(len(w))])
                assert np.array_equal(batch, alone), (case.__name__, name)
                assert np.array_equal(batch[perm], fn(w[perm])), (case.__name__, name)


# ---------------------------------------------------------------------------
# direct kernel over threads: `_WORKERS` blocks of outputs, one budget


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS, workers=st.sampled_from([2, 3, 5]))
def test_direct_kernel_values_do_not_depend_on_the_thread_count(n, data, budget, workers):
    for case in _DIRECT_CASES:
        p, s, (t, f), w, _ = data.draw(case(n))
        evaluators = {
            "_phase_sum": lambda: _phase_sum(w, t, f),
            "kernel_quadrature": lambda: kernel_quadrature(p, t, f, 0.3, w),
            "dtsaft": lambda: dtsaft(p, s, w),
        }
        # the reference runs on one thread at the default budget
        with patch.object(saft, "grid_phase_sum", side_effect=AssertionError("box route")):
            for name, fn in evaluators.items():
                with patch.object(saft, "_WORKERS", 1):
                    ref = fn()
                with patch.object(saft, "PHASE_BUDGET", budget), \
                        patch.object(saft, "_WORKERS", workers):
                    got = fn()
                assert np.array_equal(_bits(got), _bits(ref)), (case.__name__, name)


def _rows_and_points(seed: int):
    """40 outputs and 8 points in 2-D: with `PHASE_BUDGET` 16, one output
    per chunk, and as many blocks as `_WORKERS`."""
    rng = np.random.default_rng(seed)
    nu = rng.uniform(-1.0, 1.0, (40, 2))
    k = rng.uniform(-3.0, 3.0, (8, 2))
    return nu, k, rng.normal(size=8) + 1j * rng.normal(size=8)


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_an_error_in_a_worker_block_reaches_the_caller(workers):
    nu, k, coeff = _rows_and_points(workers)
    nu[-1, 0] = 1234.5                    # marks the last output, in the last block
    raised_in = []
    real = saft._phase_rows

    def rows(v, *args):
        if np.any(v[:, 0] == 1234.5):
            raised_in.append(threading.current_thread())
            raise RuntimeError("last block")
        return real(v, *args)

    baseline = threading.active_count()
    with patch.object(saft, "_WORKERS", workers), patch.object(saft, "PHASE_BUDGET", 16), \
            patch.object(saft, "_phase_rows", side_effect=rows):
        with pytest.raises(RuntimeError, match="last block"):
            _phase_sum(nu, k, coeff)
    assert raised_in and raised_in[0] is not threading.main_thread()
    assert threading.active_count() == baseline


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
@pytest.mark.parametrize("where", ["source point", "last output"])
def test_a_non_finite_point_raises_under_the_callers_errstate(workers, where):
    # inf - rint(inf) is invalid; a worker thread starts with numpy's default
    # error state, so only the caller's state handed over makes it raise
    nu, k, coeff = _rows_and_points(workers)
    if where == "source point":
        k[3, 1] = np.inf
    else:
        nu[-1, 1] = np.inf
    with patch.object(saft, "_WORKERS", workers), patch.object(saft, "PHASE_BUDGET", 16), \
            np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            _phase_sum(nu, k, coeff)


# ---------------------------------------------------------------------------
# integer supports: the dense box on the grid kernel, or the direct kernel


def _keys_in(rng, shape, k: int, lo) -> np.ndarray:
    """``k`` distinct integer keys whose bounding box is exactly ``shape``
    with lower corner ``lo``: both corners are among them when k >= 2."""
    size = prod(shape)
    inner = rng.choice(np.arange(1, size - 1), size=max(0, k - 2), replace=False)
    flat = np.concatenate([[0, size - 1][:k], inner]).astype(np.int64)
    return np.stack(np.unravel_index(flat, shape), axis=1) + np.asarray(lo, dtype=np.int64)


@st.composite
def _support(draw, n: int):
    """Keys filling a random box from a single key up to all of it,
    anchored near the origin or 10^6 away, with complex coefficients and
    0, 1 or more outputs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.integers(1, _MAX_SIDE[n])) for _ in range(n))
    k = draw(st.integers(1, prod(shape)))
    anchor = draw(st.sampled_from([0, 10**6, -(10**6)]))
    keys = _keys_in(rng, shape, k, rng.integers(-5, 6, n) + anchor)
    coeff = rng.normal(size=k) + 1j * rng.normal(size=k)
    n_out = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    # a phase nu.k rounds at eps |nu.k| in either route, so far from the
    # origin the outputs are scaled to keep the phases within a few turns
    nu = rng.uniform(-6.0, 6.0, (n_out, n)) / max(1, abs(anchor))
    return nu, keys, coeff


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data(), budget=_BUDGETS)
def test_seq_phase_sum_matches_direct_kernel(n, data, budget):
    nu, keys, coeff = data.draw(_support(n))
    with patch.object(saft, "PHASE_BUDGET", budget):
        got = _seq_phase_sum(nu, keys, coeff)
    ref = _phase_sum(nu, keys.astype(float), coeff)
    assert got.shape == ref.shape == (len(nu),)
    if len(nu):
        assert np.max(np.abs(got - ref)) <= GRID_RTOL * float(np.sum(np.abs(coeff)))


@pytest.mark.parametrize("shape,k,budget,route", [
    ((40,), 40, PHASE_BUDGET, "box"),            # a full 1-D box
    ((40,), 39, PHASE_BUDGET, "direct"),         # sum N_i > K: more exponentials
    ((20, 20, 20), 250, PHASE_BUDGET, "box"),    # 8,000 elements <= 32 K
    ((20, 20, 20), 249, PHASE_BUDGET, "direct"),  # 8,000 > 32 K, though 60 <= K
    ((14, 14), 196, 392, "box"),                 # 196 elements fit half the budget
    ((14, 14), 196, 391, "direct"),
])
def test_seq_phase_sum_takes_the_route_its_gate_names(shape, k, budget, route):
    rng = np.random.default_rng(k)
    keys = _keys_in(rng, shape, k, [-7] * len(shape))
    coeff = rng.normal(size=k) + 1j * rng.normal(size=k)
    nu = rng.uniform(-2.0, 2.0, (5, len(shape)))
    with patch.object(saft, "PHASE_BUDGET", budget), \
            patch.object(saft, "grid_phase_sum", wraps=grid_phase_sum) as grid, \
            patch.object(saft, "_phase_sum", wraps=_phase_sum) as direct:
        got = _seq_phase_sum(nu, keys, coeff)
    assert (grid.called, direct.called) == (route == "box", route == "direct")
    ref = _phase_sum(nu, keys.astype(float), coeff)
    assert np.max(np.abs(got - ref)) <= GRID_RTOL * float(np.sum(np.abs(coeff)))


def test_a_wide_sparse_support_takes_the_direct_route():
    # the dense box of two 3-D keys 10^7 apart would hold 1e21 elements;
    # np.zeros refuses such a box at once, so a missing gate fails here
    # without allocating anything
    keys = np.array([[0, 0, 0], [10**7, -(10**7), 10**7]])
    coeff = np.array([1.0 + 0j, -2j])
    nu = np.random.default_rng(2).uniform(-1.0, 1.0, (6, 3))
    got = _seq_phase_sum(nu, keys, coeff)
    assert np.array_equal(got, _phase_sum(nu, keys.astype(float), coeff))


def test_phase_sums_of_no_terms_are_zero():
    nu = np.ones((3, 2))
    assert np.array_equal(_phase_sum(nu, np.zeros((0, 2)), np.zeros(0, complex)), np.zeros(3))
    assert dtsaft(preset("ft", 2), SeqFn(2, {}), nu).tolist() == [0j] * 3
    assert grid_phase_sum(np.zeros((0, 2)), [np.arange(3.0)] * 2, np.ones((3, 3))).shape == (0,)
    no_keys = _seq_phase_sum(nu, np.zeros((0, 2), dtype=np.int64), np.zeros(0, complex))
    assert np.array_equal(no_keys, np.zeros(3))
    full_box = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    assert _seq_phase_sum(np.zeros((0, 2)), full_box, np.ones(4, complex)).shape == (0,)


# ---------------------------------------------------------------------------
# memory: bounded by the element budget, not by outputs x samples


def _peak_bytes(fn) -> int:
    # the first np.unique in a process imports numpy.ma (about 1.1 MiB
    # traced), which is no part of a kernel's peak
    import numpy.ma  # noqa: F401

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel,workers", [
    pytest.param("grid", 1, id="grid"),
    # grid sources: the direct kernel's box route
    pytest.param("direct", 1, id="direct"),
    pytest.param("direct", 2, id="direct-2"),
    pytest.param("direct", 4, id="direct-4"),
    # a row of 16,641 terms exceeds budget / 8: fewer blocks run at once
    pytest.param("direct", 8, id="direct-8"),
    # scattered sources: one phase per pair
    pytest.param("scattered", 1, id="direct-scattered"),
    pytest.param("scattered", 2, id="direct-scattered-2"),
    # a comb's filter symbol: integer taps scattered over a +-500 box
    pytest.param("comb", 1, id="comb-symbol"),
    pytest.param("comb", 2, id="comb-symbol-2"),
    # a quarter of the grid: the box route at its cut
    pytest.param("quarter", 1, id="direct-quarter"),
    pytest.param("quarter", 2, id="direct-quarter-2"),
])
def test_peak_memory_is_bounded_by_the_budget(kernel, workers):
    rng = np.random.default_rng(11)
    budget = 1 << 16                      # 1 MiB of complex elements
    nu = rng.uniform(-4.0, 4.0, (1000, 2))
    peaks = []
    for side in (65, 129):                # 4,225 and 16,641 samples
        axes = [np.linspace(-4.0, 4.0, side), np.linspace(-3.0, 3.0, side)]
        vals = rng.normal(size=(side, side)) + 0j
        if kernel == "grid":
            run = lambda: grid_phase_sum(nu, axes, vals)
        elif kernel == "comb":
            taps = _keys_in(rng, (1001, 1001), side * side, [-500, -500])
            comb = SeqFn.from_arrays(2, taps, vals.reshape(-1))
            run = lambda: filter_symbol(preset("ft", 2), comb, nu)
        else:
            t = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
            coeff = vals.reshape(-1)
            if kernel == "scattered":
                t = t + rng.uniform(-0.01, 0.01, t.shape)
            if kernel == "quarter":
                cells = _filled_cells(rng, (side, side), 0.25)
                t, coeff = t[cells], coeff[cells]
            run = lambda: _phase_sum(nu, t, coeff)
        with patch.object(saft, "PHASE_BUDGET", budget), patch.object(saft, "_WORKERS", workers):
            peaks.append(_peak_bytes(run))
    # the direct kernel's threads share the budget; unchunked, the phase
    # matrix alone would take 1000 x 16,641 x 16 bytes (254 MiB) at the
    # larger grid
    assert max(peaks) < 2 * budget * 16, [pk / 2**20 for pk in peaks]


@pytest.mark.parametrize("side", [65, 129, 181])
def test_box_route_peak_memory_is_bounded_by_the_budget(side):
    # full 2-D boxes of up to half the budget: the dense box plus the grid
    # kernel's chunks
    rng = np.random.default_rng(side)
    budget = 1 << 16
    keys = _keys_in(rng, (side, side), side * side, [-(side // 2)] * 2)
    coeff = rng.normal(size=len(keys)) + 0j
    nu = rng.uniform(-4.0, 4.0, (1000, 2))
    with patch.object(saft, "PHASE_BUDGET", budget), \
            patch.object(saft, "grid_phase_sum", wraps=grid_phase_sum) as grid:
        peak = _peak_bytes(lambda: _seq_phase_sum(nu, keys, coeff))
    assert grid.called
    # unchunked over the keys, the phase matrix would take 1000 x 32,761
    # x 16 bytes (500 MiB) at side 181
    assert peak < 2 * budget * 16, peak / 2**20
