"""Forward/inverse affine-Fourier transform of gridded functions and the
discrete-time transform of sequences, plus the summation identities that the
sampling machinery relies on.

Output frame convention
-----------------------
The transform of a grid function is returned on a rectangular grid of
*reduced frequencies* ``nu`` with the understanding that the value stored at
``nu`` is the transform evaluated at the physical point ``w = B nu``.  For
``B = I`` (plain Fourier) the two coincide.  `SaftPlan.w_points` returns the
physical evaluation points; keeping the stored grid rectangular is what lets
the fast path run on an FFT and keeps file round trips exact for any ``B``.

The fast path uses the factorization

    (S f)(B nu) = |det B|^{-1/2} eta(B nu) * FT[f * chirp * e^{2 i pi (B^{-1}P).t}](nu)

so one FFT plus two pointwise phase multiplications evaluates the transform.

At arbitrary outputs every transform is a phase sum ``sum_m c_m exp(-2 i pi
nu.t_m)`` in the reduced frequency ``nu = B^{-1} w`` (`params._reduced_points`,
summed in a fixed order like every conversion between the frames); only the
output factor ``eta(w) / sqrt|det B|`` (`_modulated`) needs the physical
point ``w``.  Each site takes the route its sources allow:

* grid sources (`grid_quadrature`, the quad backends of `saft_forward` and
  `saft_inverse`, the image sum of `poisson_check`) are summed axis by axis
  by `grid_phase_sum`: distinct coordinates x N_i exponentials plus the row
  products.  The quad forward sums at its stored grid ``nu`` itself.  The
  quad inverse's sources ``w = B nu`` form a sheared grid, but the inverse
  block's B is ``-B^T``, so the reduced output of ``t`` meets them at the
  phase ``-t.nu``: it sums at ``-t`` over the rectangular grid ``nu``.
  Its matrix products run on the calling thread (`_blas_on_caller`): one
  handed to OpenBLAS's pool would leave the pool's idle worker spinning
  for about 0.1 s of CPU after the call, over the direct kernel's threads;
* integer supports (`dtsaft`, the left side of `poisson_check`) go through
  `_seq_phase_sum`: over their dense bounding box on the grid kernel when
  that forms no more exponentials than the support has keys and the box is
  small (`_BOX_PER_KEY` elements per key, half of `PHASE_BUDGET`), else
  directly over the keys.  The gate exists for sparse, wide supports: two
  keys far apart would otherwise allocate and sum a box of zeros;
* `kernel_quadrature` and a comb's filter symbol (`dynsamp.filter_symbol`)
  sum with the direct kernel `_phase_sum`, the oracle the other routes are
  checked against.  It takes one of two routes.  M sources that repeat
  their coordinates (``2 sum_i U_i <= M`` for U_i distinct ones on axis i)
  and fill at least a quarter of their box (``prod_i U_i <= 4M``, n >= 2
  axes of two or more each; grids) are scattered once into that dense box,
  a repeated point's coefficients added, and each output contracts the box
  with one table of U_i exponentials per axis, last axis first, with no
  gathers.  All other sources get one phase ``nu.t`` per pair.
  The contract: each phase in turns is reduced to its fraction of a turn
  (``arg - rint(arg)`` is exact and leaves ``|arg| <= 1/2``) and formed as a
  real cosine and sine (`_turns`), so forming it adds no error that grows
  with the number of turns.  The direct kernel calls no BLAS, whose worker
  threads would spin through the next chunk, and every step treats an
  output alone, in a fixed order, so a point's value does not depend on the
  batch it came in.
  The outputs are split into at most `_WORKERS` contiguous blocks, the
  calling thread summing the first and a pool opened for the call the
  others, in chunks that together hold one `PHASE_BUDGET` (the box counted
  in it): ``PHASE_BUDGET // _WORKERS`` elements per chunk on the per-pair
  route and at most ``PHASE_BUDGET // 4`` on the box, as timed on 2 cores.
  A value is the same bits for any thread count, and the workers run under
  the caller's floating-point error state.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from math import ceil, floor, prod, sqrt

import numpy as np

from .grid import COORD_TOL, GridFn, SeqFn, dft, mesh, reciprocal_grid
from .lattice import SamplingLattice
from .params import (SaftParams, _offset_phase, _physical_points, _reduced_points,
                     chirp, inverse_params, modulation, require_valid)

__all__ = [
    "SaftPlan",
    "saft_plan",
    "saft_forward",
    "saft_inverse",
    "kernel_quadrature",
    "grid_quadrature",
    "grid_phase_sum",
    "lattice_shifts",
    "integer_samples",
    "dtsaft",
    "poisson_check",
    "PoissonReport",
    "downsample",
    "downsample_check",
    "parseval_check",
]

#: lattice sums (Poisson image sum) truncated to ||index||_inf <= this
DEFAULT_LATTICE_CUTOFF = 8

#: complex elements (16 MiB) a chunk of outputs of a phase sum may hold
PHASE_BUDGET = 1 << 20

#: usable cores, the threads `_phase_sum` splits its outputs over
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

#: elements per support key up to which an integer support is summed over
#: its dense bounding box (see `_seq_phase_sum`)
_BOX_PER_KEY = 32

#: OpenBLAS thread-count symbols (get, set): numpy 2 wheels, numpy 1.x
#: wheels, plain builds
_OPENBLAS_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_paths() -> list[str]:
    """Paths of the mapped libraries whose path names OpenBLAS (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})


def _openblas_threads():
    """The loaded OpenBLAS's ``(get_num_threads, set_num_threads)``, or None
    when no mapped library exports a known pair (MKL, Accelerate, not Linux)."""
    libs = []
    for path in _openblas_paths():
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    for get_name, set_name in _OPENBLAS_NAMES:
        for lib in libs:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _BlasPin:
    """Scoped pin of OpenBLAS to the calling thread: inside, BLAS runs on one
    thread; the first caller in saves the count and the last out restores it,
    so nested use and overlapping threads never leave the process pinned.
    The pair is resolved on first use, so importing saftlab does no work."""

    def __init__(self, resolve):
        self._resolve = resolve
        self._pair = None
        self._resolved = False
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            if not self._resolved:
                self._pair, self._resolved = self._resolve(), True
            if self._pair is not None:
                if self._depth == 0:
                    self._saved = self._pair[0]()
                    self._pair[1](1)
                self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            if self._pair is not None:
                self._depth -= 1
                if self._depth == 0:
                    self._pair[1](self._saved)


#: held around the grid kernel's products (see the module docstring)
_blas_on_caller = _BlasPin(_openblas_threads)


@dataclass(frozen=True)
class SaftPlan:
    """Pairing of a parameter block with input/output grid geometry.

    ``out_template`` is the reciprocal grid of ``in_template`` in the
    reduced-frequency frame: spacing ``1/(N_i h_i)``, centered about 0.
    """

    params: SaftParams
    in_template: GridFn
    out_template: GridFn
    backend: str

    def w_points(self) -> np.ndarray:
        """Physical evaluation points ``w = B nu``, shape ``shape + (n,)``."""
        return _physical_points(self.params, self.out_template.points())


def saft_plan(params: SaftParams, grid: GridFn, backend: str = "fast") -> SaftPlan:
    """Build a transform plan for functions sampled like ``grid``; the
    output lives on the self-centered reciprocal grid of ``grid``."""
    require_valid(params)
    if params.n != grid.n:
        raise ValueError(f"params dimension {params.n} != grid dimension {grid.n}")
    if backend not in ("fast", "quad"):
        raise ValueError(f"unknown backend {backend!r}")
    return SaftPlan(params=params, in_template=grid, out_template=reciprocal_grid(grid),
                    backend=backend)


def _chirped(p: SaftParams, t: np.ndarray, values) -> np.ndarray:
    """Source-side factors values * exp(i pi t.B^{-1}A t) * exp(2 i pi
    (B^{-1}P).t) at the points ``t`` (..., n)."""
    return values * chirp(p, t) * np.exp(2j * np.pi * _offset_phase(p, t))


def lattice_shifts(n: int, cutoff: int) -> np.ndarray:
    """Integer shifts with ``||k||_inf <= cutoff`` in C order, as floats (S, n)."""
    return mesh([np.arange(-cutoff, cutoff + 1, dtype=float)] * n).reshape(-1, n)


def _product(a, b) -> np.ndarray:
    """``a * b`` with the real and imaginary parts formed apart, as
    `SeqFn.scaled` does: numpy's vectorized complex multiply may round an
    element by its place in the array, so a point would depend on its batch."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real, out.imag = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return out


def _turns(arg: np.ndarray) -> np.ndarray:
    """``exp(-2 i pi arg)``, ``arg`` in turns reduced in place to a fraction of a turn."""
    arg -= np.rint(arg)
    arg *= -2 * np.pi
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _phase_rows(v: np.ndarray, k: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """One chunk of `_phase_sum`'s per-pair route: one phase per pair."""
    arg = v[:, :1] * k[:, 0]
    for i in range(1, k.shape[1]):
        arg += v[:, i:i + 1] * k[:, i]
    terms = _turns(arg)
    if len(coeff) == 1:
        # one term per row: numpy would run the product below down the rows
        return _product(terms[:, 0], coeff[0])
    terms *= coeff
    return terms.sum(axis=1)


def _box_rows(v: np.ndarray, axes, box: np.ndarray) -> np.ndarray:
    """One chunk of `_phase_sum`'s box route: the dense ``box`` over the
    distinct coordinates ``axes`` contracted with one table per axis, last
    axis first.  With two or more coordinates on each axis, the tables'
    broadcast axes keep each product row by row (see `_product`) but the
    last, (r, U_1) by (r, U_1), which writes into padded rows."""
    acc = box
    for i in range(len(axes) - 1, 0, -1):
        table = _turns(v[:, i:i + 1] * axes[i]).reshape((len(v),) + (1,) * i + (-1,))
        acc = (acc * table).sum(axis=-1)
    terms = np.empty((len(v), len(axes[0]) + 1), dtype=complex)[:, :-1]
    np.multiply(acc, _turns(v[:, :1] * axes[0]), out=terms)
    return terms.sum(axis=1)


def _phase_sum(nu: np.ndarray, k: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``sum_m coeff[m] exp(-2 i pi nu.k_m)`` for each row of ``nu`` (No, n):
    the direct kernel, whose routes and contract are in the module docstring.
    The box route beats one phase per pair from about 20% fill, so it takes
    boxes at least a quarter full."""
    rows, m = nu.shape[0], max(1, k.shape[0])
    out = np.empty(rows, dtype=complex)
    if not rows:    # before np.unique, whose first call imports numpy.ma
        return out
    # a plain sort counts U_i at a sixth of the inverse's cost, and the
    # count stops at the first column past 2 sum_i U_i <= M, so scattered
    # sources sort one column; only the box takes the inverses
    shape = []
    for c in k.T:
        shape.append(len(np.unique(c)))
        if 2 * sum(shape) > m:
            break
    held = prod(shape)
    if len(shape) > 1 and 2 * sum(shape) <= m and min(shape) > 1 and held <= 4 * m:
        cols = [np.unique(c, return_inverse=True) for c in k.T]
        box = np.zeros(shape, dtype=complex)
        np.add.at(box, tuple(inv for _, inv in cols), coeff)
        rows_of, args, width, split = _box_rows, ([u for u, _ in cols], box), held, 4
    else:
        rows_of, args, width, split, held = _phase_rows, (k, coeff), m, 1, 0
    # chunks of PHASE_BUDGET // max(_WORKERS, split) elements (split timed
    # on 2 cores), the box counted in the budget; a row longer than a chunk
    # is a chunk alone, and then fewer blocks run
    step = max(1, PHASE_BUDGET // max(_WORKERS, split) // width)
    blocks = min(_WORKERS, max(1, (PHASE_BUDGET - held) // (step * width)), -(-rows // step))
    err = np.geterr()

    def run(lo: int, hi: int) -> None:
        with np.errstate(**err):
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                out[a:b] = rows_of(nu[a:b], *args)

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


def _axis_table(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``exp(-2 i pi u t)`` for the distinct coordinates ``u`` of one axis
    against its samples ``t``: one row per coordinate."""
    return np.exp(-2j * np.pi * (u[:, None] * t))


def grid_phase_sum(nu, axes, values) -> np.ndarray:
    """``sum_a values[a] exp(-2 i pi sum_i nu_i axes[i][a_i])`` for each row
    of ``nu`` (No, n), over the grid spanned by the 1-D coordinates ``axes``.

    The phase factorizes.  Per chunk of outputs, each axis gets one table
    row ``exp(-2 i pi u t_i)`` per distinct coordinate ``u`` (`_axis_table`;
    ``-0.0`` shares the row of ``0.0``, both of phase 1), the first axis a
    matrix product over those rows only, and each further axis a batched
    row product per output: distinct coordinates x N_i exponentials plus the
    row products, for the same terms as the No * prod N_i direct sum in
    another order.  Chunks hold about `PHASE_BUDGET` elements of tables and
    partial sums.  The products run under `_blas_on_caller`, on the calling
    thread, so their bits do not depend on OpenBLAS's thread count; while
    the loop runs, OpenBLAS runs on one thread for the whole process.
    """
    nu = np.asarray(nu, dtype=float).reshape(-1, len(axes))
    shape = tuple(len(t) for t in axes)
    vals = np.asarray(values, dtype=complex).reshape(shape[0], -1)
    per_out = sum(shape) + 2 * vals.shape[1]
    step = max(1, PHASE_BUDGET // per_out)
    out = np.empty(nu.shape[0], dtype=complex)
    with _blas_on_caller:
        for lo in range(0, nu.shape[0], step):
            v = nu[lo:lo + step]
            u, inv = np.unique(v[:, 0], return_inverse=True)
            acc = (_axis_table(u, axes[0]) @ vals)[inv]     # (c, N_2 ... N_n)
            for i in range(1, len(axes)):
                u, inv = np.unique(v[:, i], return_inverse=True)
                table = _axis_table(u, axes[i])[inv]
                acc = np.matmul(table[:, None, :], acc.reshape(len(v), shape[i], -1))[:, 0]
            out[lo:lo + step] = acc[:, 0]
    return out


def _seq_phase_sum(nu: np.ndarray, keys: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """``sum_m coeff[m] exp(-2 i pi nu.k_m)`` for each row of ``nu`` (No, n)
    over the integer keys ``k`` (K, n).

    When it is cheaper, the coefficients are scattered into the keys'
    bounding box N_1 x ... x N_n and summed by `grid_phase_sum` over its
    integer axes: distinct coordinates x N_i exponentials plus the row
    products, instead of No * K terms.  That route is taken when it
    forms no more exponentials even for distinct outputs (sum N_i <= K),
    its box holds at most `_BOX_PER_KEY` elements per key, and the box
    takes at most half of `PHASE_BUDGET`, so that with the sum's chunks
    (about one budget) the peak stays under twice the budget.  A sparse or
    wide support takes the direct `_phase_sum`, whose cost does not grow
    with the box.
    """
    if len(keys):
        lo, hi = keys.min(axis=0).tolist(), keys.max(axis=0).tolist()
        shape = [b - a + 1 for a, b in zip(lo, hi)]
        box = prod(shape)
        if sum(shape) <= len(keys) and box <= min(PHASE_BUDGET // 2, _BOX_PER_KEY * len(keys)):
            dense = np.zeros(shape, dtype=complex)
            dense[tuple((keys - lo).T)] = coeff
            axes = [np.arange(a, b + 1).astype(float) for a, b in zip(lo, hi)]
            return grid_phase_sum(nu, axes, dense)
    return _phase_sum(nu, keys.astype(float), coeff)


def _modulated(p: SaftParams, w, sums) -> np.ndarray:
    """Transform values at the physical points ``w`` (..., n) from their
    phase sums: the output factor ``eta(w) / sqrt|det B|`` applied by
    `_product`, shaped ``w.shape[:-1]``.  With `_reduced_points` and a kernel
    that treats each output alone (`_phase_sum`), a point's value does not
    depend on its batch."""
    w = np.asarray(w, dtype=float)
    acc = _product(sums, modulation(p, w.reshape(-1, p.n)) * (1.0 / sqrt(p.abs_det_b)))
    return acc.reshape(w.shape[:-1])


def kernel_quadrature(
    p: SaftParams,
    in_points: np.ndarray,
    in_values: np.ndarray,
    weight: float,
    out_points: np.ndarray,
) -> np.ndarray:
    """Direct evaluation of the defining integral as a weighted kernel sum.

    ``in_points``: (M, n) sample locations with quadrature weight ``weight``
    each; ``out_points``: (..., n) arbitrary physical frequencies.  The
    direct-sum oracle: the direct kernel `_phase_sum` sums every sample for
    every output, over the samples' dense box or one phase per pair (routes
    and contract in the module docstring).
    """
    t = np.asarray(in_points, dtype=float).reshape(-1, p.n)
    src = _chirped(p, t, np.asarray(in_values).reshape(-1)) * weight
    nu = _reduced_points(p, out_points).reshape(-1, p.n)
    return _modulated(p, out_points, _phase_sum(nu, t, src))


def _grid_sums(p: SaftParams, g: GridFn, nu) -> np.ndarray:
    """Phase sums of the chirped samples of ``g`` at the reduced
    frequencies ``nu``, axis by axis with `grid_phase_sum`."""
    axes = [g.axis_coords(i) for i in range(g.n)]
    return grid_phase_sum(nu, axes, _chirped(p, g.points(), g.values) * g.cell_volume)


def grid_quadrature(p: SaftParams, g: GridFn, out_points) -> np.ndarray:
    """The transform of ``g`` at arbitrary physical frequencies, the same
    Riemann sum as ``kernel_quadrature`` over all of ``g``'s samples but
    summed axis by axis with `grid_phase_sum`."""
    return _modulated(p, out_points, _grid_sums(p, g, _reduced_points(p, out_points)))


def saft_forward(plan: SaftPlan, f: GridFn) -> GridFn:
    """Transform ``f``; result lives on the plan's reduced-frequency grid."""
    p = plan.params
    if not f.same_geometry(plan.in_template):
        raise ValueError("input grid does not match the plan's input geometry")
    if plan.backend == "fast":
        g = f.with_values(_chirped(p, f.points(), f.values))
        ghat = dft(g, sign=-1, out=plan.out_template)
        w_pts = plan.w_points()
        vals = ghat.values * modulation(p, w_pts) / sqrt(p.abs_det_b)
        return plan.out_template.with_values(vals)
    # the stored grid is nu itself: sum there, and use w = B nu only for
    # the output factor
    sums = _grid_sums(p, f, plan.out_template.points())
    return plan.out_template.with_values(_modulated(p, plan.w_points(), sums))


def saft_inverse(plan: SaftPlan, F: GridFn) -> GridFn:
    """Invert a field produced by `saft_forward` back onto the input grid.

    Equivalent to running the forward transform with the inverse parameter
    block over the (sheared) physical sample points of ``F``; the fast path
    peels the modulation, applies the inverse FFT, and divides out the
    input-side phases, which is the same operator in factorized form.
    """
    p = plan.params
    if not F.same_geometry(plan.out_template):
        raise ValueError("field grid does not match the plan's output geometry")
    if plan.backend == "fast":
        w_pts = plan.w_points()
        ghat_vals = F.values * np.conj(modulation(p, w_pts)) * sqrt(p.abs_det_b)
        ghat = plan.out_template.with_values(ghat_vals)
        g = dft(ghat, sign=+1, out=plan.in_template)
        pts = plan.in_template.points()
        vals = g.values * np.conj(chirp(p, pts)) * np.exp(-2j * np.pi * _offset_phase(p, pts))
        return plan.in_template.with_values(vals)
    # the inverse block's B is -B^T, so the reduced output of t meets the
    # source w = B nu at phase -t.nu: sum at -t over the rectangular grid nu
    p_inv = inverse_params(p)
    out = plan.out_template
    src = _chirped(p_inv, plan.w_points(), F.values) * (p.abs_det_b * out.cell_volume)
    axes = [out.axis_coords(i) for i in range(p.n)]
    t = plan.in_template.points()
    return plan.in_template.with_values(_modulated(p_inv, t, grid_phase_sum(-t, axes, src)))


# ---------------------------------------------------------------------------
# discrete-time transform


def dtsaft(params: SaftParams, s: SeqFn, wpts) -> np.ndarray:
    """Discrete-time transform: exact finite sum over the support of ``s``
    at the physical frequencies ``wpts`` (..., n); returns values of shape
    ``wpts.shape[:-1]``.  The modulus of the result is periodic with
    periodicity matrix ``B``.

    A support that fills enough of its bounding box is summed over that
    box on the separable grid kernel (at most sum N_i exponentials per
    output instead of K); a sparse or wide one directly over its keys,
    since its box would be mostly zeros (see `_seq_phase_sum`).  The two
    routes agree to rounding.
    """
    require_valid(params)
    p = params
    pts = np.asarray(wpts, dtype=float)
    if pts.shape[-1] != p.n:
        raise ValueError(f"evaluation points must have trailing dimension {p.n}")
    if s.n != p.n:
        raise ValueError(f"sequence dimension {s.n} != params dimension {p.n}")
    k, z = s.as_arrays()
    coeff = _chirped(p, k.astype(float), z)
    return _modulated(p, pts, _seq_phase_sum(_reduced_points(p, pts).reshape(-1, p.n), k, coeff))


# ---------------------------------------------------------------------------
# summation identities


def integer_samples(g: GridFn) -> tuple[np.ndarray, np.ndarray]:
    """Integer lattice points covered by ``g`` and the grid values there.

    Requires every integer point inside the grid's span to coincide with a
    cell center (grids built by `sampling_grid` have this property).
    """
    axes_k = []
    axes_idx = []
    for i in range(g.n):
        coords = g.axis_coords(i)
        h = g.spacing[i]
        k_lo = ceil(coords[0] - COORD_TOL)
        k_hi = floor(coords[-1] + COORD_TOL)
        if k_hi < k_lo:
            raise ValueError("grid spans no integer points on axis %d" % i)
        ks = np.arange(k_lo, k_hi + 1)
        idx = np.round((ks - coords[0]) / h).astype(int)
        if np.max(np.abs(coords[idx] - ks)) > COORD_TOL:
            raise ValueError(
                "integer points are not cell centers on axis %d; "
                "sample the function on an integer-aligned grid" % i
            )
        axes_k.append(ks)
        axes_idx.append(idx)
    values = g.values[np.ix_(*axes_idx)]
    return mesh(axes_k).reshape(-1, g.n).astype(float), values.reshape(-1)


def _boundary_max(values: np.ndarray) -> float:
    """Largest modulus on the boundary shell of an n-D array."""
    out = 0.0
    for i in range(values.ndim):
        sl = [slice(None)] * values.ndim
        for edge in (0, -1):
            sl[i] = edge
            out = max(out, float(np.max(np.abs(values[tuple(sl)]))))
    return out


@dataclass(frozen=True)
class PoissonReport:
    residual: np.ndarray
    sup: float
    decayed: bool
    lhs: np.ndarray
    rhs: np.ndarray


def poisson_check(params: SaftParams, g: GridFn, wpts) -> PoissonReport:
    """Residual of the summation identity linking integer samples of ``g``
    to the lattice of modulated transform values, at the physical points
    ``wpts`` (..., n):

        conj(eta)(w) (S g|_Z)(w)  =  sum_n conj(eta)(w + B n) (S g)(w + B n)

    Both sides are computed independently: the left as the exact finite sum
    over integer samples, the right by direct quadrature of the transform at
    the shifted points.  The image sum is truncated at ``||n - n_0||_inf <=
    DEFAULT_LATTICE_CUTOFF``, where ``n_0`` (per point) is the image nearest
    the peak of the spectrum of the chirped, offset input: a linear offset
    phase moves that peak off zero, and a window centred on ``n = 0`` would
    cut off images that carry most of the mass.
    A decay flag is set when the input's boundary values are not negligible
    (the identity then cannot be expected to hold numerically).
    """
    require_valid(params)
    p = params
    pts = np.asarray(wpts, dtype=float)
    wf = pts.reshape(-1, p.n)

    # decay check: max |g| on the boundary shell vs global max
    peak = float(np.max(np.abs(g.values))) if g.values.size else 0.0
    decayed = peak == 0.0 or _boundary_max(g.values) <= 1e-12 * peak

    # LHS: conj(eta)(w) * dtsaft of the integer samples
    kf, gk = integer_samples(g)
    coeff = _chirped(p, kf, gk)
    nu = _reduced_points(p, wf)
    lhs = _seq_phase_sum(nu, kf.astype(np.int64), coeff) / sqrt(p.abs_det_b)

    # RHS: image sum of conj(eta)(w + Bn) (S g)(w + Bn); the two factors
    # reduce to the plain FT of the chirped input at B^{-1}w + n.
    chirped = g.with_values(_chirped(p, g.points(), g.values))
    spec = dft(chirped)
    nu_peak = spec.points()[np.unravel_index(np.argmax(np.abs(spec.values)), spec.shape)]
    centre = nu + np.rint(nu_peak - nu)     # the image B^{-1}w + n_0 nearest the peak
    shifts = lattice_shifts(p.n, DEFAULT_LATTICE_CUTOFF)
    freq = centre[:, None, :] + shifts      # B^{-1} w + n, (points, images, n)
    axes = [g.axis_coords(i) for i in range(g.n)]
    images = grid_phase_sum(freq, axes, chirped.values * g.cell_volume)
    rhs = images.reshape(len(wf), len(shifts)).sum(axis=1) / sqrt(p.abs_det_b)

    residual = (lhs - rhs).reshape(pts.shape[:-1])
    return PoissonReport(
        residual=residual,
        sup=float(np.max(np.abs(residual))) if residual.size else 0.0,
        decayed=decayed,
        lhs=lhs.reshape(pts.shape[:-1]),
        rhs=rhs.reshape(pts.shape[:-1]),
    )


def downsample(lat: SamplingLattice, c: SeqFn) -> SeqFn:
    """Keep the samples of ``c`` on the transposed lattice: out(k) = c(M^T k).

    Only entries whose index is exactly divisible by ``M^T`` survive;
    divisibility is decided in integer arithmetic.
    """
    if c.n != lat.n:
        raise ValueError(f"sequence dimension {c.n} != lattice dimension {lat.n}")
    keys, vals = c.as_arrays()
    r, j = lat.split(keys)
    return SeqFn.from_arrays(lat.n, r[j == 0], vals[j == 0])


def downsample_check(
    params: SaftParams,
    lat: SamplingLattice,
    c: SeqFn,
    wpts: np.ndarray,
) -> float:
    """Sup residual of the restriction identity, all sums exact:

        (S (c on M^T Z^n))(w) = eta(w)/m * sum_v conj(eta)(u_v) (S c)(u_v),
        u_v = B M^{-1} (B^{-1} w - gamma_v).

    Valid for chirp-free blocks with zero input offset (the restriction and
    the coset sum then carry identical phase weights); raises otherwise
    rather than reporting a residual of a false identity.
    """
    require_valid(params)
    p = params
    if not p.is_chirp_free(1e-12) or float(np.max(np.abs(p.P))) > 1e-12:
        raise ValueError(
            "restriction identity needs a chirp-free block with zero input "
            "offset; general blocks mix the phase weights of the two sides"
        )
    pts = np.asarray(wpts, dtype=float).reshape(-1, p.n)
    lhs = dtsaft(p, downsample(lat, c), pts)
    # u_v = B M^{-1} (B^{-1} w - gamma_v), stacked over cosets
    u = _physical_points(p, -lat.coset_points(-_reduced_points(p, pts)))
    coset = np.conj(modulation(p, u)) * dtsaft(p, c, u)
    rhs = modulation(p, pts) * np.sum(coset, axis=1) / lat.m
    # scale by the coset sum's pre-cancellation magnitude: when the sequence
    # has no mass on the sublattice both sides vanish only through exact
    # cancellation, and dividing by max |rhs| ~ eps would turn roundoff into
    # a spurious O(1) residual
    scale = float(np.max(np.sum(np.abs(coset), axis=1))) / lat.m
    if scale == 0.0:
        return float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def parseval_check(params: SaftParams, s: SeqFn) -> dict:
    """Energy identity: the transform's squared modulus integrated over one
    fundamental frequency cell ``B [0,1)^n`` equals the sequence energy.

    The integrand restricted to the cell is a trigonometric polynomial in
    the reduced frequency, so the midpoint rule with more points per axis
    than the index spread integrates it exactly; we report both sides.
    """
    require_valid(params)
    p = params
    rhs = float(s.l2norm() ** 2)
    if not len(s):
        return {"cell_integral": 0.0, "energy": rhs, "abs_err": abs(rhs)}
    k, _ = s.as_arrays()
    spread = (k.max(axis=0) - k.min(axis=0)).astype(int)
    npts = np.maximum(spread + 1, 4)
    xi = mesh([(np.arange(m) + 0.5) / m for m in npts])
    vals = dtsaft(p, s, _physical_points(p, xi))
    lhs = float(np.mean(np.abs(vals) ** 2) * p.abs_det_b)
    return {"cell_integral": lhs, "energy": rhs, "abs_err": abs(lhs - rhs)}
