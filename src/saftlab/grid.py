"""Uniform grids, finitely supported sequences, quadrature, and the DFT kernel.

Functions on R^n are represented by `GridFn`: complex values at the centers of
a uniform rectangular cell partition, ``t_k = origin + (k + 1/2) * spacing``.
Sequences on Z^n are represented by `SeqFn`: a sorted (K, n) int64 key array
and the (K,) complex array of its nonzero values, both read-only.

Two grid constructors cover the two use cases:

* `uniform_grid` -- midpoint partition of a box, for plain quadrature and
  transform work;
* `sampling_grid` -- a grid whose cell centers contain the integers, required
  by every operation that reads function values at integer (lattice) points.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "GridFn",
    "SeqFn",
    "uniform_grid",
    "sampling_grid",
    "mesh",
    "reciprocal_grid",
    "dft",
    "sample_generator",
]

#: grid coordinates (origins, spacings, integers at cell centers) this close agree
COORD_TOL = 1e-9


def _as_vector(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = np.full(n, float(v))
    if v.shape != (n,):
        raise ValueError(f"{name} must be a scalar or length-{n} vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class GridFn:
    """A complex-valued function sampled on a uniform rectangular grid.

    Parameters
    ----------
    n : int
        Dimension.
    shape : tuple of int
        Sample counts per axis.
    origin : ndarray, shape (n,)
        Lower corner of the sampled box. Values live at cell centers
        ``origin + (k + 1/2) * spacing``.
    spacing : ndarray, shape (n,)
        Positive cell widths per axis.
    values : ndarray, complex, shape == shape
        Sample values, row-major.
    """

    n: int
    shape: tuple
    origin: np.ndarray
    spacing: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) != self.n or any(s <= 0 for s in shape):
            raise ValueError(f"shape {shape} inconsistent with dimension n={self.n}")
        origin = _as_vector(self.origin, self.n, "origin")
        spacing = _as_vector(self.spacing, self.n, "spacing")
        if not np.all(spacing > 0):
            raise ValueError("spacing must be positive componentwise")
        values = np.asarray(self.values, dtype=complex)
        if values.shape != shape:
            if values.size == int(np.prod(shape)):
                values = values.reshape(shape)
            else:
                raise ValueError(f"values size {values.size} != prod(shape) {np.prod(shape)}")
        for name, arr in (("origin", origin), ("spacing", spacing), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "shape", shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, i: int) -> np.ndarray:
        """Cell-center coordinates along axis ``i``."""
        return self.origin[i] + (np.arange(self.shape[i]) + 0.5) * self.spacing[i]

    def points(self) -> np.ndarray:
        """All cell centers, shape ``shape + (n,)``."""
        return mesh([self.axis_coords(i) for i in range(self.n)])

    def with_values(self, values) -> "GridFn":
        return GridFn(self.n, self.shape, self.origin, self.spacing, values)

    def same_geometry(self, other: "GridFn") -> bool:
        return (
            self.n == other.n
            and self.shape == other.shape
            and np.allclose(self.origin, other.origin, atol=COORD_TOL, rtol=0)
            and np.allclose(self.spacing, other.spacing, atol=COORD_TOL, rtol=0)
        )


def mesh(axes) -> np.ndarray:
    """The points of the grid spanned by the 1-D coordinate arrays ``axes``,
    shape ``(len(axes[0]), ..., len(axes[-1]), len(axes))``, row-major."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def uniform_grid(lo, hi, shape) -> GridFn:
    """Zero-valued midpoint partition of the box [lo, hi] with the given counts.

    ``lo``/``hi`` may be scalars (applied to every axis); ``shape`` may be an
    int or a tuple, and determines the dimension together with ``lo``/``hi``.
    """
    if np.ndim(shape) == 0:
        n = max(np.atleast_1d(lo).size, np.atleast_1d(hi).size)
        shape = (int(shape),) * n
    else:
        shape = tuple(int(s) for s in shape)
        n = len(shape)
    lo = _as_vector(lo, n, "lo")
    hi = _as_vector(hi, n, "hi")
    if np.any(hi <= lo):
        raise ValueError("hi must exceed lo componentwise")
    spacing = (hi - lo) / np.array(shape)
    return GridFn(n, shape, lo, spacing, np.zeros(shape, dtype=complex))


def sampling_grid(halfwidth: int, per_unit: int, n: int = 1) -> GridFn:
    """Zero-valued integer-aligned grid on [-L, L], ``per_unit`` cells per unit.

    The cell centers are ``-L + j / per_unit`` and contain every integer in
    [-L, L]; spacing is ``1 / per_unit``.  Use this for any function that will
    be read at integer points or entered into integer-shift sums.
    """
    L, q = int(halfwidth), int(per_unit)
    if L <= 0 or q <= 0:
        raise ValueError("halfwidth and per_unit must be positive integers")
    h = 1.0 / q
    N = 2 * L * q + 1
    origin = np.full(n, -L - h / 2.0)
    return GridFn(n, (N,) * n, origin, np.full(n, h), np.zeros((N,) * n, dtype=complex))


def reciprocal_grid(f: GridFn) -> GridFn:
    """The DFT frequency grid of ``f``: spacing 1/(N*h), centered about 0.

    Frequencies are the shifted-to-ascending DFT frequencies
    ``(q - N//2) / (N * h)``; as a `GridFn` the cell-center convention puts
    the origin half a frequency cell below the first of them.
    """
    N = np.array(f.shape)
    dnu = 1.0 / (N * f.spacing)
    first = -(N // 2) * dnu
    return GridFn(f.n, f.shape, first - dnu / 2.0, dnu, np.zeros(f.shape, dtype=complex))


def _dft_phase(coeffs, shape, target_axes, sign):
    # prod_i exp(sign * 2i*pi * coeffs_i * axis_i) as a broadcast product
    out = None
    for i, ax in enumerate(target_axes):
        ph = np.exp(sign * 2j * np.pi * coeffs[i] * ax)
        shape_i = [1] * len(shape)
        shape_i[i] = shape[i]
        ph = ph.reshape(shape_i)
        out = ph if out is None else out * ph
    return out


def dft(f: GridFn, sign: int = -1, out: GridFn | None = None) -> GridFn:
    """Continuous-normalization discrete Fourier transform of a grid function.

    Computes ``F(u_q) = cell_volume * sum_k f(t_k) exp(sign * 2i*pi t_k . u_q)``
    on the target grid, which defaults to `reciprocal_grid(f)`.  A non-default
    ``out`` must be reciprocal-compatible: ``out.spacing == 1/(shape*spacing)``
    with the same shape (the offsets are free; they are absorbed into exact
    phase factors).  With this normalization the map is unitary between the
    grid and its reciprocal, and ``dft(dft(f, -1), +1, out=f)`` recovers ``f``
    to machine precision.

    Notes
    -----
    For grids built by `sampling_grid` the first cell center is exactly
    ``-(N//2) * spacing``, so the default round trip
    ``dft(dft(f, -1), +1)`` already lands back on ``f``'s own grid.
    """
    if sign not in (-1, +1):
        raise ValueError("sign must be -1 or +1")
    if out is None:
        out = reciprocal_grid(f)
    N = np.array(f.shape)
    if out.shape != f.shape:
        raise ValueError(f"output shape {out.shape} must match input shape {f.shape}")
    if not np.allclose(out.spacing * N * f.spacing, 1.0, rtol=1e-12, atol=0):
        raise ValueError("output grid spacing is not reciprocal to the input grid")

    c = f.origin + f.spacing / 2.0                 # first input sample
    u0 = out.origin + out.spacing / 2.0            # first output sample
    k_axes = [np.arange(f.shape[i]) for i in range(f.n)]
    pre = _dft_phase([f.spacing[i] * u0[i] for i in range(f.n)], f.shape, k_axes, sign)
    work = f.values * pre
    if sign == -1:
        spec = np.fft.fftn(work)
    else:
        spec = np.fft.ifftn(work) * np.prod(N)
    u_axes = [out.axis_coords(i) for i in range(f.n)]
    post = _dft_phase(c, f.shape, u_axes, sign)
    return out.with_values(spec * post * f.cell_volume)


# ---------------------------------------------------------------------------
# sequences


def _index(k, n: int) -> tuple:
    """``k`` as a tuple of ``n`` Python ints; anything else raises ValueError."""
    try:
        out = tuple(map(operator.index, k))
    except TypeError:
        out = None
    if out is None or len(out) != n:
        raise ValueError(f"index {k!r} is not a tuple of {n} integers")
    return out


def _int_keys(keys, n: int) -> np.ndarray:
    """``keys`` as an int64 array: an empty one, of any dtype, is (0, n), and any
    other of a non-integer dtype (a float key is no index), or with an unsigned
    key past int64 (the cast would wrap it), raises ValueError."""
    keys = np.asarray(keys)
    if keys.size == 0:
        return keys.astype(np.int64).reshape(0, n)
    if keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be integers, got dtype {keys.dtype}")
    if keys.dtype.kind == "u" and int(keys.max()) >= 2**63:
        raise ValueError(f"index {int(keys.max())} is 2**63 or more, past int64")
    return keys.astype(np.int64, copy=False)


@dataclass(frozen=True, init=False, eq=False)
class SeqFn:
    """A finitely supported complex sequence on Z^n, stored as two arrays.

    ``keys`` (K, n) int64 holds distinct indices in lexicographic order (the
    order of ``sorted()`` on tuples), ``values`` (K,) complex their nonzero
    values; both are read-only.  ``SeqFn(n, mapping)`` converts through
    `from_arrays`.  ``entries`` is a read-only ``{index tuple: complex}``
    view, built on first access.
    """

    n: int
    keys: np.ndarray
    values: np.ndarray

    def __init__(self, n: int, entries: Mapping):
        keys = [_index(k, n) for k in entries]
        self._assign(n, np.array(keys, dtype=np.int64).reshape(-1, n), list(entries.values()))

    @classmethod
    def from_arrays(cls, n: int, keys, vals) -> "SeqFn":
        """Build a sequence from an integer (K, n) key array and K values:
        exact zeros are dropped, rows sorted, and a repeated key raises
        ValueError."""
        out = object.__new__(cls)
        out._assign(n, keys, vals)
        return out

    def _assign(self, n, keys, vals) -> None:
        n = int(n)
        keys = _int_keys(keys, n)
        vals = np.asarray(vals, dtype=complex)
        if keys.ndim != 2 or keys.shape[1] != n or vals.shape != (keys.shape[0],):
            raise ValueError(
                f"need keys of shape (K, {n}) and values of shape (K,), got "
                f"{keys.shape} and {vals.shape}"
            )
        order = np.lexsort(keys.T[::-1])
        keys, vals = keys[order], vals[order]
        repeated = np.flatnonzero(np.all(keys[1:] == keys[:-1], axis=1))
        if repeated.size:
            raise ValueError(f"repeated index {tuple(keys[repeated[0]].tolist())}")
        nz = vals != 0
        object.__setattr__(self, "n", n)
        for name, arr in (("keys", keys[nz]), ("values", vals[nz])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def entries(self) -> Mapping:
        return MappingProxyType(dict(zip(map(tuple, self.keys.tolist()), self.values.tolist())))

    def __len__(self) -> int:
        return len(self.values)

    def get(self, k) -> complex:
        hit = np.flatnonzero(np.all(self.keys == _index(k, self.n), axis=1))
        return complex(self.values[hit[0]]) if hit.size else 0j

    def as_arrays(self):
        """The stored (sorted) keys and values: (K, n) int64 and (K,) complex."""
        return self.keys, self.values

    def l2norm(self) -> float:
        # np.hypot rounds as Python's abs(complex) does; np.abs may not
        return float(np.sqrt(np.sum(np.hypot(self.values.real, self.values.imag) ** 2)))

    def scaled(self, alpha: complex) -> "SeqFn":
        # the parts apart, rounded as Python's complex product (no fused multiply-add)
        a, v = complex(alpha), self.values
        out = np.empty_like(v)
        out.real, out.imag = a.real * v.real - a.imag * v.imag, a.real * v.imag + a.imag * v.real
        return SeqFn.from_arrays(self.n, self.keys, out)

    def plus(self, other: "SeqFn") -> "SeqFn":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        keys, inv = np.unique(np.concatenate([self.keys, other.keys]), axis=0, return_inverse=True)
        inv = inv.reshape(-1)       # (K, 1) under some numpy 2.0 releases
        out = np.zeros(len(keys), dtype=complex)
        out[inv[: len(self)]] = self.values
        np.add.at(out, inv[len(self):], other.values)
        return SeqFn.from_arrays(self.n, keys, out)


# ---------------------------------------------------------------------------
# named analytic generators


def _gen_gaussian(pts, sigma=1.0, center=0.0, modulation=None, chirp=None):
    n = pts.shape[-1]
    sigma = _as_vector(sigma, n, "sigma")
    center = _as_vector(center, n, "center")
    z = (pts - center) / sigma
    vals = np.exp(-np.pi * np.sum(z * z, axis=-1)).astype(complex)
    if modulation is not None:
        m = _as_vector(modulation, n, "modulation")
        vals = vals * np.exp(2j * np.pi * (pts @ m))
    if chirp is not None:
        R = np.asarray(chirp, dtype=float)
        if R.ndim == 0:
            R = np.eye(n) * float(R)
        vals = vals * np.exp(1j * np.pi * np.einsum("...i,ij,...j->...", pts, R, pts))
    return vals


def _gen_tent(pts, center=0.5, width=0.5):
    # product of unit-peak hats, each supported on [center-width, center+width]
    n = pts.shape[-1]
    center = _as_vector(center, n, "center")
    width = _as_vector(width, n, "width")
    vals = np.prod(np.maximum(0.0, 1.0 - np.abs((pts - center) / width)), axis=-1)
    return vals.astype(complex)


#: pointwise generators ``fn(points, **params) -> values`` by name
_GENERATORS: dict[str, Callable] = {
    "gaussian": _gen_gaussian,
    "tent": _gen_tent,
}


def sample_generator(name: str, grid: GridFn, **params) -> GridFn:
    """Evaluate a named analytic generator (``gaussian`` or ``tent``) at the
    grid's cell centers; ``params`` are the generator's keyword arguments."""
    try:
        fn = _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}; known: {sorted(_GENERATORS)}") from None
    return grid.with_values(fn(grid.points(), **params))
