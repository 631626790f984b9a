"""Integer sampling lattices, coset representatives, coset splitting.

For a non-singular integer matrix ``M`` with ``m = |det M|`` the integer
vectors inside the half-open parallelepiped ``M [0,1)^n`` form a complete set
of residues of ``Z^n / M Z^n`` (and likewise with ``M^T``).  Everything here
uses exact integer arithmetic — membership and decomposition are computed via
the adjugate, never a floating-point inverse — so coset bookkeeping cannot
drift for large indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import SeqFn
from .params import _fixed_product

__all__ = [
    "SamplingLattice",
    "build_lattice",
    "decompose",
    "split_sequence",
    "merge_sequence",
]


def _int_rows(M) -> list[list[int]]:
    arr = np.asarray(M)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"M must be a square matrix, got shape {arr.shape}")
    # a string, null or an int past int64 makes a non-numeric array
    if arr.dtype.kind not in "iuf" or not np.all(np.abs(arr) < 2.0**63) \
            or not np.allclose(arr, np.round(arr)):
        raise ValueError("M must have integer entries of magnitude below 2**63")
    return [[int(round(x)) for x in row] for row in arr]


def _det_adj(rows: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """``det M`` and ``adj M = det M * M^{-1}`` of the integer matrix `rows`,
    from one Gauss-Jordan elimination of ``[M | I]`` over exact fractions;
    the adjugate is None when M is singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv], det = a[piv], a[k], -det
        pivot = a[k][k]
        det *= pivot
        a[k] = [x / pivot for x in a[k]]
        for i in range(n):
            if i != k and (f := a[i][k]):
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det), [[int(det * x) for x in row[n:]] for row in a]


def _coset_reps(mat: np.ndarray, det: int, adj: np.ndarray) -> list[tuple[int, ...]]:
    """Integer points of ``M [0,1)^n``, zero first then lexicographic."""
    n = len(mat)
    corners = np.array(list(itertools.product((0, 1), repeat=n))) @ mat.T
    box = np.array(list(itertools.product(*map(range, corners.min(0), corners.max(0) + 1))))
    # k in M[0,1)^n  <=>  (adj M) k / det in [0,1)^n, checked exactly
    num = box @ adj.T
    inside = np.all((num >= 0) & (num < det) if det > 0 else (num > det) & (num <= 0), axis=1)
    reps = sorted(map(tuple, box[inside].tolist()))
    zero = (0,) * n
    if zero not in reps:
        raise AssertionError("coset enumeration must contain 0")
    reps.remove(zero)
    return [zero] + reps


@dataclass(frozen=True)
class SamplingLattice:
    """Integer matrix ``M`` with coset representatives of ``Z^n/MZ^n``
    (``gamma``) and of ``Z^n/M^T Z^n`` (``eta``), zero first, lexicographic.

    ``adj`` and ``det`` are the exact integer adjugate and (signed)
    determinant of ``M``, computed once by `build_lattice`; every coset
    split goes through `split`, and every dual-coset point through
    `coset_points`.
    """

    M: np.ndarray
    m: int
    gamma: tuple[tuple[int, ...], ...]
    eta: tuple[tuple[int, ...], ...]
    adj: np.ndarray
    det: int

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def m_inverse(self) -> np.ndarray:
        """Float inverse of M (adjugate over determinant, so exact up to
        one final division)."""
        return self.adj.astype(float) / self.det

    def coset_points(self, x: np.ndarray) -> np.ndarray:
        """The dual-coset points ``M^{-1}(x + gamma_v)``, (..., m, n) for ``x`` (..., n),
        summed in a fixed order (`params._fixed_product`) like every frame conversion."""
        return _fixed_product(x[..., None, :] + np.array(self.gamma, dtype=float), self.m_inverse())

    def split(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Coset decomposition of many integer vectors at once.

        Writes each row ``k`` of ``keys`` (shape (K, n), integer) as
        ``k = M^T r + eta_j`` and returns ``(r, j)``: an int64 array of
        shape (K, n) and the coset indices, shape (K,).  The decomposition
        is total and unique; keys of any other shape raise ValueError.

        Arithmetic is exact in int64: ``adj(M^T) k`` is zero modulo ``det``
        precisely on ``M^T Z^n``, so its residues name the coset, and the
        division that yields ``r`` has no remainder.  Keys must be small
        enough that ``adj k`` fits in int64.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 2 or keys.shape[1] != self.n:
            raise ValueError(f"keys must have shape (K, {self.n}), got {keys.shape}")
        # rows adj(M^T) k: adj(M^T) = adj(M)^T
        num = keys @ self.adj
        rep_num = np.array(self.eta, dtype=np.int64) @ self.adj
        shape = (self.m,) * self.n
        codes = np.ravel_multi_index(tuple((num % self.m).T), shape)
        rep_codes = np.ravel_multi_index(tuple((rep_num % self.m).T), shape)
        order = np.argsort(rep_codes)
        j = order[np.searchsorted(rep_codes, codes, sorter=order)]
        return (num - rep_num[j]) // self.det, j


def build_lattice(M) -> SamplingLattice:
    """Enumerate coset representatives for ``M`` and ``M^T``.

    Raises ValueError for singular or non-integer ``M``.
    """
    rows = _int_rows(M)
    det, adj = _det_adj(rows)
    if det == 0:
        raise ValueError("M is singular")
    m = abs(det)
    mat, adj = np.array(rows, dtype=np.int64), np.array(adj, dtype=np.int64)
    mat.setflags(write=False)
    adj.setflags(write=False)
    gamma = _coset_reps(mat, det, adj)
    eta = _coset_reps(mat.T, det, adj.T)
    if len(gamma) != m or len(eta) != m:
        raise AssertionError(f"expected {m} coset reps, found {len(gamma)}/{len(eta)}")
    return SamplingLattice(M=mat, m=m, gamma=tuple(gamma), eta=tuple(eta), adj=adj, det=det)


def decompose(lat: SamplingLattice, k) -> tuple[tuple[int, ...], int]:
    """Write an integer vector as ``M^T r + eta_j``.

    Returns ``(r, j)``; the decomposition is total and unique.
    """
    k = [int(round(x)) for x in np.asarray(k).reshape(-1)]
    if len(k) != lat.n:
        raise ValueError(f"index must have length {lat.n}")
    r, j = lat.split([k])
    return tuple(int(x) for x in r[0]), int(j[0])


def split_sequence(lat: SamplingLattice, s: SeqFn) -> list[SeqFn]:
    """Coset subsequences ``s_l(r) = s(M^T r + eta_l)``, one per coset."""
    if s.n != lat.n:
        raise ValueError(f"sequence dimension {s.n} != lattice dimension {lat.n}")
    keys, vals = s.as_arrays()
    r, j = lat.split(keys)
    return [SeqFn.from_arrays(s.n, r[j == l], vals[j == l]) for l in range(lat.m)]


def merge_sequence(lat: SamplingLattice, parts: list[SeqFn]) -> SeqFn:
    """Inverse of `split_sequence`: ``s(M^T r + eta_l) = parts[l](r)``."""
    if len(parts) != lat.m:
        raise ValueError(f"need {lat.m} subsequences, got {len(parts)}")
    keys = [part.keys @ lat.M + np.array(eta, dtype=np.int64)     # rows M^T r + eta_l
            for part, eta in zip(parts, lat.eta)]
    vals = [part.values for part in parts]
    return SeqFn.from_arrays(lat.n, np.concatenate(keys), np.concatenate(vals))
