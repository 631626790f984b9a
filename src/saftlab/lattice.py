"""Integer sampling lattices, coset representatives, coset splitting.

For a non-singular integer matrix ``M`` with ``m = |det M|`` the integer
vectors inside the half-open parallelepiped ``M [0,1)^n`` form a complete set
of residues of ``Z^n / M Z^n`` (and likewise with ``M^T``).  One exact int64
map, ``k -> k - M floor(adj(M) k / det M)``, takes any key to its coset's point
there, so enumeration (of a Hermite box) and splitting need no float inverse;
a split names that point's coset by its digits in the Hermite box of ``M^T``,
which has m cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import SeqFn, _int_keys
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
            or not np.all(arr == np.round(arr)):
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


def _reduce(keys: np.ndarray, mat: np.ndarray, adj: np.ndarray, det: int):
    """Rows ``q = floor(adj(M) k / det)`` and ``k - M q``, in ``M [0,1)^n``, of int64
    `keys`; refuses keys whose product with adj could reach 2**63 (``M q`` may wrap)."""
    top = max(-int(keys.min(initial=0)), int(keys.max(initial=0)))   # |-2**63| is no int64
    if top * max(sum(map(abs, row)) for row in adj.tolist()) >= 2**63:
        raise ValueError(f"index {top} is too large for this lattice: coset products pass 2**63")
    q = keys @ adj.T // det
    return q, keys - q @ mat.T


def _hermite(mat: np.ndarray) -> list[list[int]]:
    """Columns of the Hermite form ``H = M U`` (U unimodular), in Python ints: Euclid on
    the columns, row by row, makes H lower triangular, and then each diagonal entry is
    made positive and the entries left of it in its row are reduced into ``[0, h_ii)``."""
    cols = mat.T.tolist()
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            while cols[j][i]:
                q = cols[i][i] // cols[j][i]
                cols[i], cols[j] = cols[j], [x - q * y for x, y in zip(cols[i], cols[j])]
        if cols[i][i] < 0:
            cols[i] = [-x for x in cols[i]]
        for j in range(i):
            q = cols[j][i] // cols[i][i]
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[i])]
    return cols


def _box_codes(points: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """C-order codes, in the Hermite box ``prod [0, h_ii)`` of `mat` (m cells), of the
    cosets of the int64 rows `points` of ``M [0,1)^n``: row by row, a point's entry i
    leaves its digit ``mod h_ii`` and takes multiples of column i of H off the rows
    below.  Refuses an M whose digit products could reach 2**63, by `_reduce`'s rule."""
    cols, code = _hermite(mat), 0
    top = [sum(map(abs, row)) for row in mat.tolist()]   # |entry i| of a point of M [0,1)^n
    rows = list(points.T)
    for i, col in enumerate(cols):
        q, digit = np.divmod(rows[i], col[i])
        code = code * col[i] + digit
        for l in range(i + 1, len(cols)):
            if col[l]:
                top[l] += (top[i] // col[i] + 1) * col[l]
                if top[l] >= 2**63:
                    raise ValueError("lattice entries too large: Hermite box digit products "
                                     "pass 2**63")
                rows[l] = rows[l] - q * col[l]
    return code


def _coset_reps(mat: np.ndarray, det: int, adj: np.ndarray) -> list[tuple[int, ...]]:
    """Integer points of ``M [0,1)^n``, zero (the one with no nonzero entry) first, then
    lexicographic: the Hermite box ``prod [0, h_ii)`` holds one point of each coset."""
    box = np.indices([col[i] for i, col in enumerate(_hermite(mat))], dtype=np.int64)
    reps = _reduce(box.reshape(len(mat), -1).T, mat, adj, det)[1]
    return list(map(tuple, reps[np.lexsort((*reps.T[::-1], reps.any(1)))].tolist()))


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

        Arithmetic is exact in int64: ``r = floor(adj(M^T) k / det)`` puts
        ``k - M^T r`` in ``M^T [0,1)^n``, and its code in the Hermite box of
        ``M^T`` indexes a table of eta's codes.  Keys too large for that, or of
        a non-integer dtype (an empty array may have any), raise ValueError.
        """
        keys = _int_keys(keys, self.n)
        if keys.ndim != 2 or keys.shape[1] != self.n:
            raise ValueError(f"keys must have shape (K, {self.n}), got {keys.shape}")
        r, rest = _reduce(keys, self.M.T, self.adj.T, self.det)   # adj(M^T) = adj(M)^T
        table = np.empty(self.m, dtype=np.intp)
        table[_box_codes(np.array(self.eta, dtype=np.int64), self.M.T)] = np.arange(self.m)
        return r, table[_box_codes(rest, self.M.T)]


def build_lattice(M) -> SamplingLattice:
    """Enumerate coset representatives for ``M`` and ``M^T``.

    Raises ValueError for singular or non-integer ``M``.
    """
    rows = _int_rows(M)
    det, adj = _det_adj(rows)
    if det == 0:
        raise ValueError("M is singular")
    if any(abs(x) >= 2**63 for row in adj for x in row):
        raise ValueError("adj M has an entry of magnitude 2**63 or more, past int64")
    mat, adj = np.array(rows, dtype=np.int64), np.array(adj, dtype=np.int64)
    mat.setflags(write=False)
    adj.setflags(write=False)
    return SamplingLattice(M=mat, m=abs(det), gamma=tuple(_coset_reps(mat, det, adj)),
                           eta=tuple(_coset_reps(mat.T, det, adj.T)), adj=adj, det=det)


def decompose(lat: SamplingLattice, k) -> tuple[tuple[int, ...], int]:
    """Write an integer vector as ``M^T r + eta_j``.

    Returns ``(r, j)``; the decomposition is total and unique.
    """
    k = np.asarray(k).reshape(1, -1)
    if k.shape[1] != lat.n:
        raise ValueError(f"index must have length {lat.n}")
    r, j = lat.split(k)
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
