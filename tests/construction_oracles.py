"""The construction code that the table-driven `saftlab.params.preset` and
the one exact elimination `saftlab.lattice._det_adj` replaced, kept verbatim
as test oracles.

`preset` is the eight-arm ``if`` chain over the preset kinds with its key
table `_PRESET_KEYS`; ``test_params.py`` checks that every kind gives
bit-identical blocks and the same error text.  `_det_int` is the Bareiss
determinant and `_adjugate_int` the adjugate from n**2 cofactor
determinants; ``test_lattice.py`` checks the elimination against them, and
``dict_oracles.py`` builds its lattice arithmetic on them.

`_coset_reps` and `split` are the coset code that one exact reduction over a
Hermite box replaced in `saftlab.lattice`, verbatim (`split` was a method of
`SamplingLattice`; it takes the lattice as ``self``): the first scans the
bounding box of ``M [0,1)^n``, the second codes residues over an ``m**n``
table.  ``test_lattice.py`` checks that every lattice field and every split
is bit-identical to theirs.
"""

from __future__ import annotations

import itertools

import numpy as np

from saftlab.params import SaftParams, validate


#: the keyword arguments each preset kind reads
_PRESET_KEYS = {
    "ft": (), "lct": tuple("ABCD"), "separable_lct": tuple("abcd"), "separable_frft": ("theta",),
    "nonseparable_fresnel": ("B",), "separable_fresnel": ("b",), "separable_lorentz": ("phi",),
    "custom": tuple("ABCDPQ"),
}


def preset(kind: str, /, n: int | None = None, **kwargs) -> SaftParams:
    """Construct a named special-case parameter block.

    Kinds (all validated to 1e-12 before returning):

    - ``ft``: A=D=P=Q=0, B=I, C=-I.
    - ``lct``: full matrices A, B, C, D (P=Q=0).
    - ``separable_lct``: per-axis diagonals a, b, c, d (P=Q=0).
    - ``separable_frft``: angles theta_i; A=D=diag(cos), B=-C=diag(sin).
    - ``nonseparable_fresnel``: A=D=I, C=0, B symmetric.
    - ``separable_fresnel``: A=D=I, C=0, B=diag(b).
    - ``separable_lorentz``: rapidities phi_i; A=D=diag(cosh), B=C=diag(sinh).
    - ``custom``: full A, B, C, D, P, Q.

    A keyword the kind does not read, or an ``n`` that its arguments
    contradict, raises.
    """
    kind = kind.lower().replace("-", "_")
    if kind not in _PRESET_KEYS:
        raise ValueError(f"unknown preset kind {kind!r}")
    unread = sorted(set(kwargs) - set(_PRESET_KEYS[kind]))
    if unread:
        raise ValueError(f"preset {kind!r} does not take {', '.join(unread)}")
    dim = n
    if kind == "ft":
        if n is None:
            raise ValueError("ft preset needs the dimension n")
        Z, I = np.zeros((n, n)), np.eye(n)
        p = SaftParams(n, Z, I, -I, Z, np.zeros(n), np.zeros(n))
    elif kind == "lct":
        A = np.asarray(kwargs["A"], dtype=float)
        n = A.shape[0] if A.ndim else 1
        p = SaftParams(n, kwargs["A"], kwargs["B"], kwargs["C"], kwargs["D"], np.zeros(n), np.zeros(n))
    elif kind == "separable_lct":
        a, b, c, d = (np.atleast_1d(np.asarray(kwargs[k], dtype=float)) for k in "abcd")
        n = a.size
        p = SaftParams(n, np.diag(a), np.diag(b), np.diag(c), np.diag(d), np.zeros(n), np.zeros(n))
    elif kind == "separable_frft":
        theta = np.atleast_1d(np.asarray(kwargs["theta"], dtype=float))
        n = theta.size
        if np.any(np.abs(np.sin(theta)) < 1e-12):
            raise ValueError("frft angles with sin(theta) = 0 give a singular B")
        cos, sin = np.diag(np.cos(theta)), np.diag(np.sin(theta))
        p = SaftParams(n, cos, sin, -sin, cos, np.zeros(n), np.zeros(n))
    elif kind == "nonseparable_fresnel":
        B = np.asarray(kwargs["B"], dtype=float)
        n = B.shape[0]
        if np.max(np.abs(B - B.T)) > 1e-12:
            raise ValueError("nonseparable fresnel block requires a symmetric B")
        I, Z = np.eye(n), np.zeros((n, n))
        p = SaftParams(n, I, B, Z, I, np.zeros(n), np.zeros(n))
    elif kind == "separable_fresnel":
        b = np.atleast_1d(np.asarray(kwargs["b"], dtype=float))
        n = b.size
        I, Z = np.eye(n), np.zeros((n, n))
        p = SaftParams(n, I, np.diag(b), Z, I, np.zeros(n), np.zeros(n))
    elif kind == "separable_lorentz":
        phi = np.atleast_1d(np.asarray(kwargs["phi"], dtype=float))
        n = phi.size
        if np.any(np.abs(np.sinh(phi)) < 1e-12):
            raise ValueError("lorentz rapidity 0 gives a singular B")
        ch, sh = np.diag(np.cosh(phi)), np.diag(np.sinh(phi))
        p = SaftParams(n, ch, sh, sh, ch, np.zeros(n), np.zeros(n))
    else:
        A = np.asarray(kwargs["A"], dtype=float)
        n = A.shape[0] if A.ndim else 1
        p = SaftParams(
            n, kwargs["A"], kwargs["B"], kwargs["C"], kwargs["D"],
            kwargs.get("P", np.zeros(n)), kwargs.get("Q", np.zeros(n)),
        )
    if dim is not None and dim != n:
        raise ValueError(f"preset {kind!r}: n = {dim}, but its arguments give dimension {n}")
    rep = validate(p, 1e-12)
    if not rep.ok:
        raise ValueError(f"preset {kind!r} arguments give an invalid block:\n{rep}")
    return p


def _det_int(rows: list[list[int]]) -> int:
    # Bareiss fraction-free elimination: exact over Python ints.
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _adjugate_int(rows: list[list[int]]) -> list[list[int]]:
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * _det_int(minor)
    return adj


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
