"""Dict-loop reference implementations of the sparse-sequence kernels.

These are the entry-by-entry versions that the array kernels in
``saftlab.conv``, ``saftlab.lattice``, ``saftlab.saft`` and
``saftlab.dynsamp`` replaced, kept verbatim as test oracles: every loop here
walks a Python dict one entry at a time, with exact Python-int lattice
arithmetic.  ``test_kernels.py`` checks the array kernels against them.
`decompose` keeps only the ``M^T`` side, and `measure_from_samples` no
longer computes a window bounding box, like the library versions.

`l2norm`, `scaled` and `plus` are the methods of the dict-backed `SeqFn`,
with ``self`` as their first argument; ``test_grid.py`` checks the
array-backed methods against them.
"""

from __future__ import annotations

from math import sqrt

import numpy as np
from construction_oracles import _adjugate_int, _det_int

from saftlab.dynsamp import MeasurementSet
from saftlab.grid import SeqFn
from saftlab.lattice import SamplingLattice, _int_rows
from saftlab.params import SaftParams, chirp, require_valid


def conv_dd(params: SaftParams, s: SeqFn, c: SeqFn) -> SeqFn:
    """Sequence-sequence convolution; exact finite sum over support pairs."""
    require_valid(params)
    p = params
    if s.n != c.n:
        raise ValueError("sequence dimensions differ")
    lam = {}

    def lam_at(k: tuple) -> complex:
        if k not in lam:
            lam[k] = complex(chirp(p, np.array(k, dtype=float)))
        return lam[k]

    scale = 1.0 / sqrt(p.abs_det_b)
    acc: dict[tuple, complex] = {}
    for k, zs in s.entries.items():
        a = zs * lam_at(k)
        for kp, zc in c.entries.items():
            l = tuple(ki + kpi for ki, kpi in zip(k, kp))
            acc[l] = acc.get(l, 0.0) + a * lam_at(kp) * zc
    entries = {l: v * np.conj(lam_at(l)) * scale for l, v in acc.items()}
    return SeqFn(n=s.n, entries=entries)


def downsample(lat: SamplingLattice, c: SeqFn) -> SeqFn:
    """Keep the samples of ``c`` on the transposed lattice: out(k) = c(M^T k).

    Only entries whose index is exactly divisible by ``M^T`` survive;
    divisibility is decided in integer arithmetic.
    """
    if c.n != lat.n:
        raise ValueError(f"sequence dimension {c.n} != lattice dimension {lat.n}")
    rows_t = [list(col) for col in zip(*_int_rows(lat.M))]
    det = _det_int(rows_t)
    adj = _adjugate_int(rows_t)
    n = lat.n
    entries = {}
    for kp, z in c.entries.items():
        num = [sum(adj[i][j] * kp[j] for j in range(n)) for i in range(n)]
        if all(x % det == 0 for x in num):
            entries[tuple(x // det for x in num)] = z
    return SeqFn(n=n, entries=entries)


def decompose(lat: SamplingLattice, k) -> tuple[tuple[int, ...], int]:
    """Write an integer vector as ``M^T r + eta_j``.

    Returns ``(r, j)``; the decomposition is total and unique.
    """
    k = tuple(int(round(x)) for x in np.asarray(k).reshape(-1))
    n = lat.n
    if len(k) != n:
        raise ValueError(f"index must have length {n}")
    reps = lat.eta
    mat = [list(col) for col in zip(*_int_rows(lat.M))]
    det = _det_int(mat)
    adj = _adjugate_int(mat)
    for j, rep in enumerate(reps):
        diff = [k[i] - rep[i] for i in range(n)]
        num = [sum(adj[i][l] * diff[l] for l in range(n)) for i in range(n)]
        if all(x % det == 0 for x in num):
            r = tuple(x // det for x in num)
            return r, j
    raise AssertionError("coset decomposition failed; lattice reps incomplete")


def split_sequence(lat: SamplingLattice, s: SeqFn) -> list[SeqFn]:
    """Coset subsequences ``s_l(r) = s(M^T r + eta_l)``, one per coset."""
    if s.n != lat.n:
        raise ValueError(f"sequence dimension {s.n} != lattice dimension {lat.n}")
    parts: list[dict] = [{} for _ in range(lat.m)]
    for k, z in s.entries.items():
        r, j = decompose(lat, k)
        parts[j][r] = z
    return [SeqFn(n=s.n, entries=p) for p in parts]


def merge_sequence(lat: SamplingLattice, parts: list[SeqFn]) -> SeqFn:
    """Inverse of `split_sequence`: ``s(M^T r + eta_l) = parts[l](r)``."""
    if len(parts) != lat.m:
        raise ValueError(f"need {lat.m} subsequences, got {len(parts)}")
    mt = lat.M.T
    entries = {}
    for l, part in enumerate(parts):
        eta = np.array(lat.eta[l])
        for r, z in part.entries.items():
            k = tuple(int(x) for x in (mt @ np.array(r) + eta))
            entries[k] = z
    return SeqFn(n=lat.n, entries=entries)


def measure_from_samples(
    params: SaftParams,
    lat: SamplingLattice,
    s: SeqFn,
    phi_levels: list[SeqFn],
) -> MeasurementSet:
    """Channels computed exactly from integer samples of the filtered
    generators (no grids): v_j is the twisted semidiscrete sum of ``s``
    against ``phi_levels[j]`` restricted to the transposed lattice.

    The support is finite (sum of the two supports), so the channels are
    complete: nothing is truncated.
    """
    require_valid(params)
    p = params
    mt = lat.M.T.astype(int)
    det = _det_int(_int_rows(mt))
    adj_t = _np_adj(mt)
    sqrt_d = np.sqrt(p.abs_det_b)
    seqs = []
    for h in phi_levels:
        acc: dict[tuple, complex] = {}
        if s.entries and h.entries:
            hk, hv = h.as_arrays()
            hv = hv * chirp(p, hk.astype(float))
            for m_idx, z in s.entries.items():
                zc = z * chirp(p, np.array(m_idx, dtype=float))
                tgt = hk + np.array(m_idx, dtype=int)   # M^T k = support + m
                num = tgt @ adj_t
                okdiv = np.all(num % det == 0, axis=1)
                ks = num[okdiv] // det
                vals = zc * hv[okdiv]
                for k, v in zip(ks, vals):
                    t = tuple(int(x) for x in k)
                    acc[t] = acc.get(t, 0.0) + v
        if acc:
            kf = np.array(sorted(acc), dtype=float)
            fix = np.conj(chirp(p, kf)) / sqrt_d
            entries = {k: v * c for (k, v), c in zip(sorted(acc.items()), fix)}
        else:
            entries = {}
        seqs.append(SeqFn(n=lat.n, entries=entries))
    return MeasurementSet(params=p, lat=lat, levels=tuple(seqs))


def _np_adj(mat: np.ndarray) -> np.ndarray:
    return np.array(_adjugate_int(_int_rows(mat)), dtype=int).T


def generator_coset_samples(
    params: SaftParams,
    lat: SamplingLattice,
    phi_j_samples: SeqFn,
    l: int,
    chirped: bool = True,
) -> SeqFn:
    """Coset subsequence of integer generator samples:
    ``phi_l^j(r) = phi_j(M^T r - eta_l) * lam(M^T r - eta_l)``.

    ``phi_j_samples`` holds integer samples of the filtered generator (keys
    are the integer points); only keys congruent to ``-eta_l`` contribute.
    With ``chirped=False`` the unimodular factor is omitted.
    """
    mt = np.array([list(col) for col in zip(*_int_rows(lat.M))], dtype=int)
    det = _det_int(_int_rows(mt))
    adjT = _np_adj(mt)
    eta = np.array(lat.eta[l], dtype=int)
    if not phi_j_samples.entries:
        return SeqFn(n=lat.n, entries={})
    keys, vals = phi_j_samples.as_arrays()
    num = (keys + eta) @ adjT
    okdiv = np.all(num % det == 0, axis=1)
    rs = num[okdiv] // det
    pts = keys[okdiv].astype(float)
    v = vals[okdiv]
    if chirped:
        v = v * chirp(params, pts)
    entries = {tuple(int(x) for x in r): z for r, z in zip(rs, v)}
    return SeqFn(n=lat.n, entries=entries)


# ---------------------------------------------------------------------------
# SeqFn arithmetic of the dict storage


def l2norm(self) -> float:
    return float(np.sqrt(sum(abs(v) ** 2 for v in self.entries.values())))


def scaled(self, alpha: complex) -> "SeqFn":
    return SeqFn(self.n, {k: alpha * v for k, v in self.entries.items()})


def plus(self, other: "SeqFn") -> "SeqFn":
    if other.n != self.n:
        raise ValueError("dimension mismatch")
    out = dict(self.entries)
    for k, v in other.entries.items():
        out[k] = out.get(k, 0j) + v
    return SeqFn(self.n, out)
