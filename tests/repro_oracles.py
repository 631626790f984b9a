"""The window checks of ``saftlab.repro.build_example`` as they were before
they were evaluated per axis, and the window table as it was before it was
taken without a Python loop.

`build_example` evaluated the masking residual and the unsquared window
periodization on all N x 25 shifted reduced frequencies at once, the filter
symbol included; `repro._window_checks` now forms both from per-axis window
values and evaluates the symbol only where the window leaks out of its
support box.  The expressions are kept verbatim as a test oracle, wrapped in
one function that returns both results; ``test_repro.py`` checks the helper
against it bit for bit.

`tensor_window_samples` compared the whole table once per k1; the loop is
kept verbatim, and ``test_repro.py`` checks the sorted replacement against
it.
"""

from __future__ import annotations

import numpy as np

from saftlab.dynsamp import filter_symbol
from saftlab.grid import SeqFn
from saftlab.repro import SUPPORT_END, _tensor_psi


def window_checks(p, filt, nu0):
    """(masking residual, periodization array) on the reduced frequencies
    ``nu0`` (N, 2)."""
    shifts = np.array(
        [(i, j) for i in (-2, -1, 0, 1, 2) for j in (-2, -1, 0, 1, 2)], dtype=float
    )
    pts = nu0[:, None, :] + shifts[None, :, :]
    chi = np.all(np.abs(pts) <= SUPPORT_END, axis=-1).astype(float)
    sym = filter_symbol(p, filt, pts)
    masking_residual = float(np.max(np.abs((chi - 1.0) * sym * _tensor_psi(pts))))

    # unsquared periodization of the window: bounded away from zero.  The
    # sum is 1-periodic, so reduce to the unit cell before the local shifts.
    nu_frac = nu0 - np.floor(nu0)
    phi0 = np.zeros(nu_frac.shape[0])
    for s in shifts:
        phi0 += _tensor_psi(nu_frac + s)
    return masking_residual, phi0


def tensor_window_samples(table, threshold):
    """(samples, kept_l1, discarded_l1) of the thresholded tensor window."""
    t0 = abs(table[0])
    if t0 == 0:
        raise ValueError("degenerate window: zero center sample")
    rel = np.abs(table) / t0
    kmax = len(table) - 1
    k1_list: list[np.ndarray] = []
    k2_list: list[np.ndarray] = []
    for k1 in range(kmax + 1):
        if rel[k1] == 0.0:
            continue
        k2 = np.nonzero(rel > threshold / rel[k1])[0]
        if k2.size:
            k1_list.append(np.full(k2.size, k1, dtype=np.int64))
            k2_list.append(k2.astype(np.int64))
    K1 = np.concatenate(k1_list) if k1_list else np.zeros(0, dtype=np.int64)
    K2 = np.concatenate(k2_list) if k2_list else np.zeros(0, dtype=np.int64)
    V = table[K1] * table[K2]
    keys, vals = [], []
    kept_l1 = 0.0
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        mask = np.ones(K1.size, dtype=bool)
        if s1 < 0:
            mask &= K1 > 0
        if s2 < 0:
            mask &= K2 > 0
        keys.append(np.stack([s1 * K1[mask], s2 * K2[mask]], axis=1))
        vals.append(V[mask])
        kept_l1 += float(np.sum(np.abs(vals[-1])))
    signed_l1_1d = t0 + 2.0 * float(np.sum(np.abs(table[1:])))
    discarded_l1 = max(signed_l1_1d**2 - kept_l1, 0.0)
    return SeqFn.from_arrays(2, np.concatenate(keys), np.concatenate(vals)), kept_l1, discarded_l1
