"""The window checks of ``saftlab.repro.build_example`` as they were before
they were evaluated per axis.

`build_example` evaluated the masking residual and the unsquared window
periodization on all N x 25 shifted reduced frequencies at once, the filter
symbol included; `repro._window_checks` now forms both from per-axis window
values and evaluates the symbol only where the window leaks out of its
support box.  The expressions are kept verbatim as a test oracle, wrapped in
one function that returns both results; ``test_repro.py`` checks the helper
against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from saftlab.dynsamp import filter_symbol
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
