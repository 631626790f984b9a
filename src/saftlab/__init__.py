"""saftlab: offset linear canonical (affine-Fourier) transforms, their
convolution calculus, shift-invariant spaces, and dynamical-sampling
recovery on uniform grids.

The package root holds the quick-start surface; everything else is
imported from its submodule (``saftlab.conv``, ``saftlab.dynsamp``, ...).
"""

from .grid import GridFn, SeqFn, sample_generator, sampling_grid
from .params import SaftParams, preset
from .saft import saft_forward, saft_inverse, saft_plan

__version__ = "1.0.0"

__all__ = [
    "GridFn", "SeqFn", "SaftParams", "preset", "sampling_grid",
    "sample_generator", "saft_plan", "saft_forward", "saft_inverse",
    "__version__",
]
