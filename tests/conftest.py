from unittest.mock import patch

import numpy as np
import pytest

from saftlab import sis
from saftlab.params import preset, random_params


def coarse_sis(params, phi, spectrum_fn=None):
    """`sis.build_sis` of a generator grid too coarse for its spectrum to
    pass the decay check, with the check switched off for this one call."""
    with patch.object(sis, "DECAY_TOL", np.inf):
        return sis.build_sis(params, phi, spectrum_fn)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ft1():
    return preset("ft", 1)


@pytest.fixture
def ft2():
    return preset("ft", 2)


@pytest.fixture
def rand1(rng):
    return random_params(1, rng)
