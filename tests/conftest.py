import os

# One BLAS thread: the nodes x bins products of the contour corrections are
# small, so extra threads only contend with other work on a shared host, and
# the rounding-floor digits the acceptance gate prints stop depending on the
# thread count.  Must run before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

from pideq import AlphaParams, Grid, gaussian_field

# property tests draw a fixed example sequence so the suite stays deterministic
settings.register_profile("pideq", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("pideq")


@pytest.fixture(scope="session")
def params():
    return AlphaParams.for_alpha(0.0, 2)


@pytest.fixture(scope="session")
def grid128():
    return Grid(40.0, 128)


@pytest.fixture(scope="session")
def grid256():
    return Grid(40.0, 256)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def smooth_datum(grid128):
    return gaussian_field(grid128, sigma=2.0)
