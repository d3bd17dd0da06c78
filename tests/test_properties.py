"""Property tests of the grid operator algebra over alpha, lambda and the grid.

Examples are drawn deterministically (see the profile in conftest.py).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pideq import AlphaParams, Grid, gaussian_field, krein_resolvent, lp_norm
from pideq.semigroup import grid_model

pytestmark = pytest.mark.filterwarnings("ignore:eigenfunction scale")

# alpha = +inf, the free Laplacian, is the grid model's zero coupling.  It
# takes a large share of the draws, so the tests over alphas run 80
# examples, which keeps more finite alphas in each (41 to 49) than the
# profile's 25 examples drew before
alphas = st.one_of(st.floats(-0.2, 0.2), st.just(math.inf))
over_alphas = settings(max_examples=80)
grids = st.sampled_from([64, 128]).map(lambda n: Grid(40.0, n))
lambdas = st.one_of(
    st.floats(0.1, 50.0),
    st.builds(complex, st.floats(-10.0, 50.0), st.floats(0.1, 10.0)),
)
data = st.tuples(st.floats(1.0, 3.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
scalars = st.floats(-2.0, 2.0)


def _datum(grid, spec):
    sigma, x0, y0 = spec
    return gaussian_field(grid, sigma=sigma, center=(x0, y0))


def _half_spectrum(grid, spec):
    return np.fft.rfft2(_datum(grid, spec).values.real)


def _off_pole(lam, params):
    # real shifts stay 0.05 away from the point eigenvalue, if there is one
    ev = params.eigenvalue
    return isinstance(lam, complex) or ev is None or abs(lam - ev) >= 0.05


@over_alphas
@given(alphas, grids, st.lists(lambdas, min_size=2, max_size=2, unique=True), data)
def test_resolvent_identity_property(alpha, grid, pair, spec):
    lam, mu = pair
    params = AlphaParams.for_alpha(alpha, 2)
    assume(_off_pole(lam, params) and _off_pole(mu, params))
    g = _datum(grid, spec)
    r_lam = krein_resolvent(lam, g, params)
    r_mu = krein_resolvent(mu, g, params)
    comp = krein_resolvent(lam, r_mu, params)
    assert lp_norm(r_lam - r_mu - (mu - lam) * comp, 2) <= 1e-12 * lp_norm(g, 2)


@over_alphas
@given(alphas, grids, data)
def test_projection_idempotent_property(alpha, grid, spec):
    model = grid_model(AlphaParams.for_alpha(alpha, 2), grid)
    ghat = _half_spectrum(grid, spec)
    once, _ = model.project_ac_hat(ghat)
    twice, _ = model.project_ac_hat(once)
    assert np.linalg.norm(twice - once) <= 1e-14 * np.linalg.norm(ghat)
    if alpha == math.inf:
        # no eigenmode: P_ac is the identity
        assert np.array_equal(once, ghat)


@over_alphas
@given(alphas, grids, data, data, scalars, scalars)
def test_coupling_coefficient_linear_property(alpha, grid, spec1, spec2, a, b):
    model = grid_model(AlphaParams.for_alpha(alpha, 2), grid)
    g1 = _half_spectrum(grid, spec1)
    g2 = _half_spectrum(grid, spec2)
    lhs = model.coupling_coefficient(a * g1 + b * g2)
    rhs = a * model.coupling_coefficient(g1) + b * model.coupling_coefficient(g2)
    # the functional is real-linear (it pairs real fields); rounding scale:
    # the Cauchy-Schwarz bound of the functional on each term, whose
    # Hermitian-weighted pairing is at most twice the half spectra's
    bound = 2.0 * model.wlat * np.linalg.norm(model.delta_hat) / abs(model.S_at_E)
    scale = bound * (abs(a) * np.linalg.norm(g1) + abs(b) * np.linalg.norm(g2))
    assert abs(lhs - rhs) <= 1e-12 * scale
    if alpha == math.inf:
        # zero coupling: q is 0 for every datum
        assert lhs == rhs == 0.0
