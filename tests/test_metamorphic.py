"""Exact lattice identities that tie the implementation to the grid model.

They hold to rounding whatever digits a discretization change records: the
three routes to <g, psi> agree, P_ac is a projection that annihilates psi,
and the projection, the projected flow and the resolvent are self-adjoint.
Every alpha runs, alpha = +inf (zero coupling: psi, P_d and the coefficient
are 0) included.
"""

import math

import numpy as np
import pytest

from pideq import (
    AlphaParams,
    Grid,
    gaussian_field,
    inner_product,
    krein_resolvent,
    lp_norm,
    project_d,
    psi_alpha_field,
    semigroup_pac,
)
from pideq.semigroup import Flow, grid_model

GRID = Grid(40.0, 128)
ALPHAS = [-0.1, 0.0, 0.2, math.inf]


def _data():
    """(f, h): an off-centre two-Gaussian datum and a second Gaussian."""
    f = gaussian_field(GRID, sigma=2.0, center=(1.0, 0.5)) + gaussian_field(
        GRID, sigma=1.0, amplitude=0.5, center=(-3.0, 2.0)
    )
    return f, gaussian_field(GRID, sigma=1.5, center=(-2.0, 1.0))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_psi_coefficient_agrees_across_its_users(alpha):
    # <f, psi> as project_ac_hat returns it, as project_d scales psi by it,
    # and as a flow applies it: the full flow less the projected one is
    # e^{tE} <f, psi> psi.  Measured apart by 3.3e-16 at most
    params = AlphaParams.for_alpha(alpha, 2)
    model = grid_model(params, GRID)
    f, _ = _data()
    fhat = np.fft.rfft2(f.values)
    _, coef = model.project_ac_hat(fhat)
    pd = project_d(f, params).values
    flowed = Flow(model, 1.0, full=True).apply(fhat) - Flow(model, 1.0).apply(fhat)
    if alpha == math.inf:
        assert coef == 0.0 and not np.any(pd) and not np.any(flowed)
        return
    psi = psi_alpha_field(params, GRID).values
    psi_hat = np.fft.rfft2(psi)
    from_project_d = np.sum(pd * psi) / np.sum(psi * psi)
    from_flow = np.vdot(psi_hat, flowed).real / np.vdot(psi_hat, psi_hat).real / math.exp(model.E)
    assert abs(from_project_d - coef) <= 1e-14 * abs(coef)
    assert abs(from_flow - coef) <= 1e-14 * abs(coef)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_projection_is_idempotent_and_annihilates_psi(alpha):
    params = AlphaParams.for_alpha(alpha, 2)
    model = grid_model(params, GRID)
    f, _ = _data()
    fhat = np.fft.rfft2(f.values)
    once, _ = model.project_ac_hat(fhat)
    twice, coef = model.project_ac_hat(once)
    scale = model.l2_hat(fhat)
    assert model.l2_hat(twice - once) <= 1e-14 * scale and abs(coef) <= 1e-14 * scale
    if alpha != math.inf:
        psi_hat = np.fft.rfft2(psi_alpha_field(params, GRID).values)
        rest, coef = model.project_ac_hat(psi_hat)
        assert model.l2_hat(rest) <= 1e-14 and abs(coef - 1.0) <= 1e-14


@pytest.mark.parametrize("alpha", ALPHAS)
def test_projection_flows_and_resolvent_are_self_adjoint(alpha):
    # <T f, h> = <f, T h> for T = P_ac, exp(tA) P_ac at t = 1 and 50 and
    # R(2); measured at most 1.8e-15, 1.7e-15, 1.2e-14 and 2.7e-16 of
    # ||f|| ||h|| over the four alphas
    params = AlphaParams.for_alpha(alpha, 2)
    f, h = _data()
    scale = lp_norm(f, 2) * lp_norm(h, 2)
    cases = [
        (lambda g: g - project_d(g, params), 1e-13),
        (lambda g: semigroup_pac(1.0, g, params).field, 1e-13),
        (lambda g: semigroup_pac(50.0, g, params).field, 1e-11),
        (lambda g: krein_resolvent(2.0, g, params), 1e-13),
    ]
    for op, tol in cases:
        assert abs(inner_product(op(f), h) - inner_product(f, op(h))) <= tol * scale
