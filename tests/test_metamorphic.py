"""Exact lattice identities that tie the implementation to the grid model.

They hold to rounding whatever digits a discretization change records: the
three routes to <g, psi> agree, P_ac is a projection that annihilates psi,
the projection, the projected flow and the resolvent are self-adjoint, and
the operators and both solves are covariant under the lattice's symmetry
group D4.  Every alpha runs, alpha = +inf (zero coupling: psi, P_d and the
coefficient are 0) included.
"""

import dataclasses
import math

import numpy as np
import pytest

from pideq import (
    AlphaParams,
    DecomposedField,
    Field,
    Grid,
    SolverConfig,
    backward_euler_oracle,
    gaussian_field,
    inner_product,
    krein_resolvent,
    lp_norm,
    project_d,
    psi_alpha_field,
    semigroup_gradient_pac,
    semigroup_pac,
    solve_global_projected,
    solve_local,
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


# D4 is generated by x1 -> -x1, x2 -> -x2 and the transpose x1 <-> x2.  The
# nodes sit at half-cell centres, symmetric about the interaction point, so
# each map is an exact permutation of the samples: x1 -> -x1 is
# values[::-1, :].  A vector (the drift a, a gradient's components) maps
# with the same matrix, so a . grad is covariant when a maps along.
D4 = [  # (map on the samples, map on a vector's components)
    (lambda v: v[::-1, :], lambda a: (-a[0], a[1])),
    (lambda v: v[:, ::-1], lambda a: (a[0], -a[1])),
    (lambda v: v.T, lambda a: (a[1], a[0])),
]
D4_ALPHAS = [0.0, 0.2, math.inf]
D4_TOL = 1e-13


def _mapped(f, vmap):
    return Field(f.grid, np.ascontiguousarray(vmap(f.values)))


def _assert_covariant(got, want, scale):
    assert np.max(np.abs(got - want)) <= D4_TOL * scale


@pytest.mark.parametrize("alpha", D4_ALPHAS)
def test_operators_are_d4_covariant(alpha):
    # T(sigma f) = sigma T(f) for the projected flow, the resolvent and the
    # backward-Euler oracle; the flow's gradient components change sign or
    # swap as a vector's.  Measured at most 2.8e-15 (the oracle; the flow
    # 1.7e-15, the gradient 1.2e-15, the resolvent 3.7e-16) of the largest
    # sample
    params = AlphaParams.for_alpha(alpha, 2)
    f, _ = _data()
    for op in (
        lambda g: semigroup_pac(1.0, g, params).field,
        lambda g: krein_resolvent(2.0, g, params),
        lambda g: backward_euler_oracle(1.0, g, params, 20),
    ):
        want = op(f).values
        for vmap, _ in D4:
            _assert_covariant(op(_mapped(f, vmap)).values, vmap(want), np.max(np.abs(want)))
    grad = [d.values for d in semigroup_gradient_pac(1.0, f, params)]
    scale = max(np.max(np.abs(d)) for d in grad)
    for vmap, amap in D4:
        got = semigroup_gradient_pac(1.0, _mapped(f, vmap), params)
        for d, want in zip(got, amap([vmap(d) for d in grad])):
            _assert_covariant(d.values, want, scale)


@pytest.mark.parametrize("alpha", D4_ALPHAS)
def test_solves_are_d4_covariant(alpha):
    # a solve from sigma u0 with a mapped is sigma of the solve from u0: the
    # same times and iterations, each state's phi and q mapped and rho
    # unchanged, as psi is radial.  Measured: phi and q at most 1.2e-15 of
    # the state's largest sample, rho 2.2e-15 of max |rho|
    params = AlphaParams.for_alpha(alpha, 2)
    f, _ = _data()
    u0 = DecomposedField.from_field(f * 0.02, params)
    for solve, cfg in (
        (solve_global_projected, SolverConfig(a=(1.0, 0.4), T=2.0, dt=0.02)),
        (solve_local, SolverConfig(a=(1.0, 0.4), T=0.1, dt=0.02)),
    ):
        ref = solve(u0, cfg)
        for vmap, amap in D4:
            mapped = DecomposedField(_mapped(u0.regular, vmap), u0.coeff, params)
            traj = solve(mapped, dataclasses.replace(cfg, a=amap(cfg.a)))
            assert traj.diagnostics["iterations"] == ref.diagnostics["iterations"]
            assert np.array_equal(traj.times, ref.times)
            for st, want in zip(traj.states, ref.states):
                scale = max(np.max(np.abs(want.regular.values)), abs(want.coeff))
                _assert_covariant(st.regular.values, vmap(want.regular.values), scale)
                _assert_covariant(st.coeff, want.coeff, scale)
            _assert_covariant(traj.rho, ref.rho, np.max(np.abs(ref.rho)))
