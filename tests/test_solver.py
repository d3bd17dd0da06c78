"""Nonlinearity, Duhamel quadrature, and Picard solver checks."""

import math
import warnings

import numpy as np
import pytest

from pideq import (
    DecomposedField,
    Field,
    Grid,
    SolverConfig,
    duhamel_integral,
    gaussian_field,
    h1_alpha_norm,
    inner_product,
    lagrange_multiplier,
    lp_norm,
    nonlinearity,
    project_d,
    psi_alpha_field,
    residual_check,
    semigroup_full,
    solve_global_projected,
    solve_local,
    total_field,
)
from pideq.errors import DataTooLargeError, SchedulingError
from pideq.solver import _forcing_hats, _state_hats, _sweep, _Propagator
from pideq.semigroup import grid_model


def small_state(grid, params, amplitude=0.01):
    return DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=amplitude), params
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0)
    with pytest.warns(UserWarning):
        SolverConfig(gamma=1.5)
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1)


def test_nonlinearity_zero_cases(params, grid128):
    zero = DecomposedField.from_field(Field(grid128, np.zeros((128, 128))), params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0))
    assert lp_norm(nonlinearity(zero, cfg), 2) == 0.0
    cfg0 = SolverConfig(gamma=2.0, a=(0.0, 0.0))
    u = small_state(grid128, params)
    assert lp_norm(nonlinearity(u, cfg0), 2) == 0.0


def test_nonlinearity_gaussian_closed_form(params):
    # q = 0, gamma = 2: a.grad(u^2) = 2 u (a.grad u), and for a Gaussian
    # grad u = -(x/sigma^2) u
    grid = Grid(40.0, 256)
    sigma = 1.5
    f = gaussian_field(grid, sigma=sigma)
    u = DecomposedField.from_field(f, params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.5))
    out = nonlinearity(u, cfg)
    X, Y = grid.mesh()
    expect = 2.0 * f.values * (-(1.0 * X + 0.5 * Y) / sigma**2) * f.values
    assert np.abs(out.values - expect).max() < 1e-8


def test_nonlinearity_clamp_counter(params, grid128):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SolverConfig(gamma=1.5, a=(1.0, 0.0), clamp_limit=1e2)
    vals = np.zeros((128, 128))
    vals[10, 10] = 1e-8  # |u|^(gamma-2) = 1e4 > clamp
    u = DecomposedField.from_field(Field(grid128, vals), params)
    nonlinearity(u, cfg)
    assert cfg.clamp_events > 0


def test_duhamel_zero_source(params, grid128):
    zero = Field(grid128, np.zeros((128, 128)))
    out = duhamel_integral([zero] * 11, 1.0, params)
    assert lp_norm(out, 2) == 0.0


def test_duhamel_eigenmode_unprojected(params, grid128):
    psi = psi_alpha_field(params, grid128)
    ev = params.eigenvalue
    out = duhamel_integral([psi] * 51, 1.0, params, projected=False)
    expect = (math.exp(ev) - 1.0) / ev
    assert lp_norm(out - expect * psi, 2) / expect < 1e-3


def test_duhamel_eigenmode_projected(params, grid128):
    psi = psi_alpha_field(params, grid128)
    out = duhamel_integral([psi] * 26, 1.0, params, projected=True)
    assert lp_norm(out, 2) <= 1e-8


def test_duhamel_scheduling_errors(params, grid128):
    psi = psi_alpha_field(params, grid128)
    with pytest.raises(SchedulingError):
        duhamel_integral([psi], 1.0, params)
    other = gaussian_field(Grid(20.0, 128))
    with pytest.raises(SchedulingError):
        duhamel_integral([psi, other, psi], 1.0, params)


def test_duhamel_schemes_consistent(params, grid128):
    # left-endpoint (first order) approaches the midpoint-kernel value
    src = [gaussian_field(grid128, sigma=1.5, amplitude=0.1)] * 26
    mid = duhamel_integral(src, 1.0, params, scheme="midpoint")
    left = duhamel_integral(src, 1.0, params, scheme="left")
    assert lp_norm(mid - left, 2) < 0.05 * lp_norm(mid, 2)
    with pytest.raises(ValueError):
        duhamel_integral(src, 1.0, params, scheme="simpson")


def test_duhamel_explicit_contour_path(params, grid128):
    # forcing an explicit cut-hugging contour agrees with the default
    # winding-contour stepping at the former's micro-step accuracy
    from pideq import ContourSpec

    src = [gaussian_field(grid128, sigma=1.5, amplitude=0.1)] * 26
    default = duhamel_integral(src, 1.0, params)
    spec = ContourSpec.for_time(params, 0.04)
    explicit = duhamel_integral(src, 1.0, params, contour=spec)
    assert lp_norm(default - explicit, 2) < 5e-3 * lp_norm(default, 2)


def test_solve_local_zero_datum(params, grid128):
    zero = DecomposedField.from_field(Field(grid128, np.zeros((128, 128))), params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.1, dt=0.02, projected=False)
    traj = solve_local(zero, cfg)
    assert max(lp_norm(total_field(st), 2) for st in traj.states) == 0.0


def test_solve_local_linear_flow(params, grid128):
    # a = 0: the Picard map is constant; one iterate, exact linear flow
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(0.0, 0.0), T=0.2, dt=0.02, projected=False)
    traj = solve_local(u0, cfg)
    assert traj.diagnostics["iterations"] == 1
    direct = semigroup_full(0.2, total_field(u0), params)
    # stepper (winding contour) vs public semigroup (cut-hugging contour):
    # two independent quadratures of the same flow
    assert lp_norm(total_field(traj.states[-1]) - direct, 2) < 1e-3 * lp_norm(direct, 2)
    assert np.all(np.diff(traj.times) > 0)


def test_solve_local_contraction_and_uniqueness(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.3, dt=0.01, projected=False, picard_tol=1e-11
    )
    traj = solve_local(u0, cfg)
    ratios = traj.diagnostics["contraction_ratios"]
    assert ratios and all(r < 1.0 for r in ratios)
    # same fixed point from the frozen-in-time starting iterate
    cfg2 = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.3, dt=0.01, projected=False, picard_tol=1e-11
    )
    traj2 = solve_local(u0, cfg2, init="frozen")
    dist = max(
        h1_alpha_norm(
            DecomposedField(
                a.regular - b.regular, a.coeff - b.coeff, a.lambda_ref, params
            )
        )
        for a, b in zip(traj.states, traj2.states)
    )
    assert dist <= 10 * cfg.picard_tol * max(1.0, h1_alpha_norm(u0))


def test_solve_local_fixed_point_property(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.2, dt=0.02, projected=False, picard_tol=1e-10
    )
    traj = solve_local(u0, cfg)
    model = grid_model(params, grid128)
    prop = _Propagator(model, cfg.dt, full=True)
    phats, qs = [], []
    for st in traj.states:
        ph, q = _state_hats(model, st)
        phats.append(ph)
        qs.append(q)
    sources = _forcing_hats(model, phats, qs, cfg, project_force=False)
    nphats, nqs = _sweep(model, prop, phats[0], qs[0], sources, cfg, False)
    from pideq.solver import _h1_proxy_hat

    moved = max(
        _h1_proxy_hat(model, a - b, c - d)
        for a, b, c, d in zip(nphats, phats, nqs, qs)
    )
    assert moved < 2 * cfg.picard_tol * max(1.0, h1_alpha_norm(u0))


def test_solve_local_auto_radius_per_datum(params, grid128):
    # 'auto' is resolved per solve: a reused config keeps reading 'auto', and
    # each datum is measured against twice its own initial norm.  Eigenmode
    # data grow like e^{E t}, past 2x by t = 0.8, so both solves must warn
    # (a radius kept from the larger first datum would silence the second).
    psi = psi_alpha_field(params, grid128)
    cfg = SolverConfig(
        gamma=2.0, a=(0.0, 0.0), T=0.8, dt=0.02, projected=False, ball_radius="auto"
    )
    for amplitude in (0.1, 0.001):
        u0 = DecomposedField.from_field(amplitude * psi, params)
        with pytest.warns(UserWarning, match="left the ball"):
            solve_local(u0, cfg)
        assert cfg.ball_radius == "auto"


def test_lagrange_multiplier_zero_cases(params, grid128):
    zero = DecomposedField.from_field(Field(grid128, np.zeros((128, 128))), params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0))
    assert lagrange_multiplier(zero, cfg) == 0.0
    cfg0 = SolverConfig(gamma=2.0, a=(0.0, 0.0))
    u = small_state(grid128, params)
    assert lagrange_multiplier(u, cfg0) == 0.0


def test_lagrange_multiplier_odd_datum_vanishes(params, grid128):
    # u odd in x1, a = (1, 0): the forcing is odd while psi is even
    X, _ = grid128.mesh()
    vals = X * np.exp(-grid128.radius() ** 2 / 4.0) * 0.1
    u = DecomposedField.from_field(Field(grid128, vals), params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0))
    assert abs(lagrange_multiplier(u, cfg)) < 1e-14


def test_lagrange_multiplier_integration_by_parts(params, grid256):
    # for q = 0 states everything is spectral, so
    # <a.grad(u^2), psi> = -<u^2, a.grad psi> holds to product-aliasing
    # accuracy (machine level once the datum is well resolved)
    from pideq.fields import gradient

    f = gaussian_field(grid256, sigma=1.2, amplitude=0.1, center=(1.0, 0.5))
    u = DecomposedField.from_field(f, params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0))
    rho = lagrange_multiplier(u, cfg)
    psi = psi_alpha_field(params, grid256)
    dpsi_x, _ = gradient(psi)
    oracle = -inner_product(Field(grid256, f.values * f.values), dpsi_x).real
    assert abs(rho - oracle) < 1e-8 * abs(oracle)
    assert abs(rho) > 0


def test_global_solver_psi_datum_gives_zero(params, grid128):
    psi = psi_alpha_field(params, grid128)
    u0 = DecomposedField.from_field(psi, params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=1.0, dt=0.05)
    traj = solve_global_projected(u0, cfg)
    assert max(lp_norm(total_field(st), 2) for st in traj.states) < 1e-10


def test_global_solver_orthogonality_and_multiplier(params, grid128):
    u0 = small_state(grid128, params, amplitude=0.02)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, picard_tol=1e-10)
    traj = solve_global_projected(u0, cfg)
    psi = psi_alpha_field(params, grid128)
    norm0 = lp_norm(total_field(u0), 2)
    for st in traj.states:
        assert abs(inner_product(total_field(st), psi)) <= 1e-6 * norm0
    # multiplier formulation: P_d(forcing) = rho psi pointwise in t
    for st, rho in zip(traj.states, traj.rho):
        f = nonlinearity(st, cfg)
        assert lp_norm(project_d(f, params) - rho * psi, 2) <= 1e-8
    assert traj.rho.size == len(traj.states)


def test_global_solver_rejects_large_data(params, grid128):
    big = DecomposedField.from_field(
        gaussian_field(grid128, sigma=1.0, amplitude=400.0), params
    )
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=1.0, dt=0.02, picard_max=12)
    with pytest.raises(DataTooLargeError):
        solve_global_projected(big, cfg)


def test_residual_check_validation(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(0.0, 0.0), T=0.02, dt=0.01, projected=False)
    traj = solve_local(u0, cfg)
    with pytest.raises(ValueError):
        residual_check(
            type(traj)(traj.times[:2], traj.states[:2], traj.rho, {}), cfg
        )


def test_residual_linear_second_order(params, grid128):
    u0 = small_state(grid128, params)
    res = []
    for dt in (0.004, 0.002):
        cfg = SolverConfig(gamma=2.0, a=(0.0, 0.0), T=40 * dt, dt=dt, projected=False)
        traj = solve_local(u0, cfg)
        res.append(residual_check(traj, cfg))
    assert res[0] < 1e-2
    assert 2.8 <= res[0] / res[1] <= 5.5  # O(dt^2)


def test_residual_projected_small_data(params, grid128):
    u0 = DecomposedField.from_field(
        gaussian_field(grid128, sigma=1.5, amplitude=0.01, center=(1.0, 0.5)), params
    )
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.2, dt=1e-3, picard_tol=1e-11, store_stride=1
    )
    traj = solve_global_projected(u0, cfg)
    assert residual_check(traj, cfg) <= 1e-2
