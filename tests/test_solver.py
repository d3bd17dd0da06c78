"""Nonlinearity, Duhamel sweep, and Picard solver checks."""

import dataclasses
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pideq import (
    AlphaParams,
    ContourSpec,
    DecomposedField,
    Field,
    Grid,
    SolverConfig,
    Trajectory,
    gaussian_field,
    gradient,
    h1_alpha_norm,
    inner_product,
    lagrange_multiplier,
    lp_norm,
    nonlinearity,
    project_d,
    psi_alpha_field,
    reference_lambda,
    residual_check,
    solve_global_projected,
    solve_local,
    state_fields,
    total_field,
)
from pideq import solver
from pideq.errors import ConvergenceError, DataTooLargeError, HorizonTooLargeError
from pideq.fields import _irfft2
from pideq.solver import (
    _Work,
    _drift,
    _forcing_hat,
    _h1_proxy_hat,
    _nonlinear_values,
    _state,
    _sweep,
)
from pideq.semigroup import Flow, grid_model
from pideq.spectral import _green_gradient


def _green_omega_hat(model):
    """G_omega_hat = delta_hat green_bins[bin], the grid model's one rank-one product."""
    return model._rank_one(model.green_bins)


def _split(model, uhat):
    """(phi_hat, q) of u's half spectrum, q read off the coupling: the explicit split."""
    q = model.coupling_coefficient(uhat)
    return uhat - q * _green_omega_hat(model), q


def small_state(grid, params, amplitude=0.01):
    return DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=amplitude), params
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=-0.1)
    # a is two finite reals, stored as floats, so (1, 0) and (1.0, 0.0) are
    # one config
    for bad in ((1.0, 0.0, 5.0), (1.0,), (math.nan, 0.0), (0.0, math.inf), (1.0, 1j)):
        with pytest.raises(ValueError, match="two finite real numbers"):
            SolverConfig(a=bad)
    a = SolverConfig(a=(1, np.float64(0))).a
    assert a == (1.0, 0.0) and all(type(x) is float for x in a)
    # every step, horizon and iteration control is checked on construction
    for bad in (
        dict(window=0), dict(window=-1),
        dict(dt=math.nan), dict(picard_tol=math.nan), dict(T=math.inf), dict(T=0.0),
        dict(gamma=math.inf), dict(gamma=math.nan), dict(gamma="3"),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    SolverConfig(window=0.5)


def test_solver_settings():
    # the config holds the equation, the horizon and the probe tolerance, and
    # which states a global solve probes and stores; nothing else
    names = tuple(f.name for f in dataclasses.fields(SolverConfig))
    assert names == ("gamma", "a", "T", "dt", "picard_tol", "window")
    assert list(inspect.signature(solve_local).parameters) == ["u0", "cfg"]
    # gamma in (1, 2) needs no clamp, so it draws no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SolverConfig(gamma=1.5)


@pytest.mark.parametrize("value", [0.0, 1e-300, -1e-300, 1e-8, -1e-8])
def test_forcing_exact_form_below_gamma_2(params, grid128, value):
    # gamma sign(u) |u|^(gamma-1) (a . grad u) is bounded wherever u is: a
    # constant u (one DC mode, sampled exactly) with a kernel part q, whose
    # drift is q c_a, gives a finite forcing with no clamp at u -> 0
    model = grid_model(params, grid128)
    cfg = SolverConfig(gamma=1.5, a=(0.6, 0.8))
    uhat = np.zeros((128, 65), dtype=np.complex128)
    uhat[0, 0] = value * 128**2
    q = 0.7
    assert np.all(_irfft2(uhat) == value)
    drift = _drift(model, cfg.a, uhat, q)
    got = _nonlinear_values(model, uhat, q, cfg)
    expect = 1.5 * math.copysign(abs(value) ** 0.5, value) * drift
    assert np.all(np.isfinite(got))
    assert np.abs(got - expect).max() <= 1e-15 * np.abs(expect).max(initial=0.0)
    if value == 0.0:
        assert not np.any(got)


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


def test_state_fields_sampler(params, grid128):
    f = gaussian_field(grid128, sigma=1.3, amplitude=0.7)
    u = DecomposedField(f, 0.35, params)
    assert np.array_equal(state_fields(u)[0].values, total_field(u).values)
    with pytest.raises(ValueError, match="complex data"):
        state_fields(DecomposedField(f, 0.35 - 0.1j, params))
    # without a kernel part |grad u| is the spectral gradient's magnitude
    v = DecomposedField.from_field(f, params)
    gx, gy = gradient(f)
    expect = np.sqrt(np.abs(gx.values) ** 2 + np.abs(gy.values) ** 2)
    err = np.abs(state_fields(v)[1].values - expect).max()
    assert err <= 1e-12 * expect.max()


def _duhamel(flow, kicks):
    """Half spectrum of the solver's sweep from 0 whose k-th forcing is kicks[k].

    A kick is a half spectrum or None, a zero forcing.  With the samples f_j
    of a source as kicks this is the left-endpoint rule for
    integral_0^t S(t - tau) f dtau at the flow's step; with kicks
    alternating None and f_j + f_(j+1) at half steps, it is the midpoint
    rule at twice the flow's step.
    """
    it = iter(kicks)
    n = flow.model.grid.n
    uhat = np.zeros((n, n // 2 + 1), dtype=np.complex128)

    def force(_, __):
        kick = next(it)  # a copy: the sweep writes u_j + dt F over it
        return np.zeros_like(uhat) if kick is None else kick.copy()

    for _, uhat, _ in _sweep(flow, (uhat, 0.0), len(kicks), force):
        pass
    return uhat


def _midpoint_kicks(src):
    return [
        kick for j in range(len(src) - 1)
        for kick in (None, np.fft.rfft2(src[j].values.real + src[j + 1].values.real))
    ]


def test_duhamel_zero_source(params, grid128):
    zero = np.zeros((128, 65), dtype=np.complex128)
    out = _duhamel(Flow(grid_model(params, grid128), 0.1), [zero] * 10)
    assert not np.any(out)


def test_duhamel_eigenmode_unprojected(params, grid128):
    # constant forcing psi: the left-endpoint sum dt sum_k e^{k dt E} psi
    psi = psi_alpha_field(params, grid128)
    ev, dt, m = params.eigenvalue, 0.02, 50
    flow = Flow(grid_model(params, grid128), dt, full=True)
    out = Field(grid128, np.fft.irfft2(_duhamel(flow, [np.fft.rfft2(psi.values.real)] * m)))
    expect = dt * sum(math.exp(k * dt * ev) for k in range(1, m + 1))
    assert lp_norm(out - expect * psi, 2) / expect < 1e-12


def test_duhamel_eigenmode_projected(params, grid128):
    psi = psi_alpha_field(params, grid128)
    flow = Flow(grid_model(params, grid128), 0.04)
    out = _duhamel(flow, [np.fft.rfft2(psi.values.real)] * 25)
    assert lp_norm(Field(grid128, np.fft.irfft2(out)), 2) <= 1e-8


@pytest.mark.parametrize("projected", [True, False])
def test_duhamel_midpoint_recurrence(params, grid128, projected):
    # the half-step sweep equals acc <- S(dt) acc + dt S(dt/2) f_{j+1/2}
    X, _ = grid128.mesh()
    src = [
        gaussian_field(grid128, sigma=1.5, amplitude=0.1 * (1.0 + k), center=(0.2 * k, 0.0))
        + Field(grid128, 0.01 * k * X * np.exp(-grid128.radius() ** 2 / 8.0))
        for k in range(6)
    ]
    t = 0.2
    dt = t / (len(src) - 1)
    model = grid_model(params, grid128)
    full = Flow(model, dt, full=not projected)
    half = Flow(model, dt / 2.0, full=not projected)
    acc = np.zeros((128, 65), dtype=np.complex128)
    for j in range(len(src) - 1):
        acc = full.apply(acc)
        kick = half.apply(np.fft.rfft2(0.5 * (src[j].values.real + src[j + 1].values.real)))
        acc = acc + dt * kick
    out = _duhamel(half, _midpoint_kicks(src))
    assert np.linalg.norm(out - acc) <= 1e-12 * np.linalg.norm(acc)


def test_duhamel_schemes_consistent(params, grid128):
    # left-endpoint (first order) approaches the midpoint-kernel value
    src = [gaussian_field(grid128, sigma=1.5, amplitude=0.1)] * 26
    model = grid_model(params, grid128)
    mid = _duhamel(Flow(model, 0.02), _midpoint_kicks(src))
    left = _duhamel(Flow(model, 0.04), [np.fft.rfft2(f.values.real) for f in src[:-1]])
    assert np.linalg.norm(mid - left) < 0.05 * np.linalg.norm(mid)


def test_duhamel_explicit_contour_path(params, grid128):
    # forcing an explicit cut-hugging contour agrees with the default
    # winding-contour stepping at the former's micro-step accuracy
    src = [gaussian_field(grid128, sigma=1.5, amplitude=0.1)] * 26
    model = grid_model(params, grid128)
    default = _duhamel(Flow(model, 0.02), _midpoint_kicks(src))
    spec = ContourSpec.for_time(params, 0.04)
    explicit = _duhamel(Flow(model, 0.02, contour=spec), _midpoint_kicks(src))
    assert np.linalg.norm(default - explicit) < 5e-3 * np.linalg.norm(default)


def test_solve_local_zero_datum(params, grid128):
    zero = DecomposedField.from_field(Field(grid128, np.zeros((128, 128))), params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.1, dt=0.02)
    traj = solve_local(zero, cfg)
    assert max(lp_norm(total_field(st), 2) for st in traj.states) == 0.0


def test_solve_local_linear_flow(params, grid128):
    # a = 0: the Picard map is constant and the linear evolution is its
    # fixed point, so the probe needs no iterate; exact linear flow
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(0.0, 0.0), T=0.2, dt=0.02)
    traj = solve_local(u0, cfg)
    assert traj.diagnostics["iterations"] == [0]
    model = grid_model(params, grid128)
    flow = Flow(model, 0.2, full=True, contour=ContourSpec.for_time(params, 0.2))
    direct = Field(grid128, _irfft2(flow.apply(_state(u0)[1])))
    # stepper (winding contour) vs public semigroup (cut-hugging contour):
    # two independent quadratures of the same flow
    assert lp_norm(total_field(traj.states[-1]) - direct, 2) < 1e-3 * lp_norm(direct, 2)
    assert np.all(np.diff(traj.times) > 0)


def test_solve_local_contraction_and_uniqueness(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.3, dt=0.01, picard_tol=1e-11
    )
    traj = solve_local(u0, cfg)
    ratios = traj.diagnostics["contraction_ratios"]
    assert ratios and all(r < 1.0 for r in ratios)


def test_solve_local_fixed_point_property(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.2, dt=0.02, picard_tol=1e-10
    )
    traj = solve_local(u0, cfg)
    model = grid_model(params, grid128)
    prop = Flow(model, cfg.dt, full=True)
    states = [_state(st)[1:] for st in traj.states]
    work = _Work(grid128)

    def force(uhat, q):
        return _forcing_hat(model, uhat, q, cfg, work, work.spec)

    # one Picard iterate from the solution, driven by its stored states
    uhat0, q0 = states[0]
    sweep = _sweep(prop, (uhat0.copy(), q0), len(states) - 1, force, iter(states).__next__)
    swept = [states[0]] + [(uhat.copy(), q) for _, uhat, q in sweep]
    moved = max(
        _h1_proxy_hat(model.grid, *_split(model, a[0] - b[0])) for a, b in zip(swept, states)
    )
    assert moved < 2 * cfg.picard_tol * max(1.0, h1_alpha_norm(u0))


def test_lagrange_multiplier_zero_cases(params, grid128):
    zero = DecomposedField.from_field(Field(grid128, np.zeros((128, 128))), params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0))
    assert lagrange_multiplier(zero, cfg) == 0.0
    cfg0 = SolverConfig(gamma=2.0, a=(0.0, 0.0))
    u = small_state(grid128, params)
    assert lagrange_multiplier(u, cfg0) == 0.0


def test_rho_is_the_real_space_pairing(params, grid128):
    # rho reads <F, psi> off the forcing's half spectrum; by Parseval it is
    # the real-space sum of the forcing's samples times psi's, cell area h^2
    psi = psi_alpha_field(params, grid128).values

    def real_space(u, cfg):
        return float(np.sum(nonlinearity(u, cfg).values * psi) * grid128.cell_area)

    u0 = DecomposedField.from_field(
        gaussian_field(grid128, sigma=1.5, amplitude=0.05, center=(1.0, 0.5)), params
    )
    for cfg in (SolverConfig(a=(1.0, 0.0)), SolverConfig(gamma=1.5, a=(0.6, -0.8))):
        expect = real_space(u0, cfg)
        assert abs(lagrange_multiplier(u0, cfg) - expect) <= 1e-13 * abs(expect)
    cfg = SolverConfig(a=(1.0, 0.0), T=0.2, dt=0.02, window=0.1)
    traj = solve_global_projected(u0, cfg)
    expect = np.array([real_space(st, cfg) for st in traj.states])
    assert np.abs(traj.rho - expect).max() <= 1e-13 * np.abs(expect).max()


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
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=1.0, dt=0.02)
    with pytest.raises(DataTooLargeError):
        solve_global_projected(big, cfg)


def test_picard_cap_names_itself(params, monkeypatch):
    # the iterate cap is a module constant; a probe that misses its
    # tolerance within it raises ConvergenceError naming the cap
    assert solver.PICARD_MAX == 25
    monkeypatch.setattr(solver, "PICARD_MAX", 1)
    u0 = small_state(Grid(40.0, 64), params)
    with pytest.raises(ConvergenceError, match="PICARD_MAX = 1 iterates"):
        solve_local(u0, SolverConfig(T=0.04, dt=0.02, picard_tol=1e-300))


def test_probe_count_is_measured_then_estimated(params):
    # the count is the first iterate within picard_tol of the march and,
    # past the third, the contraction-mapping estimate e_3 r^(k-3): with
    # e_3 = 4.0e-14 and r = 2.9e-4, tol 1e-20 needs 5 iterates and 1e-40
    # needs 11; a tolerance no 25 iterates reach is a ConvergenceError, not
    # a failure to contract
    u0 = small_state(Grid(40.0, 64), params)
    counts = [
        solve_local(u0, SolverConfig(T=0.2, dt=0.02, picard_tol=tol)).diagnostics["iterations"]
        for tol in (1e-3, 1e-6, 1e-9, 1e-12, 1e-20, 1e-40)
    ]
    assert counts == [[0], [1], [2], [3], [5], [11]]
    with pytest.raises(ConvergenceError, match="PICARD_MAX = 25 iterates") as exc:
        solve_local(u0, SolverConfig(T=0.2, dt=0.02, picard_tol=1e-300))
    assert not isinstance(exc.value, HorizonTooLargeError)


def _picard_reference(model, flow, start, steps, cfg, force):
    """Picard iterated to tolerance on one window, one list of states per iterate.

    The solver's list-based probe, kept as a reference: from the linear
    evolution of ``start``, each iterate sweeps the window driven by the
    previous iterate's steps + 1 states until the largest H^1 proxy of two
    successive iterates' difference is at most ``cfg.picard_tol``
    max(1, proxy(start)).  Returns (states, iterations, ratios), the
    ratios of successive distances.
    """
    def sweep(f=None, drive=None):
        run = _sweep(flow, (start[0].copy(), start[1]), steps, f, drive)
        return [start] + [(uhat.copy(), q) for _, uhat, q in run]

    def proxy(uhat):
        return _h1_proxy_hat(model.grid, *_split(model, uhat))

    states = sweep()
    scale = max(1.0, proxy(start[0]))
    distances = []
    for it in range(1, solver.PICARD_MAX + 1):
        new = sweep(force, iter(states).__next__)
        distances.append(max(proxy(a[0] - b[0]) for a, b in zip(new, states)))
        states = new
        if distances[-1] <= cfg.picard_tol * scale:
            ratios = [d / prev for prev, d in zip(distances, distances[1:]) if prev > 0]
            return states, it, ratios
    raise AssertionError(f"reference Picard missed tol {cfg.picard_tol}: {distances}")


def _assert_picard_fixed_point(traj, u0, cfg, windows, steps):
    """Every stored state matches Picard iterated to tolerance on each window.

    Each probed window's ratios rho_k = e_k / e_(k-1), taken against its
    march, match the first three successive-distance ratios of the
    reference within 5 % plus 2 rho / (1 - rho): by the triangle inequality
    the k-th distance is e_(k-1) (1 +- rho_k), so the two ratios part by a
    relative gap of order 2 rho where the contraction is slow.
    """
    model = grid_model(u0.params, u0.regular.grid)
    prop = Flow(model, cfg.dt, full=False)
    start = _state(traj.states[0])[1:]
    ref = [start[0]]
    ref_ratios = []
    work = _Work(model.grid)

    def force(uhat, q):
        return _forcing_hat(model, uhat, q, cfg, work, work.spec)

    for win, probed in zip(range(windows), traj.diagnostics["iterations"]):
        states, _, ratios = _picard_reference(model, prop, start, steps, cfg, force)
        if probed:
            ref_ratios.extend(ratios[:solver.PROBE_ITERATES])
        ref.extend(uhat for uhat, _ in states[1:])
        start = states[-1]
    ratios = np.array(traj.diagnostics["contraction_ratios"])
    assert ratios.shape == (len(ref_ratios),)
    assert np.all(np.abs(ref_ratios / ratios - 1.0) <= 0.05 + 2.0 * ratios / (1.0 - ratios))
    stride = steps
    assert len(traj.states) == windows * steps // stride + 1
    tol = 10 * cfg.picard_tol * max(1.0, h1_alpha_norm(u0))
    for k, st in zip(range(0, windows * steps + 1, stride), traj.states):
        diff = _state(st)[1] - ref[k]
        assert _h1_proxy_hat(model.grid, *_split(model, diff)) <= tol


def test_global_march_is_picard_fixed_point(params, grid128):
    # windows >= 1 are marched; the reference iterates Picard on every window
    u0 = small_state(grid128, params, amplitude=0.02)
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, window=0.1, picard_tol=1e-11,
    )
    traj = solve_global_projected(u0, cfg)
    _assert_picard_fixed_point(traj, u0, cfg, windows=20, steps=5)
    iters = traj.diagnostics["iterations"]
    assert len(iters) == 20 and iters[0] >= 1 and iters[1:] == [0] * 19
    ratios = traj.diagnostics["contraction_ratios"]
    assert ratios and all(r < 1.0 for r in ratios)


def test_storage_rule(params):
    # one rule per solve: a global solve stores t = 0, every window end and
    # T; a local solve, one window over [0, T], stores every step
    grid = Grid(40.0, 64)
    u0 = small_state(grid, params, amplitude=0.02)
    cfg = SolverConfig(T=1.0, dt=0.02, window=0.3)
    traj = solve_global_projected(u0, cfg)
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0, atol=1e-12)
    assert len(traj.states) == traj.rho.size == 5
    local = solve_local(u0, cfg)
    np.testing.assert_allclose(local.times, np.arange(51) * 0.02, rtol=0, atol=1e-12)
    assert len(local.states) == 51


@pytest.mark.parametrize("window", [0.05, 0.07, 0.01])
def test_window_must_be_whole_steps(params, window):
    # at dt = 0.02 a window of 0.05 was rounded to 0.04 and one of 0.07 to
    # 0.08, and a window below dt stored every step
    u0 = small_state(Grid(8.0, 32), params, amplitude=0.02)
    cfg = SolverConfig(T=1.0, dt=0.02, window=window)
    with pytest.raises(ValueError, match=rf"window = {window} must be an integer multiple of dt = 0\.02"):
        solve_global_projected(u0, cfg)
    assert len(solve_local(u0, cfg).states) == 51  # a local solve reads no window
    # a window of T or longer is the one window [0, T]
    longer = solve_global_projected(u0, dataclasses.replace(cfg, window=1.07))
    np.testing.assert_allclose(longer.times, [0.0, 1.0], rtol=0, atol=1e-12)


def test_storage_rule_has_no_setting():
    # the window is the one storage setting: no stride, and the driver
    # takes no storage argument
    with pytest.raises(TypeError):
        SolverConfig(store_stride=1)
    assert list(inspect.signature(solver._solve).parameters) == ["u0", "cfg", "projected"]


def test_global_solve_reports_ortho_max(params):
    # the largest |<u, psi>| of a window's end state stays within criterion
    # 10's bound 1e-6 ||u0||_2; a local solve does not project, and its one
    # window's end state carries the eigenmode it reports
    grid = Grid(40.0, 64)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), params
    )
    traj = solve_global_projected(u0, SolverConfig(T=2.0, dt=0.02))
    assert traj.diagnostics["iterations"] == [2, 0]
    ortho = traj.diagnostics["ortho_max"]
    assert math.isfinite(ortho) and ortho <= 1e-6 * lp_norm(total_field(u0), 2)
    local = solve_local(u0, SolverConfig(T=0.1, dt=0.02))
    expect = abs(inner_product(total_field(local.states[-1]), psi_alpha_field(params, grid)))
    assert abs(local.diagnostics["ortho_max"] - expect) <= 1e-12 * expect


def test_global_march_reprobes_growing_data(params):
    # Under-resolved steepening on a coarse grid: the H1 proxy dips, then
    # passes window 0's largest value in window 6, so windows 6-9 are probed.
    grid = Grid(40.0, 64)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=1.0, dt=0.01, window=0.1)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=2.0, amplitude=5.5), params
    )
    traj = solve_global_projected(u0, cfg)
    iters = traj.diagnostics["iterations"]
    assert iters[0] >= 1 and iters[1:6] == [0] * 5 and all(k >= 1 for k in iters[6:])
    _assert_picard_fixed_point(traj, u0, cfg, windows=10, steps=10)
    # a larger datum passes the window-0 probe but stops contracting later
    big = DecomposedField.from_field(
        gaussian_field(grid, sigma=2.0, amplitude=7.0), params
    )
    with pytest.raises(DataTooLargeError, match="window [1-9]"):
        solve_global_projected(big, cfg)


def test_global_solver_rejects_large_data_over_windows(params, grid128):
    big = DecomposedField.from_field(
        gaussian_field(grid128, sigma=1.0, amplitude=400.0), params
    )
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, window=0.5
    )
    with pytest.raises(DataTooLargeError):
        solve_global_projected(big, cfg)


def test_global_probe_memory_is_flat_in_the_window_length(params, grid128):
    # a probe holds the march, the linear evolution and three Picard iterates
    # whatever its length: a probed window of 50 steps peaks within one half
    # spectrum of one of 10 steps.  Both peak at 15.0 half spectra: the flow
    # (4.7 with its temporary), the work (3), the start state, the five sweep
    # states and 1.3 of one flow application's buffers.  The sampler reads
    # the model's per-axis drift parts: a drift kernel built per solve (2)
    # would exceed the bound
    u0 = small_state(grid128, params)
    peaks = []
    for window in (1.0, 0.2):
        cfg = SolverConfig(T=window, dt=0.02, window=window, picard_tol=1e-10)
        solve_global_projected(u0, cfg)  # warm the grid-model, contour and kernel caches
        tracemalloc.start()
        try:
            solve_global_projected(u0, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    half_spectrum = 16 * grid128.n * (grid128.n // 2 + 1)
    assert abs(peaks[0] - peaks[1]) < half_spectrum
    assert max(peaks) < 16 * half_spectrum


@pytest.mark.parametrize("a", [(1.0, 0.0), (0.6, 0.8)])
def test_forcing_builds_no_drift_kernel(params, grid128, a):
    # nonlinearity and lagrange_multiplier hold the state's half spectrum
    # and the work (3), and read the drift from the model's per-axis parts:
    # no n x (n/2 + 1) kernel and no n x n correction are built per call.
    # They peak at 4.0 half spectra along an axis and 5.0 at a = (0.6, 0.8),
    # whose second component is added through numpy's 128 KiB ufunc buffer;
    # a kernel and a correction built per call (2) would exceed the bound
    u = _random_state(grid128, params, 28, q=0.3)
    cfg = SolverConfig(gamma=2.0, a=a)
    half_spectrum = 16 * grid128.n * (grid128.n // 2 + 1)
    for call in (nonlinearity, lagrange_multiplier):
        call(u, cfg)  # warm the grid model and its drift parts
        tracemalloc.start()
        try:
            call(u, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * half_spectrum, (call.__name__, peak / half_spectrum)


def test_stored_states_memory_guard(params, grid128):
    # 101 stored states at n = 128: each is a float64 phi (128 KiB), and the
    # stored half spectra are dropped as their states are made, so the solve
    # peaks at 24 MiB and keeps 15 MiB (39.0 and 25.3 MiB with complex128
    # states made while every half spectrum was still alive)
    u0 = small_state(grid128, params, amplitude=0.02)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, window=0.02)
    solve_global_projected(u0, cfg)  # warm the grid-model, contour and kernel caches
    tracemalloc.start()
    try:
        traj = solve_global_projected(u0, cfg)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 101
    assert peak <= 24 * 2**20 and retained <= 15 * 2**20


def test_solver_states_are_float64(params, grid128):
    # a real datum gives real states all the way: phi float64, coeff float,
    # and every field the public solver functions return is float64
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.1, dt=0.02)
    for traj in (solve_local(u0, cfg), solve_global_projected(u0, cfg)):
        for st in traj.states:
            assert st.regular.values.dtype == np.float64
            assert type(st.coeff) is float
    st = traj.states[-1]
    for f in (total_field(st), *state_fields(st), nonlinearity(st, cfg)):
        assert f.values.dtype == np.float64


def test_residual_check_validation(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(0.0, 0.0), T=0.02, dt=0.01)
    traj = solve_local(u0, cfg)
    with pytest.raises(ValueError):
        residual_check(
            type(traj)(traj.times[:2], traj.states[:2], traj.rho, {}), cfg
        )


def test_residual_linear_second_order(params, grid128):
    u0 = small_state(grid128, params)
    res = []
    for dt in (0.004, 0.002):
        cfg = SolverConfig(gamma=2.0, a=(0.0, 0.0), T=40 * dt, dt=dt)
        traj = solve_local(u0, cfg)
        res.append(residual_check(traj, cfg))
    assert res[0] < 1e-2
    assert 2.8 <= res[0] / res[1] <= 5.5  # O(dt^2)


def test_residual_projected_small_data(params, grid128):
    u0 = DecomposedField.from_field(
        gaussian_field(grid128, sigma=1.5, amplitude=0.01, center=(1.0, 0.5)), params
    )
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.2, dt=1e-3, picard_tol=1e-11, window=1e-3
    )
    traj = solve_global_projected(u0, cfg)
    assert residual_check(traj, cfg) <= 1e-2


def _residual_real_space(traj, cfg, t_min=0.0):
    """residual_check's formula with its forcing and rho psi in real space, as
    samples, and every stored state's half spectrum held at once."""
    params, grid = traj.states[0].params, traj.states[0].regular.grid
    model = grid_model(params, grid)
    psi = psi_alpha_field(params, grid).values
    dt = traj.times[1] - traj.times[0]
    totals = [_state(st)[1:] for st in traj.states]
    worst = 0.0
    for k in range(1, len(totals) - 1):
        if traj.times[k] < t_min:
            continue
        uc, qc = totals[k]
        du = (totals[k + 1][0] - totals[k - 1][0]) / (2.0 * dt)
        au = model.omega * uc - (model.omega + model.xi2) * (uc - qc * _green_omega_hat(model))
        resid = _irfft2(du - au) - nonlinearity(traj.states[k], cfg).values
        resid = resid + traj.rho[k] * psi
        unorm = lp_norm(Field(grid, _irfft2(uc)), 2)
        worst = max(worst, lp_norm(Field(grid, resid), 2) / unorm)
    return worst


def test_residual_matches_real_space_formula(params):
    # the half-spectrum residual against its real-space form, projected and
    # not, at gamma = 2 and below
    grid = Grid(40.0, 64)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), params
    )
    for solve, cfg, t_min in (
        (solve_global_projected, SolverConfig(a=(1.0, 0.0), T=0.1, dt=0.01, window=0.01), 0.0),
        (solve_local, SolverConfig(gamma=1.5, a=(0.6, -0.8), T=0.1, dt=0.01), 0.035),
    ):
        traj = solve(u0, cfg)
        got, expect = residual_check(traj, cfg, t_min), _residual_real_space(traj, cfg, t_min)
        assert expect > 0 and abs(got - expect) <= 1e-12 * expect


def _two_solves(params):
    """(local, global, cfg): both solves of one off-centre datum on Grid(40, 64), T = 0.1."""
    grid = Grid(40.0, 64)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), params
    )
    cfg = SolverConfig(a=(1.0, 0.4), T=0.1, dt=0.01, window=0.05)
    return solve_local(u0, cfg), solve_global_projected(u0, cfg), cfg


def test_both_solves_return_one_record(params):
    # one Trajectory shape: rho holds one value per stored state, 0.0 for
    # the local solve, which projects nothing and so has no multiplier, and
    # the diagnostics hold three keys, iterations a list with one entry per
    # window
    local, glob, _ = _two_solves(params)
    for traj, windows in ((local, 1), (glob, 2)):
        assert set(traj.diagnostics) == {"iterations", "contraction_ratios", "ortho_max"}
        assert type(traj.diagnostics["iterations"]) is list
        assert len(traj.diagnostics["iterations"]) == windows
        assert traj.rho.shape == (len(traj.states),) and traj.rho.dtype == np.float64
    assert np.array_equal(local.rho, np.zeros(len(local.states)))
    assert np.all(glob.rho != 0.0)


def test_residual_check_reads_rho_as_the_two_shape_record_did(params):
    # residual_check's arithmetic with rho read as it was when a local
    # solve's rho was empty (0.0 substituted) and a global one's held a
    # value per state: the same residual, bit for bit
    local, glob, cfg = _two_solves(params)
    for traj, rhos in ((local, [0.0] * len(local.states)), (glob, glob.rho)):
        model = grid_model(params, traj.states[0].regular.grid)
        hats = [_state(st)[1:] for st in traj.states]
        dt, worst = traj.times[1] - traj.times[0], 0.0
        for k in range(1, len(hats) - 1):
            (uprev, _), (uc, qc), (unext, _) = hats[k - 1:k + 2]
            resid = (unext - uprev) / (2.0 * dt)
            resid += model.xi2 * uc
            resid -= _forcing_hat(model, uc, qc, cfg)
            resid -= model._rank_one(qc - rhos[k] * model.psi_bins)
            worst = max(worst, model.l2_hat(resid) / model.l2_hat(uc))
        assert worst > 0 and residual_check(traj, cfg) == worst


def _random_state(grid, params, seed, q=0.0):
    vals = np.random.default_rng(seed).standard_normal((grid.n, grid.n))
    return DecomposedField(Field(grid, vals), q, params)


@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_state_fields_gradient_is_real_part_of_full_lattice(alpha):
    # the half-spectrum gradient (each i xi_k zero on its own Nyquist line)
    # against the real part of the full-lattice spectral derivative, whose
    # Nyquist-line modes are purely imaginary for a real field
    grid = Grid(40.0, 128)
    params = AlphaParams.for_alpha(alpha, 2)
    u = _random_state(grid, params, 21, q=0.3)
    phi = u.regular.values.real
    XI1, XI2 = grid.wavenumbers()
    gx, gy = _green_gradient(reference_lambda(params), grid)
    d1 = np.fft.ifft2(1j * XI1 * np.fft.fft2(phi)).real + 0.3 * gx
    d2 = np.fft.ifft2(1j * XI2 * np.fft.fft2(phi)).real + 0.3 * gy
    expect = np.hypot(d1, d2)
    grad = state_fields(u)[1].values
    assert np.abs(grad - expect).max() <= 1e-13 * expect.max()


@pytest.mark.parametrize("a", [(1.0, 0.0), (0.0, 1.0), (0.3, -0.7)])
def test_forcing_samples_drift_derivative(params, grid128, a):
    # the forcing's one-transform drift derivative a . grad u against the two
    # gradient components of state_fields' sampler
    u = _random_state(grid128, params, 23, q=0.3)
    cfg = SolverConfig(gamma=2.0, a=a)
    model = grid_model(params, grid128)
    uhat, q = _state(u)[1:]
    vals = np.fft.irfft2(uhat)
    du1, du2 = (_drift(model, e, uhat, q) for e in ((1.0, 0.0), (0.0, 1.0)))
    expect = 2.0 * vals * (a[0] * du1 + a[1] * du2)
    got = nonlinearity(u, cfg).values
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    zero = nonlinearity(u, SolverConfig(gamma=2.0, a=(0.0, 0.0))).values
    assert zero.shape == got.shape and not np.any(zero)


@pytest.mark.parametrize("a", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.0, 0.0)])
def test_drift_parts_give_the_direct_kernel(params, grid128, a):
    # the sampler, reading the model's per-axis drift_parts, against the
    # direct drift irfft2(K_a u_hat) + q c_a with K_a = a1 i xi1 + a2 i xi2
    # and c_a = a . (closed gradient of G_omega) - irfft2(K_a G_omega_hat):
    # equal along an axis, where one term of each sum is an exact zero, and
    # exactly zero at a = 0
    model = grid_model(params, grid128)
    uhat, q = _state(_random_state(grid128, params, 27, q=0.3))[1:]
    d1, d2 = model.derivative
    kernel = a[0] * d1 + a[1] * d2
    gx, gy = _green_gradient(reference_lambda(params), grid128)
    closed = a[0] * gx + a[1] * gy
    direct = _irfft2(kernel * uhat) + q * (closed - _irfft2(kernel * _green_omega_hat(model)))
    got = _drift(model, a, uhat, q)
    if a == (0.0, 0.0):
        assert not np.any(got) and not np.any(direct)
    elif 0.0 in a:
        assert np.array_equal(got, direct)
    else:
        assert np.abs(got - direct).max() <= 1e-15 * np.abs(direct).max()


@pytest.mark.parametrize("a", [(0.3, 0.0), (0.0, -0.7), (-2.5, 0.0)])
def test_axis_drift_rounds_as_the_combined_kernel(params, grid128, a):
    # along an axis at any speed the sampler equals the combined pair
    # irfft2((a1 d1 + a2 d2) u_hat) + q (a1 c1 + a2 c2) bit for bit: the
    # zero component's terms are exact zeros, and q multiplies a_k c_k
    model = grid_model(params, grid128)
    uhat, q = _state(_random_state(grid128, params, 29, q=1.3))[1:]
    (d1, c1), (d2, c2) = model.drift_parts
    combined = _irfft2((a[0] * d1 + a[1] * d2) * uhat) + q * (a[0] * c1 + a[1] * c2)
    assert np.array_equal(_drift(model, a, uhat, q), combined)


def test_solver_config_is_frozen():
    cfg = SolverConfig(a=(1, 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.dt = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.a = (0.0, 1.0)
    assert cfg.a == (1.0, 0.0) and cfg.dt == 0.01


def test_transform_budget(params, grid128, monkeypatch):
    # a forcing is two irfft2 (u and a . grad u) and one rfft2, each one numpy
    # irfft or rfft pass; a flow step on the half spectrum runs no transform,
    # and neither does the sweep
    model = grid_model(params, grid128)
    uhat, q = _state(_random_state(grid128, params, 24, q=0.3))[1:]
    cfg = SolverConfig(gamma=2.0, a=(0.3, -0.7))
    flow = Flow(model, 0.02)
    model.drift_parts  # built before the transforms are counted
    counts = {"irfft": 0, "rfft": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    work = _Work(grid128)

    def force(v, q):
        return _forcing_hat(model, v, q, cfg, work, work.spec)

    force(uhat, q)
    assert counts == {"irfft": 2, "rfft": 1}
    counts.update(irfft=0, rfft=0)
    flow.apply(uhat)
    assert counts == {"irfft": 0, "rfft": 0}
    for _ in _sweep(flow, (uhat, q), 5, force):
        pass
    assert counts == {"irfft": 10, "rfft": 5}


def test_stored_states_domain_compatible(params, grid128):
    # the engine reads q off the coupling, so every stored state's coeff is
    # the coupling of its own total phi + coeff G_omega
    model = grid_model(params, grid128)
    u0 = small_state(grid128, params, amplitude=0.02)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.2, dt=0.02, window=0.1)
    for traj in (solve_local(u0, cfg), solve_global_projected(u0, cfg)):
        for st in traj.states:
            total = np.fft.rfft2(st.regular.values.real) + st.coeff * _green_omega_hat(model)
            assert abs(model.coupling_coefficient(total) - st.coeff) <= 1e-13 * abs(st.coeff)


def test_half_spectrum_h1_proxy_matches_full_lattice(params, grid128):
    # the Hermitian-weighted half-spectrum sum against the proxy written out
    # over the full lattice
    phi = _random_state(grid128, params, 22).regular.values.real
    wlat = grid128.cell_area / grid128.n ** 2
    dens = wlat * np.sum((1.0 + grid128.wavenumber_sq()) * np.abs(np.fft.fft2(phi)) ** 2)
    full = math.sqrt(dens + 0.3 ** 2)
    half = _h1_proxy_hat(grid128, np.fft.rfft2(phi), 0.3)
    assert abs(half - full) <= 1e-13 * full


def test_h1_proxy_form_matches_explicit_split(params, grid128):
    # the engine's proxy A - 2 q X + q^2 C against the proxy of the formed
    # phi_hat = u_hat - q G_omega_hat, where the form cancels most: a state
    # that is nearly all kernel, and a small difference of two states
    model = grid_model(params, grid128)
    noise, _ = _state(_random_state(grid128, params, 25))[1:]
    near = 3.0 * _green_omega_hat(model) + 1e-3 * noise
    a, _ = _state(_random_state(grid128, params, 26, q=0.3))[1:]
    b = a + 1e-7 * noise
    for uhat in (_state(_random_state(grid128, params, 24, q=0.3))[1], near, a - b):
        explicit = _h1_proxy_hat(grid128, *_split(model, uhat))
        proxy = solver._proxy(model, uhat, model.coupling_coefficient(uhat), _Work(grid128))
        assert abs(proxy - explicit) <= 1e-13 * explicit


def test_complex_data_rejected(params, grid128):
    # the forcing gamma sign(u) |u|^(gamma-1) (a . grad u) is
    # a . grad(|u|^gamma) only for real u
    f = gaussian_field(grid128, sigma=1.5, amplitude=0.01)
    rotated = DecomposedField.from_field(np.exp(0.7j) * f, params)
    cfg = SolverConfig(gamma=3.0, a=(1.0, 0.0), T=0.04, dt=0.02)
    # one complex state among real ones in a stored trajectory
    real, times = DecomposedField.from_field(f, params), np.array([0.0, 0.02, 0.04])
    for call in (
        lambda: solve_local(rotated, cfg),
        lambda: solve_global_projected(rotated, cfg),
        lambda: nonlinearity(rotated, cfg),
        lambda: lagrange_multiplier(rotated, cfg),
        lambda: state_fields(rotated),
        lambda: residual_check(Trajectory(times, [real, rotated, real], np.array([]), {}), cfg),
        lambda: solve_local(DecomposedField(f, 0.01 + 1e-6j, params), cfg),
    ):
        with pytest.raises(ValueError, match="complex data"):
            call()


def test_rounding_imaginary_part_accepted(params, grid128):
    # an imaginary part at 1e-14 of the datum is dropped, and every state is
    # real: regular by its values, coeff by its type
    f = gaussian_field(grid128, sigma=1.5, amplitude=0.01)
    u0 = DecomposedField.from_field(Field(grid128, f.values * (1.0 + 1e-14j)), params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.1, dt=0.02)
    for traj in (solve_local(u0, cfg), solve_global_projected(u0, cfg)):
        for st in traj.states:
            assert not np.any(st.regular.values.imag)
            assert isinstance(st.coeff, float)
        assert not np.any(nonlinearity(traj.states[-1], cfg).values.imag)
    assert not np.any(state_fields(u0)[0].values.imag)


def test_state_container_round_trip(params, grid128, tmp_path):
    # a solver state and its time come back bit for bit; load_field reads
    # phi; the container holds 8 bytes a point
    from pideq import load_field, load_state, save_field

    traj = solve_global_projected(
        small_state(grid128, params), SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.1, dt=0.02)
    )
    st, t = traj.states[-1], float(traj.times[-1])
    path = tmp_path / "state_00001.pidf"
    save_field(st, path, t=t)
    back, back_t = load_state(path)
    assert back_t == t and back.params == st.params and back.coeff == st.coeff
    assert back.regular.grid == grid128 and back.regular.values.dtype == np.float64
    assert np.array_equal(back.regular.values, st.regular.values)
    assert np.array_equal(load_field(path).values, st.regular.values)
    assert path.stat().st_size == 8 * grid128.n**2 + 46
    # a plain field container is no state; a complex state is not written
    save_field(st.regular, tmp_path / "field.pidf")
    with pytest.raises(ValueError, match="not a state container"):
        load_state(tmp_path / "field.pidf")
    with pytest.raises(ValueError, match="real states"):
        save_field(DecomposedField(st.regular, 1j, params), tmp_path / "c.pidf")
    with pytest.raises(ValueError, match="a time t"):
        save_field(st.regular, tmp_path / "field.pidf", t=1.0)
    payload = bytearray(path.read_bytes())
    payload[4] = 2
    (tmp_path / "v2.pidf").write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="version"):
        load_state(tmp_path / "v2.pidf")
    (tmp_path / "short.pidf").write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_field(tmp_path / "short.pidf")
