"""Nonlinearity, Duhamel sweep, and Picard solver checks."""

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
    green_gradient_field,
    h1_alpha_norm,
    inner_product,
    lagrange_multiplier,
    lp_norm,
    nonlinearity,
    project_d,
    psi_alpha_field,
    reference_lambda,
    residual_check,
    semigroup_full,
    solve_global_projected,
    solve_local,
    state_fields,
    total_field,
)
from pideq import solver
from pideq.errors import DataTooLargeError
from pideq.solver import (
    _drift,
    _forcing_hat,
    _h1_proxy_hat,
    _picard_window,
    _split,
    _state_hat,
    _sweep,
)
from pideq.semigroup import Flow, grid_model


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
    # a is two finite reals, stored as floats, so (1, 0) and (1.0, 0.0) share
    # one drift-kernel cache entry
    for bad in ((1.0, 0.0, 5.0), (1.0,), (math.nan, 0.0), (0.0, math.inf), (1.0, 1j)):
        with pytest.raises(ValueError, match="two finite real numbers"):
            SolverConfig(a=bad)
    a = SolverConfig(a=(1, np.float64(0))).a
    assert a == (1.0, 0.0) and all(type(x) is float for x in a)
    # every step, horizon and iteration control is checked on construction
    for bad in (
        dict(picard_max=0), dict(picard_max=2.5), dict(window=0), dict(window=-1),
        dict(store_stride=-3), dict(store_stride=0), dict(store_stride=1.5),
        dict(dt=math.nan), dict(picard_tol=math.nan), dict(T=math.inf), dict(T=0.0),
        dict(clamp_limit=-1), dict(clamp_limit=math.inf), dict(ball_radius=0.0),
        dict(ball_radius=math.nan), dict(ball_radius="big"),
        dict(gamma=math.inf), dict(gamma=math.nan), dict(gamma="3"),
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverConfig(**bad)
    for good in (dict(store_stride=None), dict(store_stride=3), dict(ball_radius="auto"),
                 dict(ball_radius=2), dict(picard_max=1), dict(window=0.5)):
        SolverConfig(**good)


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


def test_nonlinearity_clamp_counter(params, grid128):
    # clamps are counted per solve; the config only holds settings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = SolverConfig(gamma=1.5, a=(1.0, 0.0), clamp_limit=1e2, T=0.04, dt=0.02)
    vals = np.zeros((128, 128))
    vals[10, 10] = 1e-8  # |u|^(gamma-2) = 1e4 > clamp
    u = DecomposedField.from_field(Field(grid128, vals), params)
    before = repr(cfg)
    nonlinearity(u, cfg)
    assert repr(cfg) == before
    counts = [
        solve_local(small_state(grid128, params), cfg).diagnostics["clamp_events"]
        for _ in range(2)
    ]
    assert counts[0] == counts[1] > 0


def _duhamel(flow, kicks):
    """Half spectrum of the solver's sweep from 0 whose k-th forcing is kicks[k].

    A kick is a half spectrum or None.  With the samples f_j of a source as
    kicks this is the left-endpoint rule for integral_0^t S(t - tau) f dtau
    at the flow's step; with kicks alternating None and f_j + f_(j+1) at half
    steps, it is the midpoint rule at twice the flow's step.
    """
    it = iter(kicks)

    def force(_, __):
        kick = next(it)
        return None if kick is None else kick.copy()  # the sweep writes into it

    n = flow.model.grid.n
    uhat = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    for _, uhat, _ in _sweep(flow, uhat, len(kicks), force):
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
    # a = 0: the Picard map is constant; one iterate, exact linear flow
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(0.0, 0.0), T=0.2, dt=0.02)
    traj = solve_local(u0, cfg)
    assert traj.diagnostics["iterations"] == 1
    direct = semigroup_full(0.2, total_field(u0), params, ContourSpec.for_time(params, 0.2))
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
    # same fixed point from the frozen-in-time starting iterate
    cfg2 = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.3, dt=0.01, picard_tol=1e-11
    )
    traj2 = solve_local(u0, cfg2, init="frozen")
    dist = max(
        h1_alpha_norm(
            DecomposedField(
                a.regular - b.regular, a.coeff - b.coeff, params
            )
        )
        for a, b in zip(traj.states, traj2.states)
    )
    assert dist <= 10 * cfg.picard_tol * max(1.0, h1_alpha_norm(u0))


def test_solve_local_fixed_point_property(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=0.2, dt=0.02, picard_tol=1e-10
    )
    traj = solve_local(u0, cfg)
    model = grid_model(params, grid128)
    prop = Flow(model, cfg.dt, full=True)
    states = [_state_hat(model, st)[0] for st in traj.states]

    def force(uhat, q):
        return _forcing_hat(model, uhat, cfg, q)[0]

    # one Picard iterate from the solution, swept over a copy of it
    swept = list(states)
    for _ in _sweep(prop, states[0], len(states) - 1, force, swept):
        pass
    moved = max(
        _h1_proxy_hat(model.grid, *_split(model, a - b)) for a, b in zip(swept, states)
    )
    assert moved < 2 * cfg.picard_tol * max(1.0, h1_alpha_norm(u0))


def test_solve_local_auto_radius_per_datum(params, grid128):
    # 'auto' is resolved per solve: a reused config keeps reading 'auto', and
    # each datum is measured against twice its own initial norm.  Eigenmode
    # data grow like e^{E t}, past 2x by t = 0.8, so both solves must warn
    # (a radius kept from the larger first datum would silence the second).
    psi = psi_alpha_field(params, grid128)
    cfg = SolverConfig(
        gamma=2.0, a=(0.0, 0.0), T=0.8, dt=0.02, ball_radius="auto"
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


def _assert_picard_fixed_point(traj, u0, cfg, windows, steps):
    """Every stored state matches Picard iterated to tolerance on each window."""
    model = grid_model(u0.params, u0.regular.grid)
    prop = Flow(model, cfg.dt, full=False)
    uhat, _ = _state_hat(model, traj.states[0])
    ref = [uhat]

    def force(uhat, q):
        return _forcing_hat(model, uhat, cfg, q)[0]

    for win in range(windows):
        states, _, _ = _picard_window(
            model, prop, uhat, steps, cfg, force, "linear", label=f"window {win}"
        )
        ref.extend(states[1:])
        uhat = states[-1]
    stride = cfg.store_stride or steps
    assert len(traj.states) == windows * steps // stride + 1
    tol = 10 * cfg.picard_tol * max(1.0, h1_alpha_norm(u0))
    for k, st in zip(range(0, windows * steps + 1, stride), traj.states):
        diff = _state_hat(model, st)[0] - ref[k]
        assert _h1_proxy_hat(model.grid, *_split(model, diff)) <= tol


def test_global_march_is_picard_fixed_point(params, grid128):
    # windows >= 1 are marched; the reference iterates Picard on every window
    u0 = small_state(grid128, params, amplitude=0.02)
    cfg = SolverConfig(
        gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, window=0.5, picard_tol=1e-11,
        store_stride=5,
    )
    traj = solve_global_projected(u0, cfg)
    _assert_picard_fixed_point(traj, u0, cfg, windows=4, steps=25)
    iters = traj.diagnostics["iterations"]
    assert len(iters) == 4 and iters[0] >= 1 and iters[1:] == [0, 0, 0]
    ratios = traj.diagnostics["contraction_ratios"]
    assert ratios and all(r < 1.0 for r in ratios)


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
        gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, window=0.5, picard_max=12
    )
    with pytest.raises(DataTooLargeError):
        solve_global_projected(big, cfg)


def test_global_probe_holds_one_iterate(params, grid128):
    # a probed window of 50 steps sweeps one list of its states in place:
    # two iterates and a forcing list would be over 150 fields
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, window=1.0, picard_tol=1e-10)
    solve_global_projected(u0, cfg)  # warm the grid-model, contour and kernel caches
    tracemalloc.start()
    try:
        solve_global_projected(u0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    field_bytes = 16 * grid128.n**2
    assert peak < 100 * field_bytes


def test_stored_states_memory_guard(params, grid128):
    # 101 stored states at n = 128: each is a float64 phi (128 KiB), and the
    # stored half spectra are dropped as their states are made, so the solve
    # peaks at 24 MiB and keeps 15 MiB (39.0 and 25.3 MiB with complex128
    # states made while every half spectrum was still alive)
    u0 = small_state(grid128, params, amplitude=0.02)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=2.0, dt=0.02, store_stride=1)
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


def test_global_solver_ball_radius(params, grid128):
    u0 = small_state(grid128, params)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.4, dt=0.02, window=0.2, ball_radius=1e-9)
    with pytest.warns(UserWarning, match="left the ball"):
        solve_global_projected(u0, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_global_projected(u0, SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.4, dt=0.02))
    cfg_auto = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.4, dt=0.02, ball_radius="auto")
    solve_global_projected(u0, cfg_auto)
    assert cfg_auto.ball_radius == "auto"


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
        gamma=2.0, a=(1.0, 0.0), T=0.2, dt=1e-3, picard_tol=1e-11, store_stride=1
    )
    traj = solve_global_projected(u0, cfg)
    assert residual_check(traj, cfg) <= 1e-2


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
    gx, gy = green_gradient_field(reference_lambda(params), grid)
    d1 = np.fft.ifft2(1j * XI1 * np.fft.fft2(phi)).real + 0.3 * gx.values.real
    d2 = np.fft.ifft2(1j * XI2 * np.fft.fft2(phi)).real + 0.3 * gy.values.real
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
    uhat, q = _state_hat(model, u)
    vals = np.fft.irfft2(uhat)
    du1, du2 = (_drift(model, uhat, q, e) for e in ((1.0, 0.0), (0.0, 1.0)))
    expect = 2.0 * vals * (a[0] * du1 + a[1] * du2)
    got = nonlinearity(u, cfg).values
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    zero = nonlinearity(u, SolverConfig(gamma=2.0, a=(0.0, 0.0))).values
    assert zero.shape == got.shape and not np.any(zero)


def test_transform_budget(params, grid128, monkeypatch):
    # a forcing is two irfft2 (u and a . grad u) and one rfft2, each one numpy
    # irfft or rfft pass; a flow step on the half spectrum runs no transform,
    # and neither does the sweep
    model = grid_model(params, grid128)
    uhat, _ = _state_hat(model, _random_state(grid128, params, 24, q=0.3))
    cfg = SolverConfig(gamma=2.0, a=(0.3, -0.7))
    flow = Flow(model, 0.02)
    _forcing_hat(model, uhat, cfg)  # build the cached drift kernels
    counts = {"irfft": 0, "rfft": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    _forcing_hat(model, uhat, cfg)
    assert counts == {"irfft": 2, "rfft": 1}
    counts.update(irfft=0, rfft=0)
    flow.apply(uhat)
    assert counts == {"irfft": 0, "rfft": 0}
    for _ in _sweep(flow, uhat, 5, lambda v, q: _forcing_hat(model, v, cfg, q)[0]):
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
            total = np.fft.rfft2(st.regular.values.real) + st.coeff * model.green_omega_hat
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
    noise, _ = _state_hat(model, _random_state(grid128, params, 25))
    near = 3.0 * model.green_omega_hat + 1e-3 * noise
    a, _ = _state_hat(model, _random_state(grid128, params, 26, q=0.3))
    b = a + 1e-7 * noise
    for uhat in (_state_hat(model, _random_state(grid128, params, 24, q=0.3))[0], near, a - b):
        explicit = _h1_proxy_hat(grid128, *_split(model, uhat))
        assert abs(solver._proxy(model, uhat) - explicit) <= 1e-13 * explicit


def test_complex_data_rejected(params, grid128):
    # the forcing gamma |u|^(gamma-2) u (a . grad u) is a . grad(|u|^gamma)
    # only for real u: for u = e^{0.7i} times a Gaussian it is 129 % off
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
