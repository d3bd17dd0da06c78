"""Rate fitting, admissible exponents, convolution bound, harness runs."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from pideq import (
    AlphaParams,
    DecomposedField,
    Field,
    Grid,
    SolverConfig,
    Trajectory,
    admissible_exponents,
    critical_datum,
    fit_rate,
    gaussian_field,
    lp_norm,
    run_gradient_decay,
    run_nonlinear_decay,
    run_semigroup_decay,
    semigroup_gradient_pac,
    semigroup_pac,
    solve_global_projected,
    verify_convolution_lemma,
)
from pideq import decay
from pideq.decay import _cell_average, make_datum
from pideq.semigroup import grid_model


def test_fit_rate_exact_power_law():
    ts = np.geomspace(1, 50, 12)
    fit = fit_rate(list(zip(ts, ts**-0.5)))
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.r_squared > 1 - 1e-12


def test_fit_rate_noisy_power_law(rng):
    ts = np.geomspace(1, 100, 40)
    vals = 3.0 * ts**-1.0 * (1.0 + 1e-3 * rng.standard_normal(40))
    fit = fit_rate(np.column_stack([ts, vals]))
    assert abs(fit.slope + 1.0) < 0.01


def test_fit_rate_constant():
    ts = np.linspace(1, 10, 10)
    fit = fit_rate(list(zip(ts, np.ones(10))))
    assert abs(fit.slope) < 1e-14


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(t, 1.0) for t in (0.5, 1, 2, 3, 4)])
    with pytest.raises(ValueError):
        fit_rate([(t, v) for t, v in zip((1, 2, 3, 4, 5), (1, 1, -1, 1, 1))])
    # a NaN sample would fit a NaN slope, and t = inf fails inside LAPACK
    for bad in ((3.0, math.nan), (math.inf, 1.0), (math.nan, 1.0), (3.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            fit_rate([(1.0, 1.0), (2.0, 0.5), bad, (4.0, 0.25), (5.0, 0.2)])


def test_admissible_exponents_families():
    pair = admissible_exponents(4.0, 1.8)
    assert pair is not None
    t1, t2 = pair
    # re-validate both inequalities exactly
    assert t1 + t2 > 1.5
    mid = t1 / 4.0 + t2 / 1.8 + (1 - t2) / 2.0
    assert max(1 / 4.0, 1 / 1.8) < mid < 1.0
    with pytest.raises(ValueError):
        admissible_exponents(4.0, 2.0)
    with pytest.raises(ValueError):
        admissible_exponents(0.9, 1.5)


def test_admissible_exponents_sufficient_condition():
    # 1/h1 + 1/h2 < 1 guarantees a feasible pair
    for h1, h2 in ((4.0, 1.5), (8.0, 1.9), (3.0, 1.4)):
        if 1 / h1 + 1 / h2 < 1:
            assert admissible_exponents(h1, h2) is not None


def test_convolution_bound_half_half():
    worst = verify_convolution_lemma(0.5, 0.5, (2.0, 10.0, 100.0))
    # exact antiderivative: 2[pi/2 - asin(1/sqrt t)], bounded by pi
    assert worst <= 4.0
    assert worst >= 1.0


def test_convolution_bound_beta_zero_closed_form():
    a = 0.25
    for t in (1.5, 4.0, 30.0):
        ratio = verify_convolution_lemma(a, 0.0, (t,))
        exact = (t - 1.0) ** (1 - a) / (1 - a) / t ** (1 - a)
        assert abs(ratio - exact) < 1e-8 * exact


def test_convolution_bound_short_time_branch():
    assert verify_convolution_lemma(0.75, 0.5, (1.5,)) < 4.0


def test_convolution_bound_validation():
    with pytest.raises(ValueError):
        verify_convolution_lemma(1.0, 0.0, (2.0,))
    with pytest.raises(ValueError):
        verify_convolution_lemma(0.5, 0.0, (0.5,))
    # for beta >= 1 the ratio grows like t^(beta - 1): no bound to check
    for a, b, name in (
        (0.5, 1.5, "beta"), (0.5, 1.0, "beta"), (0.5, math.nan, "beta"),
        (math.nan, 0.0, "alpha"), (-math.inf, 0.0, "alpha"), (0.5, -math.inf, "beta"),
    ):
        with pytest.raises(ValueError, match=f"finite {name} < 1"):
            verify_convolution_lemma(a, b, (2.0,))


def test_convolution_bound_rejects_an_empty_t_grid():
    # an empty grid once returned 0.0, which reads as a pass
    for empty in ([], (), np.array([])):
        with pytest.raises(ValueError, match="an empty t grid measures nothing"):
            verify_convolution_lemma(0.5, 0.5, empty)


def _convolution_ratio_by_quadrature(a, b, t):
    """The lemma's ratio by adaptive quadrature, the tau = t singularity weighted algebraically."""
    mid = 0.5 * (1.0 + t)
    head, _ = quad(
        lambda tau: (t - tau) ** (-a) * tau ** (-b), 1.0, mid, epsabs=0.0, epsrel=1e-13, limit=300
    )
    tail, _ = quad(
        lambda s: (t - s) ** (-b), 0.0, t - mid, weight="alg", wvar=(-a, 0.0),
        epsabs=0.0, epsrel=1e-13, limit=300,
    )
    return (head + tail) / t ** (1.0 - a - b)


def test_convolution_lemma_matches_quadrature():
    # the incomplete-beta closed form at the 27 points of the verify check
    for a in (0.25, 0.5, 0.75):
        for b in (-0.5, 0.0, 0.5):
            for t in (2.0, 10.0, 100.0):
                ref = _convolution_ratio_by_quadrature(a, b, t)
                assert abs(verify_convolution_lemma(a, b, (t,)) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("beta", [0.5, 2.0 / 3.0, 1.0, 1.5])
def test_cell_average_matches_quadrature(beta):
    val, _ = dblquad(
        lambda y, x: (x * x + y * y) ** (-beta / 2.0), 0.0, 0.5, 0.0, 0.5,
        epsabs=1e-14, epsrel=1e-13,
    )
    assert abs(_cell_average(beta) - 4.0 * val) <= 1e-12 * 4.0 * val


@pytest.mark.parametrize("beta", [1e-3, 0.5, 2.0 / 3.0, 1.0, 1.5, 1.99])
def test_cell_average_matches_scipy_hyp2f1(beta):
    from scipy import special

    ref = 2.0 ** (beta + 0.5) / (2.0 - beta) * special.hyp2f1(0.5, (3.0 - beta) / 2.0, 1.5, 0.5)
    assert abs(_cell_average(beta) - ref) <= 1e-14 * ref


def test_convolution_lemma_matches_scipy_betainc():
    # the series form of B_x(a, b) at the 27 points of the verify check
    from scipy import special

    for a in (0.25, 0.5, 0.75):
        for b in (-0.5, 0.0, 0.5):
            for t in (2.0, 10.0, 100.0):
                ref = special.beta(1.0 - a, 1.0 - b) * special.betainc(1.0 - a, 1.0 - b, 1.0 - 1.0 / t)
                assert abs(verify_convolution_lemma(a, b, (t,)) - ref) <= 1e-13 * ref


def test_critical_datum_structure():
    grid = Grid(40.0, 128)
    f = critical_datum(grid, 2.0)
    assert np.abs(f.values.imag).max() < 1e-12
    hat = np.fft.fft2(f.values) * grid.cell_area
    # infrared-heavy: low modes dominate high modes strongly
    assert abs(hat[0, 0]) > 10 * abs(hat[10, 10])
    # q = inf puts beta = 2, where the cell average diverges
    for bad in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="q must be a finite number > 1"):
            critical_datum(grid, bad)


def test_critical_datum_is_real_half_spectrum_transform():
    # the half-spectrum profile gives the real part of the full-lattice
    # inverse transform of the same even profile, to rounding
    grid = Grid(40.0, 128)
    for q in (2.0, 4.0 / 3.0):
        f = critical_datum(grid, q)
        assert f.values.dtype == np.float64
        beta = 2.0 - 2.0 / q
        xi2 = grid.wavenumber_sq()
        with np.errstate(divide="ignore"):
            prof = np.where(xi2 > 0.0, np.sqrt(xi2), 1.0) ** (-beta)
        prof[0, 0] = _cell_average(beta) * (np.pi / grid.half_width) ** (-beta)
        scale = (grid.n / (2.0 * grid.half_width)) ** 2
        full = np.fft.ifft2(prof * np.exp(-0.25 * xi2)).real * scale
        assert np.linalg.norm(f.values - full) <= 1e-13 * np.linalg.norm(full)


def test_make_datum_descriptors():
    grid = Grid(40.0, 64)
    ref = gaussian_field(grid, sigma=2.0, amplitude=0.5, center=(1.0, -1.0))
    assert np.array_equal(make_datum("gaussian:2,0.5,1,-1", grid).values, ref.values)
    assert np.array_equal(make_datum("gaussian", grid).values, gaussian_field(grid).values)
    # a file name is not a descriptor, even when it starts with 'gaussian'
    with pytest.raises(ValueError):
        make_datum("gaussian_state.pidf", grid)
    # a Gaussian takes 0, 1, 2 or 4 values: three would set x0 alone, five
    # would drop one
    for bad in ("gaussian:1,2,3", "gaussian:1,2,3,4,5"):
        with pytest.raises(ValueError, match="0, 1, 2 or 4 values"):
            make_datum(bad, grid)
    # sigma is a finite number > 0 and the amplitude a finite number
    for bad, what in (
        ("gaussian:-1", "sigma"), ("gaussian:0", "sigma"), ("gaussian:nan", "sigma"),
        ("gaussian:inf", "sigma"), ("gaussian:1,inf", "amplitude"), ("gaussian:1,nan", "amplitude"),
    ):
        with pytest.raises(ValueError, match=f"gaussian {what} must be a finite number"):
            make_datum(bad, grid)


def test_make_datum_critical_is_the_l2_critical_datum():
    grid = Grid(40.0, 64)
    assert np.array_equal(make_datum("critical", grid).values, critical_datum(grid, 2.0).values)


def test_semigroup_decay_rejects_equal_exponents():
    with pytest.raises(ValueError):
        run_semigroup_decay(Grid(40.0, 128), q=2.0, p=2.0)


def test_gradient_decay_exponent_window():
    with pytest.raises(ValueError):
        run_gradient_decay(Grid(40.0, 128), q=2.0, p=3.0)


def test_l2_boundedness_slope():
    # the projected flow is uniformly bounded in L^2: ||S(t) P_ac g||_2 of
    # the critical datum does not grow over t in [1, 30]
    grid = Grid(40.0, 128)
    params = AlphaParams.for_alpha(0.0, 2)
    g = critical_datum(grid, 2.0)
    ts = np.geomspace(1.0, 30.0, 8)
    fit = fit_rate([(t, lp_norm(semigroup_pac(t, g, params).field, 2.0)) for t in ts])
    assert fit.slope <= 1e-6


def test_semigroup_decay_grid_stability():
    # fitted slope moves by < 0.02 between n = 128 and n = 256
    ts = np.geomspace(1.0, 50.0, 10)
    slopes = []
    for n in (128, 256):
        slopes.append(run_semigroup_decay(Grid(40.0, n), q=2.0, p=4.0, t_grid=ts).slope)
    assert abs(slopes[1] - slopes[0]) <= 0.02


def test_nonlinear_decay_validation(params, grid128):
    with pytest.raises(ValueError):
        run_nonlinear_decay(None, h1=4.0, h2=2.5)


def test_nonlinear_decay_rejects_its_inputs():
    # an inadmissible (h1, h2), a trajectory that ends before t = 20 and a
    # local trajectory, which has no rho, are each refused before any fit
    assert admissible_exponents(2.0, 1.2) is None
    state = DecomposedField.from_field(gaussian_field(Grid(10.0, 16)), AlphaParams(0.0))

    def traj(end, rho):
        times = np.linspace(0.0, end, 11)
        return Trajectory(times, [state] * times.size, np.array(rho), {})

    with pytest.raises(ValueError, match=r"\(h1, h2\) = \(2\.0, 1\.2\) is not admissible"):
        run_nonlinear_decay(traj(20.0, np.ones(11)), h1=2.0, h2=1.2)
    with pytest.raises(ValueError, match="needs a trajectory reaching t >= 20"):
        run_nonlinear_decay(traj(19.9, np.ones(11)), h1=4.0, h2=1.5)
    with pytest.raises(ValueError, match="needs a projected trajectory with rho"):
        run_nonlinear_decay(traj(20.0, []), h1=4.0, h2=1.5)


def test_nonlinear_decay_refuses_a_zero_rho_at_one_time(monkeypatch):
    # |rho| = 0 at one fitted time has no logarithm, so fit_rate refuses
    # it; a floor of 1e-14 max |rho| once fitted a made-up value there
    g = gaussian_field(Grid(10.0, 16))
    monkeypatch.setattr(decay, "state_fields", lambda st: (g, g))
    times = np.arange(0.0, 21.0)
    rho = 1.0 / (1.0 + times)
    rho[5] = 0.0
    traj = Trajectory(times, [None] * times.size, rho, {})
    with pytest.raises(ValueError, match="fit_rate requires positive values"):
        run_nonlinear_decay(traj, h1=4.0, h2=1.5)


@pytest.mark.parametrize("alpha, a", [(0.0, (0.0, 0.0)), (math.inf, (1.0, 0.0))])
def test_nonlinear_decay_rejects_a_zero_rho(monkeypatch, alpha, a):
    # with no drift, or at alpha = +inf, which has no eigenmode, rho is
    # identically 0: that once failed inside fit_rate with "fit_rate
    # requires positive values", which named no input
    grid = Grid(40.0, 64)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), AlphaParams(alpha)
    )
    traj = solve_global_projected(u0, SolverConfig(a=a, T=20.0, dt=0.1))
    assert traj.rho.size and not np.any(traj.rho)
    monkeypatch.setattr(decay, "fit_rate", None)  # the check comes before any fit
    with pytest.raises(ValueError, match=r"rho is identically 0 .*alpha = \+inf.*no decay rate"):
        run_nonlinear_decay(traj, h1=4.0, h2=1.5)


def _fit_samples(monkeypatch, run, grid, q, p, t_grid):
    # the (t, value) pairs a linear fit hands to fit_rate
    seen = []
    monkeypatch.setattr(decay, "fit_rate", lambda samples, theo: seen.extend(samples))
    run(grid, q=q, p=p, t_grid=t_grid)
    return seen


def test_linear_fit_samples_match_public_flows(monkeypatch, params, grid128):
    # one transform and one Flow per t against one public call per t
    ts = [1.0, 2.5, 7.3, 20.0, 50.0]
    g = critical_datum(grid128, 2.0)
    samples = _fit_samples(monkeypatch, run_semigroup_decay, grid128, 2.0, 4.0, np.array(ts))
    for (t, value), tref in zip(samples, ts):
        expect = lp_norm(semigroup_pac(tref, g, params).field, 4.0)
        assert t == tref and abs(value - expect) <= 1e-12 * expect
    g = critical_datum(grid128, 4.0 / 3.0)
    samples = _fit_samples(monkeypatch, run_gradient_decay, grid128, 4.0 / 3.0, 1.5, np.array(ts))
    for (t, value), tref in zip(samples, ts):
        dx, dy = semigroup_gradient_pac(tref, g, params)
        expect = lp_norm(Field(grid128, np.hypot(dx.values.real, dy.values.real)), 1.5)
        assert t == tref and abs(value - expect) <= 1e-12 * expect


@pytest.mark.parametrize(
    "run, q, p", [(run_semigroup_decay, 2.0, 4.0), (run_gradient_decay, 4.0 / 3.0, 1.5)]
)
@pytest.mark.parametrize("bad", [0.0, math.nan, math.inf, 0.5])
def test_linear_fit_rejects_t_grid_before_any_flow(monkeypatch, grid128, run, q, p, bad):
    def banned(*args, **kwargs):
        raise AssertionError("flow built before t_grid was checked")

    monkeypatch.setattr(decay, "Flow", banned)
    ts = np.geomspace(1.0, 50.0, 8)
    ts[3] = bad
    with pytest.raises(ValueError, match="t_grid"):
        run(grid128, q=q, p=p, t_grid=ts)


@pytest.mark.parametrize(
    "run, q, p", [(run_semigroup_decay, 2.0, 4.0), (run_gradient_decay, 4.0 / 3.0, 1.5)]
)
@pytest.mark.parametrize(
    "ts, message",
    [([1.0], "at least 5 samples; got 1"), ([3.0] * 5, "at least 2 distinct times")],
)
def test_linear_fit_needs_two_distinct_times_before_any_flow(
    monkeypatch, grid128, run, q, p, ts, message
):
    # a single t once flowed the datum and then failed inside fit_rate, or,
    # repeated five times, fitted slope -0.873 at r2 = 1
    def banned(*args, **kwargs):
        raise AssertionError("flow built before t_grid was checked")

    monkeypatch.setattr(decay, "Flow", banned)
    with pytest.raises(ValueError, match=f"t_grid needs {message}"):
        run(grid128, q=q, p=p, t_grid=ts)


def test_default_t_grid_is_read_only():
    # every linear fit shares the default t-grid, so no caller may write it
    assert np.array_equal(decay.T_GRID, np.geomspace(1.0, 50.0, 16))
    with pytest.raises(ValueError, match="read-only"):
        decay.T_GRID[0] = 2.0


def test_semigroup_decay_transforms_datum_once(monkeypatch, params, grid128):
    # 16 t-values share one rfft2 of the datum; each sample is one irfft2,
    # and each of those makes one numpy rfft or irfft pass; building the
    # critical datum from its half-spectrum profile is one more irfft2
    grid_model(params, grid128)  # the model build transforms its kernel
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    assert len(decay.T_GRID) == 16
    run_semigroup_decay(grid128, q=2.0, p=4.0)
    assert counts == {"rfft": 1, "irfft": 17}
