"""Rate fitting, admissible exponents, convolution bound, harness runs."""

import math

import numpy as np
import pytest

from pideq import (
    ExperimentSpec,
    Grid,
    admissible_exponents,
    critical_datum,
    fit_rate,
    gaussian_field,
    run_gradient_decay,
    run_l2_bound,
    run_nonlinear_decay,
    run_semigroup_decay,
    verify_convolution_lemma,
)
from pideq.decay import make_datum


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


def test_critical_datum_structure():
    grid = Grid(40.0, 128)
    f = critical_datum(grid, 2.0)
    assert np.abs(f.values.imag).max() < 1e-12
    hat = np.fft.fft2(f.values) * grid.cell_area
    # infrared-heavy: low modes dominate high modes strongly
    assert abs(hat[0, 0]) > 10 * abs(hat[10, 10])


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


def test_semigroup_decay_rejects_equal_exponents():
    spec = ExperimentSpec(grid=Grid(40.0, 128), q=2.0, p=2.0)
    with pytest.raises(ValueError):
        run_semigroup_decay(spec)


def test_gradient_decay_exponent_window():
    spec = ExperimentSpec(grid=Grid(40.0, 128), q=2.0, p=3.0)
    with pytest.raises(ValueError):
        run_gradient_decay(spec)


def test_l2_boundedness_slope():
    ts = np.geomspace(1.0, 30.0, 8)
    spec = ExperimentSpec(grid=Grid(40.0, 128), q=2.0, p=2.0, t_grid=ts)
    fit = run_l2_bound(spec)
    assert fit.slope <= 1e-6
    assert fit.theoretical == 0.0


def test_semigroup_decay_grid_stability():
    # fitted slope moves by < 0.02 between n = 128 and n = 256
    ts = np.geomspace(1.0, 50.0, 10)
    slopes = []
    for n in (128, 256):
        spec = ExperimentSpec(grid=Grid(40.0, n), q=2.0, p=4.0, t_grid=ts)
        slopes.append(run_semigroup_decay(spec).slope)
    assert abs(slopes[1] - slopes[0]) <= 0.02


def test_nonlinear_decay_validation(params, grid128):
    spec = ExperimentSpec(grid=grid128, h1=4.0, h2=2.5)
    with pytest.raises(ValueError):
        run_nonlinear_decay(spec, None)
