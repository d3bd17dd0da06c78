"""Spectral scalars, Green fields, projections, decompositions."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0 as scipy_k0, k1 as scipy_k1

from pideq import (
    AlphaParams,
    DecomposedField,
    Field,
    Grid,
    c_lambda,
    eigenvalue,
    euler_gamma,
    gaussian_field,
    green_field,
    green_lp_norm,
    h1_alpha_norm,
    krein_resolvent,
    lp_norm,
    project_d,
    psi_alpha_field,
)
from pideq.errors import BranchCutError, NoEigenfunctionError
from pideq.spectral import _green_gradient


def test_eigenvalue_2d_formula():
    e0 = eigenvalue(0.0)
    assert abs(e0 - 4.0 * math.exp(-2.0 * euler_gamma())) < 1e-14
    for alpha in (-1.0, 0.0, 1.0):
        ev = eigenvalue(alpha)
        assert abs(alpha + c_lambda(ev).real) < 1e-12


def test_eigenvalue_rejects_alpha_outside_range():
    # alpha lies in (-inf, +inf]: +inf is the free Laplacian, nan and -inf
    # have no operator
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=r"alpha must lie in \(-inf, \+inf\]"):
            eigenvalue(bad)
        with pytest.raises(ValueError, match="alpha must lie"):
            AlphaParams.for_alpha(bad, 2)
    assert AlphaParams.for_alpha(math.inf, 2).eigenvalue is None


def test_eigenvalue_rejects_non_real_alpha():
    for bad in ("x", True, 1j, None):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            AlphaParams.for_alpha(bad, 2)


@pytest.mark.parametrize("alpha, shown", [(57.0, "1.054"), (60.0, "0.0"), (300.0, "0.0")])
def test_eigenvalue_rejects_underflowing_eigenvalue(alpha, shown):
    # E = 4 exp(-4 pi alpha - 2 gamma) is subnormal at alpha = 57 (and psi_norm
    # was inf) and 0 from about alpha = 59.3
    with pytest.raises(ValueError, match=rf"alpha = {alpha}.* E = {shown}"):
        AlphaParams.for_alpha(alpha, 2)


def test_eigenvalue_rejects_overflowing_eigenvalue():
    # exp overflowed with a RuntimeWarning at alpha = -60; now one ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"alpha = .* E = inf"):
            AlphaParams.for_alpha(-60.0, 2)


def test_eigenvalue_range_edges():
    # the normal doubles hold E for alpha in about [-56.46, 56.39]; alpha = inf
    # is still the free Laplacian
    for alpha in (56.0, -56.0):
        params = AlphaParams.for_alpha(alpha, 2)
        assert math.isfinite(params.psi_norm) and params.eigenvalue > 0.0
    assert eigenvalue(math.inf) is None


def test_for_alpha_rejects_other_dimensions():
    # the model lives in the plane; the second argument stays for callers
    # that pass 2
    for bad in (3, 1, "2"):
        with pytest.raises(ValueError, match=f"got dimension = {bad!r}"):
            AlphaParams.for_alpha(0.0, bad)
    assert AlphaParams.for_alpha(0.0, 2) == AlphaParams.for_alpha(0.0)


def test_c_lambda_values():
    expected = (euler_gamma() - math.log(2.0)) / (2 * math.pi) + 1.0 / (2 * math.pi)
    assert abs(c_lambda(math.e**2) - expected) < 1e-14
    # principal branch: conjugate symmetry and cut rejection
    assert abs(c_lambda(1 + 1j) - c_lambda(1 - 1j).conjugate()) < 1e-15
    with pytest.raises(BranchCutError):
        c_lambda(-2.0)


def test_alpha_params_psi_norm_oracle(params):
    # oracle: int_0^inf x K0(x)^2 dx = 1/2 by quadrature split at x = 1,
    # against the closed form the moment uses; then rescale
    head, _ = quad(lambda s: s * scipy_k0(s) ** 2, 0, 1, limit=200, epsabs=1e-14, epsrel=1e-13)
    tail, _ = quad(lambda s: s * scipy_k0(s) ** 2, 1, 40, limit=200, epsabs=1e-15, epsrel=1e-13)
    moment = head + tail
    assert abs(moment - 0.5) < 1e-12
    assert params.psi_norm == 0.25121562644357126
    oracle = math.sqrt(2 * math.pi * moment / (4 * math.pi**2) / params.eigenvalue)
    assert abs(params.psi_norm - oracle) < 1e-6
    closed = 1.0 / math.sqrt(4.0 * math.pi * params.eigenvalue)
    assert abs(params.psi_norm - closed) < 1e-4 * closed


def test_green_lp_norm_validation():
    # only the closed form at p = 2 is kept: psi's normalization is its one use
    for bad in (1.0, 1.5, 3.0, 4, 351, math.inf, math.nan, "2"):
        with pytest.raises(ValueError, match=f"p = {bad!r}"):
            green_lp_norm(1.0, bad)
    assert green_lp_norm(1.0, 2) == green_lp_norm(1.0, 2.0) == green_lp_norm(1, np.float64(2))
    with pytest.raises(ValueError):
        green_lp_norm(-1.0, 2.0)


def test_alpha_params_takes_alpha_alone():
    # E and ||G_E||_2 are functions of alpha: the record is built from alpha
    # alone, so it cannot hold an eigenvalue inconsistent with it
    from pideq.semigroup import grid_model

    for alpha in (-1.0, 0.0, 0.5, math.inf):
        params = AlphaParams(alpha)
        assert params == AlphaParams.for_alpha(alpha, 2)
        ev = eigenvalue(alpha)
        assert params.eigenvalue == ev
        if ev is None:
            assert params.psi_norm is None
        else:
            assert params.psi_norm == green_lp_norm(ev, 2)
    with pytest.raises(TypeError):
        AlphaParams(0.0, 2.0, 0.3)
    grid = Grid(40.0, 64)
    grid_model.cache_clear()
    model = grid_model(AlphaParams(0.0), grid)
    assert grid_model(AlphaParams.for_alpha(0.0, 2), grid) is model
    info = grid_model.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_green_rescaling_law():
    # ||G_lam||_2 = lam^(-1/2) ||G_1||_2 in 2D
    base = green_lp_norm(1.0, 2)
    for lam in (0.25, 4.0, 16.0):
        ratio = green_lp_norm(lam, 2) / base
        assert abs(ratio - lam ** (-0.5)) < 1e-14 * ratio
    assert abs(green_lp_norm(4.0, 2) / green_lp_norm(1.0, 2) - 0.5) < 1e-4


def test_green_l2_closed_form():
    assert abs(green_lp_norm(1.0, 2) - 1.0 / (2.0 * math.sqrt(math.pi))) < 1e-6


def test_green_field_direct_positive_and_grid_norm(grid256):
    g = green_field(1.0, grid256)
    assert np.all(g.values.real > 0)
    # grid Riemann sums of the log-singular profile converge slowly;
    # they approach the quadrature norm from below at O(h^2 log^2 h)
    coarse = lp_norm(green_field(1.0, Grid(40.0, 128)), 2)
    fine = lp_norm(g, 2)
    exact = green_lp_norm(1.0, 2)
    assert abs(fine - exact) < abs(coarse - exact)
    assert abs(fine - exact) < 0.05 * exact


def _band_limited_green(lam, grid):
    """G_lam as the inverse continuum transform of 1/(lam + |xi|^2), Nyquist lines zeroed.

    Sampled at the half-cell nodes: the lattice ifft2 of the multiplier over
    the phase e^{-i xi x0} per axis, x0 the first node coordinate.
    """
    n = grid.n
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    p = np.exp(-1j * xi * grid.axis()[0])
    mult = np.array(1.0 / (lam + grid.wavenumber_sq()), dtype=np.complex128)
    mult[n // 2, :] = 0.0
    mult[:, n // 2] = 0.0
    return Field(grid, np.fft.ifft2(mult / np.outer(p, p)) / grid.cell_area)


def test_green_field_paths_agree_at_band_limit_accuracy():
    # pointwise sampling vs band-limited multiplier: the difference is the
    # band-limiting of the log singularity and shrinks under refinement
    errs = []
    for n in (128, 256):
        grid = Grid(40.0, n)
        direct = green_field(1.0, grid)
        mult = _band_limited_green(1.0, grid)
        errs.append(lp_norm(direct - mult, 2) / lp_norm(direct, 2))
    assert errs[1] < errs[0]
    assert errs[1] < 0.1


def test_green_field_branch_and_grid_errors(grid128):
    with pytest.raises(BranchCutError):
        green_field(-1.0, grid128)
    # the kernel is sampled for a finite real lambda > 0 only
    for bad in (2.0 + 1.0j, 1j, math.inf, math.nan):
        with pytest.raises(ValueError, match="green_field requires a finite real lambda"):
            green_field(bad, grid128)
    assert green_field(2.0 + 0.0j, grid128).values.dtype == np.float64


def test_green_gradient_radial_symmetry(grid128):
    gx, gy = _green_gradient(1.0, grid128)
    vals = np.hypot(gx, gy)
    n = grid128.n
    # reflection symmetry of the modulus on the half-cell grid
    assert np.abs(vals - vals[::-1, :]).max() < 1e-12
    assert np.abs(vals - vals[:, ::-1]).max() < 1e-12
    assert np.abs(vals - vals.T).max() < 1e-12


def _gradient_lp_norm(lam, grid, p):
    gx, gy = _green_gradient(lam, grid)
    return lp_norm(Field(grid, np.hypot(gx, gy)), p)


def test_green_gradient_rescaling():
    # grad G_4 (x) = 2 grad G_1 (2x), so its samples on [-L, L]^2 are twice
    # those of grad G_1 on [-2L, 2L]^2 and the grid norms obey the continuum
    # law ||grad G_lam||_p = lam^(1/2 - 1/p) ||grad G_1||_p; p = 3/2, lam = 4
    ratio = _gradient_lp_norm(4.0, Grid(20.0, 128), 1.5) / _gradient_lp_norm(1.0, Grid(40.0, 128), 1.5)
    assert abs(ratio - 2.0 ** (2 * (0.5 - 2.0 / 3.0))) < 1e-12


def test_green_gradient_integrability_window():
    # grid L^p norms: divergent under refinement for p = 2, stable for p = 3/2
    norms2, norms32 = [], []
    for n in (128, 256, 512):
        grid = Grid(40.0, n)
        norms2.append(_gradient_lp_norm(1.0, grid, 2.0))
        norms32.append(_gradient_lp_norm(1.0, grid, 1.5))
    assert norms2[0] < norms2[1] < norms2[2]
    assert norms2[2] - norms2[0] > 0.05 * norms2[0]
    rel_drift = abs(norms32[2] - norms32[1]) / norms32[2]
    assert rel_drift < abs(norms32[1] - norms32[0]) / norms32[1]
    # Riemann sums crawl up from below towards the continuum norm
    # ||grad G_1||_p^p = (2 pi)^(1-p) int_0^inf K1(s)^p s ds
    head, _ = quad(lambda s: scipy_k1(s) ** 1.5 * s, 0, 1, limit=300)
    tail, _ = quad(lambda s: scipy_k1(s) ** 1.5 * s, 1, 45, limit=200)
    exact = ((2 * math.pi) ** (-0.5) * (head + tail)) ** (1 / 1.5)
    assert norms32[0] < norms32[1] < norms32[2] < exact


def test_psi_field_unit_norm_and_positivity(params, grid128):
    psi = psi_alpha_field(params, grid128)
    assert abs(lp_norm(psi, 2) - 1.0) < 1e-12
    assert np.all(psi.values.real > 0)


def test_psi_field_absent_eigenvalue():
    # alpha = +inf, the free Laplacian, has no eigenvalue
    pinf = AlphaParams.for_alpha(math.inf)
    with pytest.raises(NoEigenfunctionError, match="alpha = inf has no eigenfunction"):
        psi_alpha_field(pinf, Grid(40.0, 128))


def test_projections_rank_one(params, grid128):
    psi = psi_alpha_field(params, grid128)
    assert lp_norm(project_d(psi, params) - psi, 2) < 1e-10
    assert lp_norm(psi - project_d(psi, params), 2) < 1e-10


def test_projections_idempotent_complementary(params, grid128, rng):
    f = Field(grid128, rng.standard_normal((128, 128)))
    pd = project_d(f, params)
    pac = f - project_d(f, params)
    assert lp_norm(project_d(pd, params) - pd, 2) < 1e-12 * max(lp_norm(pd, 2), 1e-30)
    assert lp_norm((pd + pac) - f, 2) < 1e-12 * lp_norm(f, 2)


def test_projections_keep_the_dtype(params, grid128, rng):
    # psi is real, so a real field's projections are float64 and a complex
    # field's complex128, each the real and imaginary parts' projections
    f = Field(grid128, rng.standard_normal((128, 128)))
    g = Field(grid128, rng.standard_normal((128, 128)))
    assert psi_alpha_field(params, grid128).values.dtype == np.float64
    for proj in (project_d, lambda f, params: f - project_d(f, params)):
        assert proj(f, params).values.dtype == np.float64
        both = proj(f + 1j * g, params)
        assert both.values.dtype == np.complex128
        expect = proj(f, params) + 1j * proj(g, params)
        assert lp_norm(both - expect, 2) <= 1e-14 * lp_norm(expect, 2)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_projection_lp_bound_with_constant(params, grid128, rng, p):
    psi = psi_alpha_field(params, grid128)
    pprime = p / (p - 1.0)
    const = 1.0 + lp_norm(psi, p) * lp_norm(psi, pprime)
    for _ in range(3):
        f = Field(grid128, rng.standard_normal((128, 128)))
        assert lp_norm(f - project_d(f, params), p) <= const * lp_norm(f, p) * (1 + 1e-12)


def test_projection_free_laplacian_alpha_inf(grid128):
    # alpha = +inf is the free Laplacian: no eigenvalue, P_d = 0, P_ac = I.
    # Its grid model is zero coupling: E = 0, no kernel and no eigenmode,
    # S(E) = 1 and omega = 1, built without the "exceeds the box" warning
    from pideq.semigroup import PointHeatModel

    assert eigenvalue(math.inf) is None
    pinf = AlphaParams.for_alpha(math.inf, 2)
    assert pinf.eigenvalue is None and pinf.psi_norm is None
    f = Field(grid128, np.random.default_rng(5).standard_normal((128, 128)))
    assert lp_norm(project_d(f, pinf), 2) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = PointHeatModel(pinf, grid128)
    assert (model.E, model.S_at_E, model.omega) == (0.0, 1.0, 1.0)
    for zero in (model.delta_hat, model.psi_bins, model._rank_one(model.green_bins)):
        assert not np.any(zero)


def test_projection_commutes_with_resolvent(params, grid128, rng):
    f = Field(grid128, rng.standard_normal((128, 128)))
    r = krein_resolvent(2.0, f, params)
    a = r - project_d(r, params)
    b = krein_resolvent(2.0, f - project_d(f, params), params)
    assert lp_norm(a - b, 2) <= 1e-8 * lp_norm(f, 2)


def test_h1_norm_special_cases(params, grid128):
    f = gaussian_field(grid128, sigma=1.0)
    u = DecomposedField(f, 0.0, params)
    from pideq import gradient

    gx, gy = gradient(f)
    plain = math.sqrt(lp_norm(f, 2) ** 2 + lp_norm(gx, 2) ** 2 + lp_norm(gy, 2) ** 2)
    assert abs(h1_alpha_norm(u) - plain) < 1e-12 * plain
    zero = Field(grid128, np.zeros((128, 128)))
    v = DecomposedField(zero, 1.0, params)
    assert abs(h1_alpha_norm(v) - 1.0) < 1e-14


def test_h1_norm_triangle_inequality(params, grid128, rng):
    for _ in range(3):
        a = DecomposedField(
            Field(grid128, rng.standard_normal((128, 128))), complex(*rng.standard_normal(2)), params
        )
        b = DecomposedField(
            Field(grid128, rng.standard_normal((128, 128))), complex(*rng.standard_normal(2)), params
        )
        ab = DecomposedField(a.regular + b.regular, a.coeff + b.coeff, params)
        assert h1_alpha_norm(ab) <= h1_alpha_norm(a) + h1_alpha_norm(b) + 1e-12


def test_sobolev_embedding_ratio_stable(params):
    # ||u||_q <= C(q) * h1-proxy with C stable under refinement
    for q in (2.0, 4.0, 8.0):
        ratios = []
        for n in (128, 256):
            grid = Grid(40.0, n)
            f = gaussian_field(grid, sigma=1.3, amplitude=0.7)
            u = DecomposedField(f, 0.35, params)
            from pideq import total_field

            tot = total_field(u)
            ratios.append(lp_norm(tot, q) / h1_alpha_norm(u))
        assert 0.75 < ratios[1] / ratios[0] < 1.3
