"""Resolvent algebra and contour-semigroup checks."""

import math
import tracemalloc

import numpy as np
import pytest

from pideq import (
    AlphaParams,
    ContourSpec,
    Field,
    backward_euler_oracle,
    gaussian_field,
    gradient,
    green_lp_norm,
    heat_free,
    inner_product,
    krein_resolvent,
    lp_norm,
    project_ac,
    psi_alpha_field,
    semigroup_full,
    semigroup_gradient_pac,
    semigroup_pac,
)
from pideq.errors import BranchCutError, ContourError, PoleError
from pideq.semigroup import _talbot_nodes, grid_model


def test_contour_spec_validation(params):
    ev = params.eigenvalue
    with pytest.raises(ContourError):
        ContourSpec(-0.1, 50.0)
    with pytest.raises(ContourError):
        ContourSpec(0.5, 0.2)
    with pytest.raises(ContourError):
        ContourSpec(0.5, 50.0, nodes_ray=16)
    spec = ContourSpec(ev * 1.5, 50.0)
    with pytest.raises(ContourError):
        spec.validate(params)


def test_contour_quadrature_scalar_oracle(params):
    # (1/2 pi i) oint e^{t lam} / (lam - z) d lam = e^{tz} inside, 0 outside
    spec = ContourSpec.for_time(params, 1.0)
    nodes, wts = spec.nodes()
    for z in (-1.0, -7.3, -0.02):
        val = np.sum(np.exp(nodes) / (nodes - z) * wts) / (2j * np.pi)
        assert abs(val - math.exp(z)) < 1e-7
    outside = np.sum(np.exp(nodes) / (nodes - params.eigenvalue) * wts) / (2j * np.pi)
    assert abs(outside) < 1e-7


def test_resolvent_identity(params, grid128, smooth_datum):
    lam, mu = 2.0, 5.0
    r1 = krein_resolvent(lam, smooth_datum, params)
    r2 = krein_resolvent(mu, smooth_datum, params)
    comp = krein_resolvent(lam, r2, params)
    resid = lp_norm(r1 - r2 - (mu - lam) * comp, 2) / lp_norm(smooth_datum, 2)
    assert resid < 1e-6


def test_resolvent_eigenvector(params, grid128):
    psi = psi_alpha_field(params, grid128)
    lam = params.eigenvalue + 1.0
    out = krein_resolvent(lam, psi, params)
    assert lp_norm(out - (1.0 / (lam - params.eigenvalue)) * psi, 2) < 1e-3


def test_resolvent_errors(params, smooth_datum):
    with pytest.raises(PoleError):
        krein_resolvent(params.eigenvalue, smooth_datum, params)
    with pytest.raises(BranchCutError):
        krein_resolvent(-3.0, smooth_datum, params)


def test_resolvent_free_laplacian_limit(grid128, smooth_datum):
    # the scalar Krein coefficient 1/(alpha + c) decays like 1/alpha
    from pideq import c_lambda

    c1 = abs(1.0 / (1.0 + c_lambda(2.0, 2)))
    c1000 = abs(1.0 / (1000.0 + c_lambda(2.0, 2)))
    assert c1000 < c1 / 500
    # grid level, within the box-resolvable alpha window: larger alpha means
    # a smaller rank-one correction on top of the free resolvent
    mult = np.fft.ifft2(np.fft.fft2(smooth_datum.values) / (2.0 + grid128.wavenumber_sq()))
    sizes = {}
    for alpha in (0.0, 0.4):
        out = krein_resolvent(2.0, smooth_datum, AlphaParams.for_alpha(alpha, 2))
        sizes[alpha] = float(np.sqrt(np.sum(np.abs(out.values - mult) ** 2)))
    assert sizes[0.4] < 0.5 * sizes[0.0]


def test_semigroup_time_domain(params, smooth_datum):
    with pytest.raises(ValueError):
        semigroup_pac(0.0, smooth_datum, params)
    with pytest.raises(ValueError):
        semigroup_pac(0.005, smooth_datum, params)


def test_semigroup_annihilates_eigenfunction(params, grid128):
    psi = psi_alpha_field(params, grid128)
    res = semigroup_pac(1.0, psi, params)
    assert lp_norm(res.field, 2) < 1e-6


def test_semigroup_eigenmode_growth(params, grid128):
    psi = psi_alpha_field(params, grid128)
    out = semigroup_full(1.0, psi, params)
    growth = math.exp(params.eigenvalue)
    assert lp_norm(out - growth * psi, 2) / growth < 1e-3


def test_semigroup_law(params, smooth_datum):
    one = semigroup_full(1.0, smooth_datum, params)
    half = semigroup_full(0.5, semigroup_full(0.5, smooth_datum, params), params)
    assert lp_norm(one - half, 2) <= 1e-3 * lp_norm(smooth_datum, 2)


def test_semigroup_strong_continuity(params, smooth_datum):
    errs = [
        lp_norm(semigroup_full(t, smooth_datum, params) - smooth_datum, 2)
        for t in (0.8, 0.4, 0.2, 0.1, 0.05)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_semigroup_projected_flow_invariance(params, grid128, smooth_datum):
    psi = psi_alpha_field(params, grid128)
    for t in (0.5, 1.0, 3.0):
        res = semigroup_pac(t, smooth_datum, params)
        assert abs(inner_product(res.field, psi)) <= 1e-8 * lp_norm(smooth_datum, 2)


def test_semigroup_real_output(params, smooth_datum):
    res = semigroup_pac(1.0, smooth_datum, params)
    assert res.imag_residue <= 1e-8


def test_contour_independence(params, grid256):
    g = gaussian_field(grid256, sigma=2.0)
    ev = params.eigenvalue
    trunc = max(50.0, 2 * ev)
    a = semigroup_pac(1.0, g, params, ContourSpec(ev / 2.0, trunc))
    b = semigroup_pac(1.0, g, params, ContourSpec(ev / 4.0, trunc))
    assert lp_norm(a.field - b.field, 2) <= 1e-6 * lp_norm(a.field, 2)


def test_arc_contribution_dominated_by_rays(params, grid128, smooth_datum):
    # the half-circle leg is majorized by the rays once the radius is small
    # (its weight shrinks linearly with the radius)
    model = grid_model(params, grid128)
    contour = ContourSpec(params.eigenvalue / 4.0, 50.0)
    ghat, _ = model.project_ac_hat(model.hat(smooth_datum))
    _, _, legs = model.correction_hat(1.0, ghat, contour, legs=True)
    lower, upper, arc = legs
    assert arc <= lower + upper


def test_talbot_cache_matches_direct_sum(params, grid128, smooth_datum):
    # the cached, binned kernel against the Talbot sum written out node by
    # node over the full lattice; interleaved step sizes catch a wrong key
    model = grid_model(params, grid128)
    ghat, _ = model.project_ac_hat(model.hat(smooth_datum))
    sigma, swts = _talbot_nodes(32)
    for dt in (0.02, 0.01, 0.02):
        ref = np.zeros_like(ghat)
        q_ref = 0.0 + 0.0j
        for lam, w in zip(sigma / dt, (swts / dt) * np.exp(sigma)):
            c = w * model.pair_green(ghat, lam) / model.denominator(lam)
            ref += c * model.delta_hat / (lam + model.xi2)
            q_ref += c
        corr, q = model.correction_talbot(dt, ghat)
        assert np.linalg.norm(corr - ref) <= 1e-13 * np.linalg.norm(ref)
        assert abs(q - q_ref) <= 1e-13 * abs(q_ref)


def test_correction_hat_chunk_invariance(params, grid128, smooth_datum):
    # chunks straddle the leg boundaries (256 ray nodes) for chunk = 7
    model = grid_model(params, grid128)
    contour = ContourSpec.for_time(params, 1.0)
    ghat, _ = model.project_ac_hat(model.hat(smooth_datum))
    size = contour.nodes()[0].size
    ref, q_ref, legs_ref = model.correction_hat(1.0, ghat, contour, chunk=size, legs=True)
    for chunk in (1, 7, 64):
        corr, q, legs = model.correction_hat(1.0, ghat, contour, chunk=chunk, legs=True)
        assert np.linalg.norm(corr - ref) <= 1e-13 * np.linalg.norm(ref)
        assert abs(q - q_ref) <= 1e-13 * abs(q_ref)
        assert np.allclose(legs, legs_ref, rtol=1e-13, atol=0.0)


def test_correction_hat_memory_bounded(params, grid256):
    # 2113 nodes x 5924 bins at t = 50: the full matrix alone is 200 MB
    model = grid_model(params, grid256)
    contour = ContourSpec.for_time(params, 50.0)
    g = gaussian_field(grid256, sigma=2.0)
    ghat, _ = model.project_ac_hat(model.hat(g))
    contour.nodes()
    tracemalloc.start()
    try:
        model.correction_hat(50.0, ghat, contour)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def test_holder_pairing_bound(params, grid128, smooth_datum):
    # Cauchy-Schwarz with the exact complex-argument kernel norm
    # ||G_lam||_2^2 = (pi/2 + atan(-Re lam / |Im lam|)) / (4 pi |Im lam|);
    # the |lam|^(-1/2) scaling form carries an absorbed arg-dependent
    # constant, sampled here to stay below 1.5 on the working contour
    model = grid_model(params, grid128)
    gac = project_ac(smooth_datum, params)
    ghat = model.hat(gac)
    gq = lp_norm(gac, 2)
    g1 = green_lp_norm(1.0, 2)

    def kernel_l2(lam):
        b, a = abs(lam.imag), -lam.real
        if b == 0.0:
            return math.sqrt(1.0 / (4 * math.pi * lam.real))
        return math.sqrt((math.pi / 2 + math.atan2(a, b)) / (4 * math.pi * b))

    contour = ContourSpec.for_time(params, 1.0)
    nodes, _ = contour.nodes()
    for lam in nodes[:: len(nodes) // 16]:
        pair = abs(model.pair_green(ghat, lam))
        assert pair <= gq * kernel_l2(lam) * 1.02
        assert pair <= 1.5 * abs(lam) ** (-0.5) * gq * g1


def test_semigroup_gradient_consistency(params, grid128, smooth_datum):
    from_field = gradient(semigroup_pac(1.0, smooth_datum, params).field)
    direct = semigroup_gradient_pac(1.0, smooth_datum, params)
    for a, b in zip(from_field, direct):
        assert lp_norm(a - b, 2) < 1e-4 * max(lp_norm(b, 2), 1e-30)


def test_semigroup_gradient_zero_and_3d(params, grid128):
    zero = Field(grid128, np.zeros((128, 128)))
    dx, dy = semigroup_gradient_pac(1.0, zero, params)
    assert lp_norm(dx, 2) == 0.0 and lp_norm(dy, 2) == 0.0
    p3 = AlphaParams.for_alpha(-1.0, 3)
    with pytest.raises(ValueError):
        semigroup_gradient_pac(1.0, zero, p3)


def test_backward_euler_first_order(params, grid256):
    g = gaussian_field(grid256, sigma=2.0)
    ref = semigroup_pac(1.0, g, params).field
    nref = lp_norm(ref, 2)
    e1 = lp_norm(backward_euler_oracle(1.0, g, params, 1000) - ref, 2) / nref
    e2 = lp_norm(backward_euler_oracle(1.0, g, params, 2000) - ref, 2) / nref
    assert e1 <= 1e-2
    assert 1.5 <= e1 / e2 <= 2.5


def test_backward_euler_preserves_projection(params, grid128, smooth_datum):
    psi = psi_alpha_field(params, grid128)
    out = backward_euler_oracle(1.0, smooth_datum, params, 50)
    assert abs(inner_product(out, psi)) <= 1e-8 * lp_norm(smooth_datum, 2)


def test_backward_euler_free_limit(params, grid128, smooth_datum):
    out = backward_euler_oracle(1.0, smooth_datum, params, 1000, correction=False)
    ref = heat_free(project_ac(smooth_datum, params), 1.0)
    assert lp_norm(out - ref, 2) <= 1e-2 * lp_norm(ref, 2)


def test_backward_euler_validation(params, smooth_datum):
    with pytest.raises(ValueError):
        backward_euler_oracle(1.0, smooth_datum, params, 5)
    with pytest.raises(ValueError):
        backward_euler_oracle(-1.0, smooth_datum, params, 100)


def test_resolvent_row_cache_matches_direct_formula(params, grid128, smooth_datum):
    # the cached row against the resolvent written out term by term;
    # interleaved lambdas (real and complex) catch a stale or wrongly keyed row
    model = grid_model(params, grid128)
    ghat = model.hat(smooth_datum)
    for lam in (2.0, 5.0, 2.0, 3.0 + 1.0j, 1000.0, 2.0):
        free = ghat / (lam + model.xi2)
        pair = model.wlat * np.sum(ghat * np.conj(model.delta_hat) / (lam + model.xi2))
        full = free + pair / model.denominator(lam) * model.delta_hat / (lam + model.xi2)
        for correction, ref in ((False, free), (True, full)):
            out = model.resolvent_hat(lam, ghat, correction=correction)
            assert np.linalg.norm(out - ref) <= 1e-14 * np.linalg.norm(ref)
        assert abs(model.pair_green(ghat, lam) - pair) <= 1e-14 * abs(pair)
    assert model._resolvent_row.cache_info().currsize <= 1


def test_regression_bands(params, grid128):
    # regression bands far inside the paper gate of pideq.verify (1e-6, 1e-3,
    # 1e-3): the grid resolvent is exact rank-one algebra, so a loss of
    # accuracy in the kernels shows here long before the gate moves
    g = gaussian_field(grid128, sigma=2.0)
    lam, mu = 2.0, 5.0
    r_lam = krein_resolvent(lam, g, params)
    r_mu = krein_resolvent(mu, g, params)
    comp = krein_resolvent(lam, r_mu, params)
    assert lp_norm(r_lam - r_mu - (mu - lam) * comp, 2) <= 1e-13 * lp_norm(g, 2)
    psi = psi_alpha_field(params, grid128)
    shift = params.eigenvalue + 1.0
    r_psi = krein_resolvent(shift, psi, params)
    assert lp_norm(r_psi - (1.0 / (shift - params.eigenvalue)) * psi, 2) <= 1e-13
    one = semigroup_full(1.0, g, params)
    half = semigroup_full(0.5, semigroup_full(0.5, g, params), params)
    assert lp_norm(one - half, 2) <= 1e-7 * lp_norm(g, 2)
