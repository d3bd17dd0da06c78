"""Resolvent algebra and contour-semigroup checks."""

import importlib
import inspect
import itertools
import math
import pkgutil
import tracemalloc
import warnings

import numpy as np
import pytest

import pideq
from pideq import (
    AlphaParams,
    ContourSpec,
    Field,
    Grid,
    backward_euler_oracle,
    gaussian_field,
    gradient,
    green_lp_norm,
    inner_product,
    krein_resolvent,
    lp_norm,
    project_d,
    psi_alpha_field,
    semigroup_full,
    semigroup_gradient_pac,
    semigroup_pac,
)
from pideq import decay, verify
from pideq.errors import BranchCutError, ContourError, PoleError
from pideq.fields import _from_parts, _real_parts
from pideq.semigroup import (
    CHUNK,
    MIN_TIME,
    ROW_RANGE,
    Flow,
    _dot,
    _gauss_legendre,
    _talbot_nodes,
    grid_model,
)
from pideq.spectral import _h1_proxy_hat, green_field

FREE = AlphaParams(math.inf)
"""The free Laplacian, alpha = +inf: the grid model's zero coupling."""


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


def test_contour_for_time_needs_an_eigenvalue():
    # alpha = +inf, the free Laplacian, has no eigenvalue to size the arc by
    with pytest.raises(ContourError, match="contour requires a positive point eigenvalue"):
        ContourSpec.for_time(FREE, 1.0)


def test_contour_quadrature_scalar_oracle(params):
    # (1/2 pi i) oint e^{t lam} / (lam - z) d lam = e^{tz} inside, 0 outside
    spec = ContourSpec.for_time(params, 1.0)
    nodes, wts = spec.nodes()
    for z in (-1.0, -7.3, -0.02):
        val = np.sum(np.exp(nodes) / (nodes - z) * wts) / (2j * np.pi)
        assert abs(val - math.exp(z)) < 1e-7
    outside = np.sum(np.exp(nodes) / (nodes - params.eigenvalue) * wts) / (2j * np.pi)
    assert abs(outside) < 1e-7


class _FullLattice:
    """The grid operator written out on the full n x n lattice of np.fft.fft2, as a reference.

    delta_hat = (E + |xi|^2) fft2(G_E), psi_hat = fft2(G_E)/||G_E||, and
    D(lambda) = S(E) - S(lambda) with S(nu) = wlat sum |delta_hat|^2/(nu + |xi|^2),
    every sum taken over the whole lattice.
    """

    def __init__(self, params, grid):
        self.grid = grid
        self.E = params.eigenvalue
        self.xi2 = grid.wavenumber_sq()
        self.wlat = grid.cell_area / grid.n ** 2
        green = green_field(self.E, grid)
        ghat = np.fft.fft2(green.values.real)
        self.delta_hat = (self.E + self.xi2) * ghat
        self.psi_hat = ghat / lp_norm(green, 2)
        self.S_at_E = self._lattice_sum(self.E)

    def _lattice_sum(self, nu):
        return self.wlat * np.sum(np.abs(self.delta_hat) ** 2 / (nu + self.xi2))

    def denominator(self, lam):
        return self.S_at_E - self._lattice_sum(lam)

    def project(self, ghat):
        return ghat - self.wlat * np.vdot(self.psi_hat, ghat) * self.psi_hat

    def rank_one(self, nodes, weights, ghat):
        """sum_k w_k <g, G_{conj lambda_k}>/D(lambda_k) G_{lambda_k}, node by node."""
        out = np.zeros_like(ghat, dtype=np.complex128)
        for lam, w in zip(nodes, weights):
            pair = self.wlat * np.vdot(self.delta_hat, ghat / (lam + self.xi2))
            out += w * pair / self.denominator(lam) * self.delta_hat / (lam + self.xi2)
        return out


def _half(full_hat):
    """The rfft2 half spectrum of a real field given by its full transform."""
    return np.ascontiguousarray(full_hat[:, : full_hat.shape[0] // 2 + 1])


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
    for bad in (math.nan, math.inf, -math.inf, complex(1.0, math.inf), complex(math.nan, 1.0)):
        with pytest.raises(ValueError, match="lambda must be finite"):
            krein_resolvent(bad, smooth_datum, params)


def test_resolvent_free_laplacian_limit(grid128, smooth_datum):
    # the scalar Krein coefficient 1/(alpha + c) decays like 1/alpha
    from pideq import c_lambda

    c1 = abs(1.0 / (1.0 + c_lambda(2.0)))
    c1000 = abs(1.0 / (1000.0 + c_lambda(2.0)))
    assert c1000 < c1 / 500
    # grid level, within the box-resolvable alpha window: larger alpha means
    # a smaller rank-one correction on top of the free resolvent
    mult = np.fft.ifft2(np.fft.fft2(smooth_datum.values) / (2.0 + grid128.wavenumber_sq()))
    sizes = {}
    for alpha in (0.0, 0.4):
        out = krein_resolvent(2.0, smooth_datum, AlphaParams.for_alpha(alpha, 2))
        sizes[alpha] = float(np.sqrt(np.sum(np.abs(out.values - mult) ** 2)))
    assert sizes[0.4] < 0.5 * sizes[0.0]
    # alpha = +inf, the free Laplacian: no correction at all
    out = krein_resolvent(2.0, smooth_datum, FREE)
    assert np.abs(out.values - mult.real).max() <= 1e-15 * np.abs(mult).max()


def test_semigroup_time_domain(params, smooth_datum):
    with pytest.raises(ValueError):
        semigroup_pac(0.0, smooth_datum, params)
    # the floor is where the Talbot nodes and weights leave the doubles;
    # times down to it are exact (test_semigroup_exact_at_short_times)
    with pytest.raises(ValueError, match="below the supported minimum"):
        semigroup_pac(MIN_TIME / 2, smooth_datum, params)
    for fn in (semigroup_pac, semigroup_full, semigroup_gradient_pac):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{fn.__name__} requires a finite t"):
                fn(bad, smooth_datum, params)


def test_gradient_flow_takes_no_contour():
    # the gradient and the full flow always run the Talbot rule; semigroup_pac
    # keeps contour= for the cut-hugging cross-check, and a cut-hugging full
    # flow is Flow(model, t, full=True, contour=...)
    for fn in (semigroup_gradient_pac, semigroup_full):
        assert list(inspect.signature(fn).parameters) == ["t", "g", "params"]


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


def test_semigroup_default_matches_oracle_at_short_times():
    # the default flow against 2 BE(8000) - BE(4000), the Richardson
    # extrapolation of the backward-Euler oracle, which uses no contour code;
    # the cut-hugging contour is off by 1.0e-2 and 3.1e-2 here
    params = AlphaParams.for_alpha(0.2, 2)
    grid = Grid(40.0, 128)
    g = gaussian_field(grid, sigma=2.0)
    for t in (0.02, 0.3):
        ref = 2.0 * backward_euler_oracle(t, g, params, 8000) - backward_euler_oracle(
            t, g, params, 4000
        )
        err = lp_norm(semigroup_pac(t, g, params).field - ref, 2) / lp_norm(ref, 2)
        assert err <= 1e-7


@pytest.mark.parametrize("alpha", [-0.1, 0.0, 0.2, math.inf])
def test_semigroup_exact_at_short_times(alpha):
    # at short times the Talbot flow is as exact as at t >= 1e-2: the law
    # to rounding, and 2 BE(4000) - BE(2000) to 1.4e-11 (5e-13 from
    # t = 1e-4 down, the oracle's own rounding)
    params = AlphaParams(alpha) if alpha == math.inf else AlphaParams.for_alpha(alpha, 2)
    g = gaussian_field(Grid(40.0, 128), sigma=2.0)
    gnorm = lp_norm(g, 2)
    for t in (1e-8, 1e-6, 1e-4, 1e-2):
        half = semigroup_full(t / 2, semigroup_full(t / 2, g, params), params)
        assert lp_norm(semigroup_full(t, g, params) - half, 2) <= 1e-14 * gnorm
        ref = 2.0 * backward_euler_oracle(t, g, params, 4000) - backward_euler_oracle(
            t, g, params, 2000
        )
        assert lp_norm(semigroup_pac(t, g, params).field - ref, 2) <= 1e-10 * lp_norm(ref, 2)


@pytest.mark.filterwarnings("ignore:eigenfunction scale")
@pytest.mark.parametrize(
    "alpha, grid",
    [(math.inf, Grid(40.0, 64)), (0.0, Grid(40.0, 64)), (-0.5, Grid(1000.0, 256))],
)
def test_semigroup_floor_is_the_limit_of_the_doubles(alpha, grid):
    # at its floor a flow is finite and equals its t -> 0 limit to rounding:
    # P_ac g, and g for the full flow.  The floor is MIN_TIME over S(E) when
    # S(E) < 1 (9.4e-124 for the last model, whose floor is 7.2e-184)
    params = AlphaParams(alpha) if alpha == math.inf else AlphaParams.for_alpha(alpha, 2)
    model = grid_model(params, grid)
    floor = MIN_TIME / min(1.0, model.S_at_E)
    g = gaussian_field(grid, sigma=2.0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        projected = semigroup_pac(floor, g, params).field
        full = semigroup_full(floor, g, params)
    gnorm = lp_norm(g, 2)
    assert lp_norm(projected - (g - project_d(g, params)), 2) <= 1e-15 * gnorm
    assert lp_norm(full - g, 2) <= 1e-15 * gnorm
    with pytest.raises(ValueError, match="below the supported minimum"):
        semigroup_full(floor * (1.0 - 1e-9), g, params)


@pytest.mark.filterwarnings("ignore:eigenfunction scale")
@pytest.mark.parametrize(
    "alpha, grid",
    [(math.inf, Grid(40.0, 64)), (0.0, Grid(40.0, 64)), (0.2, Grid(40.0, 128))],
)
def test_semigroup_ceiling_is_the_limit_of_the_doubles(alpha, grid):
    # at its ceiling a flow is finite and equals its t -> infinity lattice
    # limit to rounding: 0 at finite alpha, where the coupling moves the free
    # zero mode's eigenvalue below 0, and the mean at alpha = +inf, the free
    # Laplacian.  The ceiling is TALBOT_REACH / rho_max (1.4e150 at n = 64);
    # just above it every flow, and a decay fit reaching it, raise
    params = AlphaParams(alpha) if alpha == math.inf else AlphaParams.for_alpha(alpha, 2)
    model = grid_model(params, grid)
    top = model.max_time
    g = gaussian_field(grid, sigma=2.0)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        projected = semigroup_pac(top, g, params).field
    limit = g.values.mean() if alpha == math.inf else 0.0
    gnorm = lp_norm(g, 2)
    assert lp_norm(projected - Field(grid, np.full_like(g.values, limit)), 2) <= 1e-14 * gnorm
    with pytest.raises(ValueError, match="above the supported maximum"):
        semigroup_pac(top * (1.0 + 1e-9), g, params)
    with pytest.raises(ValueError, match="above the supported maximum"):
        decay.run_semigroup_decay(grid, q=2, p=4, alpha=alpha, t_grid=[1, 2, 4, 8, 2 * top])


def test_contour_radius_floor_is_the_row_range(params):
    # a cut-hugging rule's rows have range at most 2 + 2 rho_max / epsilon,
    # so a radius below 2 rho_max / ROW_RANGE is rejected, with its bound
    model = grid_model(params, Grid(40.0, 64))
    floor = 2.0 * model.rho[-1] / ROW_RANGE
    Flow(model, 1.0, contour=ContourSpec(floor, 50.0))
    with pytest.raises(ContourError, match=f"below the supported minimum {floor:.3g}"):
        Flow(model, 1.0, contour=ContourSpec(floor / 2.0, 50.0))


def test_resolvent_planes_match_the_complex_reciprocal(params, grid128):
    # each block's two real planes give 1/(lambda + rho) = f0 P0 + i f1 P1
    # to 4e-16 of each row's largest modulus, with no overflow, invalid
    # value or division by zero, over the whole range of the Talbot rule
    # (its floor to its ceiling), two cut-hugging rules and the resolvent's
    # one-node rule at real and complex lambda
    model = grid_model(params, grid128)
    floor = MIN_TIME / min(1.0, model.S_at_E)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        flows = [Flow(model, t) for t in (floor, 1e-8, 1.0, 50.0, model.max_time)]
        flows += [Flow(model, t, contour=ContourSpec.for_time(params, t)) for t in (1.0, 50.0)]
        rules = [(flow.nodes, flow.weights) for flow in flows]
        rules += [(np.array([lam]), np.ones(1)) for lam in (2.0, 2.0 + 1.0j, -3.0 + 1e-3j)]
        for nodes, weights in rules:
            lo = 0
            for planes, factors, _ in model._node_chunks(nodes, weights, CHUNK):
                lam = nodes[lo:lo + factors.shape[1], None]
                lo += factors.shape[1]
                rows = factors[0, :, None] * planes[0] + 1j * (factors[1, :, None] * planes[1])
                ref = np.reciprocal(lam + model.rho)
                err = np.abs(rows - ref).max(axis=1) / np.abs(ref).max(axis=1)
                assert err.max() <= 4e-16
            assert lo == nodes.size


def test_verify_raises_no_floating_point_warning():
    # every kernel stays in the doubles: with warnings as errors, an
    # overflow or invalid value in the resolvent rows would fail a check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = verify.run_checks(Grid(40.0, 64))
    assert [r.detail for r in results if not r.passed] == []


def test_gauss_legendre_rule_is_symmetric_and_matches_leggauss():
    # the Golub-Welsch rule against numpy.polynomial's: nodes to rounding,
    # weights to 1e-10 relative (the eigenvectors' small end components),
    # and mirror-symmetric to the bit, which _fold's conjugate pairs need
    for num in (8, 64, 65, 90, 256):
        x, w = _gauss_legendre(num)
        xr, wr = np.polynomial.legendre.leggauss(num)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.abs(x - xr).max() <= 4e-16
        assert np.abs(w / wr - 1.0).max() <= 1e-10
        assert abs(w.sum() - 2.0) <= 1e-14


def test_talbot_cache_matches_direct_sum(params, grid128, smooth_datum):
    # a flow's binned Talbot kernel against the Talbot sum written out node
    # by node over the full lattice, at interleaved step sizes
    model = grid_model(params, grid128)
    ref = _FullLattice(params, grid128)
    gfull = ref.project(np.fft.fft2(smooth_datum.values.real))
    ghalf = _half(gfull)
    sigma, swts = _talbot_nodes(32)
    for dt in (0.02, 0.01, 0.02):
        direct = _half(ref.rank_one(sigma / dt, (swts / dt) * np.exp(sigma), gfull))
        flow = Flow(model, dt)
        corr = flow.apply(ghalf) - flow.heat * ghalf
        assert np.linalg.norm(corr - direct) <= 1e-13 * np.linalg.norm(direct)


def test_contour_flow_matches_direct_sum(params, grid128):
    # an explicit-contour flow's binned kernel against the cut-hugging sum
    # written out node by node over the full lattice
    model = grid_model(params, grid128)
    ref = _FullLattice(params, grid128)
    g = gaussian_field(grid128, sigma=2.0)
    gfull = ref.project(np.fft.fft2(g.values.real))
    ghalf = _half(gfull)
    t = 1.0
    contour = ContourSpec.for_time(params, t)
    nodes, wts = contour.nodes()
    weights = wts * np.exp(t * nodes) / (2j * np.pi)
    direct = _half(ref.rank_one(nodes, weights, gfull))
    flow = Flow(model, t, contour=contour)
    corr = flow.apply(ghalf) - flow.heat * ghalf
    assert np.linalg.norm(corr - direct) <= 1e-12 * np.linalg.norm(direct)


def test_cut_hugging_flow_matches_talbot_on_coarse_grid(params):
    # at n = 64 the t = 1 contour's truncation (50) exceeds 3 rho_max (37.9):
    # with its plain weights the flow matches the Talbot flow to 2.9e-13,
    # where subtracting the t = 0 moment left a 1.4e-4 gap
    grid = Grid(40.0, 64)
    spec = ContourSpec.for_time(params, 1.0)
    assert spec.truncation >= 3.0 * grid_model(params, grid).rho[-1]
    g = gaussian_field(grid, sigma=2.0)
    talbot = semigroup_pac(1.0, g, params).field
    contour = semigroup_pac(1.0, g, params, spec).field
    assert lp_norm(contour - talbot, 2) <= 1e-10 * lp_norm(talbot, 2)


def test_correction_chunk_invariance(params, grid128, smooth_datum):
    # chunks straddle the leg boundaries (256 ray nodes) for chunk = 7
    model = grid_model(params, grid128)
    contour = ContourSpec.for_time(params, 1.0)
    ghat, _ = model.project_ac_hat(np.fft.rfft2(smooth_datum.values.real))
    nodes, wts = contour.nodes()
    weights = wts * np.exp(nodes) / (2j * np.pi)
    bpair = model._bin_pair(ghat)
    ref = model.correction(bpair, model._node_chunks(nodes, weights, nodes.size))
    for chunk in (1, 7, 64):
        corr = model.correction(bpair, model._node_chunks(nodes, weights, chunk))
        assert np.linalg.norm(corr - ref) <= 1e-13 * np.linalg.norm(ref)


def _traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_flow_apply_memory_bounded(params, grid256):
    # 2113 nodes x 5924 bins at t = 50: the full matrix alone is 200 MB, and
    # one block of CHUNK = 16 folded nodes is 1.5 MB, refilled in place
    model = grid_model(params, grid256)
    flow = Flow(model, 50.0, contour=ContourSpec.for_time(params, 50.0))
    assert CHUNK == 16 and flow._chunks is None
    g = gaussian_field(grid256, sigma=2.0)
    ghat = np.fft.rfft2(g.values.real)
    assert _traced_peak(lambda: flow.apply(ghat)) <= 8e6


def test_contour_check_memory_bounded(params, grid256):
    # verify's contour check runs two cut-hugging rules of 289 folded nodes,
    # each through one reused block; its traced peak is about 6.4 MB once the
    # untraced first call has built the grid model
    ok, _ = verify.check_contour_independence(grid256)
    assert ok
    assert _traced_peak(lambda: verify.check_contour_independence(grid256)) <= 8e6


def test_flow_rows_not_aliased(params):
    # every _node_chunks call fills its own buffer: two Talbot flows keep
    # disjoint rows, and a multi-block rule applied in between leaves them alone
    model = grid_model(params, Grid(40.0, 64))
    ghat = np.fft.rfft2(gaussian_field(model.grid, sigma=2.0).values.real)
    a, b = Flow(model, 0.5), Flow(model, 2.0)
    (rows_a, *_), = a._chunks
    (rows_b, *_), = b._chunks
    assert not np.shares_memory(rows_a, rows_b)
    before = a.apply(ghat)
    long = Flow(model, 1.0, contour=ContourSpec.for_time(params, 1.0))
    assert long._chunks is None and long.nodes.size > 2 * CHUNK
    long.apply(ghat)
    b.apply(ghat)
    assert np.array_equal(a.apply(ghat), before)


def test_flow_apply_takes_a_held_pairing(params, grid128, smooth_datum):
    # a caller that flows one datum to many times pairs it once (the decay
    # fits): the held pairing gives the same output to the bit and is left alone
    model = grid_model(params, grid128)
    ghat = np.fft.rfft2(smooth_datum.values.real)
    pair = model._bin_pair(ghat)
    kept = pair.copy()
    for t in (0.5, 2.0):
        flow = Flow(model, t)
        assert np.array_equal(flow.apply(ghat, _pair=pair), flow.apply(ghat))
    assert np.array_equal(pair, kept)


def test_decay_fit_flows_own_their_arrays(monkeypatch):
    # a linear decay fit builds one plain flow per time: no two share their
    # heat multiplier, rows or temporary, so the first flow, applied after
    # the fit, still gives what a fresh flow at its time gives
    built = []

    def record(*args, **kwargs):
        built.append(Flow(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(decay, "Flow", record)
    decay.run_semigroup_decay(Grid(40.0, 64), q=2, p=4, t_grid=[1, 2, 4, 8, 16])
    assert [flow.t for flow in built] == [1, 2, 4, 8, 16]
    owned = [(flow.heat, flow._chunks[0][0], flow._work) for flow in built]
    for one, other in itertools.combinations(owned, 2):
        assert not any(np.shares_memory(x, y) for x in one for y in other)
    first = built[0]
    ghat = np.fft.rfft2(gaussian_field(first.model.grid, sigma=2.0).values.real)
    assert np.array_equal(first.apply(ghat), Flow(first.model, 1.0).apply(ghat))


def test_holder_pairing_bound(params, grid128, smooth_datum):
    # Cauchy-Schwarz with the exact complex-argument kernel norm
    # ||G_lam||_2^2 = (pi/2 + atan(-Re lam / |Im lam|)) / (4 pi |Im lam|);
    # the |lam|^(-1/2) scaling form carries an absorbed arg-dependent
    # constant, sampled here to stay below 1.5 on the working contour
    ref = _FullLattice(params, grid128)
    gac = smooth_datum - project_d(smooth_datum, params)
    ghat = np.fft.fft2(gac.values)
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
        pair = abs(ref.wlat * np.vdot(ref.delta_hat, ghat / (lam + ref.xi2)))
        assert pair <= gq * kernel_l2(lam) * 1.02
        assert pair <= 1.5 * abs(lam) ** (-0.5) * gq * g1


def test_semigroup_gradient_consistency(params, grid128, smooth_datum):
    from_field = gradient(semigroup_pac(1.0, smooth_datum, params).field)
    direct = semigroup_gradient_pac(1.0, smooth_datum, params)
    for a, b in zip(from_field, direct):
        assert lp_norm(a - b, 2) < 1e-4 * max(lp_norm(b, 2), 1e-30)


def test_semigroup_gradient_zero_and_3d(params, grid128):
    # the gradient of the zero datum is zero (the package is planar: the
    # 3-D half of this test left with the 3-D parameter sets)
    zero = Field(grid128, np.zeros((128, 128)))
    dx, dy = semigroup_gradient_pac(1.0, zero, params)
    assert lp_norm(dx, 2) == 0.0 and lp_norm(dy, 2) == 0.0


def test_backward_euler_first_order(params, grid256):
    g = gaussian_field(grid256, sigma=2.0)
    ref = semigroup_pac(1.0, g, params).field
    nref = lp_norm(ref, 2)
    e1 = lp_norm(backward_euler_oracle(1.0, g, params, 1000) - ref, 2) / nref
    e2 = lp_norm(backward_euler_oracle(1.0, g, params, 2000) - ref, 2) / nref
    assert e1 <= 1e-2
    assert 1.5 <= e1 / e2 <= 2.5


def test_free_laplacian_flows_are_the_heat_multiplier(grid128):
    # at alpha = +inf the projected and the full flow are exp(-t |xi|^2),
    # through the same flow as at finite alpha, with a zero correction
    g = gaussian_field(grid128, sigma=1.5, center=(1.0, 0.5))
    ghat = np.fft.rfft2(g.values)
    xi2 = grid128.wavenumber_sq()[:, :65]
    for t in (0.05, 1.0, 10.0):
        heat = np.fft.irfft2(np.exp(-t * xi2) * ghat, s=(128, 128))
        res = semigroup_pac(t, g, FREE)
        assert res.correction_norm == 0.0
        for out in (res.field, semigroup_full(t, g, FREE)):
            assert np.abs(out.values - heat).max() <= 1e-15 * np.abs(heat).max()


def test_backward_euler_converges_to_the_free_flow_at_first_order(grid128):
    # the oracle's error to the alpha = +inf flow halves with each doubling
    # of the step count (2.2e-3, 1.1e-3 and 5.5e-4 at 100, 200 and 400)
    g = gaussian_field(grid128, sigma=1.5, center=(1.0, 0.5))
    ref = semigroup_pac(1.0, g, FREE).field
    errs = [
        lp_norm(backward_euler_oracle(1.0, g, FREE, steps) - ref, 2) / lp_norm(ref, 2)
        for steps in (100, 200, 400)
    ]
    assert errs[0] <= 5e-3
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.9 <= coarse / fine <= 2.1
    # no eigenvalue, so no shift to step around: lambda = 1e-9 (t = 1e10)
    # once bumped the step count with a "hit the eigenvalue" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backward_euler_oracle(1e10, g, FREE, 10)


def test_linear_layer_scale_covariance():
    # The model on Grid(L, n) at alpha is the model on Grid(sL, n) at
    # alpha + log(s)/(2 pi) (+inf stays +inf) with every time multiplied by
    # s^2: E, |xi|^2 and delta_hat scale by s^-2 and the K0(sqrt(E) r)
    # samples are the same numbers.  The scaled datum u(y/s) is the same
    # array on the scaled grid.  A gradient scales by 1/s and a resolvent
    # R(lambda) becomes s^2 R(lambda/s^2).
    s, base, scaled = 3.0, Grid(40.0, 128), Grid(120.0, 128)
    g = gaussian_field(base, sigma=1.5, center=(1.0, 0.5))
    gs = Field(scaled, g.values)

    def assert_same(a, b, factor=1.0):
        assert np.linalg.norm(factor * a.values - b.values) <= 1e-12 * np.linalg.norm(b.values)

    for alpha in (0.0, 0.2, math.inf):
        p, ps = AlphaParams(alpha), AlphaParams(alpha + math.log(s) / (2.0 * math.pi))
        for t in (0.05, 1.0):
            assert_same(semigroup_pac(s * s * t, gs, ps).field, semigroup_pac(t, g, p).field)
            for d_s, d in zip(
                semigroup_gradient_pac(s * s * t, gs, ps), semigroup_gradient_pac(t, g, p)
            ):
                assert_same(d_s, d, s)
        for lam in (2.0, 1.0 + 2.0j):
            assert_same(krein_resolvent(lam / (s * s), gs, ps), krein_resolvent(lam, g, p), 1 / s**2)
        assert_same(backward_euler_oracle(s * s, gs, ps, 20), backward_euler_oracle(1.0, g, p, 20))


def test_backward_euler_preserves_projection(params, grid128, smooth_datum):
    psi = psi_alpha_field(params, grid128)
    out = backward_euler_oracle(1.0, smooth_datum, params, 50)
    assert abs(inner_product(out, psi)) <= 1e-8 * lp_norm(smooth_datum, 2)


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("t, steps", [(1.0, 10), (1.0, 100), (0.3, 400)])
def test_backward_euler_matches_lattice_recurrence(alpha, t, steps):
    # the bin-coordinate oracle against u <- lam (u r + <u, G_lam>/D(lam) delta_hat r)
    # written out over the full lattice, r = 1/(lam + |xi|^2)
    params = AlphaParams.for_alpha(alpha, 2)
    grid = Grid(40.0, 128)
    g = gaussian_field(grid, sigma=2.0)
    ref = _FullLattice(params, grid)
    lam = steps / t
    r = 1.0 / (lam + ref.xi2)
    green = ref.delta_hat * r
    denom = ref.denominator(lam)
    uhat = ref.project(np.fft.fft2(g.values))
    for _ in range(steps):
        uhat = lam * (uhat * r + (ref.wlat * np.vdot(green, uhat) / denom) * green)
    expect = Field(grid, np.fft.ifft2(uhat))
    out = backward_euler_oracle(t, g, params, steps)
    assert lp_norm(out - expect, 2) <= 1e-13 * lp_norm(expect, 2)


def _seven_op_oracle(t, g, params, steps):
    # the bin-space oracle as it stepped before the stacked recurrence: per
    # step, v = s v + (coef r . (p + |delta|^2_bins v)) r and p = s p
    model = grid_model(params, g.grid)
    lam = steps / t
    r = 1.0 / (lam + model.rho)
    s = lam / (lam + model.rho)
    coef = lam * model.wlat / model.denominator(lam)
    uhat, _ = model.project_ac_hat(np.fft.rfft2(g.values.real))
    p = model._bin_pair(uhat)
    v = np.zeros_like(p)
    for _ in range(steps):
        v = s * v + (coef * np.dot(r, p + model.delta_sq_bins * v)) * r
        p = s * p
    out = (lam / (lam + model.xi2)) ** steps * uhat + model.delta_hat * np.take(
        v, model.bin_index
    )
    return Field(g.grid, np.fft.irfft2(out))


def _stepwise_oracle(t, g, params, steps):
    # the bin-space oracle one Python step at a time, as it ran before the
    # blocks: sigma = w . [p; y], then [p; y] *= [s; s] and y += sigma
    model = grid_model(params, g.grid)
    bins = model.rho.size
    lam = steps / t
    r = 1.0 / (lam + model.rho)
    coef = lam * model.wlat / model.denominator(lam)
    w = coef * np.concatenate([r, r * r * model.delta_sq_bins])
    ss = np.tile(lam / (lam + model.rho), 2)
    free = (lam / (lam + model.xi2)) ** steps
    outs = []
    for ghat in _real_parts(g.values):
        uhat, _ = model.project_ac_hat(ghat)
        z = np.zeros(2 * bins)
        z[:bins] = model._bin_pair(uhat)
        y = z[bins:]
        for _ in range(steps):
            sigma = w @ z
            z *= ss
            y += sigma
        outs.append(free * uhat + model.delta_hat * np.take(r * y, model.bin_index))
    return _from_parts(g.grid, *outs)


@pytest.mark.parametrize("alpha", [0.0, 0.2, math.inf])
@pytest.mark.parametrize("steps", [10, 17, 1000, 1013])
def test_backward_euler_blocks_match_the_stepwise_loop(alpha, steps):
    # whole blocks of 16 steps, a partial last block (17, 1013) and a lone
    # partial block (10), on a real and on a complex datum
    params = AlphaParams(alpha) if alpha == math.inf else AlphaParams.for_alpha(alpha, 2)
    grid = Grid(40.0, 64)
    g = gaussian_field(grid, sigma=2.0)
    for datum in (g, g + 1j * gaussian_field(grid, sigma=1.0, center=(1.0, -0.5))):
        for t in (1.0, 0.02):
            expect = _stepwise_oracle(t, datum, params, steps)
            out = backward_euler_oracle(t, datum, params, steps)
            assert lp_norm(out - expect, 2) <= 1e-13 * lp_norm(expect, 2)


@pytest.mark.parametrize("steps", [10, 1000])
def test_backward_euler_stacked_recurrence_matches_seven_op_loop(params, steps):
    g = gaussian_field(Grid(40.0, 64), sigma=2.0)
    expect = _seven_op_oracle(1.0, g, params, steps)
    out = backward_euler_oracle(1.0, g, params, steps)
    assert lp_norm(out - expect, 2) <= 1e-12 * lp_norm(expect, 2)


def test_backward_euler_validation(params, smooth_datum):
    with pytest.raises(ValueError):
        backward_euler_oracle(1.0, smooth_datum, params, 5)
    for bad in (10.5, 100.0, True, "100", None, 9, -10):
        with pytest.raises(ValueError, match="backward_euler_oracle requires an integer steps"):
            backward_euler_oracle(1.0, smooth_datum, params, bad)
    backward_euler_oracle(1.0, smooth_datum, params, np.int64(10))
    with pytest.raises(ValueError):
        backward_euler_oracle(-1.0, smooth_datum, params, 100)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="backward_euler_oracle requires a finite t"):
            backward_euler_oracle(bad, smooth_datum, params, 100)


def test_resolvent_matches_direct_formula(params, grid128, smooth_datum):
    # the one-node rule against the resolvent written out term by term over
    # the full lattice, at interleaved real and complex lambdas: at complex
    # lambda R(lambda) g is complex, and resolvent_hat returns the half
    # spectra of its real and imaginary parts
    model = grid_model(params, grid128)
    ref = _FullLattice(params, grid128)
    gfull = np.fft.fft2(smooth_datum.values.real)
    ghalf = np.fft.rfft2(smooth_datum.values.real)
    for lam in (2.0, 5.0, 2.0, 3.0 + 1.0j, 1000.0, 2.0, -1.0 + 0.5j):
        free = gfull / (lam + ref.xi2)
        pair = ref.wlat * np.sum(gfull * np.conj(ref.delta_hat) / (lam + ref.xi2))
        full = free + pair / ref.denominator(lam) * ref.delta_hat / (lam + ref.xi2)
        expect = np.fft.ifft2(full)
        re, im = model.resolvent_hat(lam, ghalf)
        assert (im is None) == (complex(lam).imag == 0.0)
        out = np.fft.irfft2(re) + (0.0 if im is None else 1j * np.fft.irfft2(im))
        assert np.linalg.norm(out - expect) <= 1e-14 * np.linalg.norm(expect)


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


def _half_and_full(alpha, seed, edges=False):
    """Grid model at alpha on Grid(40, 128), a random real field's rfft2 and fft2.

    With ``edges`` the field also holds a part constant along x2 and a part
    alternating along x2, whose energy sits in rfft2 column 0 and in the
    Nyquist column, the two columns of Hermitian weight 1.
    """
    grid = Grid(40.0, 128)
    model = grid_model(AlphaParams.for_alpha(alpha, 2), grid)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n, grid.n))
    if edges:
        alternating = (-1.0) ** np.arange(grid.n)
        vals += 10.0 * rng.standard_normal((grid.n, 1))
        vals += 10.0 * rng.standard_normal((grid.n, 1)) * alternating
    return model, np.fft.rfft2(vals), np.fft.fft2(vals)


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


def _full_bin_pair(ref, gfull):
    """Bin sums of gfull conj(delta_hat) over the full lattice's integer |k|^2, by np.bincount."""
    n = ref.grid.n
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    ksq = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    _, index = np.unique(ksq, return_inverse=True)
    prod = (gfull * np.conj(ref.delta_hat)).ravel()
    return np.bincount(index, weights=prod.real) + 1j * np.bincount(index, weights=prod.imag)


@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_half_spectrum_pairings_match_full_lattice(alpha):
    # Hermitian-weighted pairings on the half spectrum against the pairings
    # written out over the full lattice, for a field whose energy is spread
    # over the lattice and for one with most of it in column 0 and the
    # Nyquist column
    for edges in (False, True):
        model, ghalf, gfull = _half_and_full(alpha, 11, edges)
        ref = _FullLattice(model.params, model.grid)
        if edges:
            assert np.linalg.norm(ghalf[:, [0, -1]]) > 0.9 * np.linalg.norm(ghalf)
        out_half, coef_half = model.project_ac_hat(ghalf)
        coef_full = ref.wlat * np.vdot(ref.psi_hat, gfull)
        assert isinstance(coef_half, float)
        assert abs(coef_half - coef_full) <= 1e-13 * abs(coef_full)
        assert _rel(out_half, _half(ref.project(gfull))) <= 1e-13
        q_half = model.coupling_coefficient(ghalf)
        q_full = ref.wlat * np.vdot(ref.delta_hat, gfull) / ref.S_at_E
        assert isinstance(q_half, float)
        assert abs(q_half - q_full) <= 1e-13 * abs(q_full)
        bins_half = model._bin_pair(ghalf)
        assert bins_half.dtype == np.float64
        assert _rel(bins_half, _full_bin_pair(ref, gfull)) <= 1e-13
        # paired with itself plus a second field, so the pairing is far from 0
        _, bhalf, bfull = _half_and_full(alpha, 13, edges)
        dot_half = _dot(ghalf, ghalf + bhalf)
        dot_full = np.vdot(gfull + bfull, gfull)
        assert isinstance(dot_half, float)
        assert abs(dot_half - dot_full) <= 1e-13 * abs(dot_full)
        h1_full = np.sqrt(ref.wlat * np.sum((1.0 + ref.xi2) * np.abs(gfull) ** 2) + 0.3 ** 2)
        assert abs(_h1_proxy_hat(model.grid, ghalf, 0.3) - h1_full) <= 1e-13 * h1_full


@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("full", [False, True])
def test_half_spectrum_flow_matches_full_lattice(alpha, full):
    # Flow.apply with its folded rule is the first n/2 + 1 columns of the
    # flow of the same real field written out over the full lattice with the
    # whole rule: heat P_ac g + the rank-one sum (+ e^{tE} <g, psi> psi)
    model, ghalf, gfull = _half_and_full(alpha, 12)
    ref = _FullLattice(model.params, model.grid)
    gac = ref.project(gfull)
    coef = ref.wlat * np.vdot(ref.psi_hat, gfull)
    sigma, swts = _talbot_nodes(32)
    rules = [(t, sigma / t, (swts / t) * np.exp(sigma), None) for t in (0.02, 1.0)]
    # the cut-hugging rule at t = 1 folds to its upper nodes and one real
    # arc node, more than one chunk of them
    spec = ContourSpec.for_time(model.params, 1.0)
    nodes, wts = spec.nodes()
    rules.append((1.0, nodes, wts * np.exp(nodes) / (2j * np.pi), spec))
    for t, nodes, weights, contour in rules:
        expect = np.exp(-t * ref.xi2) * gac + ref.rank_one(nodes, weights, gac)
        if full:
            expect += math.exp(model.E * t) * coef * ref.psi_hat
        flow = Flow(model, t, full=full, contour=contour)
        out = flow.apply(ghalf)
        assert out.shape == ghalf.shape
        assert _rel(out, _half(expect)) <= 1e-13
    assert flow._chunks is None and flow.nodes.size > CHUNK
    assert np.count_nonzero(flow.nodes.imag == 0) == 1 and np.all(flow.nodes.imag >= 0)
    assert 2 * flow.nodes.size - 1 == spec.nodes()[0].size


@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_rules_are_conjugate_closed(alpha):
    # folding keeps the upper nodes with doubled weights: every node with
    # Im < 0 of the unfolded rules (the Talbot rule at t = 0.02 and the
    # cut-hugging one at t = 1, as a Flow weighs them) must be the conjugate
    # of one with Im > 0, weight included
    sigma, swts = _talbot_nodes(32)
    nodes, wts = ContourSpec.for_time(AlphaParams.for_alpha(alpha, 2), 1.0).nodes()
    rules = [
        (sigma / 0.02, (swts / 0.02) * np.exp(sigma)),
        (nodes, wts * np.exp(nodes) / (2j * np.pi)),
    ]
    for nodes, weights in rules:
        up, lo = nodes.imag > 0, nodes.imag < 0
        assert np.count_nonzero(up) == np.count_nonzero(lo) > 0
        iu = np.argsort(nodes[up])
        il = np.argsort(np.conj(nodes[lo]))
        assert _rel(np.conj(nodes[lo])[il], nodes[up][iu]) <= 1e-15
        assert _rel(np.conj(weights[lo])[il], weights[up][iu]) <= 1e-14


def test_bin_pair_matches_dense_sum(params):
    # the bincount scatter against a dense bins x lattice indicator product
    model = grid_model(params, Grid(40.0, 64))
    rng = np.random.default_rng(3)
    ghat = np.fft.rfft2(rng.standard_normal((64, 64)))
    bins = np.arange(model.rho.size)[:, None]
    indicator = (model.bin_index.ravel()[None, :] == bins).astype(float)
    prod = (ghat * np.conj(model.delta_hat) * model.weights).real.ravel()
    dense = indicator @ prod
    assert _rel(model._bin_pair(ghat), dense) <= 1e-14


@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_sparse_bin_pair_matches_bincount(alpha):
    # the bin pairing against the bincount scatter over the full lattice,
    # on data spread over the lattice and on data in the edge columns, and
    # on a Fortran-ordered copy
    for edges in (False, True):
        model, ghalf, gfull = _half_and_full(alpha, 14, edges)
        ref = _full_bin_pair(_FullLattice(model.params, model.grid), gfull)
        assert np.abs(ref.imag).max() <= 1e-12 * np.abs(ref).max()
        assert _rel(model._bin_pair(ghalf), ref.real) <= 1e-13
        assert _rel(model._bin_pair(np.asfortranarray(ghalf)), ref.real) <= 1e-13


def test_half_spectrum_talbot_rows_folded(params, grid256):
    # a Talbot flow keeps half the rule's resolvent rows: two real planes
    # of 16 x 5924 at n = 256, 1.5 MB
    model = grid_model(params, grid256)
    flow = Flow(model, 0.02)
    rows = sum(planes.shape[1] for planes, *_ in flow._chunks)
    nbytes = sum(planes.nbytes for planes, *_ in flow._chunks)
    assert rows <= 16 and nbytes <= 16 * model.rho.size * 16 <= 1.6e6


@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_complex_input_is_linear(alpha):
    # each public operator is real, so on g = a + ib it is S a + i S b; the
    # resolvent at complex lambda also against its formula written out over
    # the full lattice for the complex g
    params = AlphaParams.for_alpha(alpha, 2)
    grid = Grid(40.0, 128)
    a = gaussian_field(grid, sigma=2.0, center=(0.5, -0.3))
    b = Field(grid, np.random.default_rng(3).standard_normal((128, 128)))
    g = a + 1j * b
    for t in (0.02, 1.0):
        out = semigroup_pac(t, g, params)
        parts = [semigroup_pac(t, f, params) for f in (a, b)]
        expect = parts[0].field + 1j * parts[1].field
        assert lp_norm(out.field - expect, 2) <= 1e-14 * lp_norm(expect, 2)
        assert abs(out.imag_residue * lp_norm(g, 2) - lp_norm(parts[1].field, 2)) <= (
            1e-13 * lp_norm(parts[1].field, 2)
        )
        assert parts[0].imag_residue == 0.0
        full = semigroup_full(t, g, params)
        expect = semigroup_full(t, a, params) + 1j * semigroup_full(t, b, params)
        assert lp_norm(full - expect, 2) <= 1e-14 * lp_norm(expect, 2)
    ref = _FullLattice(params, grid)
    gfull = np.fft.fft2(g.values)
    for lam in (3.0 + 1.0j, -1.0 + 0.5j, 2.0):
        out = krein_resolvent(lam, g, params)
        expect = krein_resolvent(lam, a, params) + 1j * krein_resolvent(lam, b, params)
        assert lp_norm(out - expect, 2) <= 1e-14 * lp_norm(expect, 2)
        pair = ref.wlat * np.sum(gfull * np.conj(ref.delta_hat) / (lam + ref.xi2))
        direct = gfull / (lam + ref.xi2) + pair / ref.denominator(lam) * ref.delta_hat / (
            lam + ref.xi2
        )
        direct = Field(grid, np.fft.ifft2(direct))
        assert lp_norm(out - direct, 2) <= 1e-13 * lp_norm(direct, 2)
    oracle = backward_euler_oracle(1.0, g, params, 20)
    expect = backward_euler_oracle(1.0, a, params, 20) + 1j * backward_euler_oracle(
        1.0, b, params, 20
    )
    assert lp_norm(oracle - expect, 2) <= 1e-14 * lp_norm(expect, 2)


def test_flows_run_without_full_lattice_transforms(params, grid128, monkeypatch):
    # the model, its flows, the resolvent, the oracle and the solver work on
    # the rfft2 half spectrum alone: with fft2 and ifft2 raising, they all run
    from pideq import DecomposedField, SolverConfig, solve_global_projected

    grid = Grid(36.0, 64)  # no other test builds this model, so its build is covered too
    g = gaussian_field(grid, sigma=2.0) + 0.5j * gaussian_field(grid, sigma=1.0)
    u0 = DecomposedField.from_field(gaussian_field(grid, sigma=1.5, amplitude=0.01), params)

    def banned(*args, **kwargs):
        raise AssertionError("full-lattice transform")

    monkeypatch.setattr(np.fft, "fft2", banned)
    monkeypatch.setattr(np.fft, "ifft2", banned)
    semigroup_pac(1.0, g, params)
    semigroup_full(0.5, g, params)
    semigroup_pac(1.0, g, params, ContourSpec.for_time(params, 1.0))
    semigroup_gradient_pac(1.0, g, params)
    krein_resolvent(2.0 + 1.0j, g, params)
    backward_euler_oracle(1.0, g, params, 10)
    cfg = SolverConfig(gamma=2.0, a=(1.0, 0.0), T=0.04, dt=0.02)
    traj = solve_global_projected(u0, cfg)
    assert len(traj.states) == 2


def test_grid_model_is_the_only_cache():
    # every array derived from a (params, grid) pair lives on the grid model,
    # so no module holds a memoized function but grid_model itself
    cached = []
    for info in pkgutil.iter_modules(pideq.__path__):
        module = importlib.import_module(f"pideq.{info.name}")
        cached += [obj for obj in vars(module).values() if hasattr(obj, "cache_info")]
    cached += [obj for obj in vars(pideq).values() if hasattr(obj, "cache_info")]
    assert cached and all(obj is grid_model for obj in cached)


def test_psi_is_the_models_samples(params, grid128):
    # psi = G_E / ||G_E|| to the bit, held once by the grid model
    g = green_field(params.eigenvalue, grid128)
    psi = psi_alpha_field(params, grid128)
    assert psi.values.tobytes() == (g.values / lp_norm(g, 2)).tobytes()
    model = grid_model(params, grid128)
    assert psi.values is model.psi_values
    assert psi_alpha_field(params, grid128).values is model.psi_values
    assert not psi.values.flags.writeable
