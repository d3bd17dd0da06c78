"""Cross-cutting robustness: nonzero alpha, boundaries, error branches."""

import math

import numpy as np
import pytest

from pideq import (
    AlphaParams,
    ContourSpec,
    DecomposedField,
    Field,
    Grid,
    SolverConfig,
    c_lambda,
    gaussian_field,
    green_lp_norm,
    krein_resolvent,
    load_field,
    lp_norm,
    psi_alpha_field,
    save_field,
    semigroup_full,
    semigroup_pac,
    solve_local,
    total_field,
)
from pideq.cli import main
from pideq.errors import ContourError
from pideq.semigroup import Flow, grid_model


@pytest.mark.filterwarnings("ignore:eigenfunction scale")
@pytest.mark.parametrize("alpha", [-0.2, 0.2])
def test_nonzero_alpha_operator_algebra(alpha):
    params = AlphaParams.for_alpha(alpha, 2)
    grid = Grid(40.0, 128)
    g = gaussian_field(grid, sigma=2.0)
    lam, mu = 2.0 + params.eigenvalue, 5.0 + params.eigenvalue
    r1 = krein_resolvent(lam, g, params)
    r2 = krein_resolvent(mu, g, params)
    comp = krein_resolvent(lam, r2, params)
    resid = lp_norm(r1 - r2 - (mu - lam) * comp, 2) / lp_norm(g, 2)
    assert resid < 1e-12
    psi = psi_alpha_field(params, grid)
    out = krein_resolvent(lam, psi, params)
    assert lp_norm(out - (1.0 / (lam - params.eigenvalue)) * psi, 2) < 1e-10


@pytest.mark.filterwarnings("ignore:eigenfunction scale")
@pytest.mark.parametrize("alpha", [-0.2, 0.2])
def test_nonzero_alpha_semigroup_law(alpha):
    params = AlphaParams.for_alpha(alpha, 2)
    grid = Grid(40.0, 128)
    g = gaussian_field(grid, sigma=2.0)
    one = semigroup_pac(1.0, g, params)
    half = semigroup_pac(0.5, semigroup_pac(0.5, g, params).field, params)
    assert lp_norm(one.field - half.field, 2) <= 1e-3 * lp_norm(g, 2)


def test_semigroup_at_minimum_time(params, grid128, smooth_datum=None):
    g = gaussian_field(grid128, sigma=2.0)
    res = semigroup_pac(0.01, g, params)
    assert math.isfinite(res.free_part_norm)
    # at tiny times the flow is close to the projection of the datum
    from pideq import project_ac

    assert lp_norm(res.field - project_ac(g, params), 2) < 0.05 * lp_norm(g, 2)


def test_stepper_matches_public_semigroup(params, grid128):
    # 100 winding-contour micro-steps against one cut-hugging evaluation
    g = gaussian_field(grid128, sigma=1.5, amplitude=0.1)
    model = grid_model(params, grid128)
    prop = Flow(model, 0.01, full=False)
    cur = np.fft.rfft2(g.values.real)
    for _ in range(100):
        cur = prop.apply(cur)
    ref = semigroup_pac(1.0, g, params, ContourSpec.for_time(params, 1.0)).field
    err = lp_norm(Field(grid128, np.fft.irfft2(cur)) - ref, 2) / lp_norm(ref, 2)
    assert err < 1e-6


def test_field_rejects_non_finite(grid128):
    vals = np.ones((128, 128))
    vals[3, 4] = np.nan
    with pytest.raises(ValueError):
        Field(grid128, vals)
    with pytest.raises(ValueError):
        Field(grid128, np.full((128, 128), np.inf))


def test_field_values_immutable(grid128):
    f = gaussian_field(grid128)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_fourier_domain_flags(tmp_path, grid128):
    # the container's flag byte after offset marks a frequency-domain field;
    # fields are written with it 0, and a file with it set is refused
    path = tmp_path / "f.pidf"
    save_field(gaussian_field(grid128), path)
    payload = bytearray(path.read_bytes())
    flag = len(b"PIDF") + 8 + 8 + 1
    assert payload[flag] == 0
    payload[flag] = 1
    (tmp_path / "freq.pidf").write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="frequency-domain"):
        load_field(tmp_path / "freq.pidf")


def test_load_field_error_branches(tmp_path, grid128):
    bad = tmp_path / "bad.pidf"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_field(bad)
    f = gaussian_field(Grid(10.0, 16))
    path = tmp_path / "ok.pidf"
    save_field(f, path)
    payload = path.read_bytes()
    (tmp_path / "trunc.pidf").write_bytes(payload[: len(payload) // 2])
    with pytest.raises(ValueError):
        load_field(tmp_path / "trunc.pidf")
    (tmp_path / "short.pidf").write_bytes(payload[:10])
    with pytest.raises(ValueError, match="truncated field header"):
        load_field(tmp_path / "short.pidf")


def test_ball_radius_warning(params, grid128):
    u0 = DecomposedField.from_field(
        gaussian_field(grid128, sigma=1.5, amplitude=0.01), params
    )
    cfg = SolverConfig(
        gamma=2.0,
        a=(1.0, 0.0),
        T=0.1,
        dt=0.02,
        ball_radius=1e-9,
    )
    with pytest.warns(UserWarning, match="left the ball"):
        solve_local(u0, cfg)


def test_model_warns_outside_resolvable_window():
    grid = Grid(40.0, 128)
    with pytest.warns(UserWarning, match="exceeds the box"):
        grid_model(AlphaParams.for_alpha(0.6, 2), grid)


def test_total_field_round_trip(params, grid128):
    u = DecomposedField.from_field(gaussian_field(grid128, sigma=1.3), params)
    assert lp_norm(total_field(u) - u.regular, 2) < 1e-13
    v = DecomposedField(u.regular, 0.5, params)
    tot = total_field(v)
    assert lp_norm(tot - u.regular, 2) > 0.01  # kernel part present


def test_non_finite_exponent_and_lambda_rejected(grid128):
    # a NaN p compares false against every bound, so it once slipped through
    # to a NaN norm; a non-finite lambda gave nan (lambda = nan) or 0.0 (inf)
    f = gaussian_field(grid128)
    with pytest.raises(ValueError, match="p = nan"):
        lp_norm(f, math.nan)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite real lambda"):
            green_lp_norm(bad, 2)


def test_grid_rejects_float_n():
    # a float n once raised TypeError from the power-of-two bit test
    with pytest.raises(ValueError, match="n must be an int power of two"):
        Grid(40.0, 64.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_c_lambda_rejects_non_finite_lambda(lam):
    # a non-finite lambda once returned nan+nanj
    with pytest.raises(ValueError, match="finite lambda"):
        c_lambda(lam)


def test_grid_model_rejects_eigenvalue_beyond_grid(tmp_path, capsys):
    # alpha = -5 gives E = 2.4e27: the sampled kernel underflows, and the
    # model once divided by zero and ended in "field values must be finite"
    params = AlphaParams.for_alpha(-5.0, 2)
    with pytest.raises(ValueError, match=r"alpha = -5\.0: its eigenvalue E = 2\.445e\+27"):
        grid_model(params, Grid(40.0, 64))
    argv = ["--out", str(tmp_path), "semigroup", "--alpha=-5", "--grid-n", "64", "--t", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("pideq: error: alpha = -5.0: its eigenvalue E = 2.445e+27")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"truncation": math.nan}, "ray truncation must be finite; got nan"),
        ({"truncation": math.inf}, "ray truncation must be finite; got inf"),
        ({"nodes_ray": 64.5}, "nodes_ray must be an integer; got 64.5"),
        ({"nodes_arc": 64.0}, "nodes_arc must be an integer; got 64.0"),
        ({"nodes_ray": True}, "nodes_ray must be an integer; got True"),
    ],
)
def test_contour_spec_rejects_bad_arguments(kwargs, message):
    # a non-finite truncation once ended in a RuntimeWarning from the node
    # builder, and a float node count in a TypeError from leggauss
    args = {"epsilon": 0.5, "truncation": 50.0, **kwargs}
    with pytest.raises(ContourError, match=message):
        ContourSpec(**args)


@pytest.mark.filterwarnings("ignore:eigenfunction scale")
def test_full_flow_growth_overflow_rejected():
    # E = 675 at alpha = -0.5: exp(E t) leaves the double range past
    # E t = 709.78, where math.exp once raised OverflowError
    params = AlphaParams.for_alpha(-0.5, 2)
    g = gaussian_field(Grid(40.0, 64), sigma=2.0)
    with pytest.raises(ValueError, match=r"full flow at t = 2\.0: .* E = 675\.227"):
        semigroup_full(2.0, g, params)
    assert np.isfinite(semigroup_full(1.0, g, params).values).all()


@pytest.mark.filterwarnings("ignore:eigenfunction scale")
def test_lp_norm_of_full_flow_near_the_double_range():
    # E t = 675: the largest sample is about 1.6e293 and every sample is
    # finite, so the L^2 norm is finite too (the plain sum of squares was inf)
    params = AlphaParams.for_alpha(-0.5, 2)
    out = semigroup_full(1.0, gaussian_field(Grid(40.0, 64), sigma=2.0), params)
    top = np.abs(out.values).max()
    assert 1e293 < top < 1e294
    norm = lp_norm(out, 2)
    scaled = out.values / top
    expect = top * math.sqrt(np.sum(scaled**2) * out.grid.cell_area)
    assert math.isfinite(norm) and abs(norm - expect) <= 1e-14 * expect
