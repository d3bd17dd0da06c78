"""Cross-cutting robustness: nonzero alpha, boundaries, error branches."""

import functools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pideq
from pideq import (
    AlphaParams,
    ContourSpec,
    DecomposedField,
    Field,
    Grid,
    SolverConfig,
    Trajectory,
    backward_euler_oracle,
    c_lambda,
    eigenvalue,
    gaussian_field,
    green_field,
    green_lp_norm,
    h1_alpha_norm,
    inner_product,
    krein_resolvent,
    load_field,
    load_state,
    lp_norm,
    psi_alpha_field,
    residual_check,
    save_field,
    semigroup_full,
    semigroup_gradient_pac,
    semigroup_pac,
    solve_global_projected,
    solve_local,
    total_field,
)
from pideq.cli import main
from pideq.decay import (
    admissible_exponents,
    critical_datum,
    fit_rate,
    run_gradient_decay,
    run_nonlinear_decay,
    run_semigroup_decay,
    verify_convolution_lemma,
)
from pideq.errors import ContourError, DataTooLargeError, GridMismatchError, HorizonTooLargeError
from pideq.semigroup import Flow, grid_model

PARAMS = AlphaParams.for_alpha(0.0, 2)
BIG = 10**400
"""An int past the double range: float(BIG) raises OverflowError."""


@functools.cache
def _short_solve():
    """(trajectory, config) of a local solve storing t = 0, 0.01, ..., 0.04."""
    u0 = DecomposedField.from_field(
        gaussian_field(Grid(40.0, 64), sigma=1.5, amplitude=0.01), PARAMS
    )
    cfg = SolverConfig(T=0.04, dt=0.01)
    return solve_local(u0, cfg), cfg


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
    from pideq import project_d

    assert lp_norm(res.field - (g - project_d(g, params)), 2) < 0.05 * lp_norm(g, 2)


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


def test_field_grid_and_state_header_rejections(tmp_path, grid128):
    # values of another shape, a pairing across two grids and a state
    # container cut inside its header
    with pytest.raises(ValueError, match=r"values shape \(64, 64\) does not match grid n=128"):
        Field(grid128, np.zeros((64, 64)))
    with pytest.raises(GridMismatchError, match="inner_product requires identical grids"):
        inner_product(gaussian_field(grid128), gaussian_field(Grid(40.0, 64)))
    path = tmp_path / "state.pidf"
    save_field(DecomposedField.from_field(gaussian_field(Grid(10.0, 16)), PARAMS), path, t=1.0)
    (tmp_path / "short.pidf").write_bytes(path.read_bytes()[:12])
    with pytest.raises(ValueError, match="truncated field header"):
        load_state(tmp_path / "short.pidf")


@pytest.mark.parametrize("header, offset_at", [(b"PIDF", 4 + 8 + 8), (b"PIDS\x01", 5 + 8 + 8)])
def test_container_offset_byte_zero_rejected(tmp_path, grid128, params, header, offset_at):
    # every container is written on the half-cell grid (offset byte 1); a
    # file claiming a node at the origin is refused, naming the path
    path = tmp_path / "c.pidf"
    f = gaussian_field(grid128)
    save_field(f if header == b"PIDF" else DecomposedField.from_field(f, params), path)
    payload = bytearray(path.read_bytes())
    assert payload.startswith(header) and payload[offset_at] == 1
    payload[offset_at] = 0
    bad = tmp_path / "unshifted.pidf"
    bad.write_bytes(bytes(payload))
    with pytest.raises(ValueError, match=r"unshifted\.pidf: offset byte 0"):
        load_field(bad)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: lp_norm(g, "2"), "lp_norm requires p >= 1"),
        (lambda g: lp_norm(g, True), "lp_norm requires p >= 1"),
        (lambda g: semigroup_pac("1", g, PARAMS), "semigroup_pac requires a finite t"),
        (lambda g: semigroup_pac(True, g, PARAMS), "semigroup_pac requires a finite t"),
        (lambda g: semigroup_full("1", g, PARAMS), "semigroup_full requires a finite t"),
        (lambda g: semigroup_gradient_pac(True, g, PARAMS),
         "semigroup_gradient_pac requires a finite t"),
        (lambda g: backward_euler_oracle("1", g, PARAMS, 10),
         "backward_euler_oracle requires a finite t"),
        (lambda g: gaussian_field(g.grid, 1.0, "a"), "gaussian amplitude must be a finite number"),
        (lambda g: gaussian_field(g.grid, "a"), "gaussian sigma must be a finite number"),
        # one time repeated is a point, not a slope
        (lambda g: fit_rate([(2.0, 1.0)] * 5), r"fit_rate needs at least 2 distinct times.*2\.0"),
        (lambda g: run_semigroup_decay(Grid(40, 64), q=2, p=4, t_grid=[3.0] * 5),
         r"t_grid needs at least 2 distinct times.*3\.0"),
        # a string exponent once raised TypeError from its range test, and
        # True was taken as the number 1
        (lambda g: run_semigroup_decay(g.grid, q="2", p=4), "q = '2', p = 4"),
        (lambda g: run_semigroup_decay(g.grid, q=2, p=True), "q = 2, p = True"),
        (lambda g: run_gradient_decay(g.grid, q=True, p=1.5), "q = True, p = 1.5"),
        (lambda g: run_gradient_decay(g.grid, q=1.25, p="1.5"), "q = 1.25, p = '1.5'"),
        (lambda g: critical_datum(g.grid, "2"), "q must be a finite number > 1; got '2'"),
        (lambda g: admissible_exponents("4", 1.5), r"h1 must lie in \(1, inf\); got '4'"),
        (lambda g: admissible_exponents(4.0, True), r"h2 must lie in \(1, 2\); got True"),
        (lambda g: run_nonlinear_decay(None, h1="4", h2=1.5),
         r"h1 must lie in \(1, inf\); got '4'"),
        (lambda g: run_nonlinear_decay(None, h1=4.0, h2=[1.5]),
         r"h2 must lie in \(1, 2\); got \[1\.5\]"),
        # lambda was coerced by complex() or float(), so True and '1' were
        # lambda = 1 and None raised TypeError
        (lambda g: c_lambda(True), "c_lambda requires a finite lambda; got True"),
        (lambda g: c_lambda("1"), "c_lambda requires a finite lambda; got '1'"),
        (lambda g: c_lambda(None), "c_lambda requires a finite lambda; got None"),
        (lambda g: green_field(True, g.grid),
         "green_field requires a finite real lambda > 0; got True"),
        (lambda g: green_field("1", g.grid),
         "green_field requires a finite real lambda > 0; got '1'"),
        (lambda g: green_field(None, g.grid),
         "green_field requires a finite real lambda > 0; got None"),
        (lambda g: green_lp_norm(True, 2),
         "green_lp_norm requires a finite real lambda > 0; got True"),
        (lambda g: green_lp_norm("1", 2),
         "green_lp_norm requires a finite real lambda > 0; got '1'"),
        (lambda g: green_lp_norm(None, 2),
         "green_lp_norm requires a finite real lambda > 0; got None"),
        (lambda g: green_lp_norm(1 + 0j, 2),
         r"green_lp_norm requires a finite real lambda > 0; got \(1\+0j\)"),
        (lambda g: krein_resolvent(True, g, PARAMS), "lambda must be finite; got True"),
        (lambda g: krein_resolvent("1", g, PARAMS), "lambda must be finite; got '1'"),
        (lambda g: krein_resolvent(None, g, PARAMS), "lambda must be finite; got None"),
        # a bool passed these real-number tests, and ContourSpec's raised
        # TypeError on a string
        (lambda g: Grid(True, 64), "half_width must be a finite number > 0; got True"),
        (lambda g: SolverConfig(a=(True, False)),
         r"a must be two finite real numbers; got \(True, False\)"),
        (lambda g: gaussian_field(g.grid, center=(True, 0.0)),
         r"gaussian center must be two finite real numbers; got \(True, 0\.0\)"),
        (lambda g: ContourSpec(True, 50.0), "contour radius must be a positive number; got True"),
        (lambda g: ContourSpec("1", 50.0), "contour radius must be a positive number; got '1'"),
        (lambda g: ContourSpec(0.5, True), "ray truncation must be finite; got True"),
        (lambda g: ContourSpec(0.5, "60"), "ray truncation must be finite; got '60'"),
        # a state's coefficient and a container's time were never checked
        (lambda g: h1_alpha_norm(DecomposedField(g, math.nan, PARAMS)),
         "a state's coeff must be a finite number; got nan"),
        (lambda g: total_field(DecomposedField(g, math.inf, PARAMS)),
         "a state's coeff must be a finite number; got inf"),
        (lambda g: total_field(DecomposedField(g, "1", PARAMS)),
         "a state's coeff must be a finite number; got '1'"),
        (lambda g: save_field(DecomposedField.from_field(g, PARAMS), os.devnull, t=math.nan),
         "save_field t must be None or a finite real number; got nan"),
        (lambda g: save_field(DecomposedField.from_field(g, PARAMS), os.devnull, t=math.inf),
         "save_field t must be None or a finite real number; got inf"),
        (lambda g: save_field(DecomposedField.from_field(g, PARAMS), os.devnull, t=True),
         "save_field t must be None or a finite real number; got True"),
        (lambda g: save_field(DecomposedField.from_field(g, PARAMS), os.devnull, t="1"),
         "save_field t must be None or a finite real number; got '1'"),
        # an int past the double range raised OverflowError or was accepted
        (lambda g: green_lp_norm(BIG, 2),
         "green_lp_norm requires a finite real lambda > 0; got 10"),
        (lambda g: c_lambda(BIG), "c_lambda requires a finite lambda; got 10"),
        (lambda g: lp_norm(g, BIG), "lp_norm requires p >= 1 or p = inf; got p = 10"),
        (lambda g: semigroup_pac(BIG, g, PARAMS), "semigroup_pac requires a finite t; got 10"),
        (lambda g: krein_resolvent(BIG, g, PARAMS), "lambda must be finite; got 10"),
        (lambda g: green_field(BIG, g.grid),
         "green_field requires a finite real lambda > 0; got 10"),
        (lambda g: gaussian_field(g.grid, BIG),
         "gaussian sigma must be a finite number > 0; got 10"),
        (lambda g: gaussian_field(g.grid, 1.0, BIG),
         "gaussian amplitude must be a finite number; got 10"),
        (lambda g: critical_datum(g.grid, BIG), "q must be a finite number > 1; got 10"),
        (lambda g: ContourSpec(BIG, 50.0), "contour radius must be a positive number; got 10"),
        (lambda g: total_field(DecomposedField(g, BIG, PARAMS)),
         "a state's coeff must be a finite number; got 10"),
        (lambda g: save_field(DecomposedField.from_field(g, PARAMS), os.devnull, t=BIG),
         "save_field t must be None or a finite real number; got 10"),
        (lambda g: backward_euler_oracle(1.0, g, PARAMS, BIG),
         "backward_euler_oracle requires an integer steps >= 10; got 10"),
        (lambda g: Grid(BIG, 64), "half_width must be a finite number > 0; got 10"),
        (lambda g: SolverConfig(T=BIG), "T must be a finite number > 0; got 10"),
        # t_min once returned a vacuous 0.0 (inf, True, past the last interior
        # time), was taken as no cutoff (nan) or raised TypeError ('0', None)
        (lambda g: residual_check(*_short_solve(), t_min=math.inf),
         "residual_check t_min must be a finite real number; got inf"),
        (lambda g: residual_check(*_short_solve(), t_min=math.nan),
         "residual_check t_min must be a finite real number; got nan"),
        (lambda g: residual_check(*_short_solve(), t_min=True),
         "residual_check t_min must be a finite real number; got True"),
        (lambda g: residual_check(*_short_solve(), t_min="0"),
         "residual_check t_min must be a finite real number; got '0'"),
        (lambda g: residual_check(*_short_solve(), t_min=None),
         "residual_check t_min must be a finite real number; got None"),
        (lambda g: residual_check(*_short_solve(), t_min=0.035),
         r"no interior stored time is at or after t_min = 0\.035"),
        # a repeated time divided by dt = 0, and the nan residual read as 0.0
        (lambda g: residual_check(
            Trajectory(np.zeros(3), _short_solve()[0].states[:3], np.array([]), {}),
            _short_solve()[1]), "needs uniformly spaced, increasing sample times"),
    ],
    ids=[
        "lp_norm-str", "lp_norm-bool", "semigroup_pac-str", "semigroup_pac-bool",
        "semigroup_full-str", "semigroup_gradient_pac-bool", "oracle-str",
        "gaussian-amplitude-str", "gaussian-sigma-str",
        "fit_rate-one-time", "semigroup_decay-one-time",
        "semigroup_decay-q-str", "semigroup_decay-p-bool", "gradient_decay-q-bool",
        "gradient_decay-p-str", "critical_datum-q-str", "admissible-h1-str",
        "admissible-h2-bool", "nonlinear_decay-h1-str", "nonlinear_decay-h2-list",
        "c_lambda-bool", "c_lambda-str", "c_lambda-none",
        "green_field-bool", "green_field-str", "green_field-none",
        "green_lp_norm-bool", "green_lp_norm-str", "green_lp_norm-none", "green_lp_norm-complex",
        "krein_resolvent-bool", "krein_resolvent-str", "krein_resolvent-none",
        "grid-half_width-bool", "solver_config-a-bool", "gaussian-center-bool",
        "contour-epsilon-bool", "contour-epsilon-str",
        "contour-truncation-bool", "contour-truncation-str",
        "state-coeff-nan", "state-coeff-inf", "state-coeff-str",
        "save_field-t-nan", "save_field-t-inf", "save_field-t-bool", "save_field-t-str",
        "green_lp_norm-big", "c_lambda-big", "lp_norm-big", "semigroup_pac-big",
        "krein_resolvent-big", "green_field-big", "gaussian-sigma-big", "gaussian-amplitude-big",
        "critical_datum-big", "contour-epsilon-big", "state-coeff-big", "save_field-t-big",
        "oracle-steps-big", "grid-half_width-big", "solver_config-T-big",
        "residual-t_min-inf", "residual-t_min-nan", "residual-t_min-bool", "residual-t_min-str",
        "residual-t_min-none", "residual-t_min-past", "residual-times-repeated",
    ],
)
def test_contract_rejects_wrong_types(grid128, call, message):
    # a string once raised TypeError (numpy's UFuncTypeError for the
    # amplitude), and True was taken as the number 1
    with pytest.raises(ValueError, match=message):
        call(gaussian_field(grid128, sigma=2.0))


@pytest.mark.parametrize(
    "call, expect",
    [
        (lambda g: gaussian_field(g.grid, sigma=1e-200),
         r"gaussian sigma = 1e-200 has 2 sigma\^2 outside the normal doubles"),
        # every sample is exp(-inf) = 0
        (lambda g: lp_norm(gaussian_field(g.grid, center=(1e308, 0.0)), 2), 0.0),
        (lambda g: verify_convolution_lemma("0.5", 0.5, [2.0]),
         "requires a finite alpha < 1; got '0.5'"),
        (lambda g: green_lp_norm(1e-310, 2), 1.0 / (2.0 * math.sqrt(math.pi) * math.sqrt(1e-310))),
        (lambda g: h1_alpha_norm(DecomposedField(g, 1e200, PARAMS)), 1e200),
        (lambda g: critical_datum(g.grid, 1e300),
         r"q = 1e\+300 is too large: its exponent 2 - 2/q rounds to 2"),
        # a half spectrum's pairing overflowed, and 2 inf - inf is nan; a
        # power of two scales the flow exactly, so only the norm may round
        (lambda g: semigroup_pac(1.0, gaussian_field(g.grid, 2.0, 2.0 ** 996), PARAMS)
         .correction_norm / semigroup_pac(1.0, g, PARAMS).correction_norm, 2.0 ** 996),
        (lambda g: h1_alpha_norm(DecomposedField(gaussian_field(g.grid, 2.0, 1e200), 0.0, PARAMS))
         / h1_alpha_norm(DecomposedField(g, 0.0, PARAMS)), 1e200),
    ],
    ids=[
        "gaussian-sigma-tiny", "gaussian-center-far", "convolution-alpha-str",
        "green_lp_norm-subnormal", "h1_alpha_norm-huge-coeff", "critical_datum-q-huge",
        "semigroup_pac-huge-datum", "h1_alpha_norm-huge-phi",
    ],
)
def test_contract_holds_at_extreme_values(grid128, call, expect):
    # each call once warned divide by zero or overflow, raised TypeError,
    # OverflowError or ZeroDivisionError, or returned inf; a float expect
    # is the finite value, a string the ValueError's message
    g = gaussian_field(grid128, sigma=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expect, str):
            with pytest.raises(ValueError, match=expect):
                call(g)
        else:
            assert call(g) == pytest.approx(expect, rel=1e-14, abs=0.0)


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
        ({"nodes_ray": 64.0}, "nodes_ray must be an integer; got 64.0"),
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


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: krein_resolvent(
                2.0, gaussian_field(Grid(40.0, 32)), AlphaParams.for_alpha(-0.2, 2)
            ),
            "below the mesh size",
        ),
        (
            lambda: krein_resolvent(
                2.0, gaussian_field(Grid(40.0, 64)), AlphaParams.for_alpha(0.6, 2)
            ),
            "exceeds the box",
        ),
        (
            lambda: backward_euler_oracle(
                10.0 / eigenvalue(0.0), gaussian_field(Grid(40.0, 64)),
                AlphaParams.for_alpha(0.0, 2), 10,
            ),
            "stepping count bumped",
        ),
    ],
    ids=["mesh", "box", "oracle"],
)
def test_warnings_name_the_callers_line(call, message):
    # each warning names the line that called into pideq, however many
    # package frames lie between, such as the cached grid_model
    grid_model.cache_clear()
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        call()
    hits = [w for w in rec if re.search(message, str(w.message))]
    assert hits and all(w.filename == __file__ for w in hits)


@pytest.mark.parametrize("amplitude", [1e100, 1e200])
def test_overflowing_data_raise_named_errors(params, amplitude):
    # iterates that leave the double range once warned 'overflow encountered
    # in square' from the H^1 proxy and ended in 'field values must be
    # finite' or in a non-finite trajectory; the error names the window
    u0 = DecomposedField.from_field(gaussian_field(Grid(40.0, 64), 1.0, amplitude), params)
    cfg = SolverConfig(T=0.04, dt=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataTooLargeError, match="window 0: the iterates left the double"):
            solve_global_projected(u0, cfg)
        with pytest.raises(HorizonTooLargeError, match="window 0: the iterates left the") as exc:
            solve_local(u0, cfg)
    assert not isinstance(exc.value, DataTooLargeError)


def test_large_finite_data_still_solve(params):
    u0 = DecomposedField.from_field(gaussian_field(Grid(40.0, 64), 1.0, 1e20), params)
    traj = solve_local(u0, SolverConfig(T=0.04, dt=0.02))
    assert all(np.isfinite(st.regular.values).all() for st in traj.states)


def test_simulate_overflowing_datum_exits_2(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    argv = ["--out", str(tmp_path), "simulate", "--u0", "gaussian:1,1e200",
            "--T", "0.04", "--dt", "0.02", "--grid-n", "64"]
    proc = subprocess.run(
        [sys.executable, "-m", "pideq.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("pideq: error: ") and proc.stderr.count("\n") == 1
    assert "left the double range" in proc.stderr
