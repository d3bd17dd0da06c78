"""Grid, norm, derivative, free-heat and I/O checks."""

import io
import math
import warnings

import numpy as np
import pytest

from pideq import (
    Field,
    Grid,
    gaussian_field,
    gradient,
    heat_free,
    inner_product,
    load_field,
    lp_norm,
    save_field,
)
from pideq.errors import GridMismatchError
from pideq.fields import field_to_csv


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(40.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        Grid(40.0, 8)
    with pytest.raises(ValueError):
        Grid(-1.0, 64)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="half_width must be a finite number"):
            Grid(bad, 64)


def test_offset_keeps_origin_off_mesh():
    g = Grid(10.0, 32)
    assert np.abs(g.axis()).min() > 0
    g0 = Grid(10.0, 32, offset=False)
    assert np.abs(g0.axis()).min() == 0.0


def test_lp_norm_single_cell():
    g = Grid(10.0, 32)
    vals = np.zeros((32, 32))
    vals[3, 7] = 1.0
    f = Field(g, vals)
    assert math.isclose(lp_norm(f, 2), g.spacing, rel_tol=1e-14)


def test_lp_norm_constant_sup():
    g = Grid(10.0, 32)
    f = Field(g, np.ones((32, 32)))
    assert lp_norm(f, np.inf) == 1.0


def test_lp_norm_gaussian_closed_form():
    # || exp(-|x|^2/2) ||_2 = (int exp(-|x|^2) dx)^(1/2) = sqrt(pi)
    g = Grid(20.0, 512)
    f = gaussian_field(g, sigma=1.0)
    assert abs(lp_norm(f, 2) - math.sqrt(math.pi)) < 1e-6


def test_lp_norm_rejects_small_p():
    g = Grid(10.0, 32)
    f = Field(g, np.ones((32, 32)))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_field_arithmetic_grid_mismatch():
    f = Field(Grid(10.0, 32), np.ones((32, 32)))
    g = Field(Grid(20.0, 32), np.ones((32, 32)))
    with pytest.raises(GridMismatchError):
        _ = f + g


def test_heat_free_identity_and_domain(smooth_datum):
    assert heat_free(smooth_datum, 0.0) is smooth_datum
    with pytest.raises(ValueError):
        heat_free(smooth_datum, -0.1)


def test_heat_free_gaussian_closed_form():
    # e^{t Lap} exp(-|x|^2/(4s)) = (s/(s+t)) exp(-|x|^2/(4(s+t)))
    g = Grid(40.0, 256)
    s, t = 1.0, 2.0
    f = gaussian_field(g, sigma=math.sqrt(2 * s))
    evolved = heat_free(f, t)
    expect = (s / (s + t)) * gaussian_field(g, sigma=math.sqrt(2 * (s + t))).values
    assert np.abs(evolved.values - expect).max() < 1e-8


def test_heat_free_mass_conservation(grid128):
    f = gaussian_field(grid128, sigma=1.5)
    m0 = np.sum(f.values) * grid128.cell_area
    m1 = np.sum(heat_free(f, 5.0).values) * grid128.cell_area
    assert abs(m1 - m0) < 1e-10 * abs(m0)


def test_heat_free_semigroup_property(grid128, rng):
    f = Field(grid128, rng.standard_normal((128, 128)))
    a = heat_free(heat_free(f, 0.7), 0.3)
    b = heat_free(f, 1.0)
    assert np.abs(a.values - b.values).max() < 1e-12 * np.abs(b.values).max()


def test_heat_free_max_principle_nonnegative(grid128):
    f = gaussian_field(grid128, sigma=1.0)
    sup = lp_norm(f, np.inf)
    for t in (0.1, 0.5, 2.0):
        nxt = lp_norm(heat_free(f, t), np.inf)
        assert nxt <= sup + 1e-12
        sup = nxt


def test_heat_free_l2_l4_rate():
    # critical-in-L2 datum shows the -(N/2)(1/2 - 1/4) = -1/4 rate
    from pideq import critical_datum

    g = Grid(40.0, 256)
    f = critical_datum(g, 2.0)
    ts = np.geomspace(1.0, 50.0, 10)
    vals = [lp_norm(heat_free(f, t), 4) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert abs(slope + 0.25) < 0.05


def test_gradient_constant_and_plane_wave(grid128):
    const = Field(grid128, np.ones((128, 128)))
    dx, dy = gradient(const)
    assert np.abs(dx.values).max() < 1e-13
    assert np.abs(dy.values).max() < 1e-13
    # grid-commensurate plane wave is an exact eigenfunction
    X, Y = grid128.mesh()
    k = 2 * np.pi * 4 / (2 * grid128.half_width)
    wave = Field(grid128, np.exp(1j * k * X))
    dx, _ = gradient(wave)
    assert np.abs(dx.values - 1j * k * wave.values).max() < 1e-10 * k


def test_gradient_gaussian_closed_form():
    g = Grid(40.0, 256)
    s = 1.0
    f = gaussian_field(g, sigma=math.sqrt(2 * s))
    dx, dy = gradient(f)
    X, Y = g.mesh()
    assert np.abs(dx.values - (-X / (2 * s)) * f.values).max() < 1e-8
    assert np.abs(dy.values - (-Y / (2 * s)) * f.values).max() < 1e-8


def test_inner_product_axioms(grid128, rng):
    f = Field(grid128, rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    g = Field(grid128, rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    assert abs(inner_product(f, f) - lp_norm(f, 2) ** 2) < 1e-10 * lp_norm(f, 2) ** 2
    assert abs(inner_product(f, g) - inner_product(g, f).conjugate()) < 1e-12
    a = np.zeros((128, 128)), np.zeros((128, 128))
    a[0][2, 3] = 1.0
    a[1][40, 80] = 1.0
    assert inner_product(Field(grid128, a[0]), Field(grid128, a[1])) == 0.0


def test_binary_round_trip(tmp_path, grid128, rng):
    f = Field(grid128, rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    path = tmp_path / "field.pidf"
    save_field(f, path)
    back = load_field(path)
    assert back.grid == grid128
    # complex64 payload: single precision round trip
    assert np.abs(back.values - f.values).max() < 1e-6 * np.abs(f.values).max()


def test_csv_export(grid128):
    f = gaussian_field(Grid(5.0, 16), sigma=1.0)
    buf = io.StringIO()
    field_to_csv(f, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 16 * 16
    assert "e" in lines[1]  # scientific notation


def test_csv_export_matches_per_value_writer():
    # the block writer's bytes against one f-string per value, on a field
    # spanning more than one block, with -0.0, a 1e-17 imaginary part and
    # extreme exponents
    grid = Grid(5.0, 128)
    vals = gaussian_field(grid, sigma=1.0).values + 1e-17j
    vals[0, :4] = [-0.0, 1e-300 - 0.0j, -2.5e200 + 1j, 0.0 - 1e-17j]
    f = Field(grid, vals)
    X, Y = grid.mesh()
    ref = ["x,y,re,im\n"]
    for i in range(grid.n):
        for j in range(grid.n):
            v = f.values[i, j]
            ref.append(f"{X[i, j]:.16e},{Y[i, j]:.16e},{v.real:.16e},{v.imag:.16e}\n")
    buf = io.StringIO()
    field_to_csv(f, buf)
    assert buf.getvalue() == "".join(ref)
    assert "-0.0000000000000000e+00" in buf.getvalue()


def test_field_dtype_follows_data(grid128, rng):
    # real input is held as float64 and complex input as complex128;
    # arithmetic promotes as numpy does
    data = rng.standard_normal((128, 128))
    real = Field(grid128, data)
    assert real.values.dtype == np.float64
    assert Field(grid128, np.ones((128, 128), dtype=np.int32)).values.dtype == np.float64
    # a float64 C array is kept without a copy, and frozen
    assert np.shares_memory(real.values, data) and not data.flags.writeable
    cplx = Field(grid128, real.values + 1j)
    assert cplx.values.dtype == np.complex128
    for f in (real * 2.0, 2.0 * real, real * 3, -real, real + real, real - real):
        assert f.values.dtype == np.float64
    assert np.array_equal((real * 2.0).values, 2.0 * data)
    for f in (real * 1j, 1j * real, real + cplx, cplx - real, cplx * 2.0):
        assert f.values.dtype == np.complex128
    with pytest.raises(TypeError):
        real * real


def test_real_parts_one_transform_for_real_field(grid128, monkeypatch):
    # the dtype decides: a float64 field is one rfft2, a complex one two
    import pideq.spectral as spectral

    calls = []
    rfft2 = spectral._rfft2
    monkeypatch.setattr(spectral, "_rfft2", lambda v: calls.append(v.dtype) or rfft2(v))
    f = gaussian_field(grid128, sigma=2.0)
    assert len(spectral._real_parts(f.values)) == 1 and calls == [np.float64]
    calls.clear()
    assert len(spectral._real_parts((1j * f).values)) == 2 and len(calls) == 2


def test_lp_norm_near_the_double_range(grid128, rng):
    # squares of finite samples near the double range leave it; the norm is
    # taken scaled by the largest |value| then, with no RuntimeWarning
    cases = ((1e300, 2.0), (1e-300, 2.0), (1e200, 4.0), (1e-170, 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value, p in cases:
            f = Field(grid128, np.full((128, 128), value))
            expect = value * (2.0 * grid128.half_width) ** (2.0 / p)
            assert abs(lp_norm(f, p) - expect) <= 1e-13 * expect
        assert lp_norm(Field(grid128, np.zeros((128, 128))), 2) == 0.0
    # inside the range the plain sum is kept, bit for bit
    f = Field(grid128, rng.standard_normal((128, 128)))
    for p in (1.0, 1.5, 2.0, 4.0):
        plain = float((np.sum(np.abs(f.values) ** p) * grid128.cell_area) ** (1.0 / p))
        assert lp_norm(f, p) == plain
