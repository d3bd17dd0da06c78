"""Grid, norm, derivative, free-heat and I/O checks.

The free heat flow e^{t Laplacian} is the projected flow at alpha = +inf,
the grid model's zero coupling (``free_flow``).
"""

import io
import math
import warnings

import numpy as np
import pytest

from pideq import (
    AlphaParams,
    Field,
    Grid,
    gaussian_field,
    gradient,
    inner_product,
    load_field,
    lp_norm,
    save_field,
    semigroup_pac,
)
from pideq.errors import GridMismatchError
from pideq.fields import _gradient_modulus, _lp_sum, field_to_csv
from pideq.semigroup import MIN_TIME, Flow, grid_model

FREE = AlphaParams(math.inf)


def free_flow(f, t):
    """e^{t Laplacian} f: the projected flow of the free Laplacian, alpha = +inf."""
    return semigroup_pac(t, f, FREE).field


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(40.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        Grid(40.0, 8)
    with pytest.raises(ValueError):
        Grid(-1.0, 64)
    # a string once raised TypeError from math.isfinite
    for bad in (math.inf, math.nan, "a", None):
        with pytest.raises(ValueError, match="half_width must be a finite number"):
            Grid(bad, 64)


def test_offset_keeps_origin_off_mesh():
    g = Grid(10.0, 32)
    assert np.abs(g.axis()).min() > 0


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
    # the public free flow takes MIN_TIME <= t < inf, as every public flow;
    # MIN_TIME (6.8e-307, once 0.01) is where the Talbot nodes sigma/t leave
    # the doubles.  The free flow is the heat multiplier alone, so it tends
    # to the identity as t -> 0
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError, match="semigroup_pac requires t > 0"):
            free_flow(smooth_datum, bad)
    with pytest.raises(ValueError, match="below the supported minimum"):
        free_flow(smooth_datum, MIN_TIME / 2)
    for bad in (math.inf, math.nan, -math.inf, "1"):
        with pytest.raises(ValueError, match="semigroup_pac requires a finite t; got "):
            free_flow(smooth_datum, bad)
    ghat = np.fft.rfft2(smooth_datum.values)
    model = grid_model(FREE, smooth_datum.grid)
    for t in (1e-3, 1e-9):
        out = Flow(model, t).apply(ghat)
        assert np.array_equal(out, np.exp(-t * model.xi2) * ghat)
        assert np.array_equal(free_flow(smooth_datum, t).values, np.fft.irfft2(out, s=(128, 128)))
    assert np.abs(out - ghat).max() <= 1e-9 * np.abs(ghat).max()


def test_gaussian_field_rejects_bad_center(grid128):
    # "ab" raised numpy's UFuncTypeError, and a 3-vector was accepted
    for bad in ("ab", (0.0, 0.0, 0.0), (0.0,), (math.nan, 0.0), (0.0, math.inf), 1.0, None):
        with pytest.raises(ValueError, match="gaussian center must be two finite real numbers"):
            gaussian_field(grid128, center=bad)
    shifted = gaussian_field(grid128, center=np.array([1, -2]))
    assert shifted.values.dtype == np.float64
    assert shifted.values.max() == gaussian_field(grid128, center=(1.0, -2.0)).values.max()


def test_heat_free_gaussian_closed_form():
    # e^{t Lap} exp(-|x|^2/(4s)) = (s/(s+t)) exp(-|x|^2/(4(s+t)))
    g = Grid(40.0, 256)
    s, t = 1.0, 2.0
    f = gaussian_field(g, sigma=math.sqrt(2 * s))
    evolved = free_flow(f, t)
    expect = (s / (s + t)) * gaussian_field(g, sigma=math.sqrt(2 * (s + t))).values
    assert np.abs(evolved.values - expect).max() < 1e-8


def test_heat_free_mass_conservation(grid128):
    f = gaussian_field(grid128, sigma=1.5)
    m0 = np.sum(f.values) * grid128.cell_area
    m1 = np.sum(free_flow(f, 5.0).values) * grid128.cell_area
    assert abs(m1 - m0) < 1e-10 * abs(m0)


def test_heat_free_semigroup_property(grid128, rng):
    f = Field(grid128, rng.standard_normal((128, 128)))
    a = free_flow(free_flow(f, 0.7), 0.3)
    b = free_flow(f, 1.0)
    assert np.abs(a.values - b.values).max() < 1e-12 * np.abs(b.values).max()


def test_heat_free_max_principle_nonnegative(grid128):
    f = gaussian_field(grid128, sigma=1.0)
    sup = lp_norm(f, np.inf)
    for t in (0.1, 0.5, 2.0):
        nxt = lp_norm(free_flow(f, t), np.inf)
        assert nxt <= sup + 1e-12
        sup = nxt


def test_heat_free_l2_l4_rate():
    # critical-in-L2 datum shows the -(N/2)(1/2 - 1/4) = -1/4 rate
    from pideq import critical_datum

    g = Grid(40.0, 256)
    f = critical_datum(g, 2.0)
    ts = np.geomspace(1.0, 50.0, 10)
    vals = [lp_norm(free_flow(f, t), 4) for t in ts]
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


def _rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_heat_free_and_gradient_keep_real_fields_real(rng):
    # a real field stays float64 on the half spectrum; its values are the
    # real part of the full-lattice transforms' output, whose Nyquist-line
    # derivative term is purely imaginary
    grid = Grid(40.0, 256)
    for f in (gaussian_field(grid, sigma=2.0), Field(grid, rng.standard_normal((256, 256)))):
        hat = np.fft.fft2(f.values)
        heat = free_flow(f, 1.0)
        assert heat.values.dtype == np.float64
        full = np.fft.ifft2(np.exp(-grid.wavenumber_sq()) * hat)
        assert _rel_l2(heat.values, full.real) <= 1e-14
        for d, xi in zip(gradient(f), grid.wavenumbers()):
            assert d.values.dtype == np.float64
            assert _rel_l2(d.values, np.fft.ifft2(1j * xi * hat).real) <= 1e-14


def test_heat_free_and_gradient_act_on_complex_fields_part_by_part(grid128, rng):
    f = Field(grid128, rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    re, im = Field(grid128, f.values.real), Field(grid128, f.values.imag)
    parts = (free_flow(f, 0.5), free_flow(re, 0.5), free_flow(im, 0.5))
    for whole, a, b in (parts, *zip(gradient(f), gradient(re), gradient(im))):
        assert whole.values.dtype == np.complex128
        assert np.array_equal(whole.values, a.values + 1j * b.values)


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
    # the writer's bytes against one f-string per value, with -0.0, a 1e-17
    # imaginary part and extreme exponents
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


def _block_csv(f, stream, block=4096):
    """The four-format-per-row writer: every value formatted, 4096 rows per string."""
    X, Y = f.grid.mesh()
    v = f.values
    rows = np.stack([X.ravel(), Y.ravel(), v.real.ravel(), v.imag.ravel()], axis=1)
    stream.write("x,y,re,im\n")
    for lo in range(0, len(rows), block):
        chunk = rows[lo:lo + block]
        stream.write(("%.16e,%.16e,%.16e,%.16e\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


@pytest.mark.parametrize("case", ["real", "complex", "negative_zero", "extreme"])
def test_csv_row_templates_match_block_writer(case):
    # the row-template writer's bytes against the block writer that formats
    # all four values of every row: a real field, a complex one, -0.0 in
    # the real and imaginary parts of a complex field (one row all -0.0,
    # another with imaginary parts 0.0 but for -0.0), and values at the
    # ends of the double range
    grid = Grid(40.0, 64)
    vals = gaussian_field(grid, sigma=3.0).values
    if case == "complex":
        vals = vals + 1j * np.random.default_rng(5).standard_normal(vals.shape)
    elif case == "negative_zero":
        vals = vals.astype(np.complex128)
        vals[3, :5] = [-0.0, complex(1.0, -0.0), complex(-0.0, -0.0), 0.0, 2.0]
        vals[7] = -0.0
    elif case == "extreme":
        vals = vals.copy()
        vals[0, :6] = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
                       2.2250738585072014e-308, -0.0]
    f = Field(grid, vals)
    ref, buf = io.StringIO(), io.StringIO()
    _block_csv(f, ref)
    field_to_csv(f, buf)
    assert buf.getvalue() == ref.getvalue()
    if case == "negative_zero":
        assert "-0.0000000000000000e+00\n" in buf.getvalue()


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
    import pideq.fields as fields

    calls = []
    rfft2 = fields._rfft2
    monkeypatch.setattr(fields, "_rfft2", lambda v: calls.append(v.dtype) or rfft2(v))
    f = gaussian_field(grid128, sigma=2.0)
    assert len(fields._real_parts(f.values)) == 1 and calls == [np.float64]
    calls.clear()
    assert len(fields._real_parts((1j * f).values)) == 2 and len(calls) == 2


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
    # inside the range the plain sum is kept, bit for bit; a^1.5 and a^4 are
    # formed as a sqrt(a) and two squares (test_lp_sum_fast_powers)
    f = Field(grid128, rng.standard_normal((128, 128)))
    for p in (1.0, 1.5, 2.0, 4.0):
        plain = float((np.sum(_power(np.abs(f.values), p)) * grid128.cell_area) ** (1.0 / p))
        assert lp_norm(f, p) == plain


def _power(a, p):
    """a^p as ``fields._lp_sum`` forms it."""
    if p == 4.0:
        return np.square(np.square(a))
    return a * np.sqrt(a) if p == 1.5 else a ** p


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_lp_sum_fast_powers(rng, p):
    # the two fast powers against float np.power, on a length that leaves a
    # partial block of a^1.5, and at 1e+-200.  There a^4 is scaled first, so
    # its norm scales with the data; a^1.5 keeps the plain sum, whose final
    # root carries the rounding of 1/p times ln(sum), 2.5e-14 relative, as
    # the float power's sum does
    a = np.abs(rng.standard_normal(2 * 8192 + 5))
    expect = (np.sum(a ** p) * 0.25) ** (1.0 / p)
    assert abs(_lp_sum(a.copy(), p, 0.25) - expect) <= 1e-15 * expect
    assert np.abs(_power(a, p) / a ** p - 1.0).max() <= 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1e-200):
            b = scale * a
            ref = (np.sum(b ** p) * 0.25) ** (1.0 / p) if p == 1.5 else scale * expect
            assert abs(_lp_sum(b, p, 0.25) - ref) <= 1e-15 * ref


def test_gradient_modulus_matches_hypot(rng):
    # sqrt(d1^2 + d2^2) within 4e-16 of hypot on ordinary data; hypot's own
    # result where a square would leave the doubles, and on zeros
    d1, d2 = rng.standard_normal((2, 128, 128))
    expect = np.hypot(d1, d2)
    got = _gradient_modulus(d1.copy(), d2.copy())
    assert np.abs(got - expect).max() <= 4e-16 * expect.max()
    assert np.all(np.abs(got - expect) <= 4e-16 * expect)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((1e200 * d1, 1e200 * d2), (1e-200 * d1, 1e-200 * d2),
                     (1e200 * d1, np.zeros_like(d2)), (np.zeros_like(d1), np.zeros_like(d2))):
            got = _gradient_modulus(a.copy(), b.copy())
            assert np.isfinite(got).all() and np.array_equal(got, np.hypot(a, b))
