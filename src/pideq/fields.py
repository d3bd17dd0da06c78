"""Grid-sampled fields on [-L, L]^2 with Fourier-spectral operations.

A :class:`Grid` is a uniform periodic n x n mesh on the square [-L, L]^2
whose nodes sit at half-cell centres, so the origin is not a mesh node,
which keeps logarithmically singular kernels finite everywhere.
A :class:`Field` is an immutable array together with its grid: float64 when
its data are real, complex128 otherwise.

Conventions
-----------
* All L^p norms and inner products are unweighted Riemann sums with cell
  area h^2 (h = 2L/n).  Summation uses numpy's pairwise reduction, which is
  deterministic for a fixed shape.
* Operations that are diagonal in Fourier space (heat flow, derivatives,
  resolvent multipliers) act through plain unshifted FFTs on the rfft2 half
  spectrum, one per real part; the absolute phase bookkeeping of the
  half-cell shift cancels in all such products.
"""

import math
import numbers
import struct
import sys
from dataclasses import dataclass

import numpy as np
from numpy import fft

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "Field",
    "lp_norm",
    "inner_product",
    "gradient",
    "gaussian_field",
    "save_field",
    "load_field",
    "field_to_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L]^2, nodes at half-cell centres (x = 0 is not a node).

    Parameters
    ----------
    half_width : float
        L, the half side length of the square; a finite real number > 0.
    n : int
        Points per axis; a power of two, at least 16.
    """

    half_width: float
    n: int

    def __post_init__(self):
        if not (_real(self.half_width) and 0.0 < self.half_width < math.inf):
            raise ValueError(f"half_width must be a finite number > 0; got {self.half_width!r}")
        n = self.n
        if not _real(n, numbers.Integral) or n < 16 or n & (n - 1):
            raise ValueError(f"n must be an int power of two with n >= 16; got {n!r}")

    @property
    def spacing(self):
        """Mesh spacing h = 2L/n."""
        return 2.0 * self.half_width / self.n

    @property
    def cell_area(self):
        return self.spacing ** 2

    def axis(self):
        """1D coordinate lattice along one axis, at the half-cell centres."""
        return (np.arange(self.n) + 0.5) * self.spacing - self.half_width

    # The four n x n arrays below are built on each call, not cached: a
    # cache would keep 3 MiB alive for the process at n = 256, while
    # building one takes well under a millisecond and every lasting
    # consumer (the Green samples, the grid model) keeps only what it
    # derives from them.

    def mesh(self):
        """Coordinate arrays X, Y with 'ij' indexing."""
        x = self.axis()
        X, Y = np.meshgrid(x, x, indexing="ij")
        return X, Y

    def radius(self):
        """Distance from the origin at every node."""
        return np.hypot(*self.mesh())

    def wavenumbers(self):
        """Angular wavenumber arrays (XI1, XI2), unshifted FFT order."""
        xi = 2.0 * np.pi * fft.fftfreq(self.n, d=self.spacing)
        XI1, XI2 = np.meshgrid(xi, xi, indexing="ij")
        return XI1, XI2

    def wavenumber_sq(self):
        """|xi|^2 on the unshifted FFT lattice."""
        XI1, XI2 = self.wavenumbers()
        return XI1 ** 2 + XI2 ** 2


_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max) - 1.0
"""Bounds on log(a^p) of :func:`_lp_sum`'s plain sum, the upper one with a margin for rounding."""


def _real(value, kind=numbers.Real):
    """Whether value is a number of ``kind`` (numbers.Real, Integral or Complex), not a bool.

    A number whose conversion to a double overflows, such as an int past the
    double range, is not.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        complex(value)
    except OverflowError:
        return False
    return True


def _real_pair(name, value):
    """value as a tuple of two floats; ValueError naming ``name`` unless it is two finite reals."""
    try:
        pair = tuple(value)
    except TypeError:
        pair = ()
    if len(pair) != 2 or not all(_real(x) and math.isfinite(x) for x in pair):
        raise ValueError(f"{name} must be two finite real numbers; got {value!r}")
    return float(pair[0]), float(pair[1])


def _rfft2(values, out=None):
    """rfft2 half spectrum, n x (n/2 + 1), of a real n x n array, into ``out`` if given.

    The two passes of ``numpy.fft.rfft2``, so the same result bit for bit:
    an rfft along the last axis, then the complex fft along the first, here
    in place.  numpy's own call writes the second pass into a second new
    array, which made it about twice as slow at n = 256.  This and
    :func:`_irfft2` are the package's only transforms.
    """
    out = fft.rfft(values, axis=1, out=out)
    return fft.fft(out, axis=0, out=out)


def _irfft2(hat, out=None, work=None):
    """Real n x n array of an rfft2 half spectrum, n x (n/2 + 1), into ``out`` if given.

    The two passes of ``numpy.fft.irfft2``, so the same result bit for bit:
    the complex ifft along the first axis, then an irfft along the last,
    without numpy's n-d argument handling (about 7 % of a call at n = 256).
    ``work`` receives the first pass, a complex array of hat's shape; it
    may be hat itself when hat is not needed again.
    """
    work = fft.ifft(hat, axis=0, out=work)
    return fft.irfft(work, 2 * (hat.shape[1] - 1), axis=1, out=out)


def _front(buf, shape):
    """A float64 array of ``shape`` over the front of the contiguous array buf's memory.

    Lets a buffer that is free at that moment serve as scratch of another
    shape, such as a complex half spectrum as a real n x n array; buf must
    hold at least that many bytes.
    """
    return buf.reshape(-1).view(np.float64)[:math.prod(shape)].reshape(shape)


def _real_parts(values):
    """rfft2 half spectra of a field's values: one for a real array, Re and Im for a complex one.

    Every operator of the package is real, so it acts on a complex field
    part by part: applied to each half spectrum, it gives the transforms of
    the real and the imaginary part of its output.  The dtype decides, so a
    real field costs one transform and its output is real again.
    """
    if not np.iscomplexobj(values):
        return [_rfft2(values)]
    return [_rfft2(values.real), _rfft2(values.imag)]


def _from_parts(grid, re_hat, im_hat=None):
    """The Field whose real part has half spectrum re_hat and imaginary part im_hat."""
    values = _irfft2(re_hat)
    if im_hat is not None:
        values = values + 1j * _irfft2(im_hat)
    return Field(grid, values)


def _real_derivative(grid):
    """The real derivative pair (i xi1, i xi2) on the rfft2 half spectrum.

    n x 1 and 1 x (n/2 + 1) arrays, each zero on the Nyquist line of its
    own axis: there the full-lattice derivative of a real field is purely
    imaginary, so a real field's derivative has no such mode.
    """
    xi = 2.0 * np.pi * fft.fftfreq(grid.n, d=grid.spacing)
    xi[grid.n // 2] = 0.0
    return 1j * xi[:, None], 1j * xi[None, :grid.n // 2 + 1]


@dataclass(frozen=True)
class Field:
    """A function sampled on a :class:`Grid`, real or complex.

    The dtype follows the input: complex values are held as complex128 and
    every other input as float64, so real data carry no imaginary half.
    Arithmetic promotes as numpy does (a real field times a real scalar
    stays real; a complex scalar or a complex operand makes it complex).
    ``values`` is read-only; an input that already has the held dtype and
    C layout is kept without a copy, and frozen.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        vals = np.ascontiguousarray(
            vals, dtype=np.complex128 if np.iscomplexobj(vals) else np.float64
        )
        if vals.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"values shape {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def _check(self, other):
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other):
        self._check(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Complex):
            return NotImplemented
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)


def lp_norm(f, p):
    """Riemann-sum L^p norm, (sum |f|^p h^2)^(1/p); p = inf gives the max.

    Grid norms of fields with integrable point singularities (Green
    functions) converge slowly; use :func:`pideq.spectral.green_lp_norm`
    when a Green function's L^2 norm must be resolved accurately.  p must
    be a real number >= 1 or inf; anything else raises ValueError.
    """
    if not (_real(p) and p >= 1):
        raise ValueError(f"lp_norm requires p >= 1 or p = inf; got p = {p!r}")
    a = np.abs(f.values)
    if p == np.inf:
        return float(a.max())
    return _lp_sum(a, p, f.grid.cell_area)


def _sum_scale(top, p, weight):
    """1.0 when terms a^p with a <= top and total weight ``weight`` sum within the normal doubles, else top.

    A caller divides its array by a scale other than 1.0 before the sum and
    multiplies the result back, so data whose sum fits keep their bits.
    """
    if top == 0.0 or _LOG_TINY <= p * math.log(top) < _LOG_HUGE - math.log(weight):
        return 1.0
    return top


_POWER_BLOCK = 8192
"""Elements per block of :func:`_lp_sum`'s a^1.5, so its square roots need one small buffer."""


def _lp_sum(a, p, cell_area):
    """(sum a^p h^2)^(1/p) for an array a >= 0 and a finite p >= 1, computed in a's own array.

    a is overwritten.  The plain sum is taken unless :func:`_sum_scale`
    finds that it could leave the normal doubles; then a is first scaled by
    its largest value, which the result multiplies back.  a^4 is two
    squares and a^1.5 is a sqrt(a), block by block, each within 1e-15 of
    float ``np.power`` and several times faster; for p = 2 ``**=`` takes
    numpy's own square.
    """
    top = float(a.max())
    if top == 0.0:
        return 0.0
    scale = _sum_scale(top, p, a.size)
    if scale != 1.0:
        a /= scale
    with np.errstate(over="ignore", under="ignore"):
        if p == 4.0:
            np.square(a, out=a)
            np.square(a, out=a)
        elif p == 1.5:
            a = a.reshape(-1)
            for lo in range(0, a.size, _POWER_BLOCK):
                part = a[lo:lo + _POWER_BLOCK]
                part *= np.sqrt(part)
        else:
            a **= p
    return float(scale * (np.sum(a) * cell_area) ** (1.0 / p))


def _gradient_modulus(d1, d2):
    """|grad| = sqrt(d1^2 + d2^2) of two real derivative arrays, written into d1; d2 is scratch.

    The squares' sum is within 4e-16 of ``np.hypot`` and several times
    faster.  Only when the largest |d| leaves [1e-150, 1e150], where a
    square could overflow or lose digits to underflow, does hypot form it,
    so data near the double range keep a finite, accurate modulus.
    Returns d1.
    """
    top = max(-float(d1.min()), float(d1.max()), -float(d2.min()), float(d2.max()))
    if not 1e-150 <= top <= 1e150:
        return np.hypot(d1, d2, out=d1)
    np.square(d1, out=d1)
    d1 += np.square(d2, out=d2)
    return np.sqrt(d1, out=d1)


def inner_product(f, g):
    """L^2 pairing sum f conj(g) h^2, conjugate-linear in the second slot."""
    if f.grid != g.grid:
        raise GridMismatchError("inner_product requires identical grids")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_area)


def gradient(f):
    """Spectral partial derivatives (d/dx1 f, d/dx2 f), real for a real f.

    The derivative is the real pair of :func:`_real_derivative`.
    """
    parts = _real_parts(f.values)
    return tuple(
        _from_parts(f.grid, *(d * hat for hat in parts)) for d in _real_derivative(f.grid)
    )


def gaussian_field(grid, sigma=1.0, amplitude=1.0, center=(0.0, 0.0)):
    """amplitude * exp(-|x - center|^2 / (2 sigma^2)) as a Field.

    sigma is a finite number > 0 whose 2 sigma^2 is a normal double,
    amplitude a finite number and center two finite real numbers; anything
    else raises ValueError naming it.  A node so far from the centre that
    |x - center|^2 / (2 sigma^2) overflows gets exp(-inf) = 0.
    """
    if not (_real(sigma) and 0.0 < sigma < math.inf):
        raise ValueError(f"gaussian sigma must be a finite number > 0; got {sigma!r}")
    if not sys.float_info.min <= 2.0 * float(sigma) * float(sigma) < math.inf:
        raise ValueError(f"gaussian sigma = {sigma!r} has 2 sigma^2 outside the normal doubles")
    if not (_real(amplitude) and math.isfinite(amplitude)):
        raise ValueError(f"gaussian amplitude must be a finite number; got {amplitude!r}")
    x0, y0 = _real_pair("gaussian center", center)
    X, Y = grid.mesh()
    with np.errstate(over="ignore"):
        r2 = (X - x0) ** 2 + (Y - y0) ** 2
        return Field(grid, amplitude * np.exp(-r2 / (2.0 * sigma ** 2)))


# --- serialization -----------------------------------------------------------

_MAGIC = b"PIDF"
_HEADER = struct.Struct("<dQBB")  # L, n, offset (always 1), frequency-domain flag

_STATE_MAGIC = b"PIDS"
_STATE_VERSION = 1
_STATE_HEADER = struct.Struct("<dQBddd")  # L, n, offset (always 1), q, alpha, t


def save_field(f, path, t=None):
    """Write a Field, or a real solver state at time t, to a binary container.

    A :class:`Field` is written as magic ``PIDF``, L, n, the offset byte 1
    (the half-cell grid), a zero byte, then its values as row-major
    complex64.  The zero byte is the frequency-domain flag of earlier
    versions, which wrote 1 there for a transformed field.  ``t`` must then
    be None.

    A state u = phi + q G_omega (a :class:`pideq.spectral.DecomposedField`)
    is written losslessly as magic ``PIDS``, a version byte (1), L, n, the
    offset byte 1, q, alpha and t (0 when None; otherwise a finite real
    number) as float64, then phi as row-major float64: 8 bytes a point.
    Its phi and q must be real; :func:`pideq.spectral.load_state` reads it
    back.
    """
    if not (t is None or (_real(t) and math.isfinite(t))):
        raise ValueError(f"save_field t must be None or a finite real number; got {t!r}")
    if isinstance(f, Field):
        if t is not None:
            raise ValueError("a time t is written with a state, not with a plain field")
        head = _MAGIC + _HEADER.pack(f.grid.half_width, f.grid.n, 1, 0)
        payload = np.ascontiguousarray(f.values, dtype=np.complex64)
    else:
        values, q, params = f.regular.values, complex(f.coeff), f.params
        if q.imag or (np.iscomplexobj(values) and np.any(values.imag)):
            raise ValueError("a state container holds real states; this one is complex")
        grid = f.regular.grid
        head = _STATE_MAGIC + bytes([_STATE_VERSION]) + _STATE_HEADER.pack(
            grid.half_width, grid.n, 1, q.real, params.alpha,
            0.0 if t is None else float(t),
        )
        payload = np.ascontiguousarray(values.real, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload.tobytes())


def _read_container(path):
    """(grid, values, state) of a container; state is (q, alpha, t), or None for a field.

    A file that is not a whole container, holds a frequency-domain field
    (flag byte not 0) or a state container of another version, or whose
    offset byte is not 1 (a grid with a node at the origin), raises
    ValueError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == _MAGIC:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise ValueError(f"{path}: truncated field header")
            L, n, offset, freq = _HEADER.unpack(header)
            if freq:
                raise ValueError(f"{path}: frequency-domain field containers are not supported")
            state, dtype = None, np.complex64
        elif magic == _STATE_MAGIC:
            version = fh.read(1)
            if version != bytes([_STATE_VERSION]):
                raise ValueError(f"{path}: unsupported state container version {version!r}")
            header = fh.read(_STATE_HEADER.size)
            if len(header) != _STATE_HEADER.size:
                raise ValueError(f"{path}: truncated field header")
            L, n, offset, *state = _STATE_HEADER.unpack(header)
            state = tuple(state)
            dtype = np.dtype("<f8")
        else:
            raise ValueError(f"{path}: not a field container")
        raw = np.frombuffer(fh.read(), dtype=dtype)
    if offset != 1:
        raise ValueError(f"{path}: offset byte {offset}; only the half-cell grid (1) is supported")
    if raw.size != n * n:
        raise ValueError(f"{path}: truncated field payload")
    values = raw.reshape(n, n)
    if state is None:
        values = values.astype(np.complex128)
    return Grid(L, int(n)), values, state


def load_field(path):
    """The field of a container written by :func:`save_field`.

    A field container gives its values as complex128 (complex64
    precision); a state container gives the state's real phi, exactly.
    A file that is not a whole container, or holds a frequency-domain field
    (flag byte not 0), raises ValueError.
    """
    grid, values, _ = _read_container(path)
    return Field(grid, values)


def field_to_csv(f, stream):
    """Write rows x,y,Re,Im in full-precision scientific notation, row-major.

    The n x and n y coordinates are formatted once each, and every mesh
    row is written from one template filled with its values.  A real
    field's template holds the zero imaginary string in place and is
    filled from the row alone; a complex field's formats both parts.
    """
    coords = ["%.16e" % c for c in f.grid.axis().tolist()]
    if np.iscomplexobj(f.values):
        tails = [f",{y},%.16e,%.16e\n" for y in coords]
        rows = (np.stack((row.real, row.imag), axis=1) for row in f.values)
    else:
        tails = [f",{y},%.16e,{0.0:.16e}\n" for y in coords]
        rows = f.values
    stream.write("x,y,re,im\n")
    for x, values in zip(coords, rows):
        stream.write((x + x.join(tails)) % tuple(values.ravel().tolist()))
