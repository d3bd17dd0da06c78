"""Grid-sampled fields on [-L, L]^2 with Fourier-spectral operations.

A :class:`Grid` is a uniform periodic n x n mesh on the square [-L, L]^2.
With the half-cell ``offset`` switched on (the default) the origin is not a
mesh node, which keeps logarithmically singular kernels finite everywhere.
A :class:`Field` is an immutable array together with its grid: float64 when
its data are real, complex128 otherwise.

Conventions
-----------
* All L^p norms and inner products are unweighted Riemann sums with cell
  area h^2 (h = 2L/n).  Summation uses numpy's pairwise reduction, which is
  deterministic for a fixed shape.
* Operations that are diagonal in Fourier space (heat flow, derivatives,
  resolvent multipliers) act through plain unshifted FFTs; the absolute
  phase bookkeeping of the offset grid cancels in all such products.
"""

import math
import numbers
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy import fft

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "Field",
    "lp_norm",
    "inner_product",
    "heat_free",
    "gradient",
    "gaussian_field",
    "save_field",
    "load_field",
    "field_to_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L]^2.

    Parameters
    ----------
    half_width : float
        L, the half side length of the square.
    n : int
        Points per axis; a power of two, at least 16.
    offset : bool
        If True, nodes sit at half-cell centres so x = 0 is not a node.
    """

    half_width: float
    n: int
    offset: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be a finite number > 0; got {self.half_width!r}")
        n = self.n
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 16 or n & (n - 1):
            raise ValueError(f"n must be an int power of two with n >= 16; got {n!r}")

    @property
    def spacing(self):
        """Mesh spacing h = 2L/n."""
        return 2.0 * self.half_width / self.n

    @property
    def cell_area(self):
        return self.spacing ** 2

    def axis(self):
        """1D coordinate lattice along one axis."""
        shift = 0.5 if self.offset else 0.0
        return (np.arange(self.n) + shift) * self.spacing - self.half_width

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


@lru_cache(maxsize=16)
def _phase(grid):
    # e^{-i xi x0} per axis; x0 is the first node coordinate.
    x0 = grid.axis()[0]
    xi = 2.0 * np.pi * fft.fftfreq(grid.n, d=grid.spacing)
    p = np.exp(-1j * xi * x0)
    ph = np.outer(p, p)
    ph.setflags(write=False)
    return ph


def _rfft2(values):
    """rfft2 half spectrum, n x (n/2 + 1), of a real n x n array.

    The two passes of ``numpy.fft.rfft2``, so the same result bit for bit:
    an rfft along the last axis, then the complex fft along the first, here
    in place.  numpy's own call writes the second pass into a second new
    array, which made it about twice as slow at n = 256.
    """
    out = fft.rfft(values, axis=1)
    return fft.fft(out, axis=0, out=out)


def _irfft2(hat):
    """Real n x n array of an rfft2 half spectrum, n x (n/2 + 1).

    The two passes of ``numpy.fft.irfft2``, so the same result bit for bit:
    the complex ifft along the first axis, then an irfft along the last,
    without numpy's n-d argument handling (about 7 % of a call at n = 256).
    """
    return fft.irfft(fft.ifft(hat, axis=0), 2 * (hat.shape[1] - 1), axis=1)


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
    when a Green function's norm must be resolved accurately.
    """
    if not p >= 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf; got p = {p!r}")
    a = np.abs(f.values)
    if p == np.inf:
        return float(a.max())
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(a ** p)
    if sys.float_info.min <= total < math.inf:
        return float((total * f.grid.cell_area) ** (1.0 / p))
    # the plain sum left the normal doubles: scale by the largest |value|
    top = a.max()
    if top == 0.0:
        return 0.0
    a /= top
    with np.errstate(over="ignore", under="ignore"):
        return float(top * (np.sum(a ** p) * f.grid.cell_area) ** (1.0 / p))


def inner_product(f, g):
    """L^2 pairing sum f conj(g) h^2, conjugate-linear in the second slot."""
    if f.grid != g.grid:
        raise GridMismatchError("inner_product requires identical grids")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_area)


def heat_free(f, t):
    """Free heat flow exp(t Laplacian) f via the multiplier exp(-t |xi|^2)."""
    if t < 0:
        raise ValueError("heat_free requires t >= 0")
    if t == 0:
        return f
    mult = np.exp(-t * f.grid.wavenumber_sq())
    return Field(f.grid, fft.ifft2(mult * fft.fft2(f.values)))


def gradient(f):
    """Spectral partial derivatives (d/dx1 f, d/dx2 f)."""
    XI1, XI2 = f.grid.wavenumbers()
    hat = fft.fft2(f.values)
    dx = Field(f.grid, fft.ifft2(1j * XI1 * hat))
    dy = Field(f.grid, fft.ifft2(1j * XI2 * hat))
    return dx, dy


def gaussian_field(grid, sigma=1.0, amplitude=1.0, center=(0.0, 0.0)):
    """amplitude * exp(-|x - center|^2 / (2 sigma^2)) as a Field; finite sigma > 0, finite amplitude."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"gaussian sigma must be a finite number > 0; got {sigma!r}")
    if not np.isfinite(amplitude):
        raise ValueError(f"gaussian amplitude must be a finite number; got {amplitude!r}")
    X, Y = grid.mesh()
    r2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2
    return Field(grid, amplitude * np.exp(-r2 / (2.0 * sigma ** 2)))


# --- serialization -----------------------------------------------------------

_MAGIC = b"PIDF"
_HEADER = struct.Struct("<dQBB")  # L, n, offset, frequency-domain flag

_STATE_MAGIC = b"PIDS"
_STATE_VERSION = 1
_STATE_HEADER = struct.Struct("<dQBddd")  # L, n, offset, q, alpha, t


def save_field(f, path, t=None):
    """Write a Field, or a real solver state at time t, to a binary container.

    A :class:`Field` is written as magic ``PIDF``, L, n, offset, a zero
    byte, then its values as row-major complex64.  The zero byte is the
    frequency-domain flag of earlier versions, which wrote 1 there for a
    transformed field.  ``t`` must then be None.

    A state u = phi + q G_omega (a :class:`pideq.spectral.DecomposedField`
    of a 2-D parameter set) is written losslessly as magic ``PIDS``, a
    version byte (1), L, n, offset, q, alpha and t (0 when None) as
    float64, then phi as row-major float64: 8 bytes a point.  Its phi and q
    must be real; :func:`pideq.spectral.load_state` reads it back.
    """
    if isinstance(f, Field):
        if t is not None:
            raise ValueError("a time t is written with a state, not with a plain field")
        head = _MAGIC + _HEADER.pack(f.grid.half_width, f.grid.n, int(f.grid.offset), 0)
        payload = np.ascontiguousarray(f.values, dtype=np.complex64)
    else:
        values, q, params = f.regular.values, complex(f.coeff), f.params
        if q.imag or (np.iscomplexobj(values) and np.any(values.imag)):
            raise ValueError("a state container holds real states; this one is complex")
        if params.dimension != 2:
            raise ValueError("a state container holds 2-D states")
        grid = f.regular.grid
        head = _STATE_MAGIC + bytes([_STATE_VERSION]) + _STATE_HEADER.pack(
            grid.half_width, grid.n, int(grid.offset), q.real, params.alpha,
            0.0 if t is None else float(t),
        )
        payload = np.ascontiguousarray(values.real, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload.tobytes())


def _read_container(path):
    """(grid, values, state) of a container; state is (q, alpha, t), or None for a field.

    A file that is not a whole container, holds a frequency-domain field
    (flag byte not 0) or a state container of another version raises
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
    if raw.size != n * n:
        raise ValueError(f"{path}: truncated field payload")
    values = raw.reshape(n, n)
    if state is None:
        values = values.astype(np.complex128)
    return Grid(L, int(n), offset=bool(offset)), values, state


def _is_state_container(path):
    """Whether path is a readable file that starts as a state container."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_STATE_MAGIC)) == _STATE_MAGIC
    except OSError:
        return False


def load_field(path):
    """The field of a container written by :func:`save_field`.

    A field container gives its values as complex128 (complex64
    precision); a state container gives the state's real phi, exactly.
    A file that is not a whole container, or holds a frequency-domain field
    (flag byte not 0), raises ValueError.
    """
    grid, values, _ = _read_container(path)
    return Field(grid, values)


_CSV_BLOCK = 4096
"""Rows formatted per string by :func:`field_to_csv`."""


def field_to_csv(f, stream):
    """Write rows x,y,Re,Im in full-precision scientific notation, row-major."""
    X, Y = f.grid.mesh()
    v = f.values
    rows = np.stack([X.ravel(), Y.ravel(), v.real.ravel(), v.imag.ravel()], axis=1)
    stream.write("x,y,re,im\n")
    for lo in range(0, len(rows), _CSV_BLOCK):
        block = rows[lo:lo + _CSV_BLOCK]
        stream.write(("%.16e,%.16e,%.16e,%.16e\n" * len(block)) % tuple(block.ravel().tolist()))
