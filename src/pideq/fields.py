"""Grid-sampled complex fields on [-L, L]^2 with Fourier-spectral operations.

A :class:`Grid` is a uniform periodic n x n mesh on the square [-L, L]^2.
With the half-cell ``offset`` switched on (the default) the origin is not a
mesh node, which keeps logarithmically singular kernels finite everywhere.
A :class:`Field` is an immutable complex array together with its grid.

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

    def mesh(self):
        """Coordinate arrays X, Y with 'ij' indexing."""
        return _mesh(self)

    def radius(self):
        """Distance from the origin at every node."""
        return _radius(self)

    def wavenumbers(self):
        """Angular wavenumber arrays (XI1, XI2), unshifted FFT order."""
        return _wavenumbers(self)

    def wavenumber_sq(self):
        """|xi|^2 on the unshifted FFT lattice."""
        return _wavenumber_sq(self)


@lru_cache(maxsize=16)
def _mesh(grid):
    x = grid.axis()
    X, Y = np.meshgrid(x, x, indexing="ij")
    X.setflags(write=False)
    Y.setflags(write=False)
    return X, Y


@lru_cache(maxsize=16)
def _radius(grid):
    X, Y = _mesh(grid)
    r = np.hypot(X, Y)
    r.setflags(write=False)
    return r


@lru_cache(maxsize=16)
def _wavenumbers(grid):
    xi = 2.0 * np.pi * fft.fftfreq(grid.n, d=grid.spacing)
    XI1, XI2 = np.meshgrid(xi, xi, indexing="ij")
    XI1.setflags(write=False)
    XI2.setflags(write=False)
    return XI1, XI2


@lru_cache(maxsize=16)
def _wavenumber_sq(grid):
    XI1, XI2 = _wavenumbers(grid)
    s = XI1 ** 2 + XI2 ** 2
    s.setflags(write=False)
    return s


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
    """A complex-valued function sampled on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
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
        return Field(self.grid, self.values * complex(scalar))

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
    return float((np.sum(a ** p) * f.grid.cell_area) ** (1.0 / p))


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


def save_field(f, path):
    """Binary container: magic, L, n, offset, a zero byte, row-major complex64.

    The zero byte is the frequency-domain flag of earlier versions, which
    wrote 1 there for a transformed field.
    """
    import struct

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<dQBB", f.grid.half_width, f.grid.n, int(f.grid.offset), 0
            )
        )
        fh.write(np.ascontiguousarray(f.values, dtype=np.complex64).tobytes())


def load_field(path):
    """Read a field written by :func:`save_field` (complex64 precision).

    A file that is not a whole field container, or holds a frequency-domain
    field (flag byte not 0), raises ValueError.
    """
    import struct

    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field container")
        header = fh.read(18)
        if len(header) != 18:
            raise ValueError(f"{path}: truncated field header")
        L, n, offset, freq = struct.unpack("<dQBB", header)
        if freq:
            raise ValueError(f"{path}: frequency-domain field containers are not supported")
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    if raw.size != n * n:
        raise ValueError(f"{path}: truncated field payload")
    grid = Grid(L, int(n), offset=bool(offset))
    return Field(grid, raw.reshape(n, n).astype(np.complex128))


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
