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
* :func:`fourier` approximates the continuous transform
  F(xi) = integral f(x) exp(-i xi . x) dx on the angular frequency lattice
  xi = 2 pi k / (2L).  The returned field lives on the *ordinary* frequency
  grid nu = xi / (2 pi) (spacing 1/(2L)), which makes the Riemann-sum
  Plancherel identity ||f||_2 = ||fourier(f)||_2 exact up to rounding.
* Operations that are diagonal in Fourier space (heat flow, derivatives,
  resolvent multipliers) act through plain unshifted FFTs; the absolute
  phase bookkeeping of the offset grid cancels in all such products.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "Field",
    "lp_norm",
    "inner_product",
    "fourier",
    "inverse_fourier",
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
    freq : bool
        Marks a frequency-domain grid produced by :func:`fourier`.  Its
        coordinate lattice always contains 0; ``offset`` then records the
        convention of the originating spatial grid.
    """

    half_width: float
    n: int
    offset: bool = True
    freq: bool = False

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ValueError("half_width must be positive")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two with n >= 16")

    @property
    def spacing(self):
        """Mesh spacing h = 2L/n."""
        return 2.0 * self.half_width / self.n

    @property
    def cell_area(self):
        return self.spacing ** 2

    def axis(self):
        """1D coordinate lattice along one axis."""
        shift = 0.5 if (self.offset and not self.freq) else 0.0
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
    functions) converge slowly; use the radial quadratures in
    ``pideq.spectral`` when singular parts must be resolved accurately.
    """
    if p != np.inf and p < 1:
        raise ValueError("lp_norm requires p >= 1 or p = inf")
    a = np.abs(f.values)
    if p == np.inf:
        return float(a.max())
    return float((np.sum(a ** p) * f.grid.cell_area) ** (1.0 / p))


def inner_product(f, g):
    """L^2 pairing sum f conj(g) h^2, conjugate-linear in the second slot."""
    if f.grid != g.grid:
        raise GridMismatchError("inner_product requires identical grids")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_area)


def fourier(f):
    """Continuous-transform approximation of f, as a field on the nu-grid.

    Values are F(xi) = h^2 sum_j f(x_j) exp(-i xi x_j) at xi = 2 pi nu,
    stored in increasing-nu order.
    """
    g = f.grid
    if g.freq:
        raise ValueError("field is already in the frequency domain")
    hat = g.cell_area * _phase(g) * fft.fft2(f.values)
    fgrid = Grid(g.n / (4.0 * g.half_width), g.n, offset=g.offset, freq=True)
    return Field(fgrid, fft.fftshift(hat))


def inverse_fourier(F):
    """Invert :func:`fourier`; exact round trip up to rounding."""
    fg = F.grid
    if not fg.freq:
        raise ValueError("inverse_fourier expects a frequency-domain field")
    L = fg.n / (4.0 * fg.half_width)
    grid = Grid(L, fg.n, offset=fg.offset, freq=False)
    hat = fft.ifftshift(F.values)
    vals = fft.ifft2(hat / (_phase(grid) * grid.cell_area))
    return Field(grid, vals)


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
    """amplitude * exp(-|x - center|^2 / (2 sigma^2)) as a Field."""
    X, Y = grid.mesh()
    r2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2
    return Field(grid, amplitude * np.exp(-r2 / (2.0 * sigma ** 2)))


# --- serialization -----------------------------------------------------------

_MAGIC = b"PIDF"


def save_field(f, path):
    """Binary container: magic, L, n, offset, freq, row-major complex64."""
    import struct

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<dQBB", f.grid.half_width, f.grid.n, int(f.grid.offset), int(f.grid.freq)
            )
        )
        fh.write(np.ascontiguousarray(f.values, dtype=np.complex64).tobytes())


def load_field(path):
    """Read a field written by :func:`save_field` (complex64 precision)."""
    import struct

    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field container")
        L, n, offset, freq = struct.unpack("<dQBB", fh.read(18))
        raw = np.frombuffer(fh.read(), dtype=np.complex64)
    if raw.size != n * n:
        raise ValueError(f"{path}: truncated field payload")
    grid = Grid(L, int(n), offset=bool(offset), freq=bool(freq))
    return Field(grid, raw.reshape(n, n).astype(np.complex128))


def field_to_csv(f, stream):
    """Write rows x,y,Re,Im in full-precision scientific notation."""
    X, Y = f.grid.mesh()
    v = f.values
    write = stream.write
    write("x,y,re,im\n")
    for i in range(f.grid.n):
        for j in range(f.grid.n):
            write(
                f"{X[i, j]:.16e},{Y[i, j]:.16e},{v[i, j].real:.16e},{v[i, j].imag:.16e}\n"
            )
