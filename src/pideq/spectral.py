"""Spectral data of the point-interaction Laplacian.

The operator family is parametrized by alpha in (-inf, +inf]; alpha = +inf
is the free Laplacian.  In 2D every finite alpha has exactly one positive
point eigenvalue

    E_alpha = 4 exp(-4 pi alpha - 2 gamma),

the root of alpha + c(E_alpha) = 0, where

    c(lambda) = (gamma - ln 2)/(2 pi) + Log(sqrt(lambda))/(2 pi)

encodes the behaviour of the Helmholtz kernel G_lambda near the origin.
The normalized eigenfunction is psi = G_E / ||G_E||_2 with
G_lambda(x) = K0(sqrt(lambda) |x|)/(2 pi), which :func:`green_field`
samples pointwise at the grid's half-cell nodes.  psi's grid samples and
the projections P_d and P_ac are fixed by the pair (alpha, grid), so they
live with the grid model in :mod:`pideq.semigroup`.

Grid Riemann sums of G-type fields converge slowly near the logarithmic
singularity, so the exact L^2 size of G_lambda, which normalizes psi, is
exposed in closed form (:func:`green_lp_norm`) instead of a grid sum.
numpy is the only dependency.
"""

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BranchCutError
from .fields import Field, _read_container, _real, _real_parts, _sum_scale
from .special import bessel_k0, bessel_k1, euler_gamma

__all__ = [
    "AlphaParams",
    "DecomposedField",
    "eigenvalue",
    "c_lambda",
    "reference_lambda",
    "green_field",
    "green_lp_norm",
    "h1_alpha_norm",
    "load_state",
]

_EG = euler_gamma()


def eigenvalue(alpha):
    """Point eigenvalue 4 exp(-4 pi alpha - 2 gamma), or None at alpha = +inf.

    alpha = +inf is the free Laplacian, which has no eigenvalue.  alpha must
    be a real number in (-inf, +inf]; anything else (a string, nan, -inf)
    raises ValueError, and so does an alpha whose eigenvalue is not a
    finite, normal, positive double (alpha above about 56.39 or below about
    -56.46).
    """
    if not _real(alpha):
        raise ValueError(f"alpha must be a real number; got {alpha!r}")
    if not -math.inf < alpha <= math.inf:
        raise ValueError(f"alpha must lie in (-inf, +inf]; got {alpha!r}")
    if alpha == math.inf:
        return None
    with np.errstate(over="ignore", under="ignore"):
        ev = float(4.0 * np.exp(-4.0 * np.pi * alpha - 2.0 * _EG))
    if not sys.float_info.min <= ev < math.inf:
        raise ValueError(
            f"alpha = {alpha!r} has the eigenvalue E = {ev!r}, outside the finite, "
            "normal, positive doubles"
        )
    return ev


def c_lambda(lam):
    """Scalar c(lambda), principal branch, for a finite lambda off (-inf, 0]."""
    if not (_real(lam, numbers.Complex) and cmath.isfinite(lam)):
        raise ValueError(f"c_lambda requires a finite lambda; got {lam!r}")
    z = complex(lam)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError("c_lambda is not defined on the branch cut (-inf, 0]")
    # Log sqrt(lambda) = ln sqrt|lambda| + (i/2) arg(lambda)
    return complex((_EG - math.log(2.0) + 0.5 * cmath.log(z)) / (2.0 * np.pi))


@dataclass(frozen=True)
class AlphaParams:
    """Spectral record of alpha: ``AlphaParams(alpha)`` holds alpha, E and ||G_E||_{L^2}.

    alpha is the one argument; the other two are functions of it:
    ``eigenvalue`` is :func:`eigenvalue` (alpha) and ``psi_norm``, the
    continuum normalization constant of the eigenfunction, is
    :func:`green_lp_norm` (E, 2), the closed form of the radial integral,
    not a grid sum.  Both are None at alpha = +inf, which has no eigenvalue.
    """

    alpha: float
    eigenvalue: float | None = field(init=False)
    psi_norm: float | None = field(init=False)

    @classmethod
    def for_alpha(cls, alpha, dimension=2):
        """The record of alpha in the plane; any second argument but 2 raises ValueError."""
        if dimension != 2:
            raise ValueError(f"only dimension 2 is supported; got dimension = {dimension!r}")
        return cls(alpha)

    def __post_init__(self):
        ev = eigenvalue(self.alpha)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "eigenvalue", ev)
        object.__setattr__(self, "psi_norm", None if ev is None else green_lp_norm(ev, 2.0))


def reference_lambda(params):
    """Global decomposition reference omega = 1 + E (always above E)."""
    ev = params.eigenvalue or 0.0
    return 1.0 + ev


def green_field(lam, grid):
    """Helmholtz kernel G_lambda = K0(sqrt(lambda) |x|)/(2 pi), sampled pointwise.

    lambda is a finite real number > 0: a real lambda <= 0 raises
    BranchCutError and any other lambda ValueError.  The grid's nodes sit
    at half-cell centres, so the logarithmic singularity is off-mesh.
    """
    if not _real(lam, numbers.Complex):
        raise ValueError(f"green_field requires a finite real lambda > 0; got {lam!r}")
    z = complex(lam)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError("green_field requires lambda off (-inf, 0]")
    if z.imag != 0.0 or not math.isfinite(z.real):
        raise ValueError(f"green_field requires a finite real lambda > 0; got {lam!r}")
    r, index = _distinct_radii(grid)
    vals = bessel_k0(math.sqrt(z.real) * r) / (2.0 * np.pi)
    return Field(grid, vals[index])


def _distinct_radii(grid):
    """(r, index): the distinct node radii of the grid, increasing, and each node's index into r.

    A node's coordinates are odd multiples of h/2, (h/2)(a, b), so
    r = (h/2) sqrt(a^2 + b^2) with a^2 + b^2 = 2 (mod 8): the integer key
    (a^2 + b^2) // 8 names each radius once.  A presence table over the
    keys gives the distinct radii and, by its running count, each node's
    index, with no float sort.  The Bessel kernels are evaluated once per
    distinct radius (5473 of the 65536 nodes at n = 256) and gathered back
    onto the grid.
    """
    odd = np.arange(1 - grid.n, grid.n, 2) ** 2
    key = (odd[:, None] + odd[None, :]) // 8
    present = np.bincount(key.ravel()) > 0
    r = 0.5 * grid.spacing * np.sqrt(8.0 * np.flatnonzero(present) + 2.0)
    return r, (np.cumsum(present) - 1)[key]


def _green_gradient(lam, grid):
    """(d1 G_lam, d2 G_lam) sampled from the closed form, as real arrays; lam a finite float > 0."""
    X, Y = grid.mesh()
    r, index = _distinct_radii(grid)
    s = math.sqrt(lam)
    radial = (-s * bessel_k1(s * r) / (2.0 * np.pi * r))[index]
    return radial * X, radial * Y


def green_lp_norm(lam, p):
    """Exact L^2(R^2) norm of G_lambda, real lambda > 0: 1/(2 sqrt(pi lambda)).

    ||G_lam||_p^p = 2 pi (2 pi)^-p lam^-1 M_p, M_p = int_0^inf K0(s)^p s ds,
    with M_2 = 1/2 in closed form, so the singular part is resolved
    exactly.  p must be 2; any other p raises ValueError.  A subnormal
    lambda, whose 1/lambda overflows, is scaled by 2^54 first, exactly.
    """
    if not (_real(lam) and 0.0 < lam < math.inf):
        raise ValueError(f"green_lp_norm requires a finite real lambda > 0; got {lam!r}")
    lam = float(lam)
    if p != 2:
        raise ValueError(f"green_lp_norm has the closed form at p = 2 only; got p = {p!r}")
    if lam < sys.float_info.min:
        return green_lp_norm(lam * 2.0 ** 54, p) * 2.0 ** 27
    return float((2.0 * np.pi * (2.0 * np.pi) ** (-p) / lam * 0.5) ** (1.0 / p))


@dataclass(frozen=True)
class DecomposedField:
    """State u = regular + coeff * G_omega with regular in H^1.

    The reference is always omega = :func:`reference_lambda` (params) =
    1 + E: for any admissible lambda the split describes the same function,
    so one fixed reference suffices.  The singular coefficient is tracked
    constructively by the operators that produce states; it is never fitted
    from samples.  It must be a finite number, complex allowed.
    """

    regular: Field
    coeff: complex
    params: AlphaParams

    def __post_init__(self):
        if not (_real(self.coeff, numbers.Complex) and cmath.isfinite(self.coeff)):
            raise ValueError(f"a state's coeff must be a finite number; got {self.coeff!r}")

    @classmethod
    def from_field(cls, f, params):
        """Lift a plain field (zero singular part)."""
        return cls(f, 0.0 + 0.0j, params)


def load_state(path):
    """(state, t) of a state container written by ``save_field(state, path, t=t)``.

    The state is the :class:`DecomposedField` (phi, q, AlphaParams of the
    stored alpha) exactly as written: phi as float64, q as a float.  A field
    container, or a file that is not a whole container, raises ValueError.
    """
    grid, values, state = _read_container(path)
    if state is None:
        raise ValueError(f"{path}: a field container, not a state container")
    return _container_state(grid, values, state)


def _container_state(grid, values, state):
    """(state, t) of a state container read by ``fields._read_container``: phi, q, alpha and t."""
    q, alpha, t = state
    return DecomposedField(Field(grid, values), q, AlphaParams.for_alpha(alpha)), t


def _hermitian_weights(n):
    """Column weights of the rfft2 half spectrum of a real n x n field.

    Column 0 and the Nyquist column weigh 1; every column between weighs 2,
    because it also stands for its mirror column, which holds its conjugate.
    """
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


def _h1_weights(grid):
    """(1 + |xi|^2) times the Hermitian column weights on the rfft2 half spectrum."""
    w = 1.0 + grid.wavenumber_sq()[:, :grid.n // 2 + 1]
    w *= _hermitian_weights(grid.n)
    return w


def _h1_proxy_hat(grid, uhat, q, kernel=None, work=None):
    """(||phi||_2^2 + ||grad phi||_2^2 + q^2)^(1/2) for phi = u - q G, by Parseval.

    ``uhat`` is the rfft2 half spectrum of a real u and q is real; the sum
    of re^2 + im^2 is taken against :func:`_h1_weights`, built here only
    without ``kernel``, where phi = u.  With ``kernel`` = (w, w G_hat, C),
    the weights and the form constants of a kernel G (the grid model's
    ``h1_kernel`` holds G_omega's), phi's transform is never formed:
    ||phi||^2 = A - 2 q Re X + q^2 C, with A the weighted |u_hat|^2, X the
    weighted sum u_hat conj(G_hat) and C = wlat sum w |G_hat|^2, held at or
    above 0 against cancellation.  ``work`` is two real arrays of uhat's
    shape, which take re^2 + im^2 and im^2; None allocates them.
    """
    wlat = grid.cell_area / grid.n ** 2
    w = _h1_weights(grid) if kernel is None else kernel[0]
    squares, imag_sq = (None, None) if work is None else work
    squares = np.square(uhat.real, out=squares)
    squares += np.square(uhat.imag, out=imag_sq)
    dens = wlat * float(np.vdot(w, squares))
    if kernel is not None:
        _, wk, cc = kernel
        cross = wlat * q * np.vdot(wk, uhat).real
        dens = max(dens - 2.0 * cross + q * q * cc, 0.0)
    return math.sqrt(dens + q * q)


def h1_alpha_norm(u):
    """Norm proxy (||phi||_2^2 + ||grad phi||_2^2 + |coeff|^2)^(1/2), the solver's measure.

    A complex phi's proxy sums those of its real and imaginary parts.  The
    sum runs through ``math.hypot``, so a large coefficient cannot overflow
    it, and a part is scaled by its largest modulus first only when its
    weighted sum could leave the normal doubles (``fields._sum_scale``).
    """
    grid = u.regular.grid
    top_weight = 2.0 * (1.0 + 2.0 * (math.pi / grid.spacing) ** 2)
    parts = []
    for part in _real_parts(u.regular.values):
        scale = _sum_scale(float(np.abs(part).max()), 2.0, top_weight * part.size)
        parts.append(scale * _h1_proxy_hat(grid, part if scale == 1.0 else part / scale, 0.0))
    return math.hypot(*parts, abs(u.coeff))
