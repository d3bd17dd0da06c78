"""Spectral data of the point-interaction Laplacian.

The operator family is parametrized by alpha in (-inf, +inf]; alpha = +inf
is the free Laplacian.  In 2D every finite alpha has exactly one positive
point eigenvalue

    E_alpha = 4 exp(-4 pi alpha - 2 gamma),

the root of alpha + c(E_alpha) = 0, where

    c(lambda) = (gamma - ln 2)/(2 pi) + Log(sqrt(lambda))/(2 pi)

encodes the behaviour of the Helmholtz kernel G_lambda near the origin.
In 3D, c(lambda) = sqrt(lambda)/(4 pi) and the eigenvalue (4 pi alpha)^2
exists iff alpha < 0.  The normalized eigenfunction is
psi = G_E / ||G_E||_2 with G_lambda(x) = K0(sqrt(lambda) |x|)/(2 pi) in 2D.

Grid Riemann sums of G-type fields converge slowly near the logarithmic
singularity, so the exact L^p size of G_lambda is exposed through its
radial integral (:func:`green_lp_norm`, in closed form at p = 2) instead of
a grid sum.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy import fft

from .errors import BranchCutError, NoEigenfunctionError
from .fields import Field, _rfft2, inner_product, lp_norm
from .special import bessel_k0, bessel_k1, euler_gamma

__all__ = [
    "AlphaParams",
    "DecomposedField",
    "eigenvalue",
    "c_lambda",
    "reference_lambda",
    "green_field",
    "green_gradient_field",
    "green_lp_norm",
    "psi_alpha_field",
    "project_d",
    "project_ac",
    "h1_alpha_norm",
]

_EG = euler_gamma()


def eigenvalue(alpha, dim=2):
    """Point eigenvalue of the perturbed Laplacian, or None if absent.

    2D: 4 exp(-4 pi alpha - 2 gamma), None at alpha = +inf (the free
    Laplacian).  3D: (4 pi alpha)^2 iff alpha < 0, else None.  alpha must
    lie in (-inf, +inf]; nan and -inf raise ValueError.
    """
    if not -math.inf < alpha <= math.inf:
        raise ValueError(f"alpha must lie in (-inf, +inf]; got {alpha!r}")
    if dim == 2:
        if alpha == math.inf:
            return None
        return float(4.0 * np.exp(-4.0 * np.pi * alpha - 2.0 * _EG))
    if dim == 3:
        if alpha < 0:
            return float((4.0 * np.pi * alpha) ** 2)
        return None
    raise ValueError("dimension must be 2 or 3")


def _on_cut(lam):
    z = complex(lam)
    return z.imag == 0.0 and z.real <= 0.0


def c_lambda(lam, dim=2):
    """Scalar c(lambda), principal branch, for a finite lambda off (-inf, 0]."""
    z = complex(lam)
    if not cmath.isfinite(z):
        raise ValueError(f"c_lambda requires a finite lambda; got {lam!r}")
    if _on_cut(z):
        raise BranchCutError("c_lambda is not defined on the branch cut (-inf, 0]")
    if dim == 2:
        # Log sqrt(lambda) = ln sqrt|lambda| + (i/2) arg(lambda)
        return complex((_EG - math.log(2.0) + 0.5 * cmath.log(z)) / (2.0 * np.pi))
    if dim == 3:
        return complex(cmath.sqrt(z) / (4.0 * np.pi))
    raise ValueError("dimension must be 2 or 3")


@dataclass(frozen=True)
class AlphaParams:
    """Spectral record: dimension, alpha, eigenvalue E, and ||G_E||_{L^2}.

    ``psi_norm`` is the continuum normalization constant of the
    eigenfunction (None when the eigenvalue is absent).  It is computed from
    the closed form of the radial integral, not by a grid sum.
    """

    dimension: int
    alpha: float
    eigenvalue: float | None
    psi_norm: float | None

    @classmethod
    def for_alpha(cls, alpha, dimension=2):
        ev = eigenvalue(alpha, dimension)
        if ev is None:
            return cls(dimension, float(alpha), None, None)
        if dimension == 2:
            pn = green_lp_norm(ev, 2.0, dim=2) if ev > 0 else None
        else:
            # ||G_E||^2 = 1/(8 pi sqrt(E)) for the 3D kernel
            pn = math.sqrt(1.0 / (8.0 * np.pi * math.sqrt(ev)))
        return cls(dimension, float(alpha), float(ev), pn)

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.eigenvalue is not None and self.eigenvalue > 0.0:
            resid = abs(self.alpha + c_lambda(self.eigenvalue, self.dimension).real)
            if resid > 1e-10 * max(1.0, abs(self.alpha)):
                raise ValueError(
                    f"alpha + c(E) = {resid:.3e}; eigenvalue inconsistent with alpha"
                )


def reference_lambda(params):
    """Global decomposition reference omega = 1 + E (always above E)."""
    ev = params.eigenvalue or 0.0
    return 1.0 + ev


def green_field(lam, grid, dim=2, method="auto"):
    """Helmholtz kernel G_lambda sampled on the grid.

    Real positive lambda is sampled pointwise from the Bessel formula
    (requires the half-cell offset so the singularity is off-mesh).
    Complex lambda, or ``method='fourier'``, uses the band-limited inverse
    transform of the multiplier 1/(lambda + |xi|^2) with the Nyquist lines
    zeroed; that representation satisfies the discrete Helmholtz identity
    exactly at interior modes but differs from pointwise sampling near the
    origin by the band-limiting error.
    """
    if dim != 2:
        raise ValueError("field sampling is implemented for dim = 2 only")
    if _on_cut(lam):
        raise BranchCutError("green_field requires lambda off (-inf, 0]")
    z = complex(lam)
    if method == "auto":
        method = "direct" if z.imag == 0.0 else "fourier"
    if method == "direct":
        if z.imag != 0.0:
            raise ValueError("direct sampling requires real lambda > 0")
        if not grid.offset:
            raise ValueError("direct sampling needs the offset grid (origin off-mesh)")
        r, index = _distinct_radii(grid)
        vals = bessel_k0(np.sqrt(z.real) * r) / (2.0 * np.pi)
        return Field(grid, vals[index])
    if method == "fourier":
        from .fields import _phase

        mult = np.array(1.0 / (z + grid.wavenumber_sq()), dtype=np.complex128)
        half = grid.n // 2
        mult[half, :] = 0.0
        mult[:, half] = 0.0
        # inverse continuum transform sampled at the (offset) grid nodes
        vals = fft.ifft2(mult / _phase(grid)) / grid.cell_area
        return Field(grid, vals)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=16)
def _distinct_radii(grid):
    """(r, index): the distinct node radii of the grid and each node's index into r, read-only.

    The Bessel kernels are evaluated once per distinct radius (5487 of the
    65536 nodes at n = 256) and gathered back onto the grid.
    """
    r, index = np.unique(grid.radius(), return_inverse=True)
    index = index.reshape(grid.n, grid.n)
    r.setflags(write=False)
    index.setflags(write=False)
    return r, index


@lru_cache(maxsize=4)
def _green_gradient(lam, grid):
    """(d1 G_lam, d2 G_lam) sampled from the closed form, as read-only real arrays; lam a float.

    Cached per (lam, grid): the solver's drift kernels along every direction
    and :func:`green_gradient_field` share one K1 evaluation.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"green_gradient_field requires a finite real lambda > 0; got {lam!r}")
    if not grid.offset:
        raise ValueError("gradient sampling needs the offset grid")
    X, Y = grid.mesh()
    r, index = _distinct_radii(grid)
    s = math.sqrt(lam)
    radial = (-s * bessel_k1(s * r) / (2.0 * np.pi * r))[index]
    grads = (radial * X, radial * Y)
    for arr in grads:
        arr.setflags(write=False)
    return grads


def green_gradient_field(lam, grid):
    """Gradient of G_lambda from the closed form -sqrt(lam) K1(sqrt(lam) r) x/(2 pi r)."""
    return tuple(Field(grid, g) for g in _green_gradient(float(lam), grid))


@lru_cache(maxsize=64)
def _k0_power_moment(p):
    """integral_0^inf K0(s)^p s ds: exactly 1/2 at p = 2, else adaptive quadrature."""
    if p == 2.0:
        return 0.5
    from scipy import integrate

    val1, _ = integrate.quad(
        lambda s: bessel_k0(s) ** p * s, 0.0, 1.0, limit=200, epsabs=1e-13, epsrel=1e-12
    )
    val2, _ = integrate.quad(
        lambda s: bessel_k0(s) ** p * s, 1.0, 60.0 / max(p, 1.0) + 5.0, limit=200,
        epsabs=1e-14, epsrel=1e-12,
    )
    return val1 + val2


def green_lp_norm(lam, p, dim=2):
    """Exact (radial integral) L^p(R^2) norm of G_lambda, real lambda > 0, finite p >= 1.

    Handles the singular part analytically; obeys the rescaling law
    ||G_lam||_p = lam^(N/2 - 1 - N/(2p)) ||G_1||_p by construction.
    """
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError(f"green_lp_norm requires a finite real lambda > 0; got {lam!r}")
    if dim != 2:
        raise ValueError("radial quadrature implemented for dim = 2 only")
    if not 1.0 <= p < math.inf:
        raise ValueError(f"green_lp_norm requires a finite p >= 1; got {p!r}")
    moment = _k0_power_moment(float(p))
    # ||G||_p^p = 2 pi (2 pi)^-p lam^-1 int K0(s)^p s ds
    return float((2.0 * np.pi * (2.0 * np.pi) ** (-p) / lam * moment) ** (1.0 / p))


@lru_cache(maxsize=8)
def _psi_values(params, grid):
    if params.eigenvalue is None or params.eigenvalue <= 0.0:
        raise NoEigenfunctionError(
            f"alpha = {params.alpha} (dim {params.dimension}) has no eigenfunction"
        )
    g = green_field(params.eigenvalue, grid, method="direct")
    nrm = lp_norm(g, 2)
    vals = g.values / nrm
    vals.setflags(write=False)
    return vals


def psi_alpha_field(params, grid):
    """Normalized eigenfunction sampled on the grid (unit grid L^2 norm)."""
    return Field(grid, _psi_values(params, grid))


def project_d(f, params):
    """Rank-one projection onto the eigenfunction; zero if no eigenvalue."""
    if params.eigenvalue is None:
        return Field(f.grid, np.zeros_like(f.values))
    psi = psi_alpha_field(params, f.grid)
    return inner_product(f, psi) * psi


def project_ac(f, params):
    """Projection onto the absolutely continuous subspace, I - P_d."""
    if params.eigenvalue is None:
        return f
    return f - project_d(f, params)


@dataclass(frozen=True)
class DecomposedField:
    """State u = regular + coeff * G_omega with regular in H^1.

    The reference is always omega = :func:`reference_lambda` (params) =
    1 + E: for any admissible lambda the split describes the same function,
    so one fixed reference suffices.  The singular coefficient is tracked
    constructively by the operators that produce states; it is never fitted
    from samples.
    """

    regular: Field
    coeff: complex
    params: AlphaParams

    @classmethod
    def from_field(cls, f, params):
        """Lift a plain field (zero singular part)."""
        return cls(f, 0.0 + 0.0j, params)


@lru_cache(maxsize=8)
def _hermitian_weights(n):
    """Column weights of the rfft2 half spectrum of a real n x n field.

    Column 0 and the Nyquist column weigh 1; every column between weighs 2,
    because it also stands for its mirror column, which holds its conjugate.
    """
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    w.setflags(write=False)
    return w


def _real_parts(values):
    """rfft2 half spectra of Re values and, when it is not zero, of Im values.

    Every operator of the package is real, so it acts on a complex field
    part by part: applied to each half spectrum, it gives the transforms of
    the real and the imaginary part of its output.
    """
    parts = [_rfft2(values.real)]
    if np.any(values.imag):
        parts.append(_rfft2(values.imag))
    return parts


@lru_cache(maxsize=4)
def _h1_weights(grid):
    """(1 + |xi|^2) times the Hermitian column weights on the rfft2 half spectrum, read-only."""
    w = 1.0 + grid.wavenumber_sq()[:, :grid.n // 2 + 1]
    w *= _hermitian_weights(grid.n)
    w.setflags(write=False)
    return w


def _h1_kernel(grid, khat):
    """(w khat, C) of a kernel G given by its half spectrum: the constants of the proxy's form.

    w is :func:`_h1_weights` and C = wlat sum w |khat|^2, G's own squared
    proxy part; both read-only inputs of :func:`_h1_proxy_hat`.
    """
    w = _h1_weights(grid)
    wk = w * khat
    wk.setflags(write=False)
    wlat = grid.cell_area / grid.n ** 2
    return wk, wlat * float(np.vdot(w, khat.real ** 2 + khat.imag ** 2))


def _h1_proxy_hat(grid, uhat, q, kernel=None):
    """(||phi||_2^2 + ||grad phi||_2^2 + q^2)^(1/2) for phi = u - q G, by Parseval.

    ``uhat`` is the rfft2 half spectrum of a real u and q is real; the sum
    of re^2 + im^2 is taken against :func:`_h1_weights`.  Without
    ``kernel``, phi = u.  With ``kernel`` = :func:`_h1_kernel` of G, phi's
    transform is never formed: ||phi||^2 = A - 2 q Re X + q^2 C, with A the
    weighted |u_hat|^2 and X the weighted sum u_hat conj(G_hat), clamped at
    0 against cancellation.
    """
    wlat = grid.cell_area / grid.n ** 2
    dens = wlat * float(np.vdot(_h1_weights(grid), uhat.real ** 2 + uhat.imag ** 2))
    if kernel is not None:
        wk, cc = kernel
        cross = wlat * q * np.vdot(wk, uhat).real
        dens = max(dens - 2.0 * cross + q * q * cc, 0.0)
    return math.sqrt(dens + q * q)


def h1_alpha_norm(u):
    """Norm proxy (||phi||_2^2 + ||grad phi||_2^2 + |coeff|^2)^(1/2), the solver's measure.

    A complex phi's proxy sums those of its real and imaginary parts.
    """
    grid = u.regular.grid
    dens = sum(_h1_proxy_hat(grid, part, 0.0) ** 2 for part in _real_parts(u.regular.values))
    return math.sqrt(dens + abs(u.coeff) ** 2)
