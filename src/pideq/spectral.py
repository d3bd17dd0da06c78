"""Spectral data of the point-interaction Laplacian.

The operator family is parametrized by alpha in (-inf, +inf]; alpha = +inf
is the free Laplacian.  In 2D there is always exactly one positive point
eigenvalue

    E_alpha = 4 exp(-4 pi alpha - 2 gamma),

the root of alpha + c(E_alpha) = 0, where

    c(lambda) = (gamma - ln 2)/(2 pi) + Log(sqrt(lambda))/(2 pi)

encodes the behaviour of the Helmholtz kernel G_lambda near the origin.
In 3D, c(lambda) = sqrt(lambda)/(4 pi) and the eigenvalue (4 pi alpha)^2
exists iff alpha < 0.  The normalized eigenfunction is
psi = G_E / ||G_E||_2 with G_lambda(x) = K0(sqrt(lambda) |x|)/(2 pi) in 2D.

Grid Riemann sums of G-type fields converge slowly near the logarithmic
singularity, so the exact L^p sizes of G_lambda and its gradient are
exposed through radial quadratures (:func:`green_lp_norm`,
:func:`green_gradient_lp_norm`) instead of grid sums.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft, integrate

from .errors import BranchCutError, NoEigenfunctionError
from .fields import Field, Grid, gradient, inner_product, lp_norm
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
    "green_gradient_lp_norm",
    "psi_alpha_field",
    "project_d",
    "project_ac",
    "h1_alpha_norm",
]

_EG = euler_gamma()


def eigenvalue(alpha, dim=2):
    """Point eigenvalue of the perturbed Laplacian, or None if absent.

    2D: always 4 exp(-4 pi alpha - 2 gamma).  3D: (4 pi alpha)^2 iff
    alpha < 0, else None.
    """
    if dim == 2:
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
    """Scalar c(lambda), principal branch, for lambda off (-inf, 0]."""
    if _on_cut(lam):
        raise BranchCutError("c_lambda is not defined on the branch cut (-inf, 0]")
    z = complex(lam)
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
    eigenfunction (None when the eigenvalue is absent).  It is computed by
    radial quadrature, not by a grid sum.
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
        r = grid.radius()
        vals = bessel_k0(np.sqrt(z.real) * r) / (2.0 * np.pi)
        return Field(grid, vals)
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


def green_gradient_field(lam, grid):
    """Gradient of G_lambda from the closed form -sqrt(lam) K1(sqrt(lam) r) x/(2 pi r)."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("green_gradient_field requires real lambda > 0")
    if not grid.offset:
        raise ValueError("gradient sampling needs the offset grid")
    X, Y = grid.mesh()
    r = grid.radius()
    s = math.sqrt(lam)
    radial = -s * bessel_k1(s * r) / (2.0 * np.pi * r)
    return Field(grid, radial * X), Field(grid, radial * Y)


@lru_cache(maxsize=64)
def _k0_power_moment(p):
    """integral_0^inf K0(s)^p s ds by adaptive quadrature."""
    val1, _ = integrate.quad(
        lambda s: bessel_k0(s) ** p * s, 0.0, 1.0, limit=200, epsabs=1e-13, epsrel=1e-12
    )
    val2, _ = integrate.quad(
        lambda s: bessel_k0(s) ** p * s, 1.0, 60.0 / max(p, 1.0) + 5.0, limit=200,
        epsabs=1e-14, epsrel=1e-12,
    )
    return val1 + val2


@lru_cache(maxsize=64)
def _k1_power_moment(p):
    """integral_0^inf K1(s)^p s ds; finite iff p < 2."""
    if p >= 2:
        raise ValueError("|grad G| is not p-integrable for p >= 2 in 2D")
    val1, _ = integrate.quad(
        lambda s: bessel_k1(s) ** p * s, 0.0, 1.0, limit=300, epsabs=1e-13, epsrel=1e-12
    )
    val2, _ = integrate.quad(
        lambda s: bessel_k1(s) ** p * s, 1.0, 60.0 / max(p, 1.0) + 5.0, limit=200,
        epsabs=1e-14, epsrel=1e-12,
    )
    return val1 + val2


def green_lp_norm(lam, p, dim=2):
    """Exact (radial quadrature) L^p(R^2) norm of G_lambda, real lambda > 0.

    Handles the singular part analytically; obeys the rescaling law
    ||G_lam||_p = lam^(N/2 - 1 - N/(2p)) ||G_1||_p by construction.
    """
    lam = float(lam)
    if lam <= 0:
        raise ValueError("green_lp_norm requires real lambda > 0")
    if dim != 2:
        raise ValueError("radial quadrature implemented for dim = 2 only")
    if p < 1:
        raise ValueError("p >= 1 required")
    moment = _k0_power_moment(float(p))
    # ||G||_p^p = 2 pi (2 pi)^-p lam^-1 int K0(s)^p s ds
    return float((2.0 * np.pi * (2.0 * np.pi) ** (-p) / lam * moment) ** (1.0 / p))


def green_gradient_lp_norm(lam, p):
    """Exact L^p(R^2) norm of grad G_lambda (finite iff p < 2)."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("green_gradient_lp_norm requires real lambda > 0")
    moment = _k1_power_moment(float(p))
    pw = p / 2.0 - 1.0  # lam^(p/2) from K1, lam^-1 from rescaling the measure
    return float((2.0 * np.pi * (2.0 * np.pi) ** (-p) * lam ** pw * moment) ** (1.0 / p))


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
    """State u = regular + coeff * G_{lambda_ref} with regular in H^1.

    The singular coefficient is tracked constructively by the operators
    that produce states; it is never fitted from samples.
    """

    regular: Field
    coeff: complex
    lambda_ref: float
    params: AlphaParams

    def __post_init__(self):
        if not self.lambda_ref > 0:
            raise ValueError("lambda_ref must be positive")
        ev = self.params.eigenvalue
        if ev is not None and self.lambda_ref == ev:
            raise ValueError("lambda_ref must differ from the eigenvalue")

    @classmethod
    def from_field(cls, f, params, lambda_ref=None):
        """Lift a plain field (zero singular part)."""
        lam = reference_lambda(params) if lambda_ref is None else lambda_ref
        return cls(f, 0.0 + 0.0j, lam, params)


def h1_alpha_norm(u):
    """Norm proxy (||phi||_2^2 + ||grad phi||_2^2 + |coeff|^2)^(1/2)."""
    phi = u.regular
    dx, dy = gradient(phi)
    return float(
        np.sqrt(
            lp_norm(phi, 2) ** 2
            + lp_norm(dx, 2) ** 2
            + lp_norm(dy, 2) ** 2
            + abs(u.coeff) ** 2
        )
    )
