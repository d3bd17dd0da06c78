"""Modified Bessel functions of the second kind and the Euler-Mascheroni constant.

These scalars sit underneath every Green function in the package:
K0 gives the 2D Helmholtz kernel, K0' = -K1 gives its gradient, and the
Euler-Mascheroni constant enters the small-argument behaviour of K0 and
hence the scalar function ``c_lambda``.

Arguments are real and evaluated with numpy alone, in two ranges:

* x <= 2: the ascending series (Abramowitz & Stegun 9.6.13 and 9.6.11)

      K0(x) = sum_k y^k / (k!)^2 (H_k - ln(x/2) - gamma),
      K1(x) = 1/x + (x/2) sum_k y^k / (k! (k+1)!) (ln(x/2) + gamma - (H_k + H_{k+1})/2),

  with y = x^2/4 and H_k the harmonic numbers, to k = ``SERIES_TERMS`` - 1;
* x > 2: the trapezoid rule on
  K_nu(x) = e^{-x} integral_0^inf exp(-2x sinh^2(t/2)) cosh(nu t) dt, whose
  integrand is analytic and falls off like exp(-x e^t / 2), so the rule
  converges geometrically.  Each point takes ``TRAPEZOID_STEPS`` steps up to
  t = acosh(1 + 40/x), where the exponent reaches 40.

Both stay within 2.2e-15 relative of the cephes routines (``scipy.special.k0``
and ``k1``) from 1e-9 to 700; the test-suite checks them against those and
against quadrature oracles.
"""

import numpy as np

__all__ = ["bessel_k0", "bessel_k1", "euler_gamma"]

SERIES_TERMS = 14
"""Terms of the x <= 2 series; the last is below 1e-18 of the sum."""

TRAPEZOID_STEPS = 20
"""Trapezoid steps per point for x > 2."""


def euler_gamma():
    """Euler-Mascheroni constant gamma = 0.5772156649015329 (15+ digits)."""
    return float(np.euler_gamma)


def _series(nu, x):
    """K_nu(x), nu = 0 or 1, by the ascending series; x <= 2."""
    y = 0.25 * x * x
    log_term = np.log(0.5 * x) + np.euler_gamma
    coef = np.ones_like(x) if nu == 0 else 0.5 * x
    total = np.zeros_like(x) if nu == 0 else 1.0 / x
    h_k, h_next = 0.0, 1.0
    for k in range(SERIES_TERMS):
        if nu == 0:
            total += coef * (h_k - log_term)
            coef = coef * y / ((k + 1) * (k + 1))
        else:
            total += coef * (log_term - 0.5 * (h_k + h_next))
            coef = coef * y / ((k + 1) * (k + 2))
        h_k, h_next = h_next, h_next + 1.0 / (k + 2)
    return total


def _trapezoid(nu, x):
    """K_nu(x), nu = 0 or 1, by the trapezoid rule on its integral; x > 2."""
    step = np.arccosh(1.0 + 40.0 / x) / TRAPEZOID_STEPS
    s2 = np.sinh((0.5 * step)[:, None] * np.arange(TRAPEZOID_STEPS + 1))
    s2 *= s2
    f = s2 * (-2.0 * x)[:, None]
    np.exp(f, out=f)
    if nu == 1:
        # cosh t = 1 + 2 sinh^2(t/2)
        s2 *= 2.0
        s2 += 1.0
        f *= s2
    return np.exp(-x) * step * (f.sum(axis=1) - 0.5 * f[:, 0])


def _bessel_k(nu, x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires x > 0")
    flat = arr.ravel()
    out = np.empty_like(flat)
    small = flat <= 2.0
    out[small] = _series(nu, flat[small])
    out[~small] = _trapezoid(nu, flat[~small])
    return float(out[0]) if np.isscalar(x) or arr.ndim == 0 else out.reshape(arr.shape)


def bessel_k0(x):
    """K0(x) for real x > 0.  Accepts scalars or arrays."""
    return _bessel_k(0, x, "bessel_k0")


def bessel_k1(x):
    """K1(x) for real x > 0.  Accepts scalars or arrays."""
    return _bessel_k(1, x, "bessel_k1")
