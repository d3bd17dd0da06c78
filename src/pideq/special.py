"""Modified Bessel functions of the second kind and the Euler-Mascheroni constant.

These scalars sit underneath every Green function in the package:
K0 gives the 2D Helmholtz kernel, K0' = -K1 gives its gradient, and the
Euler-Mascheroni constant enters the small-argument behaviour of K0 and
hence the scalar function ``c_lambda``.

Arguments are real and evaluated with the cephes routines wrapped by
scipy.special (relative error well below 1e-13 over the whole axis).  The
test-suite checks them against independent quadrature oracles.
"""

import numpy as np
from scipy import special as _sp

__all__ = ["bessel_k0", "bessel_k1", "euler_gamma"]


def euler_gamma():
    """Euler-Mascheroni constant gamma = 0.5772156649015329 (15+ digits)."""
    return float(np.euler_gamma)


def bessel_k0(x):
    """K0(x) for real x > 0.  Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("bessel_k0 requires x > 0")
    out = _sp.k0(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bessel_k1(x):
    """K1(x) for real x > 0.  Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("bessel_k1 requires x > 0")
    out = _sp.k1(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out

