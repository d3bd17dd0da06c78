"""Decay-rate experiments: log-log fits of semigroup and solver norms.

The linear experiments fit || S(t) P_ac g ||_p (and its gradient) against t
on [1, 50] and compare with the theoretical exponents

    || S(t) P_ac g ||_p      ~ t^(-(N/2)(1/q - 1/p)) ||g||_q,
    || grad S(t) P_ac g ||_p ~ t^(-1/2 - (1/q - 1/p)) ||g||_q  (1 < q < p < 2),

the nonlinear experiments fit the solver trajectory norms against the
family t^(-1 + 1/h1 + delta), t^(-3/2 + 1/h2 + delta) and |rho| ~ t^(-1-delta).

A linear fit transforms its datum once, with one rfft2, and applies one
``Flow`` per t to that half spectrum, as the solver does; each sample is
one irfft2 (two for the gradient, joined by hypot as in ``state_fields``).
The public ``semigroup_pac`` and ``semigroup_gradient_pac`` compute the same
samples one call at a time.

Datum: rate saturation needs data that are L^q-critical in the infrared.
The default 'critical' profile has transform |xi|^(-(2 - 2/q)) under a
Gaussian envelope, with the zero mode replaced by the exact cell average of
the singular profile (a plain Gaussian datum decays at the faster L^1-driven
rate and cannot sit on the theoretical line).  delta is reported as the
measured slack, never imposed.
"""

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np
from numpy import fft

from .fields import Field, Grid, _irfft2, _rfft2, gaussian_field, lp_norm
from .semigroup import Flow, grid_model
from .spectral import AlphaParams
from .solver import state_fields

__all__ = [
    "ExperimentSpec",
    "RateFit",
    "fit_rate",
    "critical_datum",
    "make_datum",
    "run_semigroup_decay",
    "run_gradient_decay",
    "run_nonlinear_decay",
    "admissible_exponents",
    "verify_convolution_lemma",
]


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of ln(value) against ln(t), with the target rate."""

    slope: float
    intercept: float
    r_squared: float
    theoretical: float = math.nan

    @property
    def delta(self):
        """Measured slack: slope minus theoretical."""
        return self.slope - self.theoretical


@dataclass
class ExperimentSpec:
    """Grid, coupling, exponents and t-grid of one decay experiment.

    The runner it is passed to selects the experiment.  Linear runs read the
    Lebesgue exponents (p, q) and fit the critical datum of exponent q;
    nonlinear runs use (h1, h2).  Fits only use t >= 1.
    """

    grid: Grid
    alpha: float = 0.0
    p: float | None = None
    q: float | None = None
    h1: float | None = None
    h2: float | None = None
    t_grid: np.ndarray = dataclass_field(
        default_factory=lambda: np.geomspace(1.0, 50.0, 16)
    )


def fit_rate(samples, theoretical=math.nan):
    """RateFit from (t, value) pairs against the ``theoretical`` slope.

    Needs >= 5 finite, positive samples with t >= 1.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 5:
        raise ValueError("fit_rate needs at least 5 (t, value) samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("fit_rate needs finite (t, value) samples")
    t, v = arr[:, 0], arr[:, 1]
    if np.any(t < 1.0):
        raise ValueError("fit_rate uses the decay window t >= 1 only")
    if np.any(v <= 0.0):
        raise ValueError("fit_rate requires positive values")
    lt, lv = np.log(t), np.log(v)
    design = np.vstack([lt, np.ones_like(lt)]).T
    sol, *_ = np.linalg.lstsq(design, lv, rcond=None)
    pred = design @ sol
    sstot = float(np.sum((lv - lv.mean()) ** 2))
    ssres = float(np.sum((lv - pred) ** 2))
    r2 = 1.0 if sstot == 0.0 else max(0.0, 1.0 - ssres / sstot)
    return RateFit(float(sol[0]), float(sol[1]), r2, theoretical)


@lru_cache(maxsize=16)
def _cell_average(beta):
    """Mean of |u|^(-beta) over the unit square cell centred at the origin, beta < 2.

    In polar form it is 8/(2 - beta) integral_0^(pi/4) (2 cos theta)^(beta - 2)
    dtheta, and s = sin^2 theta turns that integral into the hypergeometric
    value 2F1(1/2, b; 3/2; 1/2) = sum_k (b)_k / (k! (2k + 1)) 2^-k with
    b = (3 - beta)/2 > 1/2, whose terms are positive and fall by about half
    per k; the sum stops at the first term below 1e-17 of it.
    """
    b = (3.0 - beta) / 2.0
    total, coef, k = 0.0, 1.0, 0
    while True:
        term = coef / (2 * k + 1)
        total += term
        if term <= 1e-17 * total:
            break
        coef *= 0.5 * (b + k) / (k + 1)
        k += 1
    return 2.0 ** (beta + 0.5) / (2.0 - beta) * total


def critical_datum(grid, q, envelope=0.25):
    """Real datum whose transform is |xi|^(-(2-2/q)) exp(-envelope |xi|^2).

    L^q-critical in the infrared; the zero mode carries the exact average of
    the singular profile over its frequency cell, so the box does not starve
    the infrared before t ~ (L/pi)^2.
    """
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must be a finite number > 1; got {q!r}")
    beta = 2.0 - 2.0 / q
    xi2 = grid.wavenumber_sq()
    with np.errstate(divide="ignore"):
        prof = np.where(xi2 > 0.0, np.sqrt(xi2), 1.0) ** (-beta)
    dxi = 2.0 * np.pi / (2.0 * grid.half_width)
    prof[0, 0] = _cell_average(beta) * dxi ** (-beta)
    hat = prof * np.exp(-envelope * xi2)
    vals = fft.ifft2(hat) * (grid.n / (2.0 * grid.half_width)) ** 2
    return Field(grid, vals.real)


DATUM_KINDS = ("critical", "gaussian")
"""The kinds of :func:`make_datum` descriptors: the part before any ':'."""


def make_datum(descriptor, grid, q=2.0):
    """Datum factory: 'critical', 'gaussian' or 'gaussian:sigma[,amp[,x0,y0]]'.

    A Gaussian takes 0, 1, 2 or 4 values; unset ones default to sigma = 1,
    amp = 1 and centre (0, 0).  Raises ValueError on any other descriptor.
    """
    if descriptor == "critical":
        return critical_datum(grid, q)
    kind, _, args = descriptor.partition(":")
    if kind == "gaussian":
        vals = [float(s) for s in args.split(",")] if args else []
        if len(vals) not in (0, 1, 2, 4):
            raise ValueError(
                "a gaussian datum takes 0, 1, 2 or 4 values (sigma, amp, x0, y0); "
                f"got {descriptor!r}"
            )
        sigma, amp, x0, y0 = vals + [1.0, 1.0, 0.0, 0.0][len(vals):]
        return gaussian_field(grid, sigma=sigma, amplitude=amp, center=(x0, y0))
    raise ValueError(f"unknown datum descriptor {descriptor!r}")


def _linear_fit(spec, sample, theoretical):
    """Fit of sample(model, out) over ``spec.t_grid`` for the critical datum g.

    The datum is transformed once; for each t, ``Flow(model, t)`` maps its
    half spectrum to out, that of S(t) P_ac g (the flow projects g itself),
    and ``sample`` returns the norm fitted at t.  Every t must be finite and
    >= 1, which is checked before any work.
    """
    t_grid = np.asarray(spec.t_grid, dtype=float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid) & (t_grid >= 1.0)):
        raise ValueError(f"t_grid must hold finite times t >= 1; got {spec.t_grid!r}")
    model = grid_model(AlphaParams.for_alpha(spec.alpha, 2), spec.grid)
    ghat = _rfft2(critical_datum(spec.grid, spec.q or 2.0).values)
    return fit_rate(
        [(t, sample(model, Flow(model, t).apply(ghat))) for t in t_grid], theoretical
    )


def run_semigroup_decay(spec):
    """Fit of ||S(t) P_ac g||_p over the t-grid; needs 1 < q < p < infinity.

    Each sample is one irfft2 of the flowed half spectrum.
    """
    if spec.q is None or spec.p is None:
        raise ValueError("semigroup experiment needs exponents (q, p)")
    if not (1.0 < spec.q < spec.p < math.inf):
        raise ValueError(
            "semigroup decay requires 1 < q < p < inf; equal exponents have no "
            "decay rate"
        )
    theo = -(1.0) * (1.0 / spec.q - 1.0 / spec.p)  # N = 2
    return _linear_fit(
        spec, lambda model, out: lp_norm(Field(spec.grid, _irfft2(out)), spec.p), theo
    )


def run_gradient_decay(spec):
    """Fit of ||grad S(t) P_ac g||_p; the admissible window is 1 < q < p < 2.

    |grad| is the hypot of the two derivative irfft2s, as in ``state_fields``.
    """
    if spec.q is None or spec.p is None:
        raise ValueError("gradient experiment needs exponents (q, p)")
    if not (1.0 < spec.q < spec.p < 2.0):
        raise ValueError("gradient decay requires 1 < q < p < 2")

    def sample(model, out):
        d1, d2 = model.derivative
        return lp_norm(Field(spec.grid, np.hypot(_irfft2(d1 * out), _irfft2(d2 * out))), spec.p)

    return _linear_fit(spec, sample, -0.5 - (1.0 / spec.q - 1.0 / spec.p))


def run_nonlinear_decay(spec, traj):
    """Three fits from a projected trajectory: u in L^h1, grad u in L^h2, |rho|.

    Theoretical exponents -1 + 1/h1, -3/2 + 1/h2 and -1 (upper-bound rates;
    generic data decay at least this fast, so the measured slopes sit at or
    below them).  Requires an admissible (h1, h2) pair and t_max >= 20.
    """
    if spec.h1 is None or spec.h2 is None:
        raise ValueError("nonlinear experiment needs exponents (h1, h2)")
    if admissible_exponents(spec.h1, spec.h2) is None:
        raise ValueError(f"(h1, h2) = ({spec.h1}, {spec.h2}) is not admissible")
    if traj.times[-1] < 20.0:
        raise ValueError("nonlinear decay needs a trajectory reaching t >= 20")
    if traj.rho.size == 0:
        raise ValueError("nonlinear decay needs a projected trajectory with rho")
    mask = traj.times >= 1.0
    u_samples, g_samples, r_samples = [], [], []
    for keep, t, st, rho in zip(mask, traj.times, traj.states, traj.rho):
        if not keep:
            continue
        u, grad = state_fields(st)
        u_samples.append((t, lp_norm(u, spec.h1)))
        g_samples.append((t, lp_norm(grad, spec.h2)))
        r_samples.append((t, abs(rho)))
    floor = max(r for _, r in r_samples) * 1e-14
    return (
        fit_rate(u_samples, -1.0 + 1.0 / spec.h1),
        fit_rate(g_samples, -1.5 + 1.0 / spec.h2),
        fit_rate([(t, max(r, floor)) for t, r in r_samples], -1.0),
    )


def admissible_exponents(h1, h2, resolution=1e-3):
    """First (theta1, theta2) in (1/2, 1)^2 satisfying the rate conditions.

    Conditions: theta1 + theta2 > 3/2 and
    max(1/h1, 1/h2) < theta1/h1 + theta2/h2 + (1 - theta2)/2 < 1.
    Returns None when no pair exists on the search lattice.
    """
    if not 1.0 < h1 < math.inf:
        raise ValueError("h1 must lie in (1, inf)")
    if not 1.0 < h2 < 2.0:
        raise ValueError("h2 must lie in (1, 2)")
    thetas = np.arange(0.5 + resolution, 1.0, resolution)
    t1 = thetas[:, None]
    t2 = thetas[None, :]
    mid = t1 / h1 + t2 / h2 + (1.0 - t2) / 2.0
    ok = (t1 + t2 > 1.5) & (mid > max(1.0 / h1, 1.0 / h2)) & (mid < 1.0)
    idx = np.argwhere(ok)
    if idx.size == 0:
        return None
    i, j = idx[0]
    return float(thetas[i]), float(thetas[j])


def verify_convolution_lemma(alpha_exp, beta_exp, t_grid):
    """max over t of integral_1^t (t-tau)^(-alpha) tau^(-beta) dtau / t^(1-alpha-beta).

    The substitution tau = t (1 - y) makes each ratio the incomplete beta
    integral B_(1 - 1/t)(1 - alpha, 1 - beta) (:func:`_incomplete_beta`), so it
    stays below the lemma's constant B(1 - alpha, 1 - beta).  Needs finite
    alpha < 1 and beta < 1 (for beta >= 1 the ratio grows like t^(beta - 1))
    and every t above 1.
    """
    for name, value in (("alpha", alpha_exp), ("beta", beta_exp)):
        if not -math.inf < value < 1.0:
            raise ValueError(f"convolution bound requires a finite {name} < 1; got {value!r}")
    t = np.asarray(t_grid, dtype=float)
    if not np.all(t > 1.0):
        raise ValueError("t grid must lie strictly above 1")
    ratios = _incomplete_beta(1.0 - alpha_exp, 1.0 - beta_exp, 1.0 - 1.0 / t)
    return float(np.max(ratios, initial=0.0))


def _beta(a, b):
    """Euler's beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _incomplete_beta(a, b, x):
    """B_x(a, b) = integral_0^x y^(a - 1) (1 - y)^(b - 1) dy for a, b > 0 and an array x in [0, 1].

    Below x = (a + 1)/(a + b + 2) it sums the hypergeometric form
    (DLMF 8.17.8) B_x(a, b) = x^a (1 - x)^b / a sum_k (a + b)_k / (a + 1)_k x^k,
    whose terms are positive and fall at least like
    max(x, (a + b)/(a + b + 2))^k; above, it takes B(a, b) - B_{1-x}(b, a),
    where 1 - x lies below (b + 1)/(a + b + 2), the same point for (b, a).
    """
    x = np.asarray(x, dtype=float)
    flip = x > (a + 1.0) / (a + b + 2.0)
    p, q = np.where(flip, b, a), np.where(flip, a, b)
    y = np.where(flip, 1.0 - x, x)
    total, term, k = np.ones_like(y), np.ones_like(y), 0
    while np.any(term > 1e-17 * total):
        term = term * (p + q + k) / (p + 1.0 + k) * y
        total += term
        k += 1
    part = y ** p * (1.0 - y) ** q / p * total
    return np.where(flip, _beta(a, b) - part, part)
