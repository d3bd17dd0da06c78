"""Decay-rate experiments: log-log fits of semigroup and solver norms.

The linear experiments fit || S(t) P_ac g ||_p (and its gradient) against t
on [1, 50] and compare with the theoretical exponents

    || S(t) P_ac g ||_p      ~ t^(-(N/2)(1/q - 1/p)) ||g||_q,
    || grad S(t) P_ac g ||_p ~ t^(-1/2 - (1/q - 1/p)) ||g||_q  (1 < q < p < 2),

the nonlinear experiments fit the solver trajectory norms against the
family t^(-1 + 1/h1 + delta), t^(-3/2 + 1/h2 + delta) and |rho| ~ t^(-1-delta).

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
from scipy import fft, integrate

from .fields import Field, Grid, gaussian_field, lp_norm
from .semigroup import semigroup_gradient_pac, semigroup_pac
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
    "run_l2_bound",
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

    Needs >= 5 positive samples with t >= 1.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 5:
        raise ValueError("fit_rate needs at least 5 (t, value) samples")
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
    """Mean of |u|^(-beta) over the unit square cell centred at the origin."""
    val, _ = integrate.dblquad(
        lambda y, x: (x * x + y * y) ** (-beta / 2.0),
        0.0,
        0.5,
        0.0,
        0.5,
        epsabs=1e-12,
        epsrel=1e-10,
    )
    return 4.0 * val


def critical_datum(grid, q, envelope=0.25):
    """Real datum whose transform is |xi|^(-(2-2/q)) exp(-envelope |xi|^2).

    L^q-critical in the infrared; the zero mode carries the exact average of
    the singular profile over its frequency cell, so the box does not starve
    the infrared before t ~ (L/pi)^2.
    """
    if not 1.0 < q:
        raise ValueError("q must exceed 1")
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


def _linear_fit(spec, measure, theoretical):
    """Fit of measure(t, g, params) over ``spec.t_grid`` for the critical datum g.

    The public flows that ``measure`` applies project g themselves.
    """
    params = AlphaParams.for_alpha(spec.alpha, 2)
    g = critical_datum(spec.grid, spec.q or 2.0)
    return fit_rate([(t, measure(t, g, params)) for t in spec.t_grid], theoretical)


def run_semigroup_decay(spec):
    """Fit of ||S(t) P_ac g||_p over the t-grid; needs 1 < q < p < infinity."""
    if spec.q is None or spec.p is None:
        raise ValueError("semigroup experiment needs exponents (q, p)")
    if not (1.0 < spec.q < spec.p < math.inf):
        raise ValueError(
            "semigroup decay requires 1 < q < p < inf; equal exponents have no "
            "decay rate (see run_l2_bound for the p = q = 2 boundedness check)"
        )
    theo = -(1.0) * (1.0 / spec.q - 1.0 / spec.p)  # N = 2
    return _linear_fit(
        spec, lambda t, g, params: lp_norm(semigroup_pac(t, g, params).field, spec.p), theo
    )


def run_l2_bound(spec):
    """Uniform L^2 boundedness of the projected flow: fitted slope <= 0."""
    return _linear_fit(
        spec, lambda t, g, params: lp_norm(semigroup_pac(t, g, params).field, 2.0), 0.0
    )


def run_gradient_decay(spec):
    """Fit of ||grad S(t) P_ac g||_p; the admissible window is 1 < q < p < 2."""
    if spec.q is None or spec.p is None:
        raise ValueError("gradient experiment needs exponents (q, p)")
    if not (1.0 < spec.q < spec.p < 2.0):
        raise ValueError("gradient decay requires 1 < q < p < 2")

    def measure(t, g, params):
        dx, dy = semigroup_gradient_pac(t, g, params)
        mag = np.sqrt(np.abs(dx.values) ** 2 + np.abs(dy.values) ** 2)
        return lp_norm(Field(spec.grid, mag), spec.p)

    return _linear_fit(spec, measure, -0.5 - (1.0 / spec.q - 1.0 / spec.p))


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


def verify_convolution_lemma(alpha_exp, beta_exp, t_grid, epsrel=1e-10):
    """max over t of integral_1^t (t-tau)^(-alpha) tau^(-beta) dtau / t^(1-alpha-beta).

    The weak endpoint singularity at tau = t is integrated with an algebraic
    weight after splitting at the midpoint; the ratio must stay bounded for
    alpha < 1.
    """
    if alpha_exp >= 1.0:
        raise ValueError("convolution bound requires alpha < 1")
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        if t <= 1.0:
            raise ValueError("t grid must lie strictly above 1")
        mid = 0.5 * (1.0 + t)
        part1, _ = integrate.quad(
            lambda tau: (t - tau) ** (-alpha_exp) * tau ** (-beta_exp),
            1.0,
            mid,
            epsrel=epsrel,
            limit=300,
        )
        # tau = t - s on [mid, t]: weight s^(-alpha) handled algebraically
        part2, _ = integrate.quad(
            lambda s: (t - s) ** (-beta_exp),
            0.0,
            t - mid,
            weight="alg",
            wvar=(-alpha_exp, 0.0),
            epsrel=epsrel,
            limit=300,
        )
        ratio = (part1 + part2) / t ** (1.0 - alpha_exp - beta_exp)
        worst = max(worst, ratio)
    return float(worst)
