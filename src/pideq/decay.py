"""Decay-rate experiments: log-log fits of semigroup and solver norms.

The linear experiments fit || S(t) P_ac g ||_p (and its gradient) against t
on [1, 50] and compare with the theoretical exponents

    || S(t) P_ac g ||_p      ~ t^(-(N/2)(1/q - 1/p)) ||g||_q,
    || grad S(t) P_ac g ||_p ~ t^(-1/2 - (1/q - 1/p)) ||g||_q  (1 < q < p < 2),

the nonlinear experiments fit the solver trajectory norms against the
family t^(-1 + 1/h1 + delta), t^(-3/2 + 1/h2 + delta) and |rho| ~ t^(-1-delta).

Each experiment is one function of the inputs it reads, and checks its
exponents where they enter: ``run_semigroup_decay`` and
``run_gradient_decay`` take (grid, q, p, alpha, t_grid), with the
read-only ``T_GRID`` as the default t-grid, and ``run_nonlinear_decay``
takes (traj, h1, h2), since the trajectory carries its own grid and
coupling.

A linear fit transforms its datum once, with one rfft2, and pairs it with
delta_hat over the |k|^2 bins once; one ``Flow`` per t maps that half
spectrum, given its pairing, so no t re-pairs the datum.  Each sample is
one irfft2 (two for the gradient, joined as sqrt(d1^2 + d2^2) as in
``state_fields``).
The public ``semigroup_pac`` and ``semigroup_gradient_pac`` compute the same
samples one call at a time.  Each t's flow is built after the last one is
released, flows into the one half spectrum the fit keeps, and is sampled
into one n x n array (two for the gradient), whose L^p sum runs in place.

Datum: rate saturation needs data that are L^q-critical in the infrared.
The default 'critical' profile has transform |xi|^(-(2 - 2/q)) under a
Gaussian envelope, with the zero mode replaced by the exact cell average of
the singular profile (a plain Gaussian datum decays at the faster L^1-driven
rate and cannot sit on the theoretical line).  delta is reported as the
measured slack, never imposed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Field, _front, _gradient_modulus, _irfft2, _lp_sum, _real, _rfft2, gaussian_field, lp_norm
)
from .semigroup import Flow, grid_model
from .spectral import AlphaParams
from .solver import state_fields

__all__ = [
    "T_GRID",
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


T_GRID = np.geomspace(1.0, 50.0, 16)
T_GRID.flags.writeable = False
"""The linear fits' default t-grid: 16 geometric times on [1, 50], read-only."""


def _check_times(t, name):
    """ValueError naming ``name`` unless the times t are at least 5, of at least 2 distinct values.

    A slope needs two distinct times: at one time the fit is a point.
    """
    if t.shape[0] < 5:
        raise ValueError(f"{name} needs at least 5 samples; got {t.shape[0]}")
    if t.min() == t.max():
        raise ValueError(f"{name} needs at least 2 distinct times; got only t = {t[0]!r}")


def fit_rate(samples, theoretical=math.nan):
    """RateFit from (t, value) pairs against the ``theoretical`` slope.

    Needs >= 5 finite, positive samples with t >= 1, at >= 2 distinct t.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 5:
        raise ValueError("fit_rate needs at least 5 (t, value) samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("fit_rate needs finite (t, value) samples")
    t, v = arr[:, 0], arr[:, 1]
    if np.any(t < 1.0):
        raise ValueError("fit_rate uses the decay window t >= 1 only")
    _check_times(t, "fit_rate")
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


def critical_datum(grid, q):
    """Real datum whose transform is |xi|^(-(2-2/q)) exp(-|xi|^2/4).

    L^q-critical in the infrared; the zero mode carries the exact average of
    the singular profile over its frequency cell, so the box does not starve
    the infrared before t ~ (L/pi)^2.  q is a real number > 1; a q so large
    that 2 - 2/q rounds to 2 raises ValueError.
    """
    if not (_real(q) and 1.0 < q < math.inf):
        raise ValueError(f"q must be a finite number > 1; got {q!r}")
    beta = 2.0 - 2.0 / q
    if beta == 2.0:
        raise ValueError(f"q = {q!r} is too large: its exponent 2 - 2/q rounds to 2")
    xi2 = grid.wavenumber_sq()[:, :grid.n // 2 + 1]
    with np.errstate(divide="ignore"):
        prof = np.where(xi2 > 0.0, np.sqrt(xi2), 1.0) ** (-beta)
    dxi = 2.0 * np.pi / (2.0 * grid.half_width)
    prof[0, 0] = _cell_average(beta) * dxi ** (-beta)
    hat = prof * np.exp(-0.25 * xi2)
    return Field(grid, _irfft2(hat) * (grid.n / (2.0 * grid.half_width)) ** 2)


DATUM_KINDS = ("critical", "gaussian")
"""The kinds of :func:`make_datum` descriptors: the part before any ':'."""


def make_datum(descriptor, grid):
    """Datum factory: 'critical', 'gaussian' or 'gaussian:sigma[,amp[,x0,y0]]'.

    'critical' is the L^2-critical datum ``critical_datum(grid, 2.0)``.  A
    Gaussian takes 0, 1, 2 or 4 values; unset ones default to sigma = 1,
    amp = 1 and centre (0, 0).  Raises ValueError on any other descriptor.
    """
    if descriptor == "critical":
        return critical_datum(grid, 2.0)
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


def _linear_fit(grid, q, alpha, t_grid, sample, theoretical):
    """Fit of sample(model, out) over ``t_grid`` for the critical datum g of exponent q.

    The datum is transformed and paired with delta_hat over the bins once;
    for each t, a flow of its own, released before the next t's is built,
    maps its half spectrum and that pairing into out, one array for the
    whole t-grid, that of S(t) P_ac g (the flow projects g itself), and
    ``sample`` returns the norm fitted at t; it may overwrite out.  Every t
    must be finite, >= 1 and at most the grid's flow ceiling
    (``PointHeatModel.max_time``), with at least 5 of them and 2 distinct,
    which is checked before any work but the grid model's build.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times) & (times >= 1.0)):
        raise ValueError(f"t_grid must hold finite times t >= 1; got {t_grid!r}")
    _check_times(times, "t_grid")
    model = grid_model(AlphaParams.for_alpha(alpha), grid)
    if times.max() > model.max_time:
        raise ValueError(
            f"t_grid reaches t = {times.max()!r}, above the supported maximum "
            f"{model.max_time:.3g} of this grid's flows"
        )
    ghat = _rfft2(critical_datum(grid, q).values)
    pair = model._bin_pair(ghat)
    out = np.empty_like(ghat)
    samples = [(t, sample(model, Flow(model, t).apply(ghat, out, _pair=pair))) for t in times]
    return fit_rate(samples, theoretical)


def run_semigroup_decay(grid, q, p, alpha=0.0, t_grid=T_GRID):
    """Fit of ||S(t) P_ac g||_p over ``t_grid``; needs real 1 < q < p < infinity.

    g is the critical datum of exponent q on ``grid`` and S the projected
    flow at coupling ``alpha``.  Each sample is one irfft2 of the flowed
    half spectrum, into one array the fit keeps.
    """
    if not (_real(q) and _real(p) and 1.0 < q < p < math.inf):
        raise ValueError(
            "semigroup decay requires real 1 < q < p < inf (equal exponents have no "
            f"decay rate); got q = {q!r}, p = {p!r}"
        )
    vals = np.empty((grid.n, grid.n))

    def sample(model, out):
        _irfft2(out, vals, work=out)
        return _lp_sum(np.abs(vals, out=vals), p, grid.cell_area)

    return _linear_fit(grid, q, alpha, t_grid, sample, -(1.0 / q - 1.0 / p))  # N = 2


def run_gradient_decay(grid, q, p, alpha=0.0, t_grid=T_GRID):
    """Fit of ||grad S(t) P_ac g||_p, as :func:`run_semigroup_decay`; needs real 1 < q < p < 2.

    |grad| = sqrt(d1^2 + d2^2) of the two derivative irfft2s
    (``fields._gradient_modulus``, as in ``state_fields``), into two n x n
    arrays the fit keeps: the first its own, the second in
    the memory of the first derivative's half spectrum, free once that is
    transformed.  The second derivative is formed in the flowed half
    spectrum's own array.
    """
    if not (_real(q) and _real(p) and 1.0 < q < p < 2.0):
        raise ValueError(f"gradient decay requires real 1 < q < p < 2; got q = {q!r}, p = {p!r}")
    n = grid.n
    d1_hat = np.empty((n, n // 2 + 1), dtype=np.complex128)
    du1, du2 = np.empty((n, n)), _front(d1_hat, (n, n))

    def sample(model, out):
        d1, d2 = model.derivative
        _irfft2(np.multiply(d1, out, out=d1_hat), du1, work=d1_hat)
        _irfft2(np.multiply(d2, out, out=out), du2, work=out)
        return _lp_sum(_gradient_modulus(du1, du2), p, grid.cell_area)

    return _linear_fit(grid, q, alpha, t_grid, sample, -0.5 - (1.0 / q - 1.0 / p))


def run_nonlinear_decay(traj, h1, h2):
    """Three fits from a projected trajectory: u in L^h1, grad u in L^h2, |rho|.

    Theoretical exponents -1 + 1/h1, -3/2 + 1/h2 and -1 (upper-bound rates;
    generic data decay at least this fast, so the measured slopes sit at or
    below them).  Requires an admissible (h1, h2) pair, t_max >= 20 and a
    rho that is not identically 0 on the fitted times t >= 1; a rho that is
    exactly 0 at some fitted time raises :func:`fit_rate`'s ValueError, as
    its logarithm does not exist.
    """
    if admissible_exponents(h1, h2) is None:
        raise ValueError(f"(h1, h2) = ({h1}, {h2}) is not admissible")
    if traj.times[-1] < 20.0:
        raise ValueError("nonlinear decay needs a trajectory reaching t >= 20")
    if traj.rho.size == 0:
        raise ValueError("nonlinear decay needs a projected trajectory with rho")
    mask = traj.times >= 1.0
    if not np.any(traj.rho[mask]):
        raise ValueError(
            "nonlinear decay: rho is identically 0 (no drift, or alpha = +inf, which has "
            "no eigenmode), so it has no decay rate"
        )
    u_samples, g_samples, r_samples = [], [], []
    for keep, t, st, rho in zip(mask, traj.times, traj.states, traj.rho):
        if not keep:
            continue
        u, grad = state_fields(st)
        u_samples.append((t, lp_norm(u, h1)))
        g_samples.append((t, lp_norm(grad, h2)))
        r_samples.append((t, abs(rho)))
    return (
        fit_rate(u_samples, -1.0 + 1.0 / h1),
        fit_rate(g_samples, -1.5 + 1.0 / h2),
        fit_rate(r_samples, -1.0),
    )


def admissible_exponents(h1, h2):
    """First (theta1, theta2) in (1/2, 1)^2 satisfying the rate conditions.

    Conditions: theta1 + theta2 > 3/2 and
    max(1/h1, 1/h2) < theta1/h1 + theta2/h2 + (1 - theta2)/2 < 1.
    Returns None when no pair exists on the search lattice of step 1e-3.
    """
    if not (_real(h1) and 1.0 < h1 < math.inf):
        raise ValueError(f"h1 must lie in (1, inf); got {h1!r}")
    if not (_real(h2) and 1.0 < h2 < 2.0):
        raise ValueError(f"h2 must lie in (1, 2); got {h2!r}")
    thetas = np.arange(0.5 + 1e-3, 1.0, 1e-3)
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
    and a t grid of at least one t, every t above 1.
    """
    for name, value in (("alpha", alpha_exp), ("beta", beta_exp)):
        if not (_real(value) and -math.inf < value < 1.0):
            raise ValueError(f"convolution bound requires a finite {name} < 1; got {value!r}")
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValueError("convolution bound needs at least one t; an empty t grid measures nothing")
    if not np.all(t > 1.0):
        raise ValueError("t grid must lie strictly above 1")
    ratios = _incomplete_beta(1.0 - alpha_exp, 1.0 - beta_exp, 1.0 - 1.0 / t)
    return float(np.max(ratios))


def _beta(a, b):
    """Euler's beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _incomplete_beta(a, b, x):
    """B_x(a, b) = integral_0^x y^(a - 1) (1 - y)^(b - 1) dy for a, b > 0 and x in [0, 1].

    a, b and x broadcast against each other, so one series serves many
    (a, b) pairs; each complete B(a, b) is one scalar :func:`_beta`.

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
    complete = np.asarray(np.frompyfunc(_beta, 2, 1)(a, b), dtype=float)
    return np.where(flip, complete - part, part)
