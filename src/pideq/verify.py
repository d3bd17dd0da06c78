"""Quantitative self-checks behind the `pideq verify` subcommand.

Each check returns (name, passed, detail).  The set covers the spectral
scalars, the resolvent algebra, eigenmode growth, the semigroup law, the
backward-Euler cross-validation, the two linear decay rates, contour
independence, and the convolution bound; together they form the fast part
of the package's acceptance gate (the nonlinear solver checks live in the
test-suite because of their runtime).
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .decay import _beta, _incomplete_beta, run_gradient_decay, run_semigroup_decay
from .fields import Grid, gaussian_field, lp_norm
from .semigroup import (
    ContourSpec,
    backward_euler_oracle,
    krein_resolvent,
    psi_alpha_field,
    semigroup_full,
    semigroup_pac,
)
from .special import bessel_k0, euler_gamma
from .spectral import AlphaParams, c_lambda, eigenvalue

__all__ = ["CheckResult", "run_checks", "DEFAULT_GRID"]

DEFAULT_GRID = Grid(40.0, 512)

_PARAMS = AlphaParams.for_alpha(0.0)
"""The coupling alpha = 0 that every check of one operator runs at."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, fn, results):
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))


def check_spectral_scalars():
    eg = euler_gamma()
    e0 = eigenvalue(0.0)
    ref = 4.0 * math.exp(-2.0 * eg)
    err_e = abs(e0 - ref) / ref
    worst_root = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        ev = eigenvalue(alpha)
        worst_root = max(worst_root, abs(alpha + c_lambda(ev).real))
    # ||G_E||_2^2 = M / (2 pi E) with M = int_0^inf s K0(s)^2 ds, by the
    # trapezoid rule in u = ln s, against psi_norm's closed form M = 1/2
    u = np.linspace(-30.0, 4.0, 200)
    s = np.exp(u)
    f = np.square(s * bessel_k0(s))
    moment = (u[1] - u[0]) * (f.sum() - 0.5 * (f[0] + f[-1]))
    oracle = math.sqrt(moment / (2.0 * math.pi * _PARAMS.eigenvalue))
    err_n = abs(_PARAMS.psi_norm - oracle) / oracle
    ok = err_e <= 1e-12 and worst_root <= 1e-12 and err_n <= 1e-12
    return ok, (
        f"eigenvalue rel err {err_e:.2e}, root residual {worst_root:.2e}, "
        f"kernel-norm rel err {err_n:.2e}"
    )


def check_resolvent(grid=DEFAULT_GRID):
    g = gaussian_field(grid, sigma=2.0)
    lam, mu = 2.0, 5.0
    r_lam = krein_resolvent(lam, g, _PARAMS)
    r_mu = krein_resolvent(mu, g, _PARAMS)
    comp = krein_resolvent(lam, r_mu, _PARAMS)
    resid = lp_norm(r_lam - r_mu - (mu - lam) * comp, 2) / lp_norm(g, 2)
    psi = psi_alpha_field(_PARAMS, grid)
    shift = _PARAMS.eigenvalue + 1.0
    r_psi = krein_resolvent(shift, psi, _PARAMS)
    err_eig = lp_norm(r_psi - (1.0 / (shift - _PARAMS.eigenvalue)) * psi, 2)
    ok = resid <= 1e-6 and err_eig <= 1e-3
    return ok, f"identity residual {resid:.2e}, eigenvector error {err_eig:.2e}"


def check_eigenmode_growth(grid=DEFAULT_GRID):
    psi = psi_alpha_field(_PARAMS, grid)
    evolved = semigroup_full(1.0, psi, _PARAMS)
    growth = math.exp(_PARAMS.eigenvalue)
    err = lp_norm(evolved - growth * psi, 2) / growth
    return err <= 1e-3, f"relative eigenmode error {err:.2e}"


def check_semigroup_law(grid=DEFAULT_GRID):
    g = gaussian_field(grid, sigma=2.0)
    one = semigroup_full(1.0, g, _PARAMS)
    half = semigroup_full(0.5, semigroup_full(0.5, g, _PARAMS), _PARAMS)
    err = lp_norm(one - half, 2) / lp_norm(g, 2)
    return err <= 1e-3, f"composition error {err:.2e}"


def check_backward_euler(grid=DEFAULT_GRID):
    g = gaussian_field(grid, sigma=2.0)
    ref = semigroup_pac(1.0, g, _PARAMS).field
    nref = lp_norm(ref, 2)
    err1 = lp_norm(backward_euler_oracle(1.0, g, _PARAMS, 1000) - ref, 2) / nref
    err2 = lp_norm(backward_euler_oracle(1.0, g, _PARAMS, 2000) - ref, 2) / nref
    gain = err1 / err2 if err2 > 0 else math.inf
    ok = err1 <= 1e-2 and gain >= 1.5
    return ok, f"error(1000) {err1:.2e}, error(2000) {err2:.2e}, gain {gain:.2f}x"


def check_decay_rate(run, grid, q, p):
    """Slope and r2 of the linear decay fit ``run`` (a :mod:`pideq.decay` runner) at (q, p)."""
    fit = run(grid, q=q, p=p)
    ok = abs(fit.slope - fit.theoretical) <= 0.05 and fit.r_squared >= 0.98
    return ok, (
        f"slope {fit.slope:.4f} vs {fit.theoretical:.4f}, r2 {fit.r_squared:.4f}"
    )


def check_contour_independence(grid=DEFAULT_GRID):
    g = gaussian_field(grid, sigma=2.0)
    spec = ContourSpec.for_time(_PARAMS, 1.0)
    res_a = semigroup_pac(1.0, g, _PARAMS, spec)
    res_b = semigroup_pac(1.0, g, _PARAMS, replace(spec, epsilon=spec.epsilon / 2.0))
    err = lp_norm(res_a.field - res_b.field, 2) / lp_norm(res_a.field, 2)
    return err <= 1e-6, f"radius-halving difference {err:.2e}"


def check_convolution_bound():
    # verify_convolution_lemma's ratios for the 9 (a, b) pairs, as one series
    a = np.repeat([0.25, 0.5, 0.75], 3)[:, None]
    b = np.tile([-0.5, 0.0, 0.5], 3)[:, None]
    t = np.array([2.0, 10.0, 100.0])
    ratios = _incomplete_beta(1.0 - a, 1.0 - b, 1.0 - 1.0 / t).max(axis=1)
    constants = [_beta(1.0 - x, 1.0 - y) for x, y in zip(a.ravel(), b.ravel())]
    worst = float(ratios.max())
    share = float((ratios / constants).max())
    ok = math.isfinite(worst) and share <= 1.0
    return ok, f"max ratio {worst:.3f}, largest ratio/constant {share:.4f}"


def run_checks(grid=DEFAULT_GRID):
    """Run the fast acceptance checks; returns a list of CheckResult."""
    results = []
    _check("spectral scalars", check_spectral_scalars, results)
    _check("resolvent algebra", lambda: check_resolvent(grid), results)
    _check("eigenmode growth", lambda: check_eigenmode_growth(grid), results)
    _check("semigroup law", lambda: check_semigroup_law(grid), results)
    _check("backward-Euler oracle", lambda: check_backward_euler(grid), results)
    _check("L2->L4 decay rate",
           lambda: check_decay_rate(run_semigroup_decay, grid, 2.0, 4.0), results)
    _check("gradient decay rate",
           lambda: check_decay_rate(run_gradient_decay, grid, 4.0 / 3.0, 1.5), results)
    _check("contour independence", lambda: check_contour_independence(grid), results)
    _check("convolution bound", check_convolution_bound, results)
    return results
