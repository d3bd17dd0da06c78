"""Picard solution of the convection-diffusion problem with point interaction.

Solves (d/dt - A) u = a . grad(|u|^gamma) in its mild (Duhamel) form

    u(t) = S(t) u0 + integral_0^t S(t - tau) a . grad(|u|^gamma)(tau) dtau,

by fixed-point iteration of the map v -> right-hand side, where S is either
the full semigroup (local solves on a finite horizon) or the projected
semigroup on the absolutely continuous subspace (global solves, with the
eigenmode removed from data and forcing).  The scalar multiplier

    rho(t) = < a . grad(|u|^gamma), psi >

reconstructs the unprojected formulation; it is the Lagrange multiplier of
the constraint P_ac u = u.

States are stored in decomposed form u = phi + q G_omega with the global
reference omega = 1 + E.  The singular coefficient q is tracked
constructively as the exact domain-coupling functional <u, delta>/S(E)
(the grid analogue of reading the coefficient off the boundary condition
at the interaction point); with that split the identity
(omega - A) u = (omega - Laplacian) phi holds on the nose and nothing is
ever fitted from samples.

Time quadrature is left-endpoint product integration (exponential Euler):
one step reads u_{j+1} = S(dt)[u_j + dt F_j].  Within one Picard iterate
the whole window is swept with the forcing frozen at the previous iterate,
which reproduces left-endpoint product integration of the Duhamel integral
up to the semigroup's own quadrature error.  The standalone
:func:`duhamel_integral` also offers a midpoint-kernel variant (kernel
evaluated at the interval midpoint) which is second-order accurate.
"""

import math
import warnings
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np
from scipy import fft

from .errors import (
    ConvergenceError,
    DataTooLargeError,
    HorizonTooLargeError,
    SchedulingError,
)
from .fields import Field, inner_product, lp_norm
from .semigroup import MIN_TIME, ContourSpec, grid_model
from .spectral import DecomposedField, green_gradient_field, psi_alpha_field

__all__ = [
    "SolverConfig",
    "Trajectory",
    "nonlinearity",
    "duhamel_integral",
    "solve_local",
    "solve_global_projected",
    "lagrange_multiplier",
    "residual_check",
]


@dataclass
class SolverConfig:
    """Nonlinearity, horizon and iteration controls.

    ``ball_radius`` is diagnostic: when set (or 'auto', twice the proxy
    norm of the initial state) iterates leaving the ball raise a warning.  The
    pointwise factor |u|^(gamma-2) is clamped at ``clamp_limit`` for
    gamma < 2; clamp events are counted in ``clamp_events``.
    """

    gamma: float = 2.0
    a: tuple = (1.0, 0.0)
    T: float = 1.0
    dt: float = 0.01
    picard_tol: float = 1e-9
    picard_max: int = 25
    ball_radius: float | str | None = None
    projected: bool = True
    window: float = 1.0
    store_stride: int | None = None
    clamp_limit: float = 1e8
    clamp_events: int = dataclass_field(default=0, compare=False)

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")
        if self.gamma < 2.0:
            warnings.warn(
                "gamma in (1, 2) is outside the solver's safe default regime; "
                "degenerate |u|^(gamma-2) factors are clamped",
                stacklevel=2,
            )
        if self.dt <= 0 or self.picard_tol <= 0:
            raise ValueError("dt and picard_tol must be positive")


@dataclass
class Trajectory:
    """Sampled solution: times, decomposed states, and the multiplier rho.

    ``rho`` is empty for unprojected runs.  ``diagnostics`` carries the
    measured contraction ratios, iteration counts, the maximum eigenmode
    component seen along the run, and clamp counts.
    """

    times: np.ndarray
    states: list
    rho: np.ndarray
    diagnostics: dict


# --- nonlinearity ------------------------------------------------------------

@lru_cache(maxsize=8)
def _kernel_gradient(params, grid, lam_ref):
    """Cached closed-form gradient samples of the reference kernel."""
    gx, gy = green_gradient_field(lam_ref, grid)
    return gx.values, gy.values


def _assemble_state(u):
    """Physical samples of u and grad u from the decomposition.

    Values come from the exact transform-side total (representation-free);
    the gradient splits into the spectral derivative of the regular part
    plus the closed Bessel form for the kernel part, which is pointwise
    faithful at the singularity.
    """
    grid = u.regular.grid
    model = grid_model(u.params, grid)
    dgx, dgy = _kernel_gradient(u.params, grid, u.lambda_ref)
    XI1, XI2 = grid.wavenumbers()
    phat = fft.fft2(u.regular.values)
    ghat_ref = model.delta_hat / (u.lambda_ref + model.xi2)
    vals = fft.ifft2(phat + complex(u.coeff) * ghat_ref)
    du1 = fft.ifft2(1j * XI1 * phat) + u.coeff * dgx
    du2 = fft.ifft2(1j * XI2 * phat) + u.coeff * dgy
    return vals, du1, du2


def _nonlinear_values(vals, du1, du2, cfg):
    a1, a2 = float(cfg.a[0]), float(cfg.a[1])
    if a1 == 0.0 and a2 == 0.0:
        return np.zeros_like(vals)
    if cfg.gamma == 2.0:
        factor = vals
    else:
        mag = np.abs(vals)
        with np.errstate(divide="ignore"):
            power = np.where(mag > 0.0, mag ** (cfg.gamma - 2.0), 0.0)
        if cfg.gamma < 2.0:
            over = power > cfg.clamp_limit
            if over.any():
                cfg.clamp_events += int(over.sum())
                power = np.minimum(power, cfg.clamp_limit)
        factor = power * vals
    return cfg.gamma * factor * (a1 * du1 + a2 * du2)


def total_field(u):
    """Full state phi + coeff G_ref as a Field, in the solver's own kernel
    representation (the grid model's transform-side kernel)."""
    model = grid_model(u.params, u.regular.grid)
    phat, q = _state_hats(model, u)
    return Field(u.regular.grid, fft.ifft2(_total_hat(model, phat, q)))


def nonlinearity(u, cfg):
    """a . grad(|u|^gamma) with grad u = grad phi + coeff grad G_ref.

    The regular part is differentiated spectrally; the kernel part uses the
    closed Bessel form.  |u|^(gamma-2) u is extended by 0 at u = 0.
    """
    if not cfg.gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    vals, du1, du2 = _assemble_state(u)
    return Field(u.regular.grid, _nonlinear_values(vals, du1, du2, cfg))


def lagrange_multiplier(u, cfg):
    """rho = Re < a . grad(|u|^gamma), psi >; imaginary residue is discarded."""
    psi = psi_alpha_field(u.params, u.regular.grid)
    val = inner_product(nonlinearity(u, cfg), psi)
    return float(val.real)


# --- stepping engine ----------------------------------------------------------


class _Propagator:
    """One cached application of S(dt) (projected or full) in hat space.

    The rank-one correction is integrated over a Talbot-type winding
    contour: a fixed, small node count stays uniformly accurate down to
    micro-steps, where the cut-hugging contour of the public semigroup
    would need nodes proportional to the lattice spectral radius.  The
    grid model caches that contour's node rows, denominators and base
    weights per (dt, node count), in an LRU cache of four entries, so each
    step reuses them: one bin pairing, two nodes x bins matrix-vector
    products and one gather on top of the heat multiplier.  Passing an
    explicit ContourSpec forces the cut-hugging quadrature instead, whose
    rows are rebuilt chunk by chunk on every step.
    """

    def __init__(self, model, dt, full, contour=None, talbot_nodes=32):
        self.model = model
        self.dt = dt
        self.full = full
        self.contour = contour
        self.talbot_nodes = talbot_nodes
        if contour is not None:
            contour.validate(model.params)
        self.heat = np.exp(-dt * model.xi2)
        self.growth = math.exp(model.E * dt) if full else 0.0

    def apply(self, total_hat):
        """Returns (out_hat, q_out): the evolved transform and its kernel content.

        q_out is the exact domain-coupling functional <out, delta>/S(E); with
        this choice the split out = phi + q G_ref satisfies
        (omega - A) out = (omega - Laplacian) phi, so phi is genuinely the
        regular part (the contour coefficient alone misses the kernel content
        of the heat part).
        """
        m = self.model
        gac, eig_coef = m.project_ac_hat(total_hat)
        if self.contour is None:
            corr, _ = m.correction_talbot(self.dt, gac, self.talbot_nodes)
        else:
            corr, _, _ = m.correction_hat(self.dt, gac, self.contour)
        out = self.heat * gac + corr
        if self.full:
            out = out + self.growth * eig_coef * m.psi_hat
        return out, m.coupling_coefficient(out)


def _state_hats(model, u):
    """(phi_hat, q) of a decomposed state re-referenced to the model's omega."""
    phat = fft.fft2(u.regular.values)
    q = complex(u.coeff)
    if q != 0 and u.lambda_ref != model.omega:
        shift = model.delta_hat * (
            1.0 / (u.lambda_ref + model.xi2) - 1.0 / (model.omega + model.xi2)
        )
        phat = phat + q * shift
    return phat, q


def _compatible_split(model, total_hat):
    """Domain-compatible split of a total transform: q from the coupling."""
    q = model.coupling_coefficient(total_hat)
    return total_hat - q * model.green_omega_hat, q


def _total_hat(model, phat, q):
    return phat + q * model.green_omega_hat


def _to_decomposed(model, phat, q, params):
    reg = Field(model.grid, fft.ifft2(phat))
    return DecomposedField(reg, complex(q), model.omega, params)


def _h1_proxy_hat(model, phat, q):
    w = model.wlat * np.sum((1.0 + model.xi2) * np.abs(phat) ** 2)
    return math.sqrt(float(w) + abs(q) ** 2)


def duhamel_integral(source, t, params, contour=None, projected=True, scheme="midpoint"):
    """Quadrature of integral_0^t S(t - tau) f(tau) dtau.

    ``source`` must sample f uniformly on [0, t] including both endpoints.
    The default midpoint-kernel product integration evaluates the semigroup
    at interval midpoints (second order); ``scheme='left'`` matches the
    solver's left-endpoint rule.
    """
    if len(source) < 2:
        raise SchedulingError("need at least two source samples covering [0, t]")
    m = len(source) - 1
    dt = t / m
    grid = source[0].grid
    for f in source:
        if f.grid != grid:
            raise SchedulingError("source samples live on different grids")
    model = grid_model(params, grid)
    if scheme == "midpoint":
        if dt / 2.0 < MIN_TIME - 1e-12:
            raise SchedulingError(
                f"midpoint scheme needs dt >= {2 * MIN_TIME}; got dt = {dt}"
            )
        p_full = _Propagator(model, dt, full=not projected, contour=contour)
        p_half = _Propagator(model, dt / 2.0, full=not projected, contour=contour)
        acc = np.zeros((grid.n, grid.n), dtype=np.complex128)
        for j in range(m):
            if j > 0:
                acc, _ = p_full.apply(acc)
            favg = 0.5 * (source[j].values + source[j + 1].values)
            kick, _ = p_half.apply(fft.fft2(favg))
            acc = acc + dt * kick
        # interval j ends up propagated through S(t - t_{j+1/2}) in total
        return Field(grid, fft.ifft2(acc))
    if scheme == "left":
        if dt < MIN_TIME - 1e-12:
            raise SchedulingError(f"left scheme needs dt >= {MIN_TIME}; got dt = {dt}")
        prop = _Propagator(model, dt, full=not projected, contour=contour)
        acc = np.zeros((grid.n, grid.n), dtype=np.complex128)
        for j in range(m):
            acc, _ = prop.apply(acc + dt * fft.fft2(source[j].values))
        return Field(grid, fft.ifft2(acc))
    raise ValueError(f"unknown scheme {scheme!r}")


def _sweep(model, prop, phat0, q0, sources, cfg, project_force):
    """One Picard iterate: left-endpoint Duhamel sweep over a window.

    ``sources`` holds the forcing transforms of the previous iterate at the
    window's step times (length m); returns the new per-step states.
    """
    m = len(sources)
    phats = [phat0]
    qs = [q0]
    cur = _total_hat(model, phat0, q0)
    for j in range(m):
        v = cur if sources[j] is None else cur + prop.dt * sources[j]
        out, q_new = prop.apply(v)
        cur = out
        phats.append(out - q_new * model.green_omega_hat)
        qs.append(q_new)
    return phats, qs


def _forcing_hats(model, phats, qs, cfg, project_force):
    """Forcing transforms F_j at every step time of a window (last excluded)."""
    out = []
    a1, a2 = float(cfg.a[0]), float(cfg.a[1])
    zero_force = a1 == 0.0 and a2 == 0.0
    dgx, dgy = _kernel_gradient(model.params, model.grid, model.omega)
    XI1, XI2 = model.grid.wavenumbers()
    ixi1, ixi2 = 1j * XI1, 1j * XI2
    for phat, q in zip(phats[:-1], qs[:-1]):
        if zero_force:
            out.append(None)
            continue
        vals = fft.ifft2(_total_hat(model, phat, q))
        du1 = fft.ifft2(ixi1 * phat) + q * dgx
        du2 = fft.ifft2(ixi2 * phat) + q * dgy
        fvals = _nonlinear_values(vals, du1, du2, cfg)
        fhat = fft.fft2(fvals)
        if project_force:
            fhat, _ = model.project_ac_hat(fhat)
        out.append(fhat)
    return out


def _picard_window(model, prop, phat0, q0, steps, cfg, project_force, label):
    """Iterate the window map to tolerance; returns states and diagnostics."""
    sources = [None] * steps
    phats, qs = _sweep(model, prop, phat0, q0, sources, cfg, project_force)
    scale = max(1.0, _h1_proxy_hat(model, phat0, q0))
    ratios = []
    distance = None
    bad_streak = 0
    for it in range(1, cfg.picard_max + 1):
        sources = _forcing_hats(model, phats, qs, cfg, project_force)
        new_phats, new_qs = _sweep(model, prop, phat0, q0, sources, cfg, project_force)
        dist = max(
            _h1_proxy_hat(model, np1 - op1, nq - oq)
            for np1, op1, nq, oq in zip(new_phats, phats, new_qs, qs)
        )
        if distance is not None and distance > 0:
            ratio = dist / distance
            ratios.append(ratio)
            if ratio >= 1.0:
                bad_streak += 1
                if bad_streak >= 3:
                    raise HorizonTooLargeError(
                        f"{label}: no contraction (ratio {ratio:.3f} over 3 iterates); "
                        "shrink the horizon or the datum",
                        ratio,
                    )
            else:
                bad_streak = 0
        phats, qs = new_phats, new_qs
        distance = dist
        if dist <= cfg.picard_tol * scale:
            return phats, qs, it, ratios, dist
    raise ConvergenceError(
        f"{label}: Picard did not reach tol {cfg.picard_tol} in {cfg.picard_max} iterates "
        f"(last distance {distance:.3e})"
    )


def _ball_guard(radius, model, phats, qs, label):
    if radius is None:
        return
    top = max(_h1_proxy_hat(model, p, q) for p, q in zip(phats, qs))
    if top > radius:
        warnings.warn(f"{label}: iterate norm {top:.3e} left the ball {radius:.3e}")


def solve_local(u0, cfg, init="linear"):
    """Picard solution on the finite horizon [0, T] with the full semigroup.

    ``init`` selects the starting iterate: the linear evolution of u0
    (default) or u0 frozen in time; both must converge to the same
    trajectory.  Raises :class:`HorizonTooLargeError` when three successive
    iterates fail to contract.
    """
    if not math.isfinite(cfg.T):
        raise ValueError("solve_local requires a finite horizon")
    model = grid_model(u0.params, u0.regular.grid)
    steps = int(round(cfg.T / cfg.dt))
    if steps < 1 or abs(steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ValueError("T must be an integer multiple of dt")
    prop = _Propagator(model, cfg.dt, full=True)
    phat0, q0 = _compatible_split(model, _total_hat(model, *_state_hats(model, u0)))

    radius = cfg.ball_radius
    if radius == "auto":
        radius = 2.0 * _h1_proxy_hat(model, phat0, q0)

    if init == "frozen":
        phats = [phat0] * (steps + 1)
        qs = [q0] * (steps + 1)
        distance = None
        ratios = []
        bad = 0
        for it in range(1, cfg.picard_max + 1):
            sources = _forcing_hats(model, phats, qs, cfg, project_force=False)
            new_phats, new_qs = _sweep(model, prop, phat0, q0, sources, cfg, False)
            dist = max(
                _h1_proxy_hat(model, a - b, c - d)
                for a, b, c, d in zip(new_phats, phats, new_qs, qs)
            )
            if distance is not None and distance > 0:
                r = dist / distance
                ratios.append(r)
                bad = bad + 1 if r >= 1.0 else 0
                if bad >= 3:
                    raise HorizonTooLargeError("frozen start: no contraction", r)
            phats, qs = new_phats, new_qs
            distance = dist
            if dist <= cfg.picard_tol * max(1.0, _h1_proxy_hat(model, phat0, q0)):
                iterations = it
                break
        else:
            raise ConvergenceError("frozen start did not converge")
    elif init == "linear":
        phats, qs, iterations, ratios, _ = _picard_window(
            model, prop, phat0, q0, steps, cfg, project_force=False, label="local solve"
        )
    else:
        raise ValueError("init must be 'linear' or 'frozen'")

    _ball_guard(radius, model, phats, qs, "local solve")
    stride = cfg.store_stride or 1
    idx = list(range(0, steps + 1, stride))
    if idx[-1] != steps:
        idx.append(steps)
    times = np.array([k * cfg.dt for k in idx])
    states = [_to_decomposed(model, phats[k], qs[k], u0.params) for k in idx]
    diag = {
        "iterations": iterations,
        "contraction_ratios": ratios,
        "clamp_events": cfg.clamp_events,
    }
    return Trajectory(times, states, np.array([]), diag)


def solve_global_projected(u0, cfg):
    """Small-data solution of the projected system on [0, T].

    The datum and the forcing are projected onto the absolutely continuous
    subspace, so the eigenmode carries no dynamics; the multiplier rho is
    recorded at every stored time.  Long horizons are swept in restarted
    Duhamel windows of length ``cfg.window``.  A measured contraction
    ratio >= 1 raises :class:`DataTooLargeError`.
    """
    if not cfg.projected:
        raise ValueError("solve_global_projected requires cfg.projected = True")
    model = grid_model(u0.params, u0.regular.grid)
    prop = _Propagator(model, cfg.dt, full=False)
    tot_ac, _ = model.project_ac_hat(_total_hat(model, *_state_hats(model, u0)))
    phat0, q0 = _compatible_split(model, tot_ac)

    total_steps = int(round(cfg.T / cfg.dt))
    if total_steps < 1 or abs(total_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ValueError("T must be an integer multiple of dt")
    steps_per_window = max(1, int(round(cfg.window / cfg.dt)))
    stride = cfg.store_stride or steps_per_window

    times = [0.0]
    stored = [(phat0, q0)]
    ratios_all = []
    iters_all = []
    ortho_max = 0.0
    cur_phat, cur_q = phat0, q0
    step_counter = 0
    win = 0
    while step_counter < total_steps:
        win_steps = min(steps_per_window, total_steps - step_counter)
        try:
            phats, qs, iters, ratios, _ = _picard_window(
                model,
                prop,
                cur_phat,
                cur_q,
                win_steps,
                cfg,
                project_force=True,
                label=f"window {win}",
            )
        except HorizonTooLargeError as exc:
            raise DataTooLargeError(
                f"initial datum too large for global solve: {exc}", exc.ratio
            ) from exc
        iters_all.append(iters)
        ratios_all.extend(ratios)
        for j in range(1, win_steps + 1):
            step_counter += 1
            if step_counter % stride == 0 or step_counter == total_steps:
                times.append(step_counter * cfg.dt)
                stored.append((phats[j], qs[j]))
        eig = model.wlat * np.sum(
            _total_hat(model, phats[-1], qs[-1]) * np.conj(model.psi_hat)
        )
        ortho_max = max(ortho_max, abs(eig))
        cur_phat, cur_q = phats[-1], qs[-1]
        win += 1

    states = [_to_decomposed(model, p, q, u0.params) for p, q in stored]
    rho = np.array([lagrange_multiplier(st, cfg) for st in states])
    diag = {
        "iterations": iters_all,
        "contraction_ratios": ratios_all,
        "ortho_max": ortho_max,
        "clamp_events": cfg.clamp_events,
    }
    return Trajectory(np.array(times), states, rho, diag)


def residual_check(traj, cfg, t_min=0.0):
    """A-posteriori PDE residual on a uniformly stored trajectory.

    max over interior stored times of
    || (u(t+dt) - u(t-dt))/(2 dt) - A u(t) - a.grad(|u|^gamma)(t)
       + rho(t) psi ||_2 / ||u(t)||_2,
    with A u = omega u - (omega - Laplacian) phi evaluated spectrally.

    Generic initial data do not satisfy the kernel coupling of the operator
    domain, so the flow develops its singular component in an O(dt) initial
    layer where the difference quotient cannot be consistent; ``t_min``
    excludes that layer when measuring bulk convergence orders.
    """
    if len(traj.states) < 3:
        raise ValueError("residual_check needs at least three stored samples")
    dts = np.diff(traj.times)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-8):
        raise ValueError("residual_check needs uniformly spaced samples")
    params = traj.states[0].params
    grid = traj.states[0].regular.grid
    model = grid_model(params, grid)
    psi_vals = psi_alpha_field(params, grid).values
    projected = traj.rho.size > 0

    totals = []
    for st in traj.states:
        phat, q = _state_hats(model, st)
        totals.append((phat, q))

    worst = 0.0
    for k in range(1, len(traj.states) - 1):
        if traj.times[k] < t_min:
            continue
        pm, qm = totals[k - 1]
        pp, qp = totals[k + 1]
        pc, qc = totals[k]
        du_hat = (
            _total_hat(model, pp, qp) - _total_hat(model, pm, qm)
        ) / (2.0 * dt)
        # A u = omega u - (omega - Laplacian) phi
        au_hat = model.omega * _total_hat(model, pc, qc) - (model.omega + model.xi2) * pc
        f_vals = nonlinearity(traj.states[k], cfg).values
        resid = fft.ifft2(du_hat - au_hat) - f_vals
        if projected:
            resid = resid + traj.rho[k] * psi_vals
        unorm = lp_norm(
            Field(grid, fft.ifft2(_total_hat(model, pc, qc))), 2
        )
        rnorm = math.sqrt(float(np.sum(np.abs(resid) ** 2)) * grid.cell_area)
        if unorm > 0:
            worst = max(worst, rnorm / unorm)
    return worst
