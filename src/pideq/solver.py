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

The engine holds a state as one array, u_hat, the transform of the total
u = phi + q G_omega with the global reference omega = 1 + E; the flow acts
on u itself.  The singular coefficient q is read off u_hat where it is
needed, as the exact domain-coupling functional <u, delta>/S(E) (the grid
analogue of reading the coefficient off the boundary condition at the
interaction point); with that split the identity
(omega - A) u = (omega - Laplacian) phi holds on the nose and nothing is
ever fitted from samples.  q is read for the forcing, the H^1 proxy and
the stored :class:`pideq.spectral.DecomposedField` states; only the stored
states form phi, since the proxy ||phi||^2 is a quadratic form in u_hat
and q.  A DecomposedField handed to the public functions keeps its own
split: its coeff is the q of its samples.

One sampler serves the forcing and :func:`state_fields`: the drift
derivative a . grad u, which is linear in u, is one inverse transform of
(a1 i xi1 + a2 i xi2) u_hat plus q times the closed Bessel form of
a . grad G_omega less its spectral derivative, so the kernel part is
pointwise faithful at the singularity.  A forcing is two irfft2 (u and
a . grad u) and one rfft2; :func:`state_fields` samples the drifts along
(1, 0) and (0, 1), as (u, |grad u|).

The problem is posed for real u: the forcing is computed as
gamma |u|^(gamma-2) u (a . grad u), which equals a . grad(|u|^gamma) only
for real u.  Real data, a real vector a and the real self-adjoint A keep
every state real, so the solver holds u as its rfft2 half spectrum, the
grid model's one transform layout (see :mod:`pideq.semigroup`), and q as a
real float, and steps, forces, splits and pairs there.  A state enters
the half spectrum in one place, which raises ValueError when a complex
state's imaginary part exceeds ``IMAG_TOL`` of its size and drops it
otherwise.  A solver state's ``regular`` is an inverse rfft2, a real
(float64) Field, and its coeff a float.  The spectral derivative i xi_k,
the grid model's derivative pair, is zero on the Nyquist line of its own
axis (row n/2 for x1, the last half-spectrum column for x2): there the
full-lattice derivative of a real field is purely imaginary, so the real
derivative has no such mode (S. G. Johnson, "Notes on FFT-based
differentiation", MIT, 2011).

Time quadrature is left-endpoint product integration (exponential Euler).
One sweep over a window steps u_{j+1} = S(dt)[u_j + dt F(v_j)]: with v_j
the previous Picard iterate's state j it is one Picard iterate, and with
v_j = u_j it is the explicit march.  Because F_j depends on u_j alone, the
march is exactly the fixed point of the Picard map (Hochbruck & Ostermann,
"Exponential integrators", Acta Numerica 19 (2010)).  S(dt) is one
:class:`pideq.semigroup.Flow`, built once per solve.  Both solves run
through one window driver, which probes a window (Picard to tolerance on
one list of states swept in place, measuring contraction) or marches it.
A local solve is one probed window covering [0, T] with the full
semigroup.  A global solve probes its first window, marches the rest, and
probes again any window whose march leaves the largest H^1 proxy of the
last probed window.  The sweep is the only loop over time steps, and its
flow the only projector.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConvergenceError,
    DataTooLargeError,
    HorizonTooLargeError,
)
from .fields import Field, _irfft2, _rfft2, inner_product, lp_norm
from .semigroup import Flow, grid_model
from .spectral import (
    DecomposedField,
    _green_gradient,
    _h1_kernel,
    _h1_proxy_hat,
    psi_alpha_field,
    reference_lambda,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "nonlinearity",
    "solve_local",
    "solve_global_projected",
    "lagrange_multiplier",
    "residual_check",
    "state_fields",
    "total_field",
]

IMAG_TOL = 1e-12
"""Largest imaginary part of a state, relative to its size, taken as real."""


def _positive(value, kind):
    """Whether value is a finite number of ``kind`` (numbers.Real or numbers.Integral) above 0."""
    return (
        isinstance(value, kind) and not isinstance(value, bool)
        and math.isfinite(value) and value > 0
    )


@dataclass
class SolverConfig:
    """Nonlinearity, horizon and iteration controls.

    ``ball_radius`` is diagnostic: when set (or 'auto', twice the proxy
    norm of the initial state) iterates leaving the ball raise a warning.  The
    pointwise factor |u|^(gamma-2) is clamped at ``clamp_limit`` for
    gamma < 2.  ``gamma`` must be a finite number > 1.  ``a`` must be two
    finite real numbers and is stored as a tuple of two floats.  ``dt``,
    ``picard_tol``, ``window``, ``T`` and ``clamp_limit`` must be finite and
    > 0, ``picard_max`` an int >= 1 and ``store_stride`` None or an int
    >= 1; other values raise ValueError.  A
    config holds settings only: solves never write to it, and each reports
    its own clamp count in its trajectory's diagnostics.
    Projection is chosen by the solve function, not by the config:
    :func:`solve_global_projected` projects, :func:`solve_local` does not.
    """

    gamma: float = 2.0
    a: tuple = (1.0, 0.0)
    T: float = 1.0
    dt: float = 0.01
    picard_tol: float = 1e-9
    picard_max: int = 25
    ball_radius: float | str | None = None
    window: float = 1.0
    store_stride: int | None = None
    clamp_limit: float = 1e8

    def __post_init__(self):
        gamma = self.gamma
        if not (isinstance(gamma, numbers.Real) and math.isfinite(gamma) and gamma > 1.0):
            raise ValueError(f"gamma must be a finite number > 1; got {gamma!r}")
        if gamma < 2.0:
            warnings.warn(
                "gamma in (1, 2) is outside the solver's safe default regime; "
                "degenerate |u|^(gamma-2) factors are clamped",
                stacklevel=2,
            )
        for name in ("dt", "picard_tol", "window", "T", "clamp_limit"):
            if not _positive(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a finite number > 0; got {getattr(self, name)!r}")
        if not _positive(self.picard_max, numbers.Integral):
            raise ValueError(f"picard_max must be an int >= 1; got {self.picard_max!r}")
        if self.store_stride is not None and not _positive(self.store_stride, numbers.Integral):
            raise ValueError(f"store_stride must be None or an int >= 1; got {self.store_stride!r}")
        if self.ball_radius not in (None, "auto") and not _positive(self.ball_radius, numbers.Real):
            raise ValueError(
                f"ball_radius must be None, 'auto' or a finite number > 0; got {self.ball_radius!r}"
            )
        try:
            a = tuple(self.a)
        except TypeError:
            a = ()
        if len(a) != 2 or not all(isinstance(x, numbers.Real) and math.isfinite(x) for x in a):
            raise ValueError(f"a must be two finite real numbers; got {self.a!r}")
        self.a = (float(a[0]), float(a[1]))


@dataclass
class Trajectory:
    """Sampled solution: times, decomposed states, and the multiplier rho.

    ``rho`` is empty for unprojected runs.  ``diagnostics`` carries the
    measured contraction ratios, iteration counts, the maximum eigenmode
    component seen along the run (global solves), and ``clamp_events``: the
    number of clamped |u|^(gamma-2) samples in the forcings this solve built.
    """

    times: np.ndarray
    states: list
    rho: np.ndarray
    diagnostics: dict


# --- nonlinearity ------------------------------------------------------------

@lru_cache(maxsize=8)
def _drift_kernels(params, grid, a):
    """(K_a, c_a) of the drift derivative a . grad, for a tuple a of two floats; read-only.

    K_a = a1 i xi1 + a2 i xi2 on the rfft2 half spectrum, from the model's
    real derivative pair.  c_a is the closed Bessel form of a . grad G_omega
    less the spectral derivative irfft2(K_a G_omega_hat), so that
    irfft2(K_a u_hat) + q c_a is the spectral derivative of phi plus q
    times the closed form.
    """
    model = grid_model(params, grid)
    d1, d2 = model.derivative
    a1, a2 = a
    kernel = a1 * d1 + a2 * d2
    gx, gy = _green_gradient(reference_lambda(params), grid)
    closed = a1 * gx + a2 * gy
    kernels = (kernel, closed - _irfft2(kernel * model.green_omega_hat))
    # shared by every caller of the cache
    for arr in kernels:
        arr.setflags(write=False)
    return kernels


def _drift(model, uhat, q, a):
    """Real samples of a . grad u for u = phi + q G_omega given by u_hat and q: one irfft2."""
    kernel, corr = _drift_kernels(model.params, model.grid, a)
    drift = _irfft2(kernel * uhat)
    drift += q * corr
    return drift


def _nonlinear_values(model, uhat, q, cfg):
    """(a . grad(|u|^gamma) samples, number of clamped |u|^(gamma-2) samples).

    u = phi + q G_omega is given by its half spectrum and q.
    """
    if cfg.a == (0.0, 0.0):
        return np.zeros((model.grid.n, model.grid.n)), 0
    vals = _irfft2(uhat)
    drift = _drift(model, uhat, q, cfg.a)
    clamped = 0
    if cfg.gamma != 2.0:
        mag = np.abs(vals)
        with np.errstate(divide="ignore"):
            power = np.where(mag > 0.0, mag ** (cfg.gamma - 2.0), 0.0)
        if cfg.gamma < 2.0:
            clamped = int(np.count_nonzero(power > cfg.clamp_limit))
            if clamped:
                power = np.minimum(power, cfg.clamp_limit)
        drift *= power
    # gamma |u|^(gamma-2) u (a . grad u), built in the drift's array
    drift *= vals
    drift *= cfg.gamma
    return drift, clamped


def total_field(u):
    """Full state phi + coeff G_omega as a Field, in the solver's own kernel
    representation (the grid model's transform-side kernel); the values of
    :func:`state_fields`."""
    model = grid_model(u.params, u.regular.grid)
    return Field(u.regular.grid, _irfft2(_state_hat(model, u)[0]))


def state_fields(u):
    """(u, |grad u|) of a decomposed state as Fields, from the solver's sampler.

    The values are :func:`total_field`'s; d1 u and d2 u are the forcing's
    drift derivatives along (1, 0) and (0, 1): the spectral derivative of
    phi plus coeff times the closed Bessel form of grad G_omega.
    """
    grid = u.regular.grid
    model = grid_model(u.params, grid)
    uhat, q = _state_hat(model, u)
    du1 = _drift(model, uhat, q, (1.0, 0.0))
    du2 = _drift(model, uhat, q, (0.0, 1.0))
    return Field(grid, _irfft2(uhat)), Field(grid, np.hypot(du1, du2))


def nonlinearity(u, cfg):
    """a . grad(|u|^gamma) with grad u = grad phi + coeff grad G_omega.

    The regular part is differentiated spectrally; the kernel part uses the
    closed Bessel form.  |u|^(gamma-2) u is extended by 0 at u = 0.  u must
    be real: complex data raise ValueError.
    """
    if not cfg.gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    model = grid_model(u.params, u.regular.grid)
    values, _ = _nonlinear_values(model, *_state_hat(model, u), cfg)
    return Field(u.regular.grid, values)


def lagrange_multiplier(u, cfg):
    """rho = < a . grad(|u|^gamma), psi >, a pairing of two real fields."""
    psi = psi_alpha_field(u.params, u.regular.grid)
    val = inner_product(nonlinearity(u, cfg), psi)
    return float(val.real)


# --- stepping engine ----------------------------------------------------------


def _state_hat(model, u):
    """(u_hat, coeff) of a real state u = phi + coeff G_omega: u's half spectrum, its own coeff.

    This is where states enter the half spectrum.  A real phi (float64) and
    a real coeff pass as they are.  Otherwise raises ValueError when the
    imaginary parts of phi's values and coeff exceed ``IMAG_TOL`` of the
    state's size (||phi||_2^2 + |coeff|^2)^(1/2), and drops them when not.
    """
    grid, values, q = model.grid, u.regular.values, complex(u.coeff)
    if np.iscomplexobj(values) or q.imag:
        size = math.sqrt(grid.cell_area * float(np.sum(np.abs(values) ** 2)) + abs(q) ** 2)
        imag = math.sqrt(grid.cell_area * float(np.sum(np.imag(values) ** 2)) + q.imag ** 2)
        if imag > IMAG_TOL * size:
            raise ValueError(
                f"complex data (imaginary part {imag / size:.1e} of its size): the solver's "
                "forcing a . grad(|u|^gamma) is written for real u"
            )
    return _rfft2(values.real) + q.real * model.green_omega_hat, q.real


def _split(model, uhat):
    """(phi_hat, q): the domain-compatible split of u's half spectrum, q from the coupling.

    q is the exact domain-coupling functional <u, delta>/S(E); with it the
    split u = phi + q G_omega satisfies (omega - A) u = (omega - Laplacian)
    phi, so phi is genuinely the regular part (the contour coefficient
    alone misses the kernel content of the heat part).  The split is linear
    in u.
    """
    q = model.coupling_coefficient(uhat)
    return uhat - q * model.green_omega_hat, q


@lru_cache(maxsize=8)
def _proxy_kernel(params, grid):
    """The H^1 proxy's form constants of G_omega on the half spectrum (``_h1_kernel``)."""
    return _h1_kernel(grid, grid_model(params, grid).green_omega_hat)


def _proxy(model, uhat, q=None):
    """H^1 proxy of the state u_hat: phi's, phi_hat never formed.

    q is u's coupling coefficient, read off the coupling when not given.
    """
    if q is None:
        q = model.coupling_coefficient(uhat)
    return _h1_proxy_hat(model.grid, uhat, q, _proxy_kernel(model.params, model.grid))


def _to_decomposed(model, uhat):
    phat, q = _split(model, uhat)
    return DecomposedField(Field(model.grid, _irfft2(phat)), float(q), model.params)


def _forcing_hat(model, uhat, cfg, q=None):
    """(unprojected F transform, clamp count) of the state u_hat; (None, 0) if a = 0.

    q is u's coupling coefficient, read off the coupling when not given.
    Two irfft2 (u and a . grad u) and one rfft2.
    """
    if cfg.a == (0.0, 0.0):
        return None, 0
    if q is None:
        q = model.coupling_coefficient(uhat)
    values, clamped = _nonlinear_values(model, uhat, q, cfg)
    return _rfft2(values), clamped


def _sweep(flow, start, steps, force=None, prev=None):
    """Exponential-Euler sweep over one window: u_{j+1} = S(dt)[u_j + dt F(v_j)].

    S(dt) is ``flow``, a :class:`pideq.semigroup.Flow` at t = dt.  States
    are half spectra u_hat of the total.  ``start`` is u_0; ``force`` maps
    one state and its coupling coefficient q (None: the forcing reads it)
    to F's transform, a fresh array that the sweep overwrites with
    u_j + dt F, or to None for no forcing, and is called exactly ``steps``
    times, in order; without ``force`` the sweep is the linear evolution.
    Yields (j, u_hat, q) for u_1 .. u_steps.  Without ``prev``, v_j = u_j:
    the march, where q is u_j's coupling coefficient, read once for the
    caller and for F(u_j) (None without ``force``).  With ``prev``, the
    previous Picard iterate as a list of steps + 1 states starting at u_0,
    v_j = prev[j], q is None, and the sweep is one Picard iterate written
    over ``prev`` in place: prev[j] is replaced by u_j only after u_j has
    been yielded and F(prev[j]) built, so the caller can still compare the
    two.
    """
    coupling = flow.model.coupling_coefficient
    march = prev is None and force is not None
    cur = start
    fhat = None if force is None else force(cur, None)
    for j in range(1, steps + 1):
        if fhat is not None:
            fhat *= flow.t
            fhat += cur
        cur = flow.apply(cur if fhat is None else fhat)
        q = coupling(cur) if march else None
        yield j, cur, q
        if j < steps and force is not None:
            fhat = force(cur, q) if march else force(prev[j], None)
        if prev is not None:
            prev[j] = cur


def _picard_window(model, flow, start, steps, cfg, force, init, label):
    """Iterate the window map to tolerance; returns (states, iterations, ratios).

    The starting iterate is the linear evolution of the window's start
    state ``start`` (``init="linear"``) or that state frozen in time
    (``"frozen"``).  The window holds one iterate: a list of steps + 1
    states u_hat that each Picard sweep overwrites in place, ending as the
    converged states.  The distance of two iterates is the H^1 proxy of
    their difference.
    """
    if init == "frozen":
        states = [start] * (steps + 1)
    else:
        states = [start] + [uhat for _, uhat, _ in _sweep(flow, start, steps)]
    scale = max(1.0, _proxy(model, start))
    ratios = []
    distance = None
    bad_streak = 0
    for it in range(1, cfg.picard_max + 1):
        dist = 0.0
        for j, uhat, _ in _sweep(flow, start, steps, force, states):
            dist = max(dist, _proxy(model, uhat - states[j]))
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
        distance = dist
        if dist <= cfg.picard_tol * scale:
            return states, it, ratios
    raise ConvergenceError(
        f"{label}: Picard did not reach tol {cfg.picard_tol} in {cfg.picard_max} iterates "
        f"(last distance {distance:.3e})"
    )


def _solve(u0, cfg, projected, window, default_stride, init):
    """Both solves' window driver: (times, states, iterations, ratios, ortho_max, clamps).

    The horizon [0, cfg.T] is cut into windows of ``window`` time.  A window
    is probed: Picard is iterated to ``cfg.picard_tol`` from ``init`` (the
    linear evolution of the window's start state, or that state frozen in
    time), its converged states are the window's states and its ratios are
    recorded.  Once a window has been probed, the next is marched in one
    sweep keeping only the stored states; it is probed instead, from its
    start state, when one of its states is not finite or has an H^1 proxy
    above the largest one the last probed window held, so growing data are
    measured where they are largest.  Marched states never exceed that
    largest proxy, so checking it against ``cfg.ball_radius`` after each
    probe covers every state.  ``iterations`` has one entry per window, 0
    for a marched one.  States are stored every ``cfg.store_stride`` steps
    (``default_stride`` when unset, every window end when that is None),
    and at T, and made into :class:`DecomposedField` states (float64 phi) at
    the end, one at a time.  ``clamps`` counts the forcings' clamped
    samples; ``cfg`` is only read.
    """
    if init not in ("linear", "frozen"):
        raise ValueError("init must be 'linear' or 'frozen'")
    model = grid_model(u0.params, u0.regular.grid)
    total_steps = int(round(cfg.T / cfg.dt))
    if total_steps < 1 or abs(total_steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ValueError("T must be an integer multiple of dt")
    flow = Flow(model, cfg.dt, full=not projected)
    start, _ = _state_hat(model, u0)
    if projected:
        start, _ = model.project_ac_hat(start)
    radius = cfg.ball_radius
    if radius == "auto":
        radius = 2.0 * _proxy(model, start)

    clamps = 0

    def force(uhat, q):
        nonlocal clamps
        fhat, clamped = _forcing_hat(model, uhat, cfg, q)
        clamps += clamped
        return fhat

    steps_per_window = max(1, int(round(window / cfg.dt)))
    stride = cfg.store_stride or default_stride or steps_per_window
    times = [0.0]
    stored = [start]
    iterations = []
    ratios = []
    ortho_max = 0.0
    probe_top = None
    step = 0
    while step < total_steps:
        steps = min(steps_per_window, total_steps - step)
        want = [
            j for j in range(1, steps + 1)
            if (step + j) % stride == 0 or step + j == total_steps
        ]
        kept = None
        if probe_top is not None:
            kept = []
            for j, uhat, q in _sweep(flow, start, steps, force):
                if not _proxy(model, uhat, q) <= probe_top:
                    kept = None
                    break
                if j in want:
                    kept.append((j, uhat))
            end = uhat
        if kept is None:
            label = f"window {len(iterations)} ({init} start)"
            states, iters, window_ratios = _picard_window(
                model, flow, start, steps, cfg, force, init, label
            )
            iterations.append(iters)
            ratios.extend(window_ratios)
            probe_top = max(_proxy(model, s) for s in states)
            if radius is not None and probe_top > radius:
                warnings.warn(f"{label}: iterate norm {probe_top:.3e} left the ball {radius:.3e}")
            kept = [(j, states[j]) for j in want]
            end = states[-1]
            del states  # a later probe builds its list without this one alive
        else:
            iterations.append(0)
        for j, state in kept:
            times.append((step + j) * cfg.dt)
            stored.append(state)
        _, eig = model.project_ac_hat(end)
        ortho_max = max(ortho_max, abs(eig))
        start = end
        step += steps

    # each half spectrum is dropped as its state is made, so the stored half
    # spectra and the states are never all alive at once
    stored.reverse()
    states = []
    while stored:
        states.append(_to_decomposed(model, stored.pop()))
    return np.array(times), states, iterations, ratios, ortho_max, clamps


def solve_local(u0, cfg, init="linear"):
    """Picard solution on the finite horizon [0, T] with the full semigroup.

    Runs the window driver of :func:`solve_global_projected` without
    projection, with one window of length T and every step stored (unless
    ``cfg.store_stride`` says otherwise): the whole horizon is one probed
    window.  ``init`` selects the probe's starting iterate: the linear
    evolution of u0 (default) or u0 frozen in time; both must converge to
    the same trajectory.  Raises :class:`HorizonTooLargeError` when three
    successive iterates fail to contract.
    """
    times, states, iterations, ratios, _, clamps = _solve(
        u0, cfg, projected=False, window=cfg.T, default_stride=1, init=init
    )
    diag = {
        "iterations": iterations[0],
        "contraction_ratios": ratios,
        "clamp_events": clamps,
    }
    return Trajectory(times, states, np.array([]), diag)


def solve_global_projected(u0, cfg):
    """Small-data solution of the projected system on [0, T].

    Calling this function is what selects projection (:func:`solve_local`
    is the unprojected solve).  The datum and the forcing are projected onto
    the absolutely continuous subspace, so the eigenmode carries no
    dynamics; the multiplier rho is recorded at every stored time.  Runs
    the window driver shared with :func:`solve_local` on windows of length
    ``cfg.window``, storing every window end unless ``cfg.store_stride`` is
    set.  Window 0 is probed: the Picard map is iterated to
    ``cfg.picard_tol`` from the linear evolution, and its ratios are
    ``diagnostics["contraction_ratios"]``.  Every later window is marched
    with exponential Euler, u_{j+1} = S(dt)[u_j + dt F(u_j)], which is that
    map's fixed point, unless its march leaves the largest H^1 proxy of the
    last probed window; it is then probed from its start state.  A probe
    that fails to contract (ratio >= 1 over three iterates) raises
    :class:`DataTooLargeError`.  ``diagnostics["iterations"]`` holds one
    entry per window: the probe's iterate count, or 0 for a marched window.
    """
    try:
        times, states, iterations, ratios, ortho_max, clamps = _solve(
            u0, cfg, projected=True, window=cfg.window, default_stride=None, init="linear"
        )
    except HorizonTooLargeError as exc:
        raise DataTooLargeError(
            f"initial datum too large for global solve: {exc}", exc.ratio
        ) from exc
    rho = np.array([lagrange_multiplier(st, cfg) for st in states])
    diag = {
        "iterations": iterations,
        "contraction_ratios": ratios,
        "ortho_max": ortho_max,
        "clamp_events": clamps,
    }
    return Trajectory(times, states, rho, diag)


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

    ghat = model.green_omega_hat
    totals = [_state_hat(model, st) for st in traj.states]

    worst = 0.0
    for k in range(1, len(traj.states) - 1):
        if traj.times[k] < t_min:
            continue
        uc, qc = totals[k]
        du_hat = (totals[k + 1][0] - totals[k - 1][0]) / (2.0 * dt)
        # A u = omega u - (omega - Laplacian) phi, with phi_hat = u_hat - q G_omega_hat
        au_hat = model.omega * uc - (model.omega + model.xi2) * (uc - qc * ghat)
        f_vals, _ = _nonlinear_values(model, uc, qc, cfg)
        resid = _irfft2(du_hat - au_hat) - f_vals
        if projected:
            resid = resid + traj.rho[k] * psi_vals
        unorm = lp_norm(Field(grid, _irfft2(uc)), 2)
        rnorm = math.sqrt(float(np.sum(resid ** 2)) * grid.cell_area)
        if unorm > 0:
            worst = max(worst, rnorm / unorm)
    return worst
