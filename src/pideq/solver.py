"""Picard solution of the convection-diffusion problem with point interaction.

Solves (d/dt - A) u = a . grad(|u|^gamma) in its mild (Duhamel) form

    u(t) = S(t) u0 + integral_0^t S(t - tau) a . grad(|u|^gamma)(tau) dtau,

by fixed-point iteration of the map v -> right-hand side, where S is either
the full semigroup (local solves on a finite horizon) or the projected
semigroup on the absolutely continuous subspace (global solves, with the
eigenmode removed from data and forcing).  The scalar multiplier

    rho(t) = < a . grad(|u|^gamma), psi >

reconstructs the unprojected formulation; it is the Lagrange multiplier of
the constraint P_ac u = u.  It is the forcing's transform paired with
psi_hat (``PointHeatModel._psi_coefficient``), the pairing the flow's
projection takes, so no solve samples psi.  A solve with a = 0 has no
forcing: the driver decides that once, its sweeps are the linear
evolution and its rho is 0.

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
pointwise faithful at the singularity.  The grid model holds that pair
per axis (``PointHeatModel.drift_parts``): the 1-D derivative i xi_k and
the correction c_k.  The sampler reads them there on every call, forms
a1 i xi1 + a2 i xi2 in the half spectrum it multiplies and adds q a_k c_k
for each nonzero a_k, so no caller builds or keeps a lattice-sized
kernel; :func:`state_fields` samples the two axes, as (u, |grad u|).  A
forcing is two irfft2 (u and a . grad u) and one rfft2.  The H^1 proxy
reads its form constants of G_omega off the model too
(``PointHeatModel.h1_kernel``).  The window driver runs with numpy's
overflow and invalid-value errors raised: an iterate that leaves the
double range ends the solve with :class:`pideq.errors.HorizonTooLargeError`.

The problem is posed for real u: the forcing is computed as
gamma sign(u) |u|^(gamma-1) (a . grad u) (2 u (a . grad u) at gamma = 2),
which equals a . grad(|u|^gamma) only for real u and, as gamma > 1, is
bounded wherever u and a . grad u are.  Real data, a real vector a and the
real self-adjoint A keep every state real, so the solver holds u as its
rfft2 half spectrum, the grid model's one transform layout (see
:mod:`pideq.semigroup`), and q as a real float, and steps, forces, splits
and pairs there.  A state enters
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
the state j of a driving sweep it is one Picard iterate of that sweep, and
with v_j = u_j it is the explicit march.  Because F_j depends on u_j
alone, the march is exactly the fixed point of the Picard map (Hochbruck &
Ostermann, "Exponential integrators", Acta Numerica 19 (2010)).  S(dt) is
one :class:`pideq.semigroup.Flow`, built once per solve.  Both solves run
through one window driver, which probes a window or marches it.  A probe
is one pass that advances the march, the linear evolution of the window's
start state and ``PROBE_ITERATES`` Picard iterates from it together, one
time step at a time, each iterate driven by the current state of the one
before; the iterates' distances to the march measure the contraction, and
the window's states are the march's.  A local solve is one probed window
covering [0, T] with the full semigroup.  A global solve cuts [0, T] into
windows of whole time steps (T and a window shorter than T must each be a
whole number of steps dt, or the solve raises ValueError), probes its first
window, marches the rest, and probes again any window whose march leaves
the largest H^1 proxy of the last probed window.  The sweep is the only
loop over time steps, and its flow the only projector; it reads each new
state's q once, and the driver keeps it beside every state it holds or
stores, so a stored state's phi and rho come from that (u_hat, q).

A solve owns its lattice arrays (:class:`_Work` and the flow's
temporary), so a step allocates none: a sweep steps one array of its own
in place, the forcing and u_j + dt F are formed in the work's ``spec``,
and a march's array becomes its window's end state.  A probe holds
``PROBE_ITERATES`` + 2 states whatever the window's length, and a local
solve's probe also keeps a copy of every march state, its output.  The
flow and the work are released before the stored states are formed, and
each state's phi is formed in the half spectrum it came from.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DataTooLargeError, HorizonTooLargeError
from .fields import Field, _front, _gradient_modulus, _irfft2, _real, _real_pair, _rfft2, lp_norm
from .semigroup import Flow, grid_model
from .spectral import DecomposedField, _h1_proxy_hat

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

PICARD_MAX = 25
"""Most Picard iterates a probe may count or estimate; more raise ConvergenceError."""

PROBE_ITERATES = 3
"""Picard iterates a probe advances beside its march; later ones are estimated."""


@dataclass(frozen=True)
class SolverConfig:
    """Nonlinearity, horizon and iteration controls.

    ``gamma`` must be a finite number > 1.  ``a`` must be two finite real
    numbers and is stored as a tuple of two floats.  ``dt``,
    ``picard_tol``, ``window`` and ``T`` must be finite and > 0; other
    values raise ValueError.  ``picard_tol`` sets a probe's iterate count:
    the first Picard iterate whose largest H^1-proxy distance to the march
    is at most picard_tol max(1, proxy of the start state).  ``window``
    chooses which states a global solve probes and stores: it stores
    t = 0, every window end and T, so a shorter window gives denser
    output.  T must be a whole number of steps dt, and so must a window
    shorter than T: a solve raises ValueError naming the two otherwise, as
    a rounded window would store states at times it does not name.  A
    config is frozen: it holds settings only.  Projection is chosen by the solve function, not by the
    config: :func:`solve_global_projected` projects, :func:`solve_local`
    does not.
    """

    gamma: float = 2.0
    a: tuple = (1.0, 0.0)
    T: float = 1.0
    dt: float = 0.01
    picard_tol: float = 1e-9
    window: float = 1.0

    def __post_init__(self):
        gamma = self.gamma
        if not (isinstance(gamma, numbers.Real) and math.isfinite(gamma) and gamma > 1.0):
            raise ValueError(f"gamma must be a finite number > 1; got {gamma!r}")
        for name in ("dt", "picard_tol", "window", "T"):
            value = getattr(self, name)
            if not (_real(value) and 0 < value < math.inf):
                raise ValueError(f"{name} must be a finite number > 0; got {value!r}")
        object.__setattr__(self, "a", _real_pair("a", self.a))


@dataclass
class Trajectory:
    """Sampled solution: times, decomposed states, and the multiplier rho.

    A local solve stores every step; a global solve stores t = 0, every
    window end and T.  ``rho`` is empty for unprojected runs.
    ``diagnostics`` carries the measured ``contraction_ratios``, the
    ``iterations`` (the one window's count for a local solve, one per
    window for a global one) and, for a global solve, ``ortho_max``: the
    largest eigenmode component |<u, psi>| of a window's end state.  A
    probe's ratios are e_k / e_(k-1), k = 1 .. ``PROBE_ITERATES``, where
    e_k is the largest H^1 proxy of the k-th Picard iterate's distance to
    the march over the window (e_0 the linear evolution's); a zero e_(k-1)
    gives no ratio.  Its iteration count is the first k with e_k within
    ``picard_tol``, past the last iterate the contraction-mapping estimate
    e_K r^(k-K) with r the last ratio; a marched window counts 0.
    """

    times: np.ndarray
    states: list
    rho: np.ndarray
    diagnostics: dict


# --- nonlinearity ------------------------------------------------------------

class _Work:
    """The lattice arrays one solve reuses at every step, so a step allocates none.

    ``spec`` is a complex half spectrum: the drift's K_a u_hat, the first
    pass of every irfft2 and, over its front, the drift's q a_k c_k; then
    a forcing's transform and a sweep's u_j + dt F, or a probe's
    difference of two states.  ``vals`` and ``drift`` are real n x n: the
    samples of u and of a . grad u, then the forcing.  ``squares`` are the
    H^1 proxy's two real half spectra, held in the fronts of ``vals`` and
    ``drift``, which are free whenever the proxy runs.  At n = 256 that
    is 1.5 MB.
    """

    def __init__(self, grid):
        n, m = grid.n, grid.n // 2 + 1
        self.spec = np.empty((n, m), dtype=np.complex128)
        self.vals = np.empty((n, n))
        self.drift = np.empty((n, n))
        self.squares = _front(self.vals, (n, m)), _front(self.drift, (n, m))


def _drift(model, a, uhat, q, spec=None, out=None):
    """Real samples of a . grad u for u = phi + q G_omega given by u_hat and q: one irfft2.

    ``a`` is a pair of floats.  With the model's per-axis ``drift_parts``
    (d_k, c_k), the spectral derivative of phi plus q times the closed form
    is irfft2(K_a u_hat) + q a1 c1 + q a2 c2, K_a = a1 d1 + a2 d2.  The d_k
    are 1-D (n x 1 and 1 x (n/2 + 1)), so K_a is copied into the half
    spectrum ``spec`` by broadcasting and multiplied by u_hat there: a
    broadcast copy needs no ufunc buffer, where a broadcast product takes
    numpy's 128 KiB one.  A zero component adds no term, and a second
    nonzero one is added in place (one such buffer).  ``spec`` then takes
    the irfft2's first pass and, over its front, each nonzero q (a_k c_k),
    and ``out`` the samples; either is new when None.
    """
    (d1, c1), (d2, c2) = model.drift_parts
    a1, a2 = a
    khat = np.empty_like(uhat) if spec is None else spec
    np.copyto(khat, a1 * d1 if a1 else a2 * d2)
    if a1 and a2:
        khat += a2 * d2
    khat *= uhat
    drift = _irfft2(khat, out, work=khat)
    qc = _front(khat, drift.shape)
    for ak, ck in ((a1, c1), (a2, c2)):
        if ak:
            np.multiply(ck, ak, out=qc)
            qc *= q
            drift += qc
    return drift


def _nonlinear_values(model, uhat, q, cfg, work=None):
    """Samples of a . grad(|u|^gamma) = gamma sign(u) |u|^(gamma-1) (a . grad u).

    u = phi + q G_omega is given by its half spectrum and q.  The samples
    are those of the :class:`_Work` ``work`` (a new one when None): its
    ``drift``, with u sampled into its ``vals`` and spare room in its
    ``spec``.  a = 0 needs no shortcut: its drift samples are zero, and
    so are these.
    """
    work = _Work(model.grid) if work is None else work
    drift = _drift(model, cfg.a, uhat, q, work.spec, work.drift)
    vals = _irfft2(uhat, work.vals, work=work.spec)
    # built in the drift's array; sign(u) |u| = u at gamma = 2
    if cfg.gamma == 2.0:
        drift *= vals
    else:
        sign = np.sign(vals, out=_front(work.spec, vals.shape))
        vals = np.abs(vals, out=vals)
        vals **= cfg.gamma - 1.0
        sign *= vals
        drift *= sign
    drift *= cfg.gamma
    return drift


def total_field(u):
    """Full state phi + coeff G_omega as a Field, in the solver's own kernel
    representation (the grid model's transform-side kernel); the values of
    :func:`state_fields`."""
    return Field(u.regular.grid, _irfft2(_state(u)[1]))


def state_fields(u):
    """(u, |grad u|) of a decomposed state as Fields, from the solver's sampler.

    The values are :func:`total_field`'s; d1 u and d2 u are the forcing's
    drift derivatives along (1, 0) and (0, 1): the spectral derivative of
    phi plus coeff times the closed Bessel form of grad G_omega.  Both run
    through one half-spectrum scratch; |grad u| = sqrt(d1^2 + d2^2)
    (``fields._gradient_modulus``) is written over d1 u and the values over
    d2 u.
    """
    grid = u.regular.grid
    model, uhat, q = _state(u)
    spec = np.empty_like(uhat)
    du1, du2 = (_drift(model, a, uhat, q, spec) for a in ((1.0, 0.0), (0.0, 1.0)))
    grad = _gradient_modulus(du1, du2)
    return Field(grid, _irfft2(uhat, du2, work=uhat)), Field(grid, grad)


def nonlinearity(u, cfg):
    """a . grad(|u|^gamma) with grad u = grad phi + coeff grad G_omega.

    The regular part is differentiated spectrally; the kernel part uses the
    closed Bessel form.  The forcing is gamma sign(u) |u|^(gamma-1)
    (a . grad u), 0 where u is.  u must be real: complex data raise
    ValueError.
    """
    return Field(u.regular.grid, _nonlinear_values(*_state(u), cfg))


def lagrange_multiplier(u, cfg):
    """rho = < a . grad(|u|^gamma), psi >: the forcing's half spectrum paired with psi's."""
    model, uhat, q = _state(u)
    fhat = _forcing_hat(model, uhat, q, cfg, out=uhat)
    return float(model._psi_coefficient(fhat))


# --- stepping engine ----------------------------------------------------------


def _state(u):
    """(model, u_hat, coeff) of a real state u = phi + coeff G_omega.

    The state's grid model, u's half spectrum and its own coeff.  This is
    where states enter the half spectrum.  A real phi (float64) and
    a real coeff pass as they are.  Otherwise raises ValueError when the
    imaginary parts of phi's values and coeff exceed ``IMAG_TOL`` of the
    state's size (||phi||_2^2 + |coeff|^2)^(1/2), and drops them when not.
    """
    model = grid_model(u.params, u.regular.grid)
    values, q = u.regular.values, complex(u.coeff)
    if np.iscomplexobj(values) or q.imag:
        size = math.hypot(lp_norm(u.regular, 2), abs(q))
        imag = math.hypot(lp_norm(Field(model.grid, values.imag), 2), q.imag)
        if imag > IMAG_TOL * size:
            raise ValueError(
                f"complex data (imaginary part {imag / size:.1e} of its size): the solver's "
                "forcing a . grad(|u|^gamma) is written for real u"
            )
    uhat = _rfft2(values.real)
    uhat += q.real * model.green_omega_hat
    return model, uhat, q.real


def _proxy(model, uhat, q, work):
    """H^1 proxy of the state u_hat with coupling coefficient q: phi's, phi_hat never formed.

    Its squares go through the :class:`_Work` ``work``; uhat may be its ``spec``.
    """
    return _h1_proxy_hat(model.grid, uhat, q, model.h1_kernel, work.squares)


def _forcing_hat(model, uhat, q, cfg, work=None, out=None):
    """Unprojected F transform of the state (u_hat, q), written into out (a new array if None).

    ``work`` is the solve's :class:`_Work` (a new one if None).  Two
    irfft2 (u and a . grad u) and one rfft2, which comes last, so out may
    be uhat itself or ``work.spec``.  It is the one forcing transform: the
    sweep steps with it, and rho and :func:`residual_check` pair it with
    psi_hat.
    """
    return _rfft2(_nonlinear_values(model, uhat, q, cfg, work), out)


def _sweep(flow, start, steps, force=None, drive=None):
    """Exponential-Euler sweep over one window: u_{j+1} = S(dt)[u_j + dt F(v_j)].

    S(dt) is ``flow``, a :class:`pideq.semigroup.Flow` at t = dt.  A state
    is a pair (u_hat, q): the half spectrum of the total and its coupling
    coefficient.  ``start`` is u_0's pair, and the sweep writes every u_j
    over its array, so a caller that keeps u_0 passes a copy.
    ``force(u_hat, q)`` returns one state's F transform in an array the
    sweep may overwrite (the solve's ``_Work.spec``): the sweep forms
    u_j + dt F there and flows it into its own array.  ``force`` is called
    exactly ``steps`` times, in order; without it the sweep is the linear
    evolution.  Yields (j, u_hat, q) for u_1 .. u_steps, q read off the
    coupling once per step, u_hat always the one array.

    Without ``drive``, v_j = u_j: the march.  With it, ``drive()`` returns
    v_j as a pair, once per forced step: the current state of a driving
    sweep that has not yet stepped past j, so the sweep is one Picard
    iterate of the driving one.
    """
    coupling = flow.model.coupling_coefficient
    cur, q = start
    for j in range(1, steps + 1):
        src = cur
        if force is not None:
            src = force(*(drive() if drive else (cur, q)))
            src *= flow.t
            src += cur
        flow.apply(src, cur)
        q = coupling(cur)
        yield j, cur, q


def _probe(model, flow, start, steps, cfg, force, label, work, keep):
    """Probe one window against its march; returns (states, top, iterations, ratios).

    ``start`` is the window's start state as a (u_hat, q) pair, which the
    probe never writes.  One pass advances the march m, the linear
    evolution l = p^0 and the Picard iterates
    p^k_{j+1} = S(dt)[p^k_j + dt F(p^(k-1)_j)], k = 1 .. ``PROBE_ITERATES``,
    a step at a time, each iterate stepping before the one that drives it.
    p^k_j = m_j for j <= k, so p^k joins at step k from a copy of m_k and
    those forcings are skipped.  e_k is the largest H^1 proxy of
    p^k_j - m_j over the window (q of a difference is the difference of
    the q's, as q is linear in u), formed in the :class:`_Work` ``work``'s
    ``spec``; the ratios are e_k / e_(k-1), a zero e_(k-1) skipped.  The
    iteration count is the first k with
    e_k <= ``cfg.picard_tol`` max(1, proxy(start)), past the last iterate
    the contraction-mapping estimate e_K r^(k-K) with r = e_K / e_(K-1).
    A probe that misses the tolerance does not contract when r >= 1, or
    when ``PICARD_MAX`` iterates at r would leave its distance above
    max(1, proxy(start)), as a relative tolerance of 1 would still be
    missed: it raises :class:`HorizonTooLargeError`.  A count above
    ``PICARD_MAX`` raises :class:`ConvergenceError`; both name ``label``.
    ``states`` are the march's: u_1 .. u_steps with ``keep``, u_steps
    alone without it.  ``top`` is the largest proxy of u_0 .. u_steps.
    """
    u0, q0 = start
    top = _proxy(model, u0, q0, work)
    scale = max(1.0, top)
    tol = cfg.picard_tol * scale
    cur = [start]  # the current states of l, p^1, p^2, ...
    sweeps = [_sweep(flow, (u0.copy(), q0), steps)]
    errors = [0.0] * (PROBE_ITERATES + 1)
    states = []
    for j, m, qm in _sweep(flow, (u0.copy(), q0), steps, force):
        for k in reversed(range(len(sweeps))):  # p^k reads p^(k-1)_(j-1) through cur
            cur[k] = next(sweeps[k])[1:]
        for k, (u, q) in enumerate(cur):
            diff = np.subtract(u, m, out=work.spec)
            errors[k] = max(errors[k], _proxy(model, diff, q - qm, work))
        if j <= PROBE_ITERATES:
            cur.append((m.copy(), qm))
            sweeps.append(_sweep(flow, cur[j], steps - j, force, lambda k=j: cur[k - 1]))
        top = max(top, _proxy(model, m, qm, work))
        if keep or j == steps:
            states.append((m.copy() if j < steps else m, qm))
    ratios = [e / prev for prev, e in zip(errors, errors[1:]) if prev > 0]
    iterations = next((k for k, e in enumerate(errors) if e <= tol), None)
    if iterations is None:
        ratio, iterations, e = ratios[-1], PROBE_ITERATES, errors[-1]
        if not (ratio < 1.0 and e * ratio ** (PICARD_MAX - PROBE_ITERATES) <= scale):
            raise HorizonTooLargeError(
                f"{label}: no contraction (ratio {ratio:.3f}, distance {e:.3e} to the march "
                f"after {PROBE_ITERATES} iterates); shrink the horizon or the datum",
                ratio,
            )
        while e > tol and iterations <= PICARD_MAX:
            e *= ratio
            iterations += 1
    if iterations > PICARD_MAX:
        raise ConvergenceError(
            f"{label}: Picard does not reach tol {cfg.picard_tol} in PICARD_MAX = {PICARD_MAX} "
            f"iterates (distances to the march {', '.join(f'{e:.3e}' for e in errors)})"
        )
    return states, top, iterations, ratios


def _whole_steps(span, dt, name):
    """span / dt as an int >= 1; ValueError naming ``name`` unless span is a whole number of dt."""
    steps = int(round(span / dt))
    if steps < 1 or abs(steps * dt - span) > 1e-9 * max(1.0, span):
        raise ValueError(f"{name} = {span!r} must be an integer multiple of dt = {dt!r}")
    return steps


def _solve(u0, cfg, projected):
    """Both solves' window driver: the :class:`Trajectory` of a global or a local solve.

    A projected (global) solve cuts the horizon [0, cfg.T] into windows of
    ``cfg.window`` time, each a whole number of steps
    (:func:`_whole_steps`); an unprojected (local) solve is one window over
    [0, cfg.T].  A window is probed (:func:`_probe`): its states are its
    march's, and its Picard iterates from the linear evolution of its start
    state give its ratios and its iteration count.  Once a window has been
    probed, the next is marched in one sweep; it is probed instead, from
    its start state, when one of its states has an H^1 proxy above the
    largest one the last probed window held, so growing data are measured
    where they are largest.  ``iterations`` has one entry per window, 0
    for a marched one.  One storage rule: t = 0 and every window end (T last) are stored, and
    a local solve, being one window, stores every step.  At the end a
    projected solve first pairs each stored state's forcing transform with
    psi_hat for rho (empty otherwise); then the flow and the work are
    released, and the stored states are made into :class:`DecomposedField`
    states (float64 phi) one at a time, each phi formed in its own half
    spectrum.  a = 0 is decided here once: the sweeps get no forcing and
    rho is 0.  ``cfg`` is only read.  The solve owns one :class:`_Work`,
    and a march's one array becomes its end state.  A global solve's probe
    keeps its end state alone.  An iterate that leaves the double range raises
    :class:`HorizonTooLargeError` naming its window.  The diagnostics hold
    the iterations, all windows' ratios and, for a projected solve, ``ortho_max``: the largest
    |<u, psi>| of a window's end state.  An unprojected solve is local, one
    window, so its iterations are that window's count.
    """
    model = grid_model(u0.params, u0.regular.grid)
    total_steps = steps_per_window = _whole_steps(cfg.T, cfg.dt, "T")
    if projected and cfg.window < cfg.T:
        steps_per_window = _whole_steps(cfg.window, cfg.dt, "window")
    flow = Flow(model, cfg.dt, full=not projected)
    work = _Work(model.grid)

    def force(uhat, q):
        return _forcing_hat(model, uhat, q, cfg, work, work.spec)

    if cfg.a == (0.0, 0.0):  # no forcing: every sweep is the linear evolution
        force = None

    times = [0.0]
    iterations = []
    ratios = []
    ortho_max = 0.0
    probe_top = None
    step = 0
    label = "window 0"
    # an iterate that leaves the double range raises where it first does,
    # instead of warning and ending as a non-finite state
    try:
        with np.errstate(over="raise", invalid="raise"):
            _, start, _ = _state(u0)
            if projected:
                start, _ = model.project_ac_hat(start)
            start = start, model.coupling_coefficient(start)
            stored = [start]
            while step < total_steps:
                steps = min(steps_per_window, total_steps - step)
                label = f"window {len(iterations)}"
                end = None
                if probe_top is not None:
                    for _, uhat, q in _sweep(flow, (start[0].copy(), start[1]), steps, force):
                        if not _proxy(model, uhat, q, work) <= probe_top:
                            break
                    else:
                        end = uhat, q
                        iterations.append(0)
                if end is None:
                    states, probe_top, iters, window_ratios = _probe(
                        model, flow, start, steps, cfg, force, label, work, keep=not projected
                    )
                    iterations.append(iters)
                    ratios.extend(window_ratios)
                    end = states.pop()
                    if not projected:  # a local solve is this one window: keep every step
                        times.extend(j * cfg.dt for j in range(1, steps))
                        stored.extend(states)
                ortho_max = max(ortho_max, abs(model._psi_coefficient(end[0])))
                step += steps
                times.append(step * cfg.dt)
                stored.append(end)
                start = end
    except FloatingPointError as exc:
        raise HorizonTooLargeError(
            f"{label}: the iterates left the double range ({exc}); "
            "shrink the horizon or the datum",
            math.inf,
        ) from exc

    # rho and phi come from the stored (u_hat, q), q as the sweep read it.
    # rho is paired first, so the flow and the work are gone before any
    # state is made; each half spectrum becomes its phi in place and is
    # dropped as its state is made, so the stored half spectra and the
    # states are never all alive at once
    rho = []
    if projected:
        rho = [0.0 if force is None else model._psi_coefficient(force(u, q)) for u, q in stored]
    del flow, work, force
    stored.reverse()
    states = []
    while stored:
        uhat, q = stored.pop()
        uhat -= q * model.green_omega_hat
        phi = Field(model.grid, _irfft2(uhat, work=uhat))
        states.append(DecomposedField(phi, float(q), model.params))
    diag = {"iterations": iterations if projected else iterations[0], "contraction_ratios": ratios}
    if projected:
        diag["ortho_max"] = ortho_max
    return Trajectory(np.array(times), states, np.array(rho), diag)


def solve_local(u0, cfg):
    """Picard solution on the finite horizon [0, T] with the full semigroup.

    Runs the window driver of :func:`solve_global_projected` without
    projection, with one window of length T and every step stored: the
    whole horizon is one probed window, whose states are the march from u0
    and whose Picard iterates start from the linear evolution of u0
    (``cfg.window`` is not read).  Raises :class:`HorizonTooLargeError`
    when the iterates fail to contract.
    """
    return _solve(u0, cfg, projected=False)


def solve_global_projected(u0, cfg):
    """Small-data solution of the projected system on [0, T].

    Calling this function is what selects projection (:func:`solve_local`
    is the unprojected solve).  The datum and the forcing are projected onto
    the absolutely continuous subspace, so the eigenmode carries no
    dynamics; the multiplier rho is recorded at every stored time.  Runs
    the window driver shared with :func:`solve_local` on windows of length
    ``cfg.window``, storing t = 0, every window end and T; a shorter
    window gives denser output.  Every window is marched with exponential
    Euler, u_{j+1} = S(dt)[u_j + dt F(u_j)], the fixed point of the
    window's Picard map.  Window 0 is probed: its Picard iterates from the
    linear evolution are measured against that march, and their ratios are
    ``diagnostics["contraction_ratios"]``.  A later window is probed too
    when its march leaves the largest H^1 proxy of the last probed window.
    A probe that fails to contract (a last ratio >= 1 above
    ``cfg.picard_tol``) or leaves the double range raises
    :class:`DataTooLargeError`.  ``diagnostics["iterations"]`` holds
    one entry per window: the probe's iterate count, or 0 for a marched
    window.
    """
    try:
        return _solve(u0, cfg, projected=True)
    except HorizonTooLargeError as exc:
        raise DataTooLargeError(
            f"initial datum too large for global solve: {exc}", exc.ratio
        ) from exc


def residual_check(traj, cfg, t_min=0.0):
    """A-posteriori PDE residual on a trajectory stored at uniformly spaced, increasing times.

    max over interior stored times t >= t_min of
    || (u(t+dt) - u(t-dt))/(2 dt) - A u(t) - a.grad(|u|^gamma)(t)
       + rho(t) psi ||_2 / ||u(t)||_2,
    with A u = omega u - (omega - Laplacian) phi.  The residual is formed
    on the half spectrum: the forcing is the solve's own transform and
    rho psi is rho psi_hat, and both norms are ``PointHeatModel.l2_hat``.
    Three states are held at a time.

    Generic initial data do not satisfy the kernel coupling of the operator
    domain, so the flow develops its singular component in an O(dt) initial
    layer where the difference quotient cannot be consistent; ``t_min``
    excludes that layer when measuring bulk convergence orders.  It must be
    a finite real number at or below the last interior stored time;
    otherwise raises ValueError, as nothing would be measured.
    """
    if len(traj.states) < 3:
        raise ValueError("residual_check needs at least three stored samples")
    dts = np.diff(traj.times)
    dt = dts[0]
    if not (dt > 0 and np.allclose(dts, dt, rtol=1e-8)):
        raise ValueError("residual_check needs uniformly spaced, increasing sample times")
    if not (_real(t_min) and math.isfinite(t_min)):
        raise ValueError(f"residual_check t_min must be a finite real number; got {t_min!r}")
    measured = [k for k in range(1, len(traj.states) - 1) if traj.times[k] >= t_min]
    if not measured:
        raise ValueError(
            f"residual_check: no interior stored time is at or after t_min = {t_min!r}"
        )
    model = grid_model(traj.states[0].params, traj.states[0].regular.grid)
    work = _Work(model.grid)

    worst = 0.0
    hats = {}
    for k in measured:
        # the three states the quotient at k reads, each entering the half spectrum once
        hats = {j: hats.get(j) or _state(traj.states[j])[1:] for j in (k - 1, k, k + 1)}
        (uprev, _), (uc, qc), (unext, _) = hats.values()
        # A u = omega u - (omega - Laplacian) phi, with phi_hat = u_hat - q G_omega_hat
        resid = (unext - uprev) / (2.0 * dt)
        resid -= model.omega * uc - (model.omega + model.xi2) * (uc - qc * model.green_omega_hat)
        resid -= _forcing_hat(model, uc, qc, cfg, work, work.spec)
        if traj.rho.size:
            resid += traj.rho[k] * model.psi_hat
        unorm = model.l2_hat(uc)
        if unorm > 0:
            worst = max(worst, model.l2_hat(resid) / unorm)
    return worst
