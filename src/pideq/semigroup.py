"""Krein resolvent and heat semigroup of the point-perturbed Laplacian.

Discrete model
--------------
On a fixed grid the operator is realized as an exact rank-one perturbation
of the spectral free Laplacian.  Writing d for the lattice transform of
(E - Laplacian) applied to the pointwise-sampled kernel G_E, the family

    R(lambda) g = (lambda + |xi|^2)^{-1} g_hat
                  + <g, G_{conj lambda}> / D(lambda) * G_lambda,
    G_lambda = d_hat / (lambda + |xi|^2),
    D(lambda) = S(E) - S(lambda),   S(nu) = w sum |d_hat|^2 / (nu + |xi|^2),

is the resolvent of a genuine self-adjoint matrix (Sherman-Morrison), so
the first resolvent identity holds to rounding, the point eigenvalue sits
exactly at E with eigenvector exactly the sampled kernel, and projected
flows are invariant subspaces to machine precision.  D(lambda) is the
lattice-consistent version of alpha + c(lambda); the two agree up to the
grid's aliasing error and coincide in the refinement limit.

Each model caches one resolvent row per lambda (the most recent one):
1/(lambda + |xi|^2), G_lambda and D(lambda).  A resolvent application is
then one multiply, one pairing and one axpy, and ``pair_green`` reads the
same row.  The backward-Euler oracle holds one lambda for all its steps.

The semigroup on the absolutely continuous subspace is evaluated from the
contour representation

    exp(tA) P_ac g = exp(t Laplacian) P_ac g
        + (1/2 pi i) oint e^{t lambda} <P_ac g, G_{conj lambda}> / D(lambda)
          G_lambda  d lambda

over a contour hugging the cut (-inf, 0]: two rays Im lambda = +/- eps and
a half-circle of radius eps < E through the right half-plane.  Ray
quadrature is Gauss-Legendre on sinh-stretched panels (clustered towards
the arc); the arc uses Gauss-Legendre in the angle.  e^{t lambda} grows
like e^{t eps} on the arc, so the default radius shrinks like 1/t.

All inner node sums are accelerated by binning the wavenumber lattice by
the integer |k|^2, which is exact.  Both contours feed one rank-one kernel
(``PointHeatModel._rank_one``): per chunk of nodes it builds the resolvent
rows 1/(lambda_k + |xi|^2) over the bins, reads the denominators D(lambda_k)
off the same rows, pairs the datum once and accumulates the bin profile, so
no nodes x bins matrix larger than one chunk is held.  The solver's Talbot
micro-step contour has fixed nodes sigma_k / dt; its rows, denominators and
base weights are kept per (dt, node count) in a per-model LRU cache of four
entries, so a step costs one pairing, two small matrix-vector products and
one gather.  Two-dimensional transforms use ``scipy.fft``.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft

from .errors import BranchCutError, ContourError, PoleError
from .fields import Field, lp_norm
from .spectral import green_field, psi_alpha_field, reference_lambda

__all__ = [
    "ContourSpec",
    "SemigroupResult",
    "krein_resolvent",
    "semigroup_pac",
    "semigroup_full",
    "semigroup_gradient_pac",
    "backward_euler_oracle",
    "grid_model",
]

MIN_TIME = 0.01
"""Shortest supported semigroup time; compose steps for shorter horizons."""


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature description of the cut-hugging contour.

    epsilon: arc radius (0 < epsilon < E); truncation: ray cutoff S so that
    exp(-t S) is negligible at the smallest time used; nodes_ray per ray,
    nodes_arc on the half circle (both >= 32).
    """

    epsilon: float
    truncation: float
    nodes_ray: int = 256
    nodes_arc: int = 65

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ContourError("contour radius must be positive")
        if self.truncation <= self.epsilon:
            raise ContourError("ray truncation must exceed the arc radius")
        if self.nodes_ray < 32 or self.nodes_arc < 32:
            raise ContourError("node counts must be at least 32")

    @classmethod
    def for_time(cls, params, t, nodes_ray=None, nodes_arc=65):
        """Default contour for time t: radius min(E/2, 1/t), cutoff ~50/t.

        The cutoff is capped at 2.5e4; below t ~ 2e-3 the neglected ray tail
        is still under exp(-50) relative to the (O(t)-small) correction.
        The default ray node count grows like 1/sqrt(radius): the integrand
        varies on the radius scale along the rays, so small eigenvalues
        (which force a small radius) need proportionally more nodes.
        """
        ev = params.eigenvalue
        if ev is None or ev <= 0:
            raise ContourError("contour requires a positive point eigenvalue")
        eps = min(ev / 2.0, 1.0 / max(t, 1.0))
        if nodes_ray is None:
            nodes_ray = int(256 * min(4.0, max(1.0, math.sqrt(0.63 / eps))))
        trunc = max(min(50.0 / t, 2.5e4), 2.0 * ev)
        return cls(eps, trunc, nodes_ray, nodes_arc)

    def validate(self, params):
        ev = params.eigenvalue
        if ev is not None and self.epsilon >= ev:
            raise ContourError(
                f"arc radius {self.epsilon} must stay below the eigenvalue {ev}"
            )

    def nodes(self):
        """Contour nodes and complex quadrature weights (d lambda included)."""
        return _contour_nodes(self)


@lru_cache(maxsize=32)
def _contour_nodes(spec, panels=4):
    eps, S = spec.epsilon, spec.truncation
    wmax = math.asinh(S / eps)
    edges = wmax * np.linspace(0.0, 1.0, panels + 1) ** 1.5
    per_panel = max(8, spec.nodes_ray // panels)
    xg, wg = np.polynomial.legendre.leggauss(per_panel)
    ws, tws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        ws.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        tws.append(0.5 * (b - a) * wg)
    w = np.concatenate(ws)
    tw = np.concatenate(tws)
    s = eps * np.sinh(w)
    ds = eps * np.cosh(w) * tw
    thg, thw = np.polynomial.legendre.leggauss(spec.nodes_arc)
    th = thg * (np.pi / 2.0)
    arc = eps * np.exp(1j * th)
    nodes = np.concatenate([-s - 1j * eps, -s + 1j * eps, arc])
    wts = np.concatenate([ds, -ds, 1j * arc * thw * (np.pi / 2.0)])
    return nodes, wts


@lru_cache(maxsize=32)
def _talbot_nodes(num):
    """Midpoint nodes/weights of the scaled Talbot contour (cot variant).

    Returns (sigma, dsigma) with lambda_k = sigma_k / t and quadrature
    weights dsigma_k / t; the contour winds around (-inf, 0] at a distance
    growing with |lambda|, so a fixed node count integrates e^{t lambda}
    against resolvent-type transforms uniformly accurately for every t > 0.
    """
    theta = (np.arange(num) + 0.5) * (2.0 * np.pi / num) - np.pi
    n = float(num)
    with np.errstate(invalid="ignore"):
        cot = np.cos(0.6407 * theta) / np.sin(0.6407 * theta)
        dcot = -0.6407 / np.sin(0.6407 * theta) ** 2
    sigma = n * (-0.6122 + 0.2645j * theta + 0.5017 * theta * cot)
    dsigma = n * (0.2645j + 0.5017 * (cot + theta * dcot))
    return sigma, dsigma * (2.0 * np.pi / num) / (2j * np.pi)


@dataclass(frozen=True)
class SemigroupResult:
    """Semigroup output with diagnostics.

    field: the evolved state; free_part_norm / correction_norm: L^2 sizes of
    the heat part and the contour correction; singular_coeff: the kernel
    coefficient of the output in the reference decomposition (the coupling
    functional, tracked constructively by the nonlinear solver);
    imag_residue: L^2 size of the imaginary part relative to the input norm.
    """

    field: Field
    free_part_norm: float
    correction_norm: float
    singular_coeff: complex = 0.0 + 0.0j
    imag_residue: float = 0.0


class PointHeatModel:
    """Cached grid realization of the perturbed operator for one (params, grid)."""

    def __init__(self, params, grid):
        if params.dimension != 2:
            raise ValueError("grid operators are implemented for dimension 2")
        if params.eigenvalue is None or params.eigenvalue <= 0.0:
            raise ValueError("grid operator requires a positive eigenvalue")
        self.params = params
        self.grid = grid
        self.E = params.eigenvalue
        n = grid.n
        self.xi2 = grid.wavenumber_sq()
        # lattice Parseval weight: <f,g> h^2 = wlat * sum fhat conj(ghat)
        self.wlat = grid.cell_area / n ** 2

        sq_ev = math.sqrt(self.E)
        if sq_ev * grid.spacing > 1.5:
            warnings.warn(
                "eigenfunction scale 1/sqrt(E) is below the mesh size; "
                "grid operator will be poorly resolved",
                stacklevel=3,
            )
        if sq_ev * grid.half_width < 3.0:
            warnings.warn(
                "eigenfunction scale 1/sqrt(E) exceeds the box; the kernel "
                "tail is truncated and the grid operator degrades",
                stacklevel=3,
            )

        # integer |k|^2 binning of the wavenumber lattice (exact)
        k = fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        ksq = (K1 * K1 + K2 * K2).ravel()
        self.bin_values, bin_index = np.unique(ksq, return_inverse=True)
        self.bin_index = bin_index.reshape(n, n)
        dxi = 2.0 * np.pi / (2.0 * grid.half_width)
        self.rho = self.bin_values * dxi ** 2  # |xi|^2 per bin

        gE = green_field(self.E, grid, method="direct")
        self.green_ref_norm = lp_norm(gE, 2)
        self.psi_hat = fft.fft2(gE.values) / self.green_ref_norm
        self.delta_hat = (self.E + self.xi2) * self.psi_hat * self.green_ref_norm
        self.delta_sq_bins = np.bincount(
            self.bin_index.ravel(), weights=np.abs(self.delta_hat.ravel()) ** 2
        )
        self.S_at_E = self._lattice_sum(self.E)
        # q-coefficient of the normalized eigenfunction itself
        self.psi_q = 1.0 / self.green_ref_norm

        self.omega = reference_lambda(params)
        self.green_omega_hat = self.delta_hat / (self.omega + self.xi2)
        # Talbot rows, denominators and base weights per (dt, num): the solver
        # alternates at most two step sizes (duhamel_integral's dt and dt/2)
        self._talbot_kernel = lru_cache(maxsize=4)(self._talbot_rows)
        # one resolvent row: the oracle holds one lambda for all of its steps
        self._resolvent_row = lru_cache(maxsize=1)(self._lambda_row)

    # -- scalar lattice functions --------------------------------------------

    def _lattice_sum(self, lam):
        return self.wlat * np.sum(self.delta_sq_bins / (lam + self.rho))

    def denominator(self, lam):
        """Lattice-consistent alpha + c(lambda); vanishes exactly at E."""
        return self.S_at_E - self._lattice_sum(lam)

    # -- pairings --------------------------------------------------------------

    def _bin_pair(self, ghat):
        prod = (ghat * np.conj(self.delta_hat)).ravel()
        idx = self.bin_index.ravel()
        return np.bincount(idx, weights=prod.real) + 1j * np.bincount(idx, weights=prod.imag)

    def pair_green(self, ghat, lam):
        """<g, G_{conj(lam)}> for the model kernel, via Parseval."""
        r, _, _ = self._resolvent_row(lam)
        return self.wlat * np.vdot(self.delta_hat, ghat * r)

    def coupling_coefficient(self, ghat):
        """Kernel coefficient <g, delta>/S(E) of the domain decomposition.

        For u in the model's domain, u - coupling_coefficient(u) G_ref has
        (omega - Laplacian)-image equal to (omega - A) u; this is the exact
        grid analogue of reading the singular coefficient off the boundary
        condition at the interaction point.
        """
        return complex(self.wlat * np.vdot(self.delta_hat, ghat) / self.S_at_E)

    def project_ac_hat(self, ghat):
        coef = self.wlat * np.vdot(self.psi_hat, ghat)
        return ghat - coef * self.psi_hat, coef

    # -- resolvent and semigroup ----------------------------------------------

    def _lambda_row(self, lam):
        """(1/(lambda + |xi|^2), G_lambda transform, D(lambda)) over the grid."""
        r = np.reciprocal(lam + self.xi2)
        green = self.delta_hat * r
        # shared by every caller of the cache: read-only
        r.setflags(write=False)
        green.setflags(write=False)
        return r, green, self.denominator(lam)

    def resolvent_hat(self, lam, ghat, correction=True):
        """R(lambda) in transform space from the cached row of ``lam``.

        The free part is one multiply; the rank-one term pairs that product
        with delta_hat (it equals ``pair_green``) and adds G_lambda once.
        """
        r, green, denom = self._resolvent_row(lam)
        out = ghat * r
        if correction:
            out += (self.wlat * np.vdot(self.delta_hat, out) / denom) * green
        return out

    def _node_chunks(self, nodes, weights, chunk):
        """Resolvent rows over the bins, ``chunk`` nodes at a time.

        Yields (lo, rows, base): rows[k, b] = 1/(lambda_{lo+k} + rho_b) and
        base = weights / D(lambda), with the denominators read off the same
        rows, so memory stays at one chunk x bins.
        """
        for lo in range(0, nodes.size, chunk):
            rows = np.reciprocal(nodes[lo:lo + chunk, None] + self.rho)
            denom = self.S_at_E - self.wlat * (rows @ self.delta_sq_bins)
            yield lo, rows, weights[lo:lo + chunk] / denom

    def _talbot_rows(self, t, num):
        sigma, swts = _talbot_nodes(num)
        return next(self._node_chunks(sigma / t, (swts / t) * np.exp(sigma), num))

    def _rank_one(self, ghat, chunks, edges):
        """The rank-one contour sum in bin space.

        With c_k = base_k <g, G_{conj lambda_k}>, accumulates the kernel
        profile sum_k c_k / (lambda_k + rho_b) separately over each node
        segment [edges[s], edges[s + 1]).  Returns (profiles, sum_k c_k); the
        profiles have one row per segment.
        """
        bpair = self.wlat * self._bin_pair(ghat)
        vbins = np.zeros((len(edges) - 1, self.rho.size), dtype=np.complex128)
        qtot = 0.0 + 0.0j
        for lo, rows, base in chunks:
            c = base * (rows @ bpair)
            qtot += c.sum()
            for s in range(len(edges) - 1):
                a, b = max(edges[s] - lo, 0), min(edges[s + 1] - lo, c.size)
                if a < b:
                    vbins[s] += c[a:b] @ rows[a:b]
        return vbins, complex(qtot)

    def _spread(self, vbins):
        """Transform of the kernel profile: delta_hat times the binned values."""
        return self.delta_hat * np.take(vbins, self.bin_index)

    def correction_hat(self, t, ghat, contour, chunk=64, legs=False):
        """Contour correction transform and its total singular coefficient.

        Returns (corr_hat, q_total, leg_sizes); leg_sizes are the L^2
        magnitudes of the (lower ray, upper ray, arc) contributions when
        ``legs`` is set, else None.

        When the contour covers the whole lattice spectrum, the exact
        vanishing of the t = 0 moment of the rank-one integrand is used to
        cancel the quadrature error of the spectrally flat part (the weight
        becomes e^{t lambda} - 1).  This keeps micro-steps accurate, where
        the true correction is O(t) but the raw integrand is O(1).
        """
        nodes, wts = contour.nodes()
        weight = np.exp(t * nodes)
        if contour.truncation >= 3.0 * float(self.rho[-1]):
            weight = weight - 1.0
        edges = (0, nodes.size)
        if legs:
            n_ray = (nodes.size - contour.nodes_arc) // 2
            edges = (0, n_ray, 2 * n_ray, nodes.size)
        chunks = self._node_chunks(nodes, wts * weight / (2j * np.pi), chunk)
        vbins, q_tot = self._rank_one(ghat, chunks, edges)
        corr_hat = self._spread(vbins.sum(axis=0))
        sizes = tuple(self.l2_hat(self._spread(v)) for v in vbins) if legs else None
        return corr_hat, q_tot, sizes

    def correction_talbot(self, t, ghat, num=32):
        """Rank-one semigroup correction through a Talbot-type contour.

        The winding contour keeps a distance from the cut that grows with
        |lambda|, so a fixed node count resolves the correction uniformly in
        t; used for the solver's micro-steps, where the cut-hugging contour
        would need O(spectral radius / epsilon) nodes.  The input must be
        projected (the eigenvalue pole is enclosed for small t and only
        cancels against a projected numerator).  The node rows are cached
        per (t, num).
        """
        vbins, q_tot = self._rank_one(ghat, [self._talbot_kernel(t, num)], (0, num))
        return self._spread(vbins[0]), q_tot

    def heat_hat(self, t, ghat):
        return np.exp(-t * self.xi2) * ghat

    def semigroup_pac_hat(self, t, ghat, contour, legs=False):
        """exp(tA) P_ac in transform space; returns (out_hat, diagnostics)."""
        gac, _ = self.project_ac_hat(ghat)
        free = self.heat_hat(t, gac)
        corr, q_tot, leg_sizes = self.correction_hat(t, gac, contour, legs=legs)
        out = free + corr
        diag = {
            "free_norm": self.l2_hat(free),
            "corr_norm": self.l2_hat(corr),
            "q": q_tot,
            "legs": leg_sizes,
        }
        return out, diag

    def hat(self, f):
        return fft.fft2(f.values)

    def unhat(self, hat_values):
        return Field(self.grid, fft.ifft2(hat_values))

    def l2_hat(self, hat_values):
        return math.sqrt(self.wlat * float(np.sum(np.abs(hat_values) ** 2)))


@lru_cache(maxsize=4)
def grid_model(params, grid):
    """Cached PointHeatModel for a (params, grid) pair."""
    return PointHeatModel(params, grid)


def _check_lambda(lam, params):
    z = complex(lam)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError("resolvent argument lies on the branch cut (-inf, 0]")
    ev = params.eigenvalue
    if ev is not None and z.imag == 0.0 and abs(z.real - ev) <= 1e-12 * max(1.0, ev):
        raise PoleError(f"lambda = {z.real} hits the point eigenvalue {ev}")


def krein_resolvent(lam, g, params):
    """(lambda - A)^{-1} g: free resolvent plus the rank-one kernel correction."""
    _check_lambda(lam, params)
    model = grid_model(params, g.grid)
    out = model.resolvent_hat(complex(lam), model.hat(g))
    return model.unhat(out)


def _default_contour(params, t, contour):
    if contour is None:
        contour = ContourSpec.for_time(params, t)
    contour.validate(params)
    return contour


def semigroup_pac(t, g, params, contour=None):
    """Projected heat flow exp(tA) P_ac g with diagnostics.

    The input is projected internally, so the eigenmode is annihilated
    before the contour correction is accumulated.  Times below
    ``MIN_TIME`` are rejected; compose shorter steps through the free
    flow if needed.
    """
    if t <= 0:
        raise ValueError("semigroup_pac requires t > 0")
    if t < MIN_TIME:
        raise ValueError(
            f"t = {t} below the supported minimum {MIN_TIME}; compose shorter steps"
        )
    contour = _default_contour(params, t, contour)
    model = grid_model(params, g.grid)
    out, diag = model.semigroup_pac_hat(t, model.hat(g), contour)
    field = model.unhat(out)
    gnorm = lp_norm(g, 2)
    imag = math.sqrt(float(np.sum(field.values.imag ** 2)) * g.grid.cell_area)
    return SemigroupResult(
        field=field,
        free_part_norm=diag["free_norm"],
        correction_norm=diag["corr_norm"],
        singular_coeff=model.coupling_coefficient(out),
        imag_residue=imag / gnorm if gnorm > 0 else 0.0,
    )


def semigroup_full(t, g, params, contour=None):
    """Full flow: projected semigroup plus the explicit eigenmode e^{tE}."""
    res = semigroup_pac(t, g, params, contour)
    psi = psi_alpha_field(params, g.grid)
    coef = complex(np.sum(g.values * np.conj(psi.values)) * g.grid.cell_area)
    growth = math.exp(params.eigenvalue * t)
    return Field(g.grid, res.field.values + growth * coef * psi.values)


def semigroup_gradient_pac(t, g, params, contour=None):
    """Gradient of the projected flow, evaluated spectrally.

    Commutes exactly with :func:`semigroup_pac` on the grid (both act by
    multipliers on the same transform).  Not available in 3D, where the
    kernel gradient fails to be q-integrable against any admissible pair.
    """
    if params.dimension == 3:
        raise ValueError("semigroup gradient is not available in dimension 3")
    if t <= 0:
        raise ValueError("semigroup_gradient_pac requires t > 0")
    if t < MIN_TIME:
        raise ValueError(f"t = {t} below the supported minimum {MIN_TIME}")
    contour = _default_contour(params, t, contour)
    model = grid_model(params, g.grid)
    out, _ = model.semigroup_pac_hat(t, model.hat(g), contour)
    XI1, XI2 = g.grid.wavenumbers()
    dx = model.unhat(1j * XI1 * out)
    dy = model.unhat(1j * XI2 * out)
    return dx, dy


def backward_euler_oracle(t, g, params, steps, correction=True):
    """Independent oracle: ((I - (t/steps) A)^{-1})^steps applied to P_ac g.

    Uses only resolvent applications at the real point lambda = steps/t and
    no contour code; every step reuses the model's cached row of that
    lambda.  First-order accurate in t/steps.  ``correction=False`` drops
    the rank-one term and reduces to backward Euler for the free heat
    equation.
    """
    if steps < 10:
        raise ValueError("backward_euler_oracle requires steps >= 10")
    if t <= 0:
        raise ValueError("backward_euler_oracle requires t > 0")
    lam = steps / t
    ev = params.eigenvalue or 0.0
    if abs(lam - ev) <= 1e-9 * max(1.0, ev):
        steps += 1
        lam = steps / t
        warnings.warn("resolvent shift hit the eigenvalue; stepping count bumped by one")
    model = grid_model(params, g.grid)
    uhat, _ = model.project_ac_hat(model.hat(g))
    for _ in range(steps):
        uhat = model.resolvent_hat(lam, uhat, correction=correction)
        uhat *= lam
    return model.unhat(uhat)
