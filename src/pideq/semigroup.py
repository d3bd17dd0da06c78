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

alpha = +inf, the free Laplacian, is the same model with zero coupling.
There E = 0 and d_hat = 0, so psi_hat and psi's bin profile are 0 too.
S(E) is set to 1; any nonzero value would do, since every <g, G_lambda>
is 0.  The reference omega = 1 + E is 1.  Every rank-one term and the
projection then vanish: each flow is the heat multiplier exp(-t |xi|^2),
R(lambda) is the free resolvent and q is 0, through the same code as at
finite alpha.

The semigroup on the absolutely continuous subspace is evaluated from the
contour representation

    exp(tA) P_ac g = exp(t Laplacian) P_ac g
        + (1/2 pi i) oint e^{t lambda} <P_ac g, G_{conj lambda}> / D(lambda)
          G_lambda  d lambda.

Every exp(tA) runs through one :class:`Flow` per time t, which holds t's
heat multiplier and the nodes and weights of one quadrature rule at t.  By
default that is the ``TALBOT_NODES``-node Talbot contour
lambda_k = sigma_k / t (Weideman & Trefethen, "Parabolic and hyperbolic
contours for computing the Bromwich integral", Math. Comp. 76 (2007)).  It
winds around the cut (-inf, 0] at a distance growing with |lambda|, so a
fixed node count is uniformly accurate in t.  The flow projects its input,
adds the rank-one correction and, for the full flow, e^{tE} <g, psi> psi,
all in transform space and, but for the heat multiplier, on the bins (see
below).

Passing a :class:`ContourSpec` selects the cut-hugging contour instead, an
independent cross-check: two rays Im lambda = +/- eps (Gauss-Legendre on
sinh-stretched panels) and a half-circle of radius eps < E through the
right half-plane (Gauss-Legendre in the angle); ``ContourSpec.for_time``
shrinks eps like 1/t.  It is the less accurate rule at short times: against
the Richardson-extrapolated backward-Euler oracle at alpha = 0.2, n = 128 it
is off by 1.0e-2 and 3.1e-2 in relative L^2 at t = 0.02 and 0.3, where the
Talbot rule agrees to 2e-11 and 1.4e-9.  Its weights are plain
e^{t lambda} w / (2 pi i); the rule is not corrected by the vanishing t = 0
moment of the rank-one integrand (see :class:`ContourSpec`).

All inner node sums are accelerated by binning the wavenumber lattice by
the integer |k|^2, which is exact.  Every rule feeds one rank-one kernel,
``PointHeatModel.correction``: from the datum's bin pairing it accumulates,
per block of at most ``CHUNK`` = 16 nodes, the bin profile from the resolvent
rows 1/(lambda_k + |xi|^2) over the bins, with the denominators D(lambda_k)
read off the same rows.  The folded Talbot rule is one block, which its flow
keeps for its lifetime.  A longer rule refills one reused block buffer on
every application, so its working memory is one 16 x bins complex block
(1.5 MB at n = 256, 5.6 MB at n = 512) however many nodes it has.  The
resolvent is the one-node rule of the same kernel (node lambda, weight 1),
so every rank-one quantity is delta_hat times a bin profile, and the
backward-Euler oracle steps on the bins alone.

The projection is bin-space bookkeeping too: psi_hat = delta_hat r_E[bin]
with r_E = 1/((E + |xi|^2) ||G_E||), so <g, psi> = wlat r_E . bp is read off
g's bin pairing bp, P_ac g pairs as bp - <g, psi> r_E |delta|^2_bins, and the
projection's -<g, psi> e^{-t|xi|^2} psi and the full flow's
e^{tE} <g, psi> psi join the correction's bin profile V.  A flow step is
then heat g_hat + delta_hat V[bin]: one pairing, two small matrix-vector
products, one gather and one heat multiply, with no projected copy of g.
Two-dimensional transforms use ``numpy.fft``.

One transform layout
--------------------
Every object here maps real fields to real fields: e^{tA} P_ac, the
projection, the rank-one correction, and R(lambda) at real lambda.  So the
model works on the rfft2 half spectrum only: the first n/2 + 1 columns of
the full n x n lattice, whose mirror columns are the complex conjugates of
those kept.  The half lattice holds every |k|^2 of the full one, so the
bins are the same.  A pairing sum f_hat conj(g_hat) takes the Hermitian
column weights 1 for column 0 and the Nyquist column and 2 for the
columns between, which stand for their mirrors too; the result is the
full-lattice pairing of the two real fields.  The same holds bin by bin:
the bin pairing is one ``np.bincount`` over the bin index of
Re g_hat Re(w delta_hat) + Im g_hat Im(w delta_hat), w the column weights.
The Talbot and cut-hugging rules are closed under conjugation (the Talbot
nodes come in 16 + 16 pairs, the cut-hugging ones in pairs plus one real
arc node), and a real datum's rank-one sum over a conjugate pair is
conjugate-symmetric, so a flow folds its rule: it keeps the nodes with
Im lambda > 0 at doubled weight and the real ones at their own, and takes
the real part of the folded sum.  That halves the rows a flow holds (the
Talbot rows at n = 256 are 1.5 MB, inside a 2 MiB L2 cache).

The public functions take real or complex fields.  Each applies its real
operator to a real (float64) field's half spectrum, whose output is real
again, or to a complex field's real and imaginary parts, each through its
half spectrum (``fields._real_parts``), and joins the two outputs as real
and imaginary parts.  R(lambda) at complex lambda is not
real: its half-spectrum form returns the real and imaginary parts of
R(lambda) g for a real g, and the resolvent of a complex g combines them.
"""

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy import fft

from .errors import BranchCutError, ContourError, NoEigenfunctionError, PoleError, _warn
from .fields import (
    Field,
    _from_parts,
    _front,
    _irfft2,
    _real,
    _real_derivative,
    _real_parts,
    _rfft2,
    _sum_scale,
    inner_product,
    lp_norm,
)
from .spectral import (
    _green_gradient,
    _h1_weights,
    _hermitian_weights,
    green_field,
    reference_lambda,
)

__all__ = [
    "ContourSpec",
    "SemigroupResult",
    "krein_resolvent",
    "semigroup_pac",
    "semigroup_full",
    "semigroup_gradient_pac",
    "backward_euler_oracle",
    "grid_model",
    "psi_alpha_field",
    "project_d",
]

MIN_TIME = 0.01
"""Shortest supported semigroup time; compose steps for shorter horizons."""

TALBOT_NODES = 32
"""Node count of the Talbot rule of every flow without an explicit contour."""

CHUNK = TALBOT_NODES // 2
"""Nodes per block of resolvent rows: the folded Talbot rule, which a flow keeps whole."""

MAX_EXP = math.log(sys.float_info.max)
"""Largest E t whose full-flow growth exp(E t) is a finite double (about 709.78)."""

ARC_NODES = 65
"""Gauss-Legendre nodes on the cut-hugging contour's half circle."""

MAX_KERNEL_DECAY = 400.0
"""Largest sqrt(E) h a grid model accepts.

The largest sample of G_E is about exp(-sqrt(E) h / sqrt(2)), at the nodes
nearest the origin, and the lattice sums S ~ |delta_hat|^2 hold its square:
past sqrt(E) h = 400 that is below 1e-245, and the rank-one denominators
D(lambda) leave the double range (at n = 64 and 256 they did from about 500).
"""


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature description of the cut-hugging contour.

    epsilon: arc radius (0 < epsilon < E); truncation: ray cutoff S so that
    exp(-t S) is negligible at the smallest time used; nodes_ray per ray
    (>= 32).  The half circle takes ``ARC_NODES`` nodes.

    The flow's weights are e^{t lambda} w / (2 pi i) at every truncation.
    When S >= 3 rho_max (the contour covers the whole lattice spectrum) the
    t = 0 moment of the rank-one integrand vanishes, and subtracting it
    (weights (e^{t lambda} - 1) w / (2 pi i)) was once applied there.  It
    helps only at short times.  Relative L^2 gap of the flow of a
    Gaussian datum (sigma 2, L = 40) to the Talbot flow, with and without
    the subtraction, over the 30 cases with S >= 3 rho_max of
    ``for_time`` (alpha in {0, 0.2}, n in {64, 128, 256}, t in [0.01, 0.5]):

        case                              with     without
        alpha 0.2, n 64, t 0.01 (best)    1.6e-4   2.9e-3
        alpha 0, n 64, t 0.5 (worst)      2.7e-5   1.2e-9
        alpha 0, n 64, t 1                1.4e-4   2.9e-13

    It helped in 15 cases, all at t <= 0.08, by up to 18x, and hurt in the
    other 15, by up to 2.4e4x; at n = 32 and 64 it made the ``pideq
    verify`` contour-independence check fail.  So it is not applied.
    """

    epsilon: float
    truncation: float
    nodes_ray: int = 256

    def __post_init__(self):
        if not (_real(self.epsilon) and self.epsilon > 0):
            raise ContourError(f"contour radius must be a positive number; got {self.epsilon!r}")
        if not (_real(self.truncation) and math.isfinite(self.truncation)):
            raise ContourError(f"ray truncation must be finite; got {self.truncation!r}")
        if not _real(self.nodes_ray, numbers.Integral):
            raise ContourError(f"nodes_ray must be an integer; got {self.nodes_ray!r}")
        if self.truncation <= self.epsilon:
            raise ContourError("ray truncation must exceed the arc radius")
        if self.nodes_ray < 32:
            raise ContourError(f"nodes_ray must be at least 32; got {self.nodes_ray}")

    @classmethod
    def for_time(cls, params, t):
        """Base cut-hugging contour for time t: radius min(E/2, 1/t), cutoff ~50/t.

        It sizes the explicit contours of the cross-checks against the
        Talbot rule, which every flow without a ``contour`` uses.

        The cutoff is capped at 2.5e4; below t ~ 2e-3 the neglected ray tail
        is still under exp(-50) relative to the (O(t)-small) correction.
        The ray node count grows like 1/sqrt(radius): the integrand
        varies on the radius scale along the rays, so small eigenvalues
        (which force a small radius) need proportionally more nodes.
        """
        ev = params.eigenvalue
        if ev is None:
            raise ContourError("contour requires a positive point eigenvalue")
        eps = min(ev / 2.0, 1.0 / max(t, 1.0))
        nodes_ray = int(256 * min(4.0, max(1.0, math.sqrt(0.63 / eps))))
        trunc = max(min(50.0 / t, 2.5e4), 2.0 * ev)
        return cls(eps, trunc, nodes_ray)

    def validate(self, params):
        ev = params.eigenvalue
        if ev is not None and self.epsilon >= ev:
            raise ContourError(
                f"arc radius {self.epsilon} must stay below the eigenvalue {ev}"
            )

    def nodes(self):
        """Contour nodes and complex quadrature weights (d lambda included)."""
        eps, S = self.epsilon, self.truncation
        panels = 4
        wmax = math.asinh(S / eps)
        edges = wmax * np.linspace(0.0, 1.0, panels + 1) ** 1.5
        per_panel = max(8, self.nodes_ray // panels)
        xg, wg = np.polynomial.legendre.leggauss(per_panel)
        ws, tws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            ws.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            tws.append(0.5 * (b - a) * wg)
        w = np.concatenate(ws)
        tw = np.concatenate(tws)
        s = eps * np.sinh(w)
        ds = eps * np.cosh(w) * tw
        thg, thw = np.polynomial.legendre.leggauss(ARC_NODES)
        th = thg * (np.pi / 2.0)
        arc = eps * np.exp(1j * th)
        nodes = np.concatenate([-s - 1j * eps, -s + 1j * eps, arc])
        wts = np.concatenate([ds, -ds, 1j * arc * thw * (np.pi / 2.0)])
        return nodes, wts


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


TALBOT_RULE = _talbot_nodes(TALBOT_NODES)
"""(sigma, dsigma) of the ``TALBOT_NODES``-node Talbot rule, the only one any flow uses."""


@dataclass(frozen=True)
class SemigroupResult:
    """Semigroup output with diagnostics.

    field: the evolved state; free_part_norm / correction_norm: L^2 sizes of
    the heat part and the contour correction; imag_residue: L^2 size of the
    imaginary part relative to the input norm, exactly 0 for real input
    (the flow is a real operator, applied to each real part).
    """

    field: Field
    free_part_norm: float
    correction_norm: float
    imag_residue: float = 0.0


def _dot(ahat, bhat):
    """Pairing sum of two real fields' half spectra: the full-lattice sum ahat conj(bhat).

    Twice the real sum over every column, less column 0 and the Nyquist
    column, which weigh 1.
    """
    edges = np.vdot(bhat[:, 0], ahat[:, 0]) + np.vdot(bhat[:, -1], ahat[:, -1])
    return 2.0 * np.vdot(bhat, ahat).real - edges.real


class PointHeatModel:
    """Cached grid realization of the perturbed operator for one (params, grid).

    Its lattice arrays live on the rfft2 half spectrum, n x (n/2 + 1):
    ``xi2`` (|xi|^2), ``bin_index`` (the |k|^2 bin of each point),
    ``psi_hat``, ``delta_hat``, ``green_omega_hat``, the Hermitian column
    ``weights``, and ``derivative``, the pair (i xi1, i xi2) as n x 1 and
    1 x (n/2 + 1) arrays, each zero on the Nyquist line of its own axis.
    ``pairing`` holds the real and the imaginary part of the weighted
    delta_hat w as two contiguous arrays, so that one ``np.bincount`` over
    ``bin_index`` gives the bin sums of Re(ghat conj(delta_hat)) w.

    The model is the one owner of every array derived from its pair, so
    they live and go with it (``grid_model`` keeps the last four models).
    Three are built on first use: ``psi_values``, the samples of psi, which
    serve :func:`psi_alpha_field` only (every pairing with psi, the
    solver's rho included, takes ``psi_hat``);
    ``drift_parts``, the solver's per-axis drift derivative and kernel
    correction; and ``h1_kernel``, the H^1 proxy's weights and form
    constants of G_omega.

    At alpha = +inf (``params.eigenvalue`` None) the model is the free
    Laplacian as zero-coupling data: ``E`` = 0, ``delta_hat``, ``psi_hat``
    and ``psi_bins`` all 0, ``S_at_E`` = 1 and ``omega`` = 1.  Only
    ``psi_values`` has no such form; :func:`psi_alpha_field` rejects
    alpha = +inf first.
    """

    def __init__(self, params, grid):
        self.params = params
        self.grid = grid
        self.E = params.eigenvalue or 0.0
        n = grid.n
        m = n // 2 + 1
        self.xi2 = np.ascontiguousarray(grid.wavenumber_sq()[:, :m])
        # lattice Parseval weight: <f,g> h^2 = wlat * sum fhat conj(ghat)
        self.wlat = grid.cell_area / n ** 2
        self.derivative = _real_derivative(grid)

        sq_ev = math.sqrt(self.E)
        if sq_ev * grid.spacing > MAX_KERNEL_DECAY:
            raise ValueError(
                f"alpha = {params.alpha}: its eigenvalue E = {self.E:.3e} is beyond this grid: "
                f"sqrt(E) h = {sq_ev * grid.spacing:.3g} exceeds {MAX_KERNEL_DECAY:g}, where the "
                "sampled kernel G_E underflows; raise alpha or refine the grid"
            )
        if sq_ev * grid.spacing > 1.5:
            _warn(
                "eigenfunction scale 1/sqrt(E) is below the mesh size; "
                "grid operator will be poorly resolved"
            )
        if self.E and sq_ev * grid.half_width < 3.0:
            _warn(
                "eigenfunction scale 1/sqrt(E) exceeds the box; the kernel "
                "tail is truncated and the grid operator degrades"
            )

        # integer |k|^2 binning of the half lattice (exact); it holds every
        # |k|^2 of the full lattice, so the bins are the full lattice's
        k = fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        ksq = (k[:, None] ** 2 + k[None, :m] ** 2).ravel()
        self.bin_values, bin_index = np.unique(ksq, return_inverse=True)
        self.bin_index = bin_index.reshape(n, m)
        dxi = 2.0 * np.pi / (2.0 * grid.half_width)
        self.rho = self.bin_values * dxi ** 2  # |xi|^2 per bin

        if self.E:
            gE = green_field(self.E, grid)
            self.green_ref_norm = lp_norm(gE, 2)
            self.psi_hat = _rfft2(gE.values) / self.green_ref_norm
            self.delta_hat = (self.E + self.xi2) * self.psi_hat * self.green_ref_norm
            # psi_hat = delta_hat * psi_bins[bin], so psi's bin pairing is psi_pair
            self.psi_bins = 1.0 / ((self.E + self.rho) * self.green_ref_norm)
        else:
            # alpha = +inf, the free Laplacian: zero coupling, so every
            # <g, delta> and <g, psi> is 0, P_ac = I and q = 0
            self.psi_hat, self.delta_hat = np.zeros((2, *self.xi2.shape), np.complex128)
            self.psi_bins = np.zeros_like(self.rho)
        self.weights = _hermitian_weights(n)
        self.delta_sq_bins = np.bincount(
            bin_index, weights=(np.abs(self.delta_hat) ** 2 * self.weights).ravel()
        )
        self.S_at_E = self._lattice_sum(self.E) if self.E else 1.0

        self.omega = reference_lambda(params)
        self.green_omega_hat = self.delta_hat / (self.omega + self.xi2)
        self.psi_pair = self.psi_bins * self.delta_sq_bins

        wdelta = self.delta_hat * self.weights
        self.pairing = (np.ascontiguousarray(wdelta.real), np.ascontiguousarray(wdelta.imag))

    # -- arrays built on first use -------------------------------------------

    @cached_property
    def psi_values(self):
        """Samples of psi = G_E / ||G_E||: G_E sampled anew, as the build keeps its transform."""
        return green_field(self.E, self.grid).values / self.green_ref_norm

    @cached_property
    def drift_parts(self):
        """((d1, c1), (d2, c2)): per axis, the real derivative i xi_k and its kernel correction.

        c_k is the closed Bessel form of d_k G_omega less the spectral
        derivative irfft2(i xi_k G_omega_hat), so irfft2(i xi_k u_hat) + q c_k
        is d_k phi plus q times the closed form for u = phi + q G_omega.
        The drift a . grad is linear in a: its pair is a1 (d1, c1) + a2 (d2, c2).
        """
        closed = _green_gradient(self.omega, self.grid)
        return tuple(
            (d, g - _irfft2(d * self.green_omega_hat)) for d, g in zip(self.derivative, closed)
        )

    @cached_property
    def h1_kernel(self):
        """(w, w G_omega_hat, C): the H^1 proxy's weights and form constants of G_omega.

        w is :func:`pideq.spectral._h1_weights` and C = wlat sum w |G_omega_hat|^2,
        G_omega's own squared proxy part; the ``kernel`` of
        :func:`pideq.spectral._h1_proxy_hat`.
        """
        w, khat = _h1_weights(self.grid), self.green_omega_hat
        return w, w * khat, self.wlat * float(np.vdot(w, khat.real ** 2 + khat.imag ** 2))

    # -- scalar lattice functions --------------------------------------------

    def _lattice_sum(self, lam):
        return self.wlat * np.sum(self.delta_sq_bins / (lam + self.rho))

    def denominator(self, lam):
        """Lattice-consistent alpha + c(lambda); vanishes exactly at E."""
        return self.S_at_E - self._lattice_sum(lam)

    # -- pairings --------------------------------------------------------------

    def _bin_pair(self, ghat, work=None):
        """Bin sums of Re(ghat conj(delta_hat)) w: one bincount of the weighted real products.

        ``work`` is a pair of real half-spectrum arrays that receive the two
        products; None allocates them.
        """
        w_re, w_im = self.pairing
        prod, other = (None, None) if work is None else work
        prod = np.multiply(ghat.real, w_re, out=prod)
        prod += np.multiply(ghat.imag, w_im, out=other)
        return np.bincount(self.bin_index.ravel(), weights=prod.ravel())

    def coupling_coefficient(self, ghat):
        """Kernel coefficient <g, delta>/S(E) of the domain decomposition.

        For u in the model's domain, u - coupling_coefficient(u) G_omega has
        (omega - Laplacian)-image equal to (omega - A) u; this is the exact
        grid analogue of reading the singular coefficient off the boundary
        condition at the interaction point.
        """
        return self.wlat * _dot(ghat, self.delta_hat) / self.S_at_E

    def _psi_coefficient(self, ghat):
        """<g, psi> of the real field with half spectrum ghat."""
        return self.wlat * _dot(ghat, self.psi_hat)

    def project_ac_hat(self, ghat):
        """(P_ac g half spectrum, <g, psi>)."""
        coef = self._psi_coefficient(ghat)
        return ghat - coef * self.psi_hat, coef

    # -- resolvent and semigroup ----------------------------------------------

    def resolvent_hat(self, lam, ghat):
        """Half spectra (Re R(lambda) g, Im R(lambda) g) of a real g; Im is None at real lambda.

        R(lambda) is the free multiplier m = 1/(lambda + |xi|^2) plus the
        one-node rule: with node lambda and weight 1, ``correction`` yields
        exactly the bin profile V of <g, G_{conj lambda}> / D(lambda) *
        G_lambda.  m and V are radial, so the parts are ghat Re m +
        delta_hat Re V[bin] and ghat Im m + delta_hat Im V[bin].
        """
        lam = complex(lam)
        chunks = self._node_chunks(np.array([lam]), np.ones(1), 1)
        prof = self.correction(self._bin_pair(ghat), chunks)
        mult = 1.0 / (lam + self.xi2)
        re = ghat * mult.real + self.delta_hat * np.take(prof.real, self.bin_index)
        if lam.imag == 0.0:
            return re, None
        return re, ghat * mult.imag + self.delta_hat * np.take(prof.imag, self.bin_index)

    def _node_chunks(self, nodes, weights, chunk):
        """Resolvent rows over the bins, ``chunk`` nodes at a time, in one reused buffer.

        Yields (rows, base): rows[k, b] = 1/(lambda_k + rho_b) and
        base = weights / D(lambda), with the denominators read off the same
        rows.  Each call fills every block into one new min(chunk, nodes) x
        bins buffer in place, so a yielded block is valid only until the next
        one is requested, and memory stays at one block however long the
        rule.  A rule of one block gets the whole buffer, which no later call
        touches.
        """
        buf = np.empty((min(chunk, nodes.size), self.rho.size), dtype=np.complex128)
        for lo in range(0, nodes.size, chunk):
            rows = buf[:min(chunk, nodes.size - lo)]
            np.add(nodes[lo:lo + chunk, None], self.rho, out=rows)
            np.reciprocal(rows, out=rows)
            denom = self.S_at_E - self.wlat * (rows @ self.delta_sq_bins)
            yield rows, weights[lo:lo + chunk] / denom

    def correction(self, bpair, chunks):
        """Complex bin profile of the rank-one contour correction of one quadrature rule.

        ``bpair`` is the datum's bin pairing (``_bin_pair``) and ``chunks``
        yields the rule's (rows, base) blocks (``_node_chunks``).  With
        c_k = base_k <g, G_{conj lambda_k}>, returns the profile
        V_b = sum_k c_k / (lambda_k + rho_b); the correction transform is
        delta_hat * V[bin].  The datum must be projected: a contour that
        encloses the eigenvalue E (Talbot's does at small t) picks up a pole
        there that cancels only against a projected numerator.  Over a
        folded rule (``_fold``) only the real part of V is the correction.
        """
        bpair = self.wlat * bpair
        prof = np.zeros(self.rho.size, dtype=np.complex128)
        for rows, base in chunks:
            prof += (base * (rows @ bpair)) @ rows
        return prof

    def l2_hat(self, hat_values):
        """L^2 norm of the real field with this half spectrum.

        The spectrum is scaled by its largest modulus first only when the
        plain pairing could leave the normal doubles (``fields._sum_scale``).
        """
        scale = _sum_scale(float(np.abs(hat_values).max()), 2.0, 2 * hat_values.size)
        hat = hat_values if scale == 1.0 else hat_values / scale
        return scale * math.sqrt(self.wlat * _dot(hat, hat))


@lru_cache(maxsize=4)
def grid_model(params, grid):
    """Cached PointHeatModel for a (params, grid) pair: the package's one cache."""
    return PointHeatModel(params, grid)


def psi_alpha_field(params, grid):
    """Normalized eigenfunction sampled on the grid (unit grid L^2 norm): the model's samples."""
    if params.eigenvalue is None:
        raise NoEigenfunctionError(f"alpha = {params.alpha} has no eigenfunction")
    return Field(grid, grid_model(params, grid).psi_values)


def project_d(f, params):
    """Rank-one projection onto the eigenfunction; zero if no eigenvalue.

    psi is real, so a real f has a real coefficient and a real projection.
    """
    if params.eigenvalue is None:
        return Field(f.grid, np.zeros_like(f.values))
    psi = psi_alpha_field(params, f.grid)
    coef = inner_product(f, psi)
    return (coef if np.iscomplexobj(f.values) else coef.real) * psi


def _fold(nodes, weights):
    """The nodes with Im >= 0 of a conjugation-closed rule, conjugate-pair weights doubled.

    Every rule here is closed under conjugation (node conj(lambda) with
    weight conj(w) for each node lambda with weight w), and a real datum's
    rank-one sum over a conjugate pair is conjugate-symmetric, so the real
    part of the whole sum is the real part of the folded one.
    """
    upper = nodes.imag > 0
    keep = upper | (nodes.imag == 0)
    return nodes[keep], np.where(upper, 2.0 * weights, weights)[keep]


class Flow:
    """exp(tA) P_ac (or, with ``full``, exp(tA)) for one time t, on the half spectrum.

    Holds t's heat multiplier ``heat`` = exp(-t |xi|^2) and the folded
    (``_fold``) nodes and weights of one quadrature rule at t: the
    ``TALBOT_NODES``-node Talbot rule, or the cut-hugging ``contour`` when
    one is given.  A folded rule that fits in one ``CHUNK`` (Talbot's does)
    also keeps its resolvent rows and base weights, in a buffer of its own,
    so a caller stepping with one t builds them once; a longer rule refills
    one block buffer chunk by chunk on every application.

    A caller that passes ``out`` to :meth:`apply` owns a loop, so the flow
    keeps that call's one lattice temporary for the next: a complex half
    spectrum (0.5 MB at n = 256) whose memory first holds the bin pairing's
    two real products and then the correction delta_hat V[bin].  A call
    without ``out`` builds it afresh.
    """

    def __init__(self, model, t, full=False, contour=None):
        if full and model.E * t > MAX_EXP:
            raise ValueError(
                f"full flow at t = {t}: the eigenmode growth exp(E t) with E = {model.E:.6g} "
                f"overflows (E t = {model.E * t:.6g} > {MAX_EXP:.2f}); use a shorter t"
            )
        self.model = model
        self.t = t
        if contour is None:
            sigma, swts = TALBOT_RULE
            nodes, weights = sigma / t, (swts / t) * np.exp(sigma)
        else:
            contour.validate(model.params)
            nodes, wts = contour.nodes()
            weights = wts * np.exp(t * nodes) / (2j * np.pi)
        self.nodes, self.weights = _fold(nodes, weights)
        self._work = None
        self.heat = np.exp(-t * model.xi2)
        self._chunks = (
            list(model._node_chunks(self.nodes, self.weights, CHUNK))
            if self.nodes.size <= CHUNK else None
        )
        # the eigenmode's bin profile per unit <g, psi>: the projection's
        # -e^{-t rho} psi and the full flow's e^{tE} psi
        growth = math.exp(model.E * t) if full else 0.0
        self._eig_profile = (growth - np.exp(-t * model.rho)) * model.psi_bins

    def apply(self, ghat, out=None):
        """The evolved half spectrum of the real field with half spectrum ghat, into ``out``.

        With c = <g, psi> = wlat psi_bins . bp read off the bin pairing bp
        of g, the projected pairing is bp - c psi_bins |delta|^2_bins, and
        the projection's -c e^{-t rho} psi and the full flow's
        c e^{tE} psi join the correction's bin profile, since psi_hat is
        delta_hat times the bin profile psi_bins: the output is
        heat g_hat + delta_hat V[bin], with no projected copy of g.
        ``out`` may be ghat itself; None returns a new array.
        """
        m = self.model
        corr = self._work
        if corr is None:
            corr = np.empty(m.xi2.shape, np.complex128)
            if out is not None:
                self._work = corr
        # the buffer's two real halves, free until the correction is formed
        bpair = m._bin_pair(ghat, _front(corr, (2, *m.xi2.shape)))
        coef = m.wlat * np.dot(bpair, m.psi_bins)
        bpair -= coef * m.psi_pair
        chunks = self._chunks or m._node_chunks(self.nodes, self.weights, CHUNK)
        prof = m.correction(bpair, chunks)
        prof.real += coef * self._eig_profile
        # V + 0j, the complex value numpy would cast V[bin] to, so the product
        # below needs no casting buffer; mode 'clip' writes straight into corr
        # where 'raise' would buffer (every index is a bin)
        prof.imag = 0.0
        np.take(prof, m.bin_index, out=corr, mode="clip")
        np.multiply(m.delta_hat, corr, out=corr)
        out = np.multiply(self.heat, ghat, out=out)
        out += corr
        return out


def _check_lambda(lam, params):
    if not (_real(lam, numbers.Complex) and cmath.isfinite(lam)):
        raise ValueError(f"resolvent argument lambda must be finite; got {lam!r}")
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
    (re, im), *rest = [model.resolvent_hat(lam, ghat) for ghat in _real_parts(g.values)]
    if rest:
        # R(a + ib) = R a + i R b
        b_re, b_im = rest[0]
        re = re if b_im is None else re - b_im
        im = b_re if im is None else im + b_re
    return _from_parts(g.grid, re, im)


def _check_time(name, t):
    if not (_real(t) and math.isfinite(t)):
        raise ValueError(f"{name} requires a finite t; got {t!r}")
    if t <= 0:
        raise ValueError(f"{name} requires t > 0")


def _public_flow(name, t, g, params, contour=None, full=False):
    """The flow of one public call, after checking its time."""
    _check_time(name, t)
    if t < MIN_TIME:
        raise ValueError(
            f"t = {t} below the supported minimum {MIN_TIME}; compose shorter steps"
        )
    return Flow(grid_model(params, g.grid), t, full, contour)


def semigroup_pac(t, g, params, contour=None):
    """Projected heat flow exp(tA) P_ac g with diagnostics.

    The input is projected internally, so the eigenmode is annihilated
    before the rank-one correction is accumulated.  The correction uses the
    Talbot rule unless ``contour`` selects the cut-hugging one.  Times below
    ``MIN_TIME`` are rejected; compose shorter steps if needed.
    """
    flow = _public_flow("semigroup_pac", t, g, params, contour)
    model = flow.model
    parts = _real_parts(g.values)
    outs = [flow.apply(ghat) for ghat in parts]
    # the heat part of the contour representation; the rest is its correction
    frees = [flow.heat * model.project_ac_hat(ghat)[0] for ghat in parts]
    gnorm = lp_norm(g, 2)
    imag = model.l2_hat(outs[1]) if len(outs) > 1 else 0.0
    return SemigroupResult(
        field=_from_parts(g.grid, *outs),
        free_part_norm=math.hypot(*map(model.l2_hat, frees)),
        correction_norm=math.hypot(*(model.l2_hat(o - f) for o, f in zip(outs, frees))),
        imag_residue=imag / gnorm if gnorm > 0 else 0.0,
    )


def semigroup_full(t, g, params):
    """Full flow: projected semigroup plus the explicit eigenmode e^{tE}, by the Talbot rule.

    A cut-hugging full flow is ``Flow(model, t, full=True, contour=...)``.
    """
    flow = _public_flow("semigroup_full", t, g, params, full=True)
    return _from_parts(g.grid, *(flow.apply(ghat) for ghat in _real_parts(g.values)))


def semigroup_gradient_pac(t, g, params):
    """Gradient of the projected flow, evaluated spectrally.

    Commutes exactly with :func:`semigroup_pac` on the grid (both act by
    multipliers on the same transform).  The derivative is the real one,
    zero on each axis' Nyquist line, so the gradient of a real datum is
    real.  It always runs the Talbot flow.
    """
    flow = _public_flow("semigroup_gradient_pac", t, g, params)
    outs = [flow.apply(ghat) for ghat in _real_parts(g.values)]
    return tuple(_from_parts(g.grid, *(d * out for out in outs)) for d in flow.model.derivative)


def backward_euler_oracle(t, g, params, steps):
    """Independent oracle: ((I - (t/steps) A)^{-1})^steps applied to P_ac g.

    Steps with lambda R(lambda), lambda = steps/t, and uses no contour code.
    ``steps`` is an integer >= 10.  The free multiplier
    s = lambda/(lambda + |xi|^2) and the rank-one term are constant on each
    |k|^2 bin, so after k steps u = s^k u_0 + delta_hat v[bin], whose bin
    pairing with delta_hat is p + |delta|^2_bins v with
    p = s^k <u_0, delta>_bins: a step updates only v and p, over the bins.
    With r = 1/(lambda + rho) and v = r y, one step is the stacked
    recurrence on z = [p; y] (2 x bins, y a view of z)

        sigma = w . z,   z *= [s; s],   y += sigma,
        w = lambda wlat / D(lambda) [r; r^2 |delta|^2_bins],

    and v = r y at the end.  First-order accurate in t/steps.
    """
    if not _real(steps, numbers.Integral) or steps < 10:
        raise ValueError(f"backward_euler_oracle requires an integer steps >= 10; got {steps!r}")
    _check_time("backward_euler_oracle", t)
    lam = steps / t
    ev = params.eigenvalue
    if ev is not None and abs(lam - ev) <= 1e-9 * max(1.0, ev):
        steps += 1
        lam = steps / t
        _warn("resolvent shift hit the eigenvalue; stepping count bumped by one")
    model = grid_model(params, g.grid)
    bins = model.rho.size
    r = 1.0 / (lam + model.rho)
    coef = lam * model.wlat / model.denominator(lam)
    w = coef * np.concatenate([r, r * r * model.delta_sq_bins])
    ss = np.tile(lam / (lam + model.rho), 2)
    free = (lam / (lam + model.xi2)) ** steps
    outs = []
    for ghat in _real_parts(g.values):
        uhat, _ = model.project_ac_hat(ghat)
        z = np.zeros(2 * bins)
        z[:bins] = model._bin_pair(uhat)
        y = z[bins:]
        for _ in range(steps):
            sigma = w @ z
            z *= ss
            y += sigma
        outs.append(free * uhat + model.delta_hat * np.take(r * y, model.bin_index))
    return _from_parts(g.grid, *outs)
