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
There E = 0 and d_hat = 0, so psi_hat = d_hat psi_bins[bin] is 0 too.
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
the integer |k|^2, which is exact, and every radial multiplier is a bin
profile gathered onto the lattice: ``xi2`` is rho[bin] itself, the heat
multiplier exp(-t rho) is taken over the bins once per flow, and R(lambda)'s
free multiplier is its one-node row.  Every quadrature rule feeds one
rank-one kernel, ``PointHeatModel.correction``: from the datum's bin pairing it accumulates,
per block of at most ``CHUNK`` = 16 nodes, the bin profile from the resolvent
rows 1/(lambda_k + rho_b) over the bins, with the denominators D(lambda_k)
read off the same rows.  The rows are built in real arithmetic, as two real
planes per block (``_node_chunks``), so no complex reciprocal is taken.
The folded Talbot rule is one block, which its flow keeps for its lifetime.
A longer rule refills one reused block buffer on every application, so its
working memory is one 16 x bins two-plane block (1.5 MB at n = 256, 5.6 MB
at n = 512) however many nodes it has.  The resolvent is the one-node rule
(node lambda, weight 1) on the same rows, but forms its term c m from its
one row m itself, as it sums the k = 0 bin in closed form
(``PointHeatModel.resolvent_hat``).  The
backward-Euler oracle steps on the bins alone, ``ORACLE_BLOCK`` = 16 steps
per pair of matrix products: a block's 16 rank-one amplitudes solve one
lower triangular Toeplitz system, inverted once per call.

Every rank-one quantity is delta_hat times a bin profile, and delta_hat is
the model's one rank-one lattice array (``PointHeatModel._rank_one`` forms
delta_hat V[bin]): psi_hat is delta_hat psi_bins[bin] with
psi_bins = 1/((E + rho) ||G_E||), G_omega_hat is delta_hat green_bins[bin]
with green_bins = 1/(omega + rho), and the correction and the resolvent's
term are delta_hat V[bin].  So the projection is bin-space bookkeeping
too: <g, psi> = wlat psi_bins . bp is read off g's bin pairing bp, the one
formula for it, P_ac g pairs as bp - <g, psi> psi_bins |delta|^2_bins, and
the projection's -<g, psi> e^{-t|xi|^2} psi and the full flow's
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

TALBOT_NODES = 32
"""Node count of the Talbot rule of every flow without an explicit contour."""

CHUNK = TALBOT_NODES // 2
"""Nodes per block of resolvent rows: the folded Talbot rule, which a flow keeps whole."""

ORACLE_BLOCK = 16
"""Backward-Euler steps per block of :func:`backward_euler_oracle`'s bin recurrence."""

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

    def validate(self, params, rho_max=0.0):
        """ContourError unless E > epsilon >= 2 rho_max / ROW_RANGE, rho_max of the flow's grid.

        Every node of the rule lies at distance >= epsilon from the
        spectrum [-rho_max, 0], so the range of its resolvent row
        (``ROW_RANGE``) is at most 2 + 2 rho_max / epsilon.
        """
        ev = params.eigenvalue
        if ev is not None and self.epsilon >= ev:
            raise ContourError(
                f"arc radius {self.epsilon} must stay below the eigenvalue {ev}"
            )
        floor = 2.0 * rho_max / ROW_RANGE
        if self.epsilon < floor:
            raise ContourError(
                f"arc radius {self.epsilon} is below the supported minimum {floor:.3g} "
                "(2 rho_max / ROW_RANGE), where the resolvent rows' range leaves the doubles"
            )

    def nodes(self):
        """Contour nodes and complex quadrature weights (d lambda included)."""
        eps, S = self.epsilon, self.truncation
        panels = 4
        wmax = math.asinh(S / eps)
        edges = wmax * np.linspace(0.0, 1.0, panels + 1) ** 1.5
        per_panel = max(8, self.nodes_ray // panels)
        xg, wg = _gauss_legendre(per_panel)
        ws, tws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            ws.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            tws.append(0.5 * (b - a) * wg)
        w = np.concatenate(ws)
        tw = np.concatenate(tws)
        s = eps * np.sinh(w)
        ds = eps * np.cosh(w) * tw
        thg, thw = _gauss_legendre(ARC_NODES)
        th = thg * (np.pi / 2.0)
        arc = eps * np.exp(1j * th)
        nodes = np.concatenate([-s - 1j * eps, -s + 1j * eps, arc])
        wts = np.concatenate([ds, -ds, 1j * arc * thw * (np.pi / 2.0)])
        return nodes, wts


def _gauss_legendre(num):
    """Nodes and weights of the num-point Gauss-Legendre rule on [-1, 1], symmetric to the bit.

    Golub-Welsch: the nodes are the eigenvalues of the Legendre Jacobi
    matrix (off-diagonal k / sqrt(4 k^2 - 1)) and the weights twice the
    squared first components of its eigenvectors.  Averaging each with its
    mirror makes x_k = -x_{num-1-k} and w_k = w_{num-1-k} exactly, which
    :func:`_fold` needs: it pairs the cut-hugging rays' nodes as exact
    conjugates (unsymmetrized, the contour check moved from 9.15e-08 to
    3.53e-03).  ``numpy.polynomial``'s ``leggauss`` would cost its import
    inside every run.
    """
    k = np.arange(1.0, num)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * vectors[0] ** 2
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


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

MIN_TIME = 2.0 * max(
    np.abs(TALBOT_RULE[0]).max(),
    (np.abs(TALBOT_RULE[1]) * np.maximum(1.0, np.abs(np.exp(TALBOT_RULE[0])))).max(),
) / sys.float_info.max
"""Shortest public semigroup time, 6.8e-307: the limit of the Talbot rule's doubles.

From t = MIN_TIME on, every node sigma_k/t, weight dsigma_k/t and weight
(dsigma_k/t) e^{sigma_k}, with each part of that complex product, is a
finite double (the factor 2 covers a part that sums two products).  A
flow divides its weights by D(sigma_k/t), which tends to S(E) as t -> 0,
so a model with S(E) < 1 takes MIN_TIME / S(E) (``_public_flow``).  The
flow is exact to rounding down there: the semigroup law holds to 1e-14 and
the Richardson-extrapolated backward-Euler oracle agrees to 1e-10 from
t = 1e-8 to 1e-2.
"""

ROW_RANGE = 2.0 ** 500
"""Largest range (|lambda| + rho_max) / dist(lambda, [-rho_max, 0]) of one node's resolvent row.

The range bounds max_b |lambda + rho_b| / min_b |lambda + rho_b| (rho_0 = 0
is a bin).  ``_node_chunks`` scales a row by the power of two s with
s |lambda| in [1/2, 1), so a row of range R has scaled squared moduli in
[1/(4 R^2), R^2] and reciprocals in [1/R^2, 4 R^2]: normal doubles while
R <= 2^510.  2^500 leaves a factor 2^20 for the sums over the bins.
"""

TALBOT_REACH = float(np.min(
    ROW_RANGE * np.where(TALBOT_RULE[0].real <= 0.0, np.abs(TALBOT_RULE[0].imag),
                         np.abs(TALBOT_RULE[0]))
    - np.abs(TALBOT_RULE[0])
))
"""rho_max t at the longest time of any flow: 1.8e151, so t <= 1.8e151 / rho_max.

Node sigma_k / t lies at distance d_k / t from the spectrum [-rho_max, 0],
d_k = |Im sigma_k| where Re sigma_k <= 0 and |sigma_k| where it is positive,
once rho_max t exceeds max(-Re sigma_k) = 39.1.  Its row's range
(|sigma_k| + rho_max t) / d_k stays within ``ROW_RANGE`` while
rho_max t <= ROW_RANGE d_k - |sigma_k|; the smallest d_k is
|sigma|_min = 5.50.  Every flow past the ceiling ``PointHeatModel.max_time``
= TALBOT_REACH / rho_max is rejected (8.9e148 on ``Grid(40, 256)``); there
the flow already equals its t -> infinity limit to rounding.
"""


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
    ``xi2`` (|xi|^2, gathered from the bin values ``rho``), ``bin_index``
    (the |k|^2 bin of each point), ``delta_hat``, the one complex rank-one
    array, and ``pairing``, the real and the imaginary part of the
    weighted delta_hat w as two contiguous arrays, so that one
    ``np.bincount`` over ``bin_index`` gives the bin sums of
    Re(ghat conj(delta_hat)) w.  The Hermitian column ``weights`` and
    ``derivative``, the pair (i xi1, i xi2), are n x 1 and 1 x (n/2 + 1)
    arrays, each derivative zero on the Nyquist line of its own axis.
    Every other rank-one object is a bin profile: psi_hat is
    delta_hat ``psi_bins``[bin] and G_omega_hat is delta_hat
    ``green_bins``[bin] (``_rank_one``).

    The model is the one owner of every array derived from its pair, so
    they live and go with it (``grid_model`` keeps the last four models).
    Three are built on first use: ``psi_values``, the samples of psi, which
    serve :func:`psi_alpha_field` only (every pairing with psi, the
    solver's rho and :func:`project_d` included, is ``_psi_coefficient``);
    ``drift_parts``, the solver's per-axis drift derivative and kernel
    correction; and ``h1_kernel``, the H^1 proxy's weights and form
    constants of G_omega.

    ``max_time`` is the longest time of any flow, ``TALBOT_REACH`` / rho_max.

    At alpha = +inf (``params.eigenvalue`` None) the model is the free
    Laplacian as zero-coupling data: ``E`` = 0, ``delta_hat`` and
    ``psi_bins`` 0, ``S_at_E`` = 1 and ``omega`` = 1.  Only
    ``psi_values`` has no such form; :func:`psi_alpha_field` rejects
    alpha = +inf first.
    """

    def __init__(self, params, grid):
        self.params = params
        self.grid = grid
        self.E = params.eigenvalue or 0.0
        n = grid.n
        m = n // 2 + 1
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
        # every radial multiplier is a bin profile gathered bit for bit
        self.xi2 = np.take(self.rho, self.bin_index)
        self.max_time = TALBOT_REACH / self.rho[-1]

        if self.E:
            gE = green_field(self.E, grid)
            self.green_ref_norm = lp_norm(gE, 2)
            self.delta_hat = (self.E + self.xi2) * _rfft2(gE.values)
            # psi_hat = delta_hat * psi_bins[bin], so psi's bin pairing is psi_pair
            self.psi_bins = 1.0 / ((self.E + self.rho) * self.green_ref_norm)
        else:
            # alpha = +inf, the free Laplacian: zero coupling, so every
            # <g, delta> and <g, psi> is 0, P_ac = I and q = 0
            self.delta_hat = np.zeros(self.xi2.shape, np.complex128)
            self.psi_bins = np.zeros_like(self.rho)
        self.weights = _hermitian_weights(n)
        self.delta_sq_bins = np.bincount(
            bin_index, weights=(np.abs(self.delta_hat) ** 2 * self.weights).ravel()
        )
        self.S_at_E = self._lattice_sum(self.E) if self.E else 1.0

        self.omega = reference_lambda(params)
        self.green_bins = 1.0 / (self.omega + self.rho)  # G_omega_hat = delta_hat green_bins[bin]
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
        khat = self._rank_one(self.green_bins)
        return tuple((d, g - _irfft2(d * khat)) for d, g in zip(self.derivative, closed))

    @cached_property
    def h1_kernel(self):
        """(w, w G_omega_hat, C): the H^1 proxy's weights and form constants of G_omega.

        w is :func:`pideq.spectral._h1_weights` and C = wlat sum w |G_omega_hat|^2,
        G_omega's own squared proxy part; the ``kernel`` of
        :func:`pideq.spectral._h1_proxy_hat`.
        """
        w, khat = _h1_weights(self.grid), self._rank_one(self.green_bins)
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

    def _psi_coefficient(self, ghat, pair=None):
        """<g, psi> of the real field with half spectrum ghat: wlat psi_bins . bp.

        psi_hat is delta_hat psi_bins[bin], so the coefficient is read off
        g's bin pairing bp (``_bin_pair``), which ``pair`` is when the caller
        holds it.  It is the one formula for <g, psi>.
        """
        pair = self._bin_pair(ghat) if pair is None else pair
        return self.wlat * np.dot(pair, self.psi_bins)

    def project_ac_hat(self, ghat):
        """(P_ac g half spectrum, <g, psi>)."""
        coef = self._psi_coefficient(ghat)
        return ghat - self._rank_one(coef * self.psi_bins), coef

    def _rank_one(self, profile, out=None):
        """delta_hat profile[bin]: the rank-one half spectrum of a real bin profile.

        The one product of delta_hat with a gathered profile.  ``out``, a
        complex half spectrum, receives it with no temporary; None
        allocates it.
        """
        # profile + 0j, the complex value numpy would cast profile[bin] to, so
        # the product needs no casting buffer; mode 'clip' writes straight into
        # out where 'raise' would buffer (every index is a bin)
        out = np.take(profile.astype(np.complex128), self.bin_index, out=out, mode="clip")
        return np.multiply(self.delta_hat, out, out=out)

    # -- resolvent and semigroup ----------------------------------------------

    def resolvent_hat(self, lam, ghat):
        """Half spectra (Re R(lambda) g, Im R(lambda) g) of a real g; Im is None at real lambda.

        R(lambda) g = ghat m[bin] + delta_hat V[bin]: the free row
        m_b = 1/(lambda + rho_b) and the one-node rule's term V = c m,
        c = <g, G_{conj lambda}> / D(lambda).  The row over the bins b >= 1
        is read off ``_node_chunks``; bin 0 holds k = 0 alone, where the
        free term g_0 / lambda cancels against the rank-one one as
        lambda -> 0.  With bp the bin pairing of g, the sums
        D' = wlat |delta|^2_bins . m and B' = wlat bp . m over b >= 1, and
        lambda D(lambda) = lambda (S(E) - D') - wlat |delta|^2_0,

            c = (lambda B' + wlat bp_0) / (lambda D),   V_b = c m_b (b >= 1),
            m_0 = (S(E) - D') / (lambda D),   V_0 = B' / (lambda D),

        so no 1/lambda is formed, and R(lambda) g tends to R(0) g at finite
        alpha, where 0 is not a lattice eigenvalue.  At alpha = +inf
        (delta_hat = 0, S(E) = 1) m_0 is 1/lambda and V is 0.
        """
        lam = complex(lam)
        planes, factors, _ = next(self._node_chunks(np.array([lam]), np.ones(1), 1, first=1))
        m = factors[0] * planes[0, 0] + 1j * (factors[1] * planes[1, 0])
        bp, dsq = self._bin_pair(ghat), self.delta_sq_bins
        dp, b = self.wlat * (np.array([dsq[1:], bp[1:]]) @ m)
        lam_d = lam * (self.S_at_E - dp) - self.wlat * dsq[0]
        free = np.concatenate([[(self.S_at_E - dp) / lam_d], m])
        prof = np.concatenate([[b / lam_d], (lam * b + self.wlat * bp[0]) / lam_d * m])
        parts = [(free.real, prof.real)] + ([(free.imag, prof.imag)] if lam.imag else [])
        out = [ghat * np.take(f, self.bin_index) + self._rank_one(v) for f, v in parts]
        return out[0], (out[1] if lam.imag else None)

    def _node_chunks(self, nodes, weights, chunk, first=0):
        """Resolvent rows over the bins from ``first`` on, ``chunk`` nodes at a time, in one buffer.

        Yields (planes, factors, base) for each block of k nodes.  With
        s_k the power of two that puts s_k |lambda_k + rho_first| in
        [1/2, 1) and z_b = s_k (lambda_k + rho_b), the 2 x k x bins
        ``planes`` hold Re z_b / |z_b|^2 and 1/|z_b|^2, so that

            1/(lambda_k + rho_b) = factors[0, k] planes[0, k, b]
                                   + i factors[1, k] planes[1, k, b],

        factors[0] = s and factors[1] = -s^2 Im lambda.  The scaling is
        exact and keeps every squared modulus a normal double while the
        row's range stays within ``ROW_RANGE``; no complex reciprocal is
        taken.  base = weights / D(lambda), with the denominators read off
        the same planes in one real product with |delta|^2_bins (over the
        bins from ``first`` on: only the resolvent, whose bin 0 is a closed
        form, passes ``first`` = 1, and reads the planes alone).  Each
        call fills every block into one new 2 x min(chunk, nodes) x bins
        buffer in place, so a yielded block is valid only until the next
        one is requested, and memory stays at one block however long the
        rule.  A rule of one block gets the whole buffer, which no later
        call touches.
        """
        rho, dsq = self.rho[first:], self.delta_sq_bins[first:]
        bins = rho.size
        buf = np.empty(2 * min(chunk, nodes.size) * bins)
        for lo in range(0, nodes.size, chunk):
            lam = nodes[lo:lo + chunk]
            k = lam.size
            planes = buf[:2 * k * bins].reshape(2, k, bins)
            x, q = planes
            scale = np.ldexp(1.0, -np.frexp(np.abs(lam + rho[0]))[1])
            y = scale * lam.imag
            np.multiply(scale[:, None], rho, out=x)
            x += (scale * lam.real)[:, None]
            np.square(x, out=q)
            q += (y * y)[:, None]
            np.reciprocal(q, out=q)
            x *= q
            factors = np.array([scale, -scale * y])
            sums = (planes.reshape(2 * k, bins) @ dsq).reshape(2, k) * factors
            denom = self.S_at_E - self.wlat * (sums[0] + 1j * sums[1])
            yield planes, factors, weights[lo:lo + chunk] / denom

    def correction(self, bpair, chunks):
        """Real bin profile of the rank-one contour correction of one quadrature rule.

        ``bpair`` is the datum's bin pairing (``_bin_pair``) and ``chunks``
        yields the rule's (planes, factors, base) blocks (``_node_chunks``).
        With c_k = base_k <g, G_{conj lambda_k}>, the profile is
        V_b = sum_k c_k / (lambda_k + rho_b) and the correction transform is
        delta_hat * V[bin].  Over a folded rule (``_fold``) only Re V is the
        correction, and that is all this returns.  Each block is two real
        products with its 2k x bins planes, one for the datum's pairings
        and one for the profile.  The datum must be projected: a contour
        that encloses the eigenvalue E (Talbot's does at small t) picks up
        a pole there that cancels only against a projected numerator.
        """
        prof = 0.0
        for planes, factors, base in chunks:
            k = base.size
            rows = planes.reshape(2 * k, -1)
            re, im = (rows @ bpair).reshape(2, k) * factors
            c = (self.wlat * base) * (re + 1j * im)
            # Re c (f0 P0 + i f1 P1) = Re c f0 P0 - Im c f1 P1
            prof = prof + (np.array([c.real, -c.imag]) * factors).reshape(-1, 2 * k) @ rows
        return prof[0]

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
    """Rank-one projection <f, psi> psi onto the eigenfunction; zero if no eigenvalue.

    <f, psi> is the grid model's one formula (``_psi_coefficient``), taken
    on the half spectrum of f's real part and, for a complex f, of its
    imaginary part; psi is real, so a real f has a real projection.
    """
    if params.eigenvalue is None:
        return Field(f.grid, np.zeros_like(f.values))
    model = grid_model(params, f.grid)
    coef = complex(*map(model._psi_coefficient, _real_parts(f.values)))
    return (coef if np.iscomplexobj(f.values) else coef.real) * psi_alpha_field(params, f.grid)


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

    Holds t's heat multiplier ``heat`` = exp(-t rho)[bin], the bin profile
    exp(-t rho) gathered onto the lattice, and the folded (``_fold``) nodes
    and weights of one quadrature rule at t: the ``TALBOT_NODES``-node
    Talbot rule, or the cut-hugging ``contour`` when one is given.  A folded
    rule that fits in one ``CHUNK`` (Talbot's does) also keeps its
    resolvent planes, factors and base weights (``_node_chunks``), in a
    buffer of its own, so a caller stepping with one t builds them once; a
    longer rule refills one block buffer chunk by chunk on every
    application.

    Every flow takes t from the model's floor, ``MIN_TIME`` divided by
    S(E) when S(E) < 1 (the weights over D(lambda_k) ~ S(E) must stay
    finite too), to its ceiling ``max_time``, and a contour whose radius
    keeps its rows within ``ROW_RANGE`` (``ContourSpec.validate``).

    A caller that passes ``out`` to :meth:`apply` owns a loop, so the flow
    keeps that call's one lattice temporary for the next: a complex half
    spectrum (0.5 MB at n = 256) whose memory first holds the bin pairing's
    two real products and then the correction delta_hat V[bin].  A call
    without ``out`` builds it afresh.
    """

    def __init__(self, model, t, full=False, contour=None):
        shortest = MIN_TIME / min(1.0, model.S_at_E)
        if t < shortest:
            raise ValueError(
                f"t = {t} below the supported minimum {shortest:.3g}, where the Talbot "
                "nodes sigma/t and weights leave the doubles"
            )
        if t > model.max_time:
            raise ValueError(
                f"t = {t} above the supported maximum {model.max_time:.3g} "
                "(TALBOT_REACH / rho_max), where the resolvent rows' range "
                "rho_max t / |sigma|_min leaves the doubles"
            )
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
            contour.validate(model.params, model.rho[-1])
            nodes, wts = contour.nodes()
            weights = wts * np.exp(t * nodes) / (2j * np.pi)
        self.nodes, self.weights = _fold(nodes, weights)
        self._work = None
        decay = np.exp(-t * model.rho)
        self.heat = np.take(decay, model.bin_index)
        self._chunks = (
            list(model._node_chunks(self.nodes, self.weights, CHUNK))
            if self.nodes.size <= CHUNK else None
        )
        # the eigenmode's bin profile per unit <g, psi>: the projection's
        # -e^{-t rho} psi and the full flow's e^{tE} psi
        growth = math.exp(model.E * t) if full else 0.0
        self._eig_profile = (growth - decay) * model.psi_bins

    def apply(self, ghat, out=None, _pair=None):
        """The evolved half spectrum of the real field with half spectrum ghat, into ``out``.

        With c = <g, psi> = wlat psi_bins . bp read off the bin pairing bp
        of g (``_psi_coefficient``), the projected pairing is
        bp - c psi_bins |delta|^2_bins, and the projection's -c e^{-t rho} psi
        and the full flow's c e^{tE} psi join the correction's bin profile,
        since psi_hat is delta_hat times the bin profile psi_bins: the output is
        heat g_hat + delta_hat V[bin], with no projected copy of g.
        ``out`` may be ghat itself; None returns a new array.  ``_pair`` is
        ghat's bin pairing (``model._bin_pair(ghat)``), for a caller that
        flows one datum to many times; it is left unchanged.
        """
        m = self.model
        corr = self._work
        if corr is None:
            corr = np.empty(m.xi2.shape, np.complex128)
            if out is not None:
                self._work = corr
        if _pair is None:
            # the buffer's two real halves, free until the correction is formed
            _pair = m._bin_pair(ghat, _front(corr, (2, *m.xi2.shape)))
        coef = m._psi_coefficient(ghat, _pair)
        chunks = self._chunks or m._node_chunks(self.nodes, self.weights, CHUNK)
        prof = m.correction(_pair - coef * m.psi_pair, chunks)
        prof += coef * self._eig_profile
        m._rank_one(prof, corr)
        out = np.multiply(self.heat, ghat, out=out)
        out += corr
        return out


def krein_resolvent(lam, g, params):
    """(lambda - A)^{-1} g: free resolvent plus the rank-one kernel correction.

    lambda must keep the range (|lambda| + rho_max) / gap of its resolvent
    row within ``ROW_RANGE``, gap its distance to the spectrum
    [-rho_max, 0]; nearer it the row leaves the doubles.  At finite alpha
    the k = 0 bin is a closed form (``PointHeatModel.resolvent_hat``), so
    the row spans the bins from rho_1 on and, right of the spectrum, gap is
    the distance to [-rho_max, -rho_1]: R(lambda) g is exact down to a real
    lambda -> 0+, which has no floor.  At alpha = +inf a real lambda below
    about rho_max / ROW_RANGE, where g_0 / lambda nears the double range,
    is rejected.
    """
    if not (_real(lam, numbers.Complex) and cmath.isfinite(lam)):
        raise ValueError(f"resolvent argument lambda must be finite; got {lam!r}")
    z = complex(lam)
    if z.imag == 0.0 and z.real <= 0.0:
        raise BranchCutError("resolvent argument lies on the branch cut (-inf, 0]")
    ev = params.eigenvalue
    if ev is not None and z.imag == 0.0 and abs(z.real - ev) <= 1e-12 * max(1.0, ev):
        raise PoleError(f"lambda = {z.real} hits the point eigenvalue {ev}")
    model = grid_model(params, g.grid)
    top = model.rho[-1]
    low = model.rho[1] if model.E else 0.0  # at finite alpha the row starts at bin 1
    gap = abs(z.imag) if -top <= z.real <= 0.0 else min(abs(z + low), abs(z + top))
    if abs(z) + top > ROW_RANGE * gap:
        raise ValueError(
            f"lambda = {lam!r} lies within {(abs(z) + top) / ROW_RANGE:.3g} of the spectrum "
            f"[-{top:.6g}, 0], where its resolvent row's range leaves the doubles"
        )
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
    """The flow of one public call, after checking that t is a finite positive number."""
    _check_time(name, t)
    return Flow(grid_model(params, g.grid), t, full, contour)


def semigroup_pac(t, g, params, contour=None):
    """Projected heat flow exp(tA) P_ac g with diagnostics.

    The input is projected internally, so the eigenmode is annihilated
    before the rank-one correction is accumulated.  The correction uses the
    Talbot rule unless ``contour`` selects the cut-hugging one.  Times below
    ``MIN_TIME`` (6.8e-307), where the Talbot nodes leave the doubles, and
    above the grid's ``max_time`` (8.9e148 on ``Grid(40, 256)``), where the
    resolvent rows' range does, are rejected (see :class:`Flow`).
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
    With r = 1/(lambda + rho) and v = r y, one step is the recurrence

        sigma_k = w_p . p + w_y . y,   p <- s p,   y <- s y + sigma_k,
        w_p = lambda wlat / D(lambda) r,   w_y = w_p r |delta|^2_bins,

    and v = r y at the end.  It runs ``ORACLE_BLOCK`` = B steps at a time.
    With c_m = w_y . s^m, the b <= B sigmas of a block solve the unit lower
    triangular Toeplitz system sigma_j - sum_{i<j} c_{j-1-i} sigma_i =
    s^j . (w_p p + w_y y), whose inverse is built once per call (a shorter
    last block takes its leading b x b part); then y <- s^b y +
    sum_i sigma_i s^{b-1-i} and p <- s^b p.  The powers s^0..s^B are one
    (B + 1) x bins array, so a block is two matrix-vector products over
    the bins.  First-order accurate in t/steps.
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
    r = 1.0 / (lam + model.rho)
    w_p = (lam * model.wlat / model.denominator(lam)) * r
    w_y = w_p * r * model.delta_sq_bins
    powers = np.empty((ORACLE_BLOCK + 1, r.size))
    powers[0] = 1.0
    np.divide(lam, lam + model.rho, out=powers[1])
    for i in range(2, ORACLE_BLOCK + 1):
        np.multiply(powers[i - 1], powers[1], out=powers[i])
    # the inverse of a unit lower triangular Toeplitz matrix is one too, so
    # its first column fixes it: row j is first[j - i], i <= j.  The rows
    # are stored last to first, so rows b-1..0 give the block's sigmas
    # reversed, the order the update of y reads them in
    c = powers[:ORACLE_BLOCK] @ w_y
    first = np.ones(ORACLE_BLOCK)
    for j in range(1, ORACLE_BLOCK):
        first[j] = c[j - 1::-1] @ first[:j]
    flipped = np.zeros((ORACLE_BLOCK, ORACLE_BLOCK))
    for j in range(ORACLE_BLOCK):
        flipped[ORACLE_BLOCK - 1 - j, :j + 1] = first[j::-1]
    free = np.take(powers[1] ** steps, model.bin_index)
    outs = []
    for ghat in _real_parts(g.values):
        uhat, _ = model.project_ac_hat(ghat)
        p = model._bin_pair(uhat)
        y = np.zeros_like(p)
        for lo in range(0, steps, ORACLE_BLOCK):
            b = min(ORACLE_BLOCK, steps - lo)
            reversed_sigma = flipped[ORACLE_BLOCK - b:, :b] @ (powers[:b] @ (w_p * p + w_y * y))
            y *= powers[b]
            y += reversed_sigma @ powers[:b]
            p *= powers[b]
        outs.append(free * uhat + model._rank_one(r * y))
    return _from_parts(g.grid, *outs)
