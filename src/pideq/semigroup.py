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
Talbot rule agrees to 2e-11 and 1.4e-9.

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
half spectrum (``spectral._real_parts``), and joins the two outputs as real
and imaginary parts.  R(lambda) at complex lambda is not
real: its half-spectrum form returns the real and imaginary parts of
R(lambda) g for a real g, and the resolvent of a complex g combines them.
"""

import cmath
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy import fft

from .errors import BranchCutError, ContourError, PoleError
from .fields import Field, _irfft2, _rfft2, lp_norm
from .spectral import _hermitian_weights, _real_parts, green_field, reference_lambda

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

TALBOT_NODES = 32
"""Node count of the Talbot rule of every flow without an explicit contour."""

CHUNK = TALBOT_NODES // 2
"""Nodes per block of resolvent rows: the folded Talbot rule, which a flow keeps whole."""

MAX_EXP = math.log(sys.float_info.max)
"""Largest E t whose full-flow growth exp(E t) is a finite double (about 709.78)."""

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
        if not math.isfinite(self.truncation):
            raise ContourError(f"ray truncation must be finite; got {self.truncation}")
        for name in ("nodes_ray", "nodes_arc"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ContourError(f"{name} must be an integer; got {value!r}")
        if self.truncation <= self.epsilon:
            raise ContourError("ray truncation must exceed the arc radius")
        if self.nodes_ray < 32 or self.nodes_arc < 32:
            raise ContourError("node counts must be at least 32")

    @classmethod
    def for_time(cls, params, t):
        """Base cut-hugging contour for time t: radius min(E/2, 1/t), cutoff ~50/t.

        Explicit contours (cross-checks, the CLI's ``--contour-eps`` and
        ``--nodes``) start from it; the default flow uses the Talbot rule.

        The cutoff is capped at 2.5e4; below t ~ 2e-3 the neglected ray tail
        is still under exp(-50) relative to the (O(t)-small) correction.
        The ray node count grows like 1/sqrt(radius): the integrand
        varies on the radius scale along the rays, so small eigenvalues
        (which force a small radius) need proportionally more nodes.
        """
        ev = params.eigenvalue
        if ev is None or ev <= 0:
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
        return _contour_nodes(self)


@lru_cache(maxsize=32)
def _contour_nodes(spec):
    eps, S = spec.epsilon, spec.truncation
    panels = 4
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


def _field(grid, re_hat, im_hat=None):
    """The Field whose real part has half spectrum re_hat and imaginary part im_hat."""
    values = _irfft2(re_hat)
    if im_hat is not None:
        values = values + 1j * _irfft2(im_hat)
    return Field(grid, values)


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
    """

    def __init__(self, params, grid):
        if params.dimension != 2:
            raise ValueError("grid operators are implemented for dimension 2")
        if params.eigenvalue is None or params.eigenvalue <= 0.0:
            raise ValueError("grid operator requires a positive eigenvalue")
        self.params = params
        self.grid = grid
        self.E = params.eigenvalue
        n = grid.n
        m = n // 2 + 1
        XI1, XI2 = grid.wavenumbers()
        self.xi2 = np.ascontiguousarray(grid.wavenumber_sq()[:, :m])
        # lattice Parseval weight: <f,g> h^2 = wlat * sum fhat conj(ghat)
        self.wlat = grid.cell_area / n ** 2
        # the real derivative has no mode on its own axis' Nyquist line,
        # where the full-lattice derivative of a real field is imaginary
        d1 = 1j * XI1[:, :1]
        d2 = 1j * XI2[:1, :m]
        d1[n // 2, 0] = 0.0
        d2[0, -1] = 0.0
        self.derivative = (d1, d2)

        sq_ev = math.sqrt(self.E)
        if sq_ev * grid.spacing > MAX_KERNEL_DECAY:
            raise ValueError(
                f"alpha = {params.alpha}: its eigenvalue E = {self.E:.3e} is beyond this grid: "
                f"sqrt(E) h = {sq_ev * grid.spacing:.3g} exceeds {MAX_KERNEL_DECAY:g}, where the "
                "sampled kernel G_E underflows; raise alpha or refine the grid"
            )
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

        # integer |k|^2 binning of the half lattice (exact); it holds every
        # |k|^2 of the full lattice, so the bins are the full lattice's
        k = fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        ksq = (k[:, None] ** 2 + k[None, :m] ** 2).ravel()
        self.bin_values, bin_index = np.unique(ksq, return_inverse=True)
        self.bin_index = bin_index.reshape(n, m)
        dxi = 2.0 * np.pi / (2.0 * grid.half_width)
        self.rho = self.bin_values * dxi ** 2  # |xi|^2 per bin

        gE = green_field(self.E, grid, method="direct")
        self.green_ref_norm = lp_norm(gE, 2)
        self.psi_hat = _rfft2(gE.values) / self.green_ref_norm
        self.delta_hat = (self.E + self.xi2) * self.psi_hat * self.green_ref_norm
        self.weights = _hermitian_weights(n)
        self.delta_sq_bins = np.bincount(
            bin_index, weights=(np.abs(self.delta_hat) ** 2 * self.weights).ravel()
        )
        self.S_at_E = self._lattice_sum(self.E)

        self.omega = reference_lambda(params)
        self.green_omega_hat = self.delta_hat / (self.omega + self.xi2)
        # psi_hat = delta_hat * psi_bins[bin], so psi's bin pairing is psi_pair
        self.psi_bins = 1.0 / ((self.E + self.rho) * self.green_ref_norm)
        self.psi_pair = self.psi_bins * self.delta_sq_bins

        wdelta = self.delta_hat * self.weights
        self.pairing = (np.ascontiguousarray(wdelta.real), np.ascontiguousarray(wdelta.imag))

    # -- scalar lattice functions --------------------------------------------

    def _lattice_sum(self, lam):
        return self.wlat * np.sum(self.delta_sq_bins / (lam + self.rho))

    def denominator(self, lam):
        """Lattice-consistent alpha + c(lambda); vanishes exactly at E."""
        return self.S_at_E - self._lattice_sum(lam)

    # -- pairings --------------------------------------------------------------

    def _bin_pair(self, ghat):
        """Bin sums of Re(ghat conj(delta_hat)) w: one bincount of the weighted real products."""
        w_re, w_im = self.pairing
        prod = ghat.real * w_re
        prod += ghat.imag * w_im
        return np.bincount(self.bin_index.ravel(), weights=prod.ravel())

    def coupling_coefficient(self, ghat):
        """Kernel coefficient <g, delta>/S(E) of the domain decomposition.

        For u in the model's domain, u - coupling_coefficient(u) G_omega has
        (omega - Laplacian)-image equal to (omega - A) u; this is the exact
        grid analogue of reading the singular coefficient off the boundary
        condition at the interaction point.
        """
        return self.wlat * _dot(ghat, self.delta_hat) / self.S_at_E

    def project_ac_hat(self, ghat):
        """(P_ac g half spectrum, <g, psi>)."""
        coef = self.wlat * _dot(ghat, self.psi_hat)
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
        rows.  Each call allocates one min(chunk, nodes) x bins buffer and
        fills every block into it in place, so a yielded block is valid only
        until the next one is requested, and memory stays at one block
        however long the rule.  A rule of one block gets the whole buffer,
        which no later call touches.
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
        """L^2 norm of the real field with this half spectrum."""
        return math.sqrt(self.wlat * _dot(hat_values, hat_values))


@lru_cache(maxsize=4)
def grid_model(params, grid):
    """Cached PointHeatModel for a (params, grid) pair."""
    return PointHeatModel(params, grid)


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
            sigma, swts = _talbot_nodes(TALBOT_NODES)
            nodes, weights = sigma / t, (swts / t) * np.exp(sigma)
        else:
            contour.validate(model.params)
            nodes, wts = contour.nodes()
            w = np.exp(t * nodes)
            # When the contour covers the whole lattice spectrum, the exact
            # vanishing of the t = 0 moment of the rank-one integrand cancels
            # the quadrature error of the spectrally flat part (the weight
            # becomes e^{t lambda} - 1).  This keeps micro-steps accurate,
            # where the true correction is O(t) but the raw integrand is O(1).
            if contour.truncation >= 3.0 * float(model.rho[-1]):
                w = w - 1.0
            weights = wts * w / (2j * np.pi)
        self.nodes, self.weights = _fold(nodes, weights)
        self.heat = np.exp(-t * model.xi2)
        self._chunks = (
            list(model._node_chunks(self.nodes, self.weights, CHUNK))
            if self.nodes.size <= CHUNK else None
        )
        # the eigenmode's bin profile per unit <g, psi>: the projection's
        # -e^{-t rho} psi and the full flow's e^{tE} psi
        growth = math.exp(model.E * t) if full else 0.0
        self._eig_profile = (growth - np.exp(-t * model.rho)) * model.psi_bins

    def apply(self, ghat):
        """The evolved half spectrum of the real field with half spectrum ghat.

        With c = <g, psi> = wlat psi_bins . bp read off the bin pairing bp
        of g, the projected pairing is bp - c psi_bins |delta|^2_bins, and
        the projection's -c e^{-t rho} psi and the full flow's
        c e^{tE} psi join the correction's bin profile, since psi_hat is
        delta_hat times the bin profile psi_bins: the output is
        heat g_hat + delta_hat V[bin], with no projected copy of g.
        """
        m = self.model
        bpair = m._bin_pair(ghat)
        coef = m.wlat * np.dot(bpair, m.psi_bins)
        bpair -= coef * m.psi_pair
        chunks = self._chunks or m._node_chunks(self.nodes, self.weights, CHUNK)
        prof = m.correction(bpair, chunks).real
        prof += coef * self._eig_profile
        out = self.heat * ghat
        out += m.delta_hat * np.take(prof, m.bin_index)
        return out


def _check_lambda(lam, params):
    z = complex(lam)
    if not cmath.isfinite(z):
        raise ValueError(f"resolvent argument lambda must be finite; got {lam}")
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
    return _field(g.grid, re, im)


def _check_time(name, t):
    if not math.isfinite(t):
        raise ValueError(f"{name} requires a finite t; got {t}")
    if t <= 0:
        raise ValueError(f"{name} requires t > 0")


def _public_flow(name, t, g, params, contour, full=False):
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
        field=_field(g.grid, *outs),
        free_part_norm=math.hypot(*map(model.l2_hat, frees)),
        correction_norm=math.hypot(*(model.l2_hat(o - f) for o, f in zip(outs, frees))),
        imag_residue=imag / gnorm if gnorm > 0 else 0.0,
    )


def semigroup_full(t, g, params, contour=None):
    """Full flow: projected semigroup plus the explicit eigenmode e^{tE}."""
    flow = _public_flow("semigroup_full", t, g, params, contour, full=True)
    return _field(g.grid, *(flow.apply(ghat) for ghat in _real_parts(g.values)))


def semigroup_gradient_pac(t, g, params, contour=None):
    """Gradient of the projected flow, evaluated spectrally.

    Commutes exactly with :func:`semigroup_pac` on the grid (both act by
    multipliers on the same transform).  The derivative is the real one,
    zero on each axis' Nyquist line, so the gradient of a real datum is
    real.  Not available in 3D, where the kernel gradient fails to be
    q-integrable against any admissible pair.
    """
    if params.dimension == 3:
        raise ValueError("semigroup gradient is not available in dimension 3")
    flow = _public_flow("semigroup_gradient_pac", t, g, params, contour)
    outs = [flow.apply(ghat) for ghat in _real_parts(g.values)]
    return tuple(_field(g.grid, *(d * out for out in outs)) for d in flow.model.derivative)


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
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 10:
        raise ValueError(f"backward_euler_oracle requires an integer steps >= 10; got {steps!r}")
    _check_time("backward_euler_oracle", t)
    lam = steps / t
    ev = params.eigenvalue or 0.0
    if abs(lam - ev) <= 1e-9 * max(1.0, ev):
        steps += 1
        lam = steps / t
        warnings.warn("resolvent shift hit the eigenvalue; stepping count bumped by one")
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
    return _field(g.grid, *outs)
