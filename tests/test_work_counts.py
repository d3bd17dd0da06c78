"""Work guards: the exact number of flow steps, forcings, coupling reads
and transforms one small global solve and one linear decay fit perform, the
memory one marched step and one residual check allocate and one grid model
retains, the psi samples no solve builds, and the one module that
transforms.

A change that adds work per step moves these counts; it must re-pin them in
the same change and say why.
"""

import ast
import math
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from pideq import AlphaParams, DecomposedField, Grid, SolverConfig, gaussian_field
from pideq import residual_check, solve_global_projected, solve_local
from pideq.decay import run_gradient_decay, run_semigroup_decay
from pideq.semigroup import Flow, PointHeatModel, grid_model

# Window 0 is probed and window 1 is marched (one sweep of 50 steps).  The
# probe advances its march (50 steps), the linear evolution (50) and three
# Picard iterates, which join at steps 1, 2 and 3, where they equal the
# march (49, 48 and 47 steps): 244 flow steps and 194 forcings, and 294
# with the marched window.  q is read once per new state (1 + 244 + 50),
# and the driver keeps it beside each of the 3 stored states.  A forcing is
# two irfft2 and one rfft2.  The rest are the datum's rfft2 and, per stored
# state, one irfft2 for its phi and, for rho, one forcing transform of the
# held half spectrum, whose <F, psi> is read off its bin pairing: 247
# forcings in all.
EXPECTED = {
    "Flow.apply": 294,
    "_forcing_hat": 247,
    "coupling_coefficient": 295,
    "_rfft2": 248,
    "_irfft2": 497,
}


def _count(monkeypatch, counts):
    def wrap(owner, attr, key):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    wrap(Flow, "__init__", "Flow()")
    wrap(Flow, "apply", "Flow.apply")
    wrap(PointHeatModel, "coupling_coefficient", "coupling_coefficient")
    wrap(sys.modules["pideq.solver"], "_forcing_hat", "_forcing_hat")
    # the transforms are bound by name in each module that calls them
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "pideq":
            for attr in ("_rfft2", "_irfft2"):
                if hasattr(module, attr):
                    wrap(module, attr, attr)


def _two_window_solve(a=(1.0, 0.0), alpha=0.0):
    grid = Grid(40.0, 64)
    params = AlphaParams.for_alpha(alpha, 2)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), params
    )
    cfg = SolverConfig(a=a, T=2.0, dt=0.02)
    return lambda: solve_global_projected(u0, cfg)


def test_two_window_global_solve_work(monkeypatch):
    # alpha = +inf, the free Laplacian, is zero-coupling data in the one grid
    # model, not a fork: its solve does exactly the work of the alpha = 0
    # one (a probe always runs its three iterates, so the iterates it
    # needed move no count), and its q, rho and psi pairings are 0
    counts = Counter()
    _count(monkeypatch, counts)
    for alpha, iterations in ((0.0, [2, 0]), (math.inf, [3, 0])):
        solve = _two_window_solve(alpha=alpha)
        solve()  # build the grid model and its members
        counts.clear()
        traj = solve()
        assert traj.diagnostics["iterations"] == iterations
        assert dict(counts) == {"Flow()": 1, **EXPECTED}
    assert not np.any(traj.rho) and traj.diagnostics["ortho_max"] == 0.0
    assert [st.coeff for st in traj.states] == [0.0] * 3


def test_unforced_global_solve_takes_no_forcing(monkeypatch):
    # a = 0 is decided once, by the driver: no sweep forces and rho is 0
    solve = _two_window_solve(a=(0.0, 0.0))
    solve()
    counts = Counter()
    _count(monkeypatch, counts)
    traj = solve()
    assert counts["_forcing_hat"] == 0
    assert traj.rho.shape == (3,) and not np.any(traj.rho)


def test_global_solve_samples_no_psi():
    # rho reads <F, psi> off the forcing transform's bin pairing, so a solve
    # never builds the model's psi samples; the grid is one no other test
    # builds
    grid = Grid(38.0, 64)
    params = AlphaParams.for_alpha(0.0, 2)
    u0 = DecomposedField.from_field(gaussian_field(grid, sigma=1.5, amplitude=0.02), params)
    model = grid_model(params, grid)
    assert "psi_values" not in model.__dict__
    traj = solve_global_projected(u0, SolverConfig(T=0.2, dt=0.02, window=0.1))
    assert traj.rho.size == 3
    assert "psi_values" not in model.__dict__


def test_residual_check_memory_is_flat_in_the_stored_states():
    # 101 stored states on Grid(40, 128), 133 kB of half spectrum each: the
    # check holds three states and a few lattice temporaries at a time
    grid = Grid(40.0, 128)
    params = AlphaParams.for_alpha(0.0, 2)
    u0 = DecomposedField.from_field(gaussian_field(grid, sigma=1.5, amplitude=0.01), params)
    cfg = SolverConfig(a=(0.0, 0.0), T=1.0, dt=0.01)
    traj = solve_local(u0, cfg)
    assert len(traj.states) == 101
    residual_check(traj, cfg)  # build the grid model's members
    tracemalloc.start()
    try:
        residual_check(traj, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    half_spectrum = 128 * 65 * 16
    assert peak < 20 * half_spectrum


MODEL_BYTES = 946_900
"""Bytes a grid model on ``Grid(40, 128)`` retains with its drift parts and H^1 kernel."""


def test_grid_model_memory_is_pinned():
    # Traced with tracemalloc: the half-spectrum arrays xi2, bin_index,
    # delta_hat (the one complex rank-one array) and its two pairing planes,
    # the drift corrections (two real n x n), the H^1 kernel (a real and a
    # complex half spectrum) and the bin profiles.  psi_hat and G_omega_hat
    # are delta_hat times bin profiles, formed where used; caching them as
    # well read 1,200,256 bytes.  Any further cached lattice array (66.6 kB
    # for a real half spectrum here) moves the count past its 5 % band.
    params = AlphaParams.for_alpha(0.0, 2)
    tracemalloc.start()
    try:
        model = PointHeatModel(params, Grid(40.0, 128))
        model.drift_parts, model.h1_kernel
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(retained - MODEL_BYTES) <= 0.05 * MODEL_BYTES, retained


def test_linear_fit_work(monkeypatch):
    # 16 times: per t one flow built over the last and one apply, then one
    # irfft2 of the flowed half spectrum (two for the gradient); once per
    # fit the datum's rfft2 and the irfft2 that builds it
    grid = Grid(40.0, 64)
    run_semigroup_decay(grid, q=2.0, p=4.0)  # build the grid model
    counts = Counter()
    _count(monkeypatch, counts)
    run_semigroup_decay(grid, q=2.0, p=4.0)
    assert dict(counts) == {"Flow()": 16, "Flow.apply": 16, "_rfft2": 1, "_irfft2": 17}
    counts.clear()
    run_gradient_decay(grid, q=4.0 / 3.0, p=1.5)
    assert dict(counts) == {"Flow()": 16, "Flow.apply": 16, "_rfft2": 1, "_irfft2": 33}


def test_marched_step_allocates_no_lattice_array(monkeypatch):
    # From the start of one march step (forcing, flow, coupling read and the
    # driver's H^1 proxy) to the start of the next, the traced peak stays
    # below 1.5 half spectra: the solve owns the forcing's, the flow's and
    # the proxy's arrays, and a sweep steps one array in place.  The march
    # inside window 0's probe counts too: between two of its steps the
    # linear evolution and three Picard iterates step and five proxies run.
    # The first steps, where the iterates join the probe from copies, are
    # left out.
    from pideq import solver

    sweep, peaks = solver._sweep, []

    def measured(flow, start, steps, force=None, drive=None):
        gen = sweep(flow, start, steps, force, drive)
        marched = force is not None and drive is None
        while True:
            if marched:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                j, uhat, q = next(gen)
            except StopIteration:
                return
            yield j, uhat, q
            if marched and solver.PROBE_ITERATES < j < steps:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

    solve = _two_window_solve()
    solve()
    monkeypatch.setattr(solver, "_sweep", measured)
    tracemalloc.start()
    try:
        solve()
    finally:
        tracemalloc.stop()
    half_spectrum = 64 * 33 * 16
    assert len(peaks) == 2 * 46
    assert statistics.median(peaks) < 1.5 * half_spectrum
    assert max(peaks) < 1.5 * half_spectrum


def test_fields_is_the_only_transforming_module():
    # every transform goes through fields._rfft2 and fields._irfft2, where
    # their out= buffers and the counts above see it; fftfreq is no transform
    src = Path(__file__).resolve().parents[1] / "src" / "pideq"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
                names = [a.name for a in node.names if not a.name.endswith("freq")]
            elif isinstance(node, ast.Attribute) and _is_fft_module(node.value):
                names = [] if node.attr.endswith("freq") else [node.attr]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert offenders == []


def _is_fft_module(node):
    """Whether node names numpy's fft module: ``fft``, ``np.fft`` or ``numpy.fft``."""
    if isinstance(node, ast.Name):
        return node.id == "fft"
    return (
        isinstance(node, ast.Attribute) and node.attr == "fft"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    )
