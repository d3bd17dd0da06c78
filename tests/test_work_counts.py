"""Work guards: the exact number of flow steps, forcings, coupling reads
and transforms one small global solve and one linear decay fit perform, the
memory one marched step allocates, and the one module that transforms.

A change that adds work per step moves these counts; it must re-pin them in
the same change and say why.
"""

import ast
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

from pideq import AlphaParams, DecomposedField, Grid, SolverConfig, gaussian_field
from pideq import solve_global_projected
from pideq.decay import run_gradient_decay, run_semigroup_decay
from pideq.semigroup import Flow, PointHeatModel

# Window 0 is probed (its linear start and 3 Picard sweeps of 50 steps) and
# window 1 is marched (one sweep): 250 flow steps and 200 forcings.  q is
# read once per new state (1 + 50 + 150 + 50), and the driver keeps it
# beside each of the 3 stored states.  A forcing is two irfft2 and one
# rfft2.  The rest are the datum's rfft2 and, per stored state, one irfft2
# for its phi and, for rho, two irfft2 for the forcing's samples of the
# held half spectrum.  (rho once re-entered the half spectrum from each
# finished state, one more rfft2 and one more q read per stored state.)
EXPECTED = {
    "Flow.apply": 250,
    "_forcing_hat": 200,
    "coupling_coefficient": 251,
    "_rfft2": 201,
    "_irfft2": 409,
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


def _two_window_solve():
    grid = Grid(40.0, 64)
    params = AlphaParams.for_alpha(0.0, 2)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), params
    )
    cfg = SolverConfig(T=2.0, dt=0.02)
    return lambda: solve_global_projected(u0, cfg)


def test_two_window_global_solve_work(monkeypatch):
    solve = _two_window_solve()
    solve()  # build the grid model and its members
    counts = Counter()
    _count(monkeypatch, counts)
    traj = solve()
    assert traj.diagnostics["iterations"] == [3, 0]
    assert dict(counts) == {"Flow()": 1, **EXPECTED}


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
    # From the start of one marched step (forcing, flow, coupling read and
    # the driver's H^1 proxy) to the start of the next, the traced peak
    # stays below 1.5 half spectra: the solve owns the forcing's, the
    # flow's and the proxy's arrays, and the march alternates two states.
    # Window ends copy their stored state and are left out.
    from pideq import solver

    sweep, peaks = solver._sweep, []

    def measured(*args, pair=None, **kwargs):
        steps = args[2]
        gen = sweep(*args, pair=pair, **kwargs)
        while True:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                j, uhat, q = next(gen)
            except StopIteration:
                return
            yield j, uhat, q
            if pair is not None and 2 < j < steps:
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
    assert len(peaks) == 47
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
