"""Work-count guard: the exact number of flow steps, forcings, coupling reads
and transforms one small global solve performs.

A change that adds work per step moves these counts; it must re-pin them in
the same change and say why.
"""

import sys
from collections import Counter

from pideq import AlphaParams, DecomposedField, Grid, SolverConfig, gaussian_field
from pideq import solve_global_projected
from pideq.semigroup import Flow, PointHeatModel

# Window 0 is probed (its linear start and 3 Picard sweeps of 50 steps) and
# window 1 is marched (one sweep): 250 flow steps and 200 forcings.  q is
# read once per new state (1 + 50 + 150 + 50) and once per stored state (3).
# A forcing is two irfft2 and one rfft2.  The rest are the datum's rfft2
# and, per stored state, one irfft2 for its phi and, for rho, one rfft2 back
# to the half spectrum and two irfft2 for the forcing's samples.
EXPECTED = {
    "Flow.apply": 250,
    "_forcing_hat": 200,
    "coupling_coefficient": 254,
    "_rfft2": 204,
    "_irfft2": 409,
}


def _count(monkeypatch, counts):
    def wrap(owner, attr, key):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    wrap(Flow, "apply", "Flow.apply")
    wrap(PointHeatModel, "coupling_coefficient", "coupling_coefficient")
    wrap(sys.modules["pideq.solver"], "_forcing_hat", "_forcing_hat")
    # the transforms are bound by name in each module that calls them
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "pideq":
            for attr in ("_rfft2", "_irfft2"):
                if hasattr(module, attr):
                    wrap(module, attr, attr)


def test_two_window_global_solve_work(monkeypatch):
    grid = Grid(40.0, 64)
    params = AlphaParams.for_alpha(0.0, 2)
    u0 = DecomposedField.from_field(
        gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), params
    )
    cfg = SolverConfig(T=2.0, dt=0.02)
    solve_global_projected(u0, cfg)  # build the grid model and its members
    counts = Counter()
    _count(monkeypatch, counts)
    traj = solve_global_projected(u0, cfg)
    assert traj.diagnostics["iterations"] == [3, 0]
    assert dict(counts) == EXPECTED
