"""The benchmark's correctness gate on its reference seed, run as a test.

``perfbench/workload.py``'s ``global_solve`` workload runs ``pideq simulate``
to T = 5 at n = 256 and compares the manifest rows with
``perfbench/reference.json`` at its ``TRAJECTORY_RTOL``; a change that moves
the solver's outputs past that tolerance fails here first.
"""

import json
from pathlib import Path

from pideq import Grid, load_field
from pideq.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# TRAJECTORY_RTOL of perfbench/workload.py
TRAJECTORY_RTOL = 1e-8


def test_global_solve_matches_benchmark_reference(tmp_path):
    argv = [
        "simulate", "--T", "5", "--dt", "0.02", "--tol", "1e-10",
        "--grid-n", "256", "--grid-L", "40", "--snapshots",
        "--u0", "gaussian:1.5,0.02,1.0,0.5", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    want = json.loads(REFERENCE.read_text())["global_solve"]["rows"]
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,l2,l4,grad_l32,q_abs,rho"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [r[0] for r in want]
    for k, (row, ref) in enumerate(zip(rows, want)):
        for got, exp in zip(row[1:], ref[1:]):
            assert abs(got - exp) <= TRAJECTORY_RTOL * max(abs(got), abs(exp)), (row, ref)
        assert load_field(tmp_path / f"state_{k:05d}.pidf").grid == Grid(40.0, 256)
