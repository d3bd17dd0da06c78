"""The benchmark's correctness gates on their reference seed, run as tests.

``perfbench/workload.py``'s ``global_solve`` workload runs ``pideq simulate``
to T = 5 at n = 256 and compares the manifest rows with
``perfbench/reference.json`` at its ``TRAJECTORY_RTOL``; its ``verify``
workload runs the 9 checks of ``pideq verify`` at n = 256 and compares each
check's printed digits.  A change that moves either past its reference
fails here first.
"""

import json
import re
from pathlib import Path

from pideq import Grid, load_field
from pideq.cli import main
from pideq.verify import run_checks

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
# TRAJECTORY_RTOL of perfbench/workload.py
TRAJECTORY_RTOL = 1e-8
# the digit patterns of perfbench/workload.py's _printed_digits: slopes and
# r2 of the decay checks, errors and gain of the backward-Euler check
DIGIT_PATTERNS = (
    re.compile(r"slope (\S+) vs (\S+), r2 (\S+)$"),
    re.compile(r"error\(1000\) (\S+), error\(2000\) (\S+), gain (\S+)x$"),
)


def _printed_digits(detail):
    for pat in DIGIT_PATTERNS:
        m = pat.search(detail)
        if m:
            return list(m.groups())
    return None


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


def test_verify_matches_benchmark_reference():
    want = json.loads(REFERENCE.read_text())["verify"]
    results = run_checks(Grid(40.0, 256))
    assert sorted(r.name for r in results) == sorted(want) and len(results) == 9
    for r in results:
        assert r.passed, (r.name, r.detail)
        assert _printed_digits(r.detail) == want[r.name]["digits"], (r.name, r.detail)
