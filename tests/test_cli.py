"""Command-line surface: config grammar, subcommands, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pideq
from pideq import Grid, gaussian_field, save_field
from pideq import verify as verify_mod
from pideq.cli import main, read_config


def test_config_grammar(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.25\ngrid_n = 128\n# comment\n\ndt = 0.05\n")
    values = read_config(cfg)
    assert values == {"alpha": 0.25, "grid_n": 128, "dt": 0.05}
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    with pytest.raises(ValueError):
        read_config(bad)


def test_spectral_subcommand(capsys):
    assert main(["spectral", "--alpha", "0.0", "--lambdas", "1,2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "alpha,dimension,eigenvalue,psi_norm"
    row = out[1].split(",")
    assert abs(float(row[2]) - 1.2609470067487736) < 1e-12
    assert out[2] == "lambda,c_re,c_im"
    assert len(out) == 5


def test_spectral_subcommand_alpha_inf(capsys):
    # the free Laplacian has no eigenvalue and no psi norm; the c table stays
    assert main(["spectral", "--alpha", "inf", "--lambdas", "1,2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[1] == "inf,2,none,none"
    assert out[2] == "lambda,c_re,c_im"
    assert len(out) == 5
    # nan and -inf are no coupling: one error line, exit 2
    for bad in ("nan", "-inf"):
        assert main(["spectral", f"--alpha={bad}"]) == 2
        err = capsys.readouterr().err
        assert err == f"pideq: error: alpha must lie in (-inf, +inf]; got {bad}\n"


def test_simulate_rejects_nonfinite_drift(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    argv = ["--out", str(tmp_path), "simulate", "--ax", "nan", "--grid-n", "16"]
    proc = subprocess.run(
        [sys.executable, "-m", "pideq.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "two finite real numbers" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["semigroup", "--t", "0.001"], "below the supported minimum"),
        (["simulate", "--T", "0.05", "--dt", "0.02"], "integer multiple of dt"),
        (["simulate", "--alpha", "inf"], "positive eigenvalue"),
        (["simulate", "--gamma", "inf"], "gamma must be a finite number"),
        (["semigroup", "--t", "inf"], "semigroup_pac requires a finite t"),
        (["semigroup", "--t", "nan"], "semigroup_pac requires a finite t"),
        (["resolve", "--lambda", "nan"], "lambda must be finite"),
        (["resolve", "--lambda", "inf"], "lambda must be finite"),
        (["semigroup", "--u0", "nosuchfile"], "No such file"),
        (["--config", "nosuch.cfg", "semigroup"], "No such file"),
        (["semigroup", "--alpha", "nan"], "alpha must lie in (-inf, +inf]; got nan"),
        (["resolve", "--alpha=-inf"], "alpha must lie in (-inf, +inf]; got -inf"),
        (["semigroup", "--u0", "gaussian:-1"], "gaussian sigma must be a finite number > 0"),
        (["resolve", "--u0", "gaussian:2,nan"], "gaussian amplitude must be a finite number"),
    ],
)
def test_input_errors_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # an input the library rejects, or a file that cannot be read, is one
    # stderr line and exit code 2
    monkeypatch.chdir(tmp_path)
    assert main(["--out", str(tmp_path), *argv, "--grid-n", "64"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pideq: error: ") and message in err
    assert err.count("\n") == 1


def test_input_error_has_no_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    for argv in (
        ["resolve", "--lambda", "-1"],
        ["verify", "--grid-n", "100"],
        ["semigroup", "--u0", "nosuchfile"],
        ["--config", "nosuch.cfg", "spectral"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "pideq.cli", "--out", str(tmp_path), *argv],
            env=env, capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("pideq: error: ") and "Traceback" not in proc.stderr


def test_semigroup_subcommand(tmp_path, capsys):
    code = main(
        [
            "--out",
            str(tmp_path),
            "semigroup",
            "--t",
            "1.0",
            "--grid-n",
            "128",
            "--u0",
            "gaussian:2,1",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("free_part_norm,")
    assert (tmp_path / "semigroup.csv").exists()
    header = (tmp_path / "semigroup.csv").read_text().split("\n", 1)[0]
    assert header == "x,y,re,im"


def test_semigroup_subcommand_critical_datum(tmp_path):
    # 'critical' is a make_datum descriptor, not a file name
    code = main(
        ["--out", str(tmp_path), "semigroup", "--u0", "critical", "--grid-n", "64", "--t", "1"]
    )
    assert code == 0
    assert (tmp_path / "semigroup.csv").exists()


def test_simulate_subcommand(tmp_path):
    code = main(
        [
            "--out",
            str(tmp_path),
            "simulate",
            "--T",
            "0.1",
            "--dt",
            "0.02",
            "--grid-n",
            "128",
            "--u0",
            "gaussian:1.5,0.02,1.0,0.5",
        ]
    )
    assert code == 0
    rows = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert rows[0] == "t,l2,l4,grad_l32,q_abs,rho"
    last = rows[-1].split(",")
    assert abs(float(last[0]) - 0.1) < 1e-12
    assert float(last[1]) > 0


def test_simulate_unprojected(tmp_path):
    def run(*flags):
        out = tmp_path / ("unprojected" if flags else "projected")
        argv = ["--out", str(out), "simulate", "--T", "0.1", "--dt", "0.02", "--grid-n", "128"]
        assert main(argv + ["--u0", "gaussian:1.5,0.02,1.0,0.5", *flags]) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
        return [[float(v) for v in line.split(",")] for line in lines]

    local = run("--unprojected")
    projected = run()
    assert all(row[5] == 0.0 for row in local)
    # P_ac removes the datum's nonzero eigencomponent, so the projected start is smaller
    assert local[0][1] > projected[0][1]


def test_config_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.0\n")
    assert main(["--config", str(cfg), "spectral", "--alpha", "0.0"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert float(out[1].split(",")[0]) == 0.0


def test_decay_subcommand(tmp_path):
    code = main(["--out", str(tmp_path), "decay", "--grid-n", "128"])
    assert code == 0
    report = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert report[0] == "kind,p,q,h1,h2,slope,theoretical,delta,r2,n,L"
    kinds = [row.split(",")[0] for row in report[1:]]
    assert kinds == ["semigroup", "gradient"]
    sem = report[1].split(",")
    assert abs(float(sem[6]) + 0.25) < 1e-12  # theoretical column
    assert abs(float(sem[5]) + 0.25) < 0.05  # fitted slope at n = 128


def test_verify_subcommand(capsys):
    assert main(["verify", "--grid-n", "128"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9
    assert "9/9 checks passed" in out


def test_verify_grid_flags(tmp_path, monkeypatch):
    # each grid value falls back to DEFAULT_GRID's on its own, from a flag or the config
    grids = []
    monkeypatch.setattr(verify_mod, "run_checks", lambda grid: grids.append(grid) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_L = 20\n")
    assert main(["verify", "--grid-L", "20"]) == 0
    assert main(["--config", str(cfg), "verify"]) == 0
    assert main(["verify"]) == 0
    assert grids == [Grid(20.0, 512), Grid(20.0, 512), verify_mod.DEFAULT_GRID]


def _resolve_l2(tmp_path, capsys, u0):
    assert main(["--out", str(tmp_path), "resolve", "--grid-n", "64", "--u0", u0]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    return float(lines[1].split(",")[1])


def test_datum_descriptor_and_file(tmp_path, capsys):
    # 'gaussian:...' is a descriptor; a file whose name merely starts with
    # 'gaussian' is a saved field and must be read as one
    path = tmp_path / "gaussian_state.pidf"
    save_field(gaussian_field(Grid(40.0, 64), sigma=3.0, amplitude=2.0), path)
    from_descriptor = _resolve_l2(tmp_path, capsys, "gaussian:3,2")
    from_file = _resolve_l2(tmp_path, capsys, str(path))
    default = _resolve_l2(tmp_path, capsys, "gaussian")
    assert abs(from_file - from_descriptor) <= 1e-6 * from_descriptor
    assert abs(default - from_descriptor) > 0.1 * from_descriptor
    # a saved field on another grid is a rejected input like any other
    assert main(["--out", str(tmp_path), "resolve", "--u0", str(path), "--grid-n", "128"]) == 2
    assert "does not match requested grid" in capsys.readouterr().err


def test_run_paths_do_not_import_scipy_integrate():
    # the closed forms of the three scalar integrals keep scipy.integrate
    # (and the scipy.optimize / scipy.linalg it pulls in) out of every run
    script = """
import sys
import pideq
from pideq import cli, verify
verify.run_checks(pideq.Grid(40.0, 64))
params = pideq.AlphaParams.for_alpha(0.0, 2)
u0 = pideq.DecomposedField.from_field(
    pideq.gaussian_field(pideq.Grid(40.0, 64), sigma=1.5, amplitude=0.02), params
)
pideq.solve_global_projected(u0, pideq.SolverConfig(T=0.04, dt=0.02))
cli.main(["spectral"])
assert "scipy.integrate" not in sys.modules, "scipy.integrate imported"
"""
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_run_paths_run_without_scipy(tmp_path):
    # every run path needs numpy alone: with each scipy import refused, the
    # package, the verify checks, a projected solve and five subcommands run
    script = """
import sys
from importlib.abc import MetaPathFinder


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import pideq
from pideq import cli, verify

# at n = 64 contour independence misses its 1e-6 gate; no check may raise
results = verify.run_checks(pideq.Grid(40.0, 64))
assert not [r.detail for r in results if r.detail.startswith("raised")]
params = pideq.AlphaParams.for_alpha(0.0, 2)
u0 = pideq.DecomposedField.from_field(
    pideq.gaussian_field(pideq.Grid(40.0, 64), sigma=1.5, amplitude=0.02), params
)
pideq.solve_global_projected(u0, pideq.SolverConfig(T=0.04, dt=0.02))
for argv in (["spectral"], ["semigroup"], ["resolve"], ["simulate", "--T", "0.1"], ["decay"]):
    grid = [] if argv == ["spectral"] else ["--grid-n", "64"]
    code = cli.main(["--out", sys.argv[1], *argv, *grid])
    assert code == 0, (argv, code)
assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"]
"""
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_spectral_rejects_alpha_without_normal_eigenvalue(capsys):
    # alpha = 300 once printed eigenvalue 0 and psi_norm none, and exited 0
    assert main(["spectral", "--alpha", "300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pideq: error: alpha = 300.0 has the eigenvalue E = 0.0")
    assert err.count("\n") == 1


def _trajectory(out):
    lines = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def test_simulate_resumes_from_snapshot(tmp_path, capsys):
    # each snapshot holds phi, q, alpha and t; a run resumed from its t = 2
    # snapshot continues the times and reproduces t = 3..5 (its first window
    # is probed where the whole run marched, so not bit for bit)
    from pideq import load_state

    run = ["simulate", "--dt", "0.02", "--tol", "1e-10", "--grid-n", "64", "--snapshots"]
    assert main(["--out", str(tmp_path / "full"), *run, "--T", "5"]) == 0
    full = _trajectory(tmp_path / "full")
    snap = tmp_path / "full" / "state_00002.pidf"
    state, t = load_state(snap)
    assert t == 2.0 and abs(state.coeff) == full[2][4]
    assert main(["--out", str(tmp_path / "resumed"), *run, "--T", "3", "--u0", str(snap)]) == 0
    resumed = _trajectory(tmp_path / "resumed")
    assert [row[0] for row in resumed] == [2.0, 3.0, 4.0, 5.0]
    for a, b in zip(resumed[1:], full[3:]):
        assert all(abs(x - y) <= 1e-9 * abs(y) for x, y in zip(a, b))
    assert load_state(tmp_path / "resumed" / "state_00003.pidf")[1] == 5.0
    # a state of another alpha is refused
    argv = ["--out", str(tmp_path / "x"), *run, "--T", "1", "--alpha", "0.1", "--u0", str(snap)]
    assert main(argv) == 2
    assert "has alpha = 0.0; the run has alpha = 0.1" in capsys.readouterr().err


def test_real_csv_keeps_zero_im_column(tmp_path):
    # a real result is written with its im column as 0, byte for byte the
    # CSV of the same values held as complex128
    import io

    from pideq import AlphaParams, krein_resolvent, semigroup_pac
    from pideq.fields import Field, field_to_csv

    grid = Grid(40.0, 64)
    params = AlphaParams.for_alpha(0.0, 2)
    g = gaussian_field(grid, sigma=2.0, amplitude=1.0)
    cases = (
        (["semigroup", "--t", "1"], "semigroup.csv", semigroup_pac(1.0, g, params).field),
        (["resolve", "--lambda", "2"], "resolvent.csv", krein_resolvent(2.0, g, params)),
    )
    for argv, name, field in cases:
        assert field.values.dtype == np.float64
        assert main(["--out", str(tmp_path), *argv, "--grid-n", "64"]) == 0
        ref = io.StringIO()
        field_to_csv(Field(grid, field.values.astype(np.complex128)), ref)
        text = (tmp_path / name).read_text()
        assert text == ref.getvalue()
        assert all(row.endswith(",0.0000000000000000e+00") for row in text.split("\n")[1:-1])
