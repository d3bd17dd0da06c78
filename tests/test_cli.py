"""Command-line surface: config grammar, subcommands, exit codes."""

import builtins
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pideq
from pideq import Grid, gaussian_field, save_field
from pideq import verify as verify_mod
from pideq.cli import _read_u0, main, read_config


def test_config_grammar(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.25\ngrid_n = 128\n# comment\n\ndt = 0.05\n")
    values = read_config(cfg)
    assert values == {"alpha": 0.25, "grid_n": 128, "dt": 0.05}
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    with pytest.raises(ValueError):
        read_config(bad)
    # a value of the wrong type names the file, the line and the key
    bad.write_text("alpha = 0\n\ngrid_n = 128.0\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:3: grid_n must be an integer; got '128\.0'"):
        read_config(bad)
    bad.write_text("dt = fast\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1: dt must be a number; got 'fast'"):
        read_config(bad)


def test_config_line_without_equals_names_its_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha = 0\nalpha 0.5\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: expected 'key = value'"):
        read_config(bad)


def test_a_check_that_raises_is_a_failed_check():
    def crash():
        raise RuntimeError("boom")

    results = []
    verify_mod._check("crash", crash, results)
    [res] = results
    assert (res.name, res.passed, res.detail) == ("crash", False, "raised RuntimeError: boom")
    assert res.seconds >= 0.0


def test_simulate_window_is_whole_steps(tmp_path, capsys):
    # simulate stores unit times: at dt = 0.03 a run past T = 1 has no
    # whole-step window and exits 2, and a run to T = 0.99 is one window
    argv = ["--out", str(tmp_path), "simulate", "--dt", "0.03", "--grid-n", "32", "--grid-L", "8"]
    assert main([*argv, "--T", "3"]) == 2
    assert capsys.readouterr().err == (
        "pideq: error: window = 1.0 must be an integer multiple of dt = 0.03\n"
    )
    assert main([*argv, "--T", "0.99"]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx([0.0, 0.99], abs=1e-12)


def test_spectral_subcommand(capsys):
    assert main(["spectral", "--alpha", "0.0", "--lambdas", "1,2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "alpha,dimension,eigenvalue,psi_norm"
    row = out[1].split(",")
    assert abs(float(row[2]) - 1.2609470067487736) < 1e-12
    assert out[2] == "lambda,c_re,c_im"
    assert len(out) == 5


SPECTRAL_DEFAULT = """\
alpha,dimension,eigenvalue,psi_norm
0.0000000000000000e+00,2,1.2609470067487736e+00,2.5121562644357126e-01
lambda,c_re,c_im
2.5000000000000000e-01,-1.2876887385349761e-01,0.0000000000000000e+00
5.0000000000000000e-01,-7.3609973815334698e-02,0.0000000000000000e+00
1.0000000000000000e+00,-1.8451073777171801e-02,0.0000000000000000e+00
2.0000000000000000e+00,3.6707826260991096e-02,0.0000000000000000e+00
4.0000000000000000e+00,9.1866726299153989e-02,0.0000000000000000e+00
8.0000000000000000e+00,1.4702562633731689e-01,0.0000000000000000e+00
"""


def test_spectral_output_bytes(capsys):
    # the whole default output, pinned: the header keeps its dimension
    # column, which reads 2 (the model is planar)
    assert main(["spectral"]) == 0
    assert capsys.readouterr().out == SPECTRAL_DEFAULT


def test_spectral_writes_nothing_before_an_error(capsys):
    # every c(lambda) is computed before the first line: a rejected lambda
    # once came after the header and the rows before it
    assert main(["spectral", "--lambdas", "1,nan"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("pideq: error: ") and err.count("\n") == 1


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
        (["semigroup", "--t", "1e-320"], "below the supported minimum"),
        (["simulate", "--T", "0.05", "--dt", "0.02"], "integer multiple of dt"),
        (["simulate", "--alpha", "nan"], "alpha must lie in (-inf, +inf]; got nan"),
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
        (["resolve", "--u0", "gaussian:2,1,nan,0"], "gaussian center must be two finite real"),
        (["simulate", "--T", "3", "--dt", "0.03"], "window = 1.0 must be an integer multiple"),
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--grid-n", "128.0"], "argument --grid-n: invalid int value: '128.0'"),
        (["simulate", "--alpha", "x"], "argument --alpha: invalid float value: 'x'"),
        # the cut-hugging contour's --nodes and --contour-eps, and the
        # no-op --projected, are no settings
        (["semigroup", "--nodes", "1.5"], "unrecognized arguments: --nodes 1.5"),
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["--bogus", "spectral"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
        (["--config", "nosuch.cfg", "simulate", "--dt", "x"], "argument --dt: invalid float"),
        (["semigroup", "--contour-eps", "0.1"], "unrecognized arguments: --contour-eps 0.1"),
        (["simulate", "--projected"], "unrecognized arguments: --projected"),
    ],
)
def test_argparse_errors_are_one_line(tmp_path, monkeypatch, capsys, argv, message):
    # argparse once printed its usage block and `pideq <subcommand>: error:`,
    # then raised SystemExit(2) out of main
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"pideq: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pideq") and err == ""


def test_closed_stdout_exits_141_silently(tmp_path):
    # a stdout whose reader had gone once printed "pideq: error: [Errno 32]
    # Broken pipe" and exited 2, the status of an input error
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pideq.cli", "spectral"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


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


def test_verify_passes_at_grid_n_64(capsys):
    # criterion 8's contours (truncation 50) cover the whole n = 64 lattice
    # spectrum; subtracting the t = 0 moment there once put their two radii
    # 7.7e-5 apart, and the check failed
    assert main(["verify", "--grid-n", "64"]) == 0
    out = capsys.readouterr().out
    assert "PASS contour independence" in out
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


@pytest.mark.parametrize("kind", ["field", "state"])
def test_u0_file_is_opened_once(tmp_path, monkeypatch, kind):
    # a --u0 file is read in one pass, whichever container it is
    grid = Grid(40.0, 64)
    params = pideq.AlphaParams(0.0)
    datum = gaussian_field(grid, sigma=3.0, amplitude=2.0)
    path = tmp_path / f"{kind}.pidf"
    if kind == "field":
        save_field(datum, path)
    else:
        save_field(pideq.DecomposedField(pideq.Field(grid, datum.values.real), 0.25, params), path, t=1.5)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    u0, t0 = _read_u0(str(path), grid, params)
    monkeypatch.undo()
    assert opened == [str(path)]
    assert (u0.coeff, t0) == ((0.0, 0.0) if kind == "field" else (0.25, 1.5))


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
    # package, the verify checks, a projected solve, five subcommands and a
    # Green L^p norm off the p = 2 closed form run
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
assert abs(pideq.green_lp_norm(1.0, 2) - 0.28209479177387814) < 1e-16
assert not [m for m in sys.modules if m.partition(".")[0] == "scipy"]
"""
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_imports_neither_scipy_nor_numpy_polynomial():
    # `pideq verify` needs numpy alone, and not numpy.polynomial either: its
    # Gauss-Legendre rules are Golub-Welsch eigenvalue problems
    script = """
import sys
from pideq import cli

assert cli.main(["verify", "--grid-n", "64"]) == 0
loaded = [
    m for m in sys.modules if m.partition(".")[0] == "scipy" or m.startswith("numpy.polynomial")
]
assert not loaded, loaded
"""
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_runtime_dependency_is_numpy_alone():
    # scipy only supplies the test suite's reference values
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]

    def names(reqs):
        return [re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower() for r in reqs]

    assert names(meta["dependencies"]) == ["numpy"]
    assert "scipy" in names(meta["optional-dependencies"]["test"])


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
    # snapshot continues the times and reproduces t = 3..5 to rounding: its
    # first window is probed where the whole run marched, and a probed
    # window's states are its march's
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
        assert all(abs(x - y) <= 1e-14 * abs(y) for x, y in zip(a, b))
    assert load_state(tmp_path / "resumed" / "state_00003.pidf")[1] == 5.0
    # a state of another alpha is refused
    argv = ["--out", str(tmp_path / "x"), *run, "--T", "1", "--alpha", "0.1", "--u0", str(snap)]
    assert main(argv) == 2
    assert "has alpha = 0.0; the run has alpha = 0.1" in capsys.readouterr().err


def test_free_laplacian_runs_every_subcommand(tmp_path, capsys):
    # --alpha inf is the free Laplacian, the grid model's zero coupling: every
    # subcommand runs it with warnings raised as errors, q and rho are 0, the
    # projected flow has no correction, and a snapshot resumes the run
    inf = ["--alpha", "inf", "--grid-n", "64"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["simulate", "--T", "2", "--snapshots"], ["semigroup"], ["resolve"],
                     ["decay"]):
            assert main(["--out", str(tmp_path / argv[0]), *argv, *inf]) == 0
            out = capsys.readouterr().out
            if argv[0] == "semigroup":
                assert "correction_norm,0.0000000000000000e+00\n" in out
        full = _trajectory(tmp_path / "simulate")
        assert [row[0] for row in full] == [0.0, 1.0, 2.0]
        assert all(row[4] == row[5] == 0.0 for row in full)
        snap = tmp_path / "simulate" / "state_00001.pidf"
        assert main(["--out", str(tmp_path / "resumed"), "simulate", "--u0", str(snap), *inf]) == 0
        resumed = _trajectory(tmp_path / "resumed")
        assert [row[0] for row in resumed] == [1.0, 2.0]
        assert all(abs(x - y) <= 1e-14 * y for x, y in zip(resumed[1][1:4], full[2][1:4]))
        assert resumed[1][4:] == [0.0, 0.0]
    report = (tmp_path / "decay" / "report.csv").read_text().split("\n")
    assert [row.partition(",")[0] for row in report[1:3]] == ["semigroup", "gradient"]
    # its rho is identically 0, which has no decay rate to fit
    argv = ["--out", str(tmp_path / "nl"), "decay", "--with-nonlinear", *inf]
    assert main(argv) == 2
    assert "rho is identically 0" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["spectral", "--lambdas", "1,abc"], None, "--lambdas must be comma-separated numbers"),
        (["spectral", "--lambdas", ""], None, "--lambdas must be comma-separated numbers; got ''"),
        (["verify"], "grid_n = 128.0\n", "run.cfg:1: grid_n must be an integer; got '128.0'"),
        (["semigroup"], "\nalpha = zero\n", "run.cfg:2: alpha must be a number; got 'zero'"),
    ],
)
def test_setting_errors_name_their_flag_or_key(tmp_path, capsys, argv, config, message):
    # a setting that cannot be read is one stderr line naming its flag or
    # config key, and exit code 2
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = ["--config", str(tmp_path / "run.cfg"), *argv]
    assert main(["--out", str(tmp_path), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("pideq: error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["contour_eps", "contour_nodes"])
def test_contour_config_keys_are_unknown(tmp_path, capsys, key):
    # the cut-hugging contour is a library cross-check, not a setting
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 0\n{key} = 0.1\n")
    assert main(["--out", str(tmp_path), "--config", str(cfg), "semigroup"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"pideq: error: {cfg}:2: unknown key {key!r}\n"


def test_readme_lists_the_config_keys():
    # README's key list equals CONFIG_KEYS, and each row of its table of
    # the keys a subcommand reads equals the keys that subcommand's parser
    # declares (a flag's dest or a set_defaults entry)
    from pideq.cli import CONFIG_KEYS, build_parser

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"\(keys: ([^)]*)\)", text).group(1)
    assert re.split(r",\s*", listed.strip()) == list(CONFIG_KEYS)
    table = text.split("| subcommand | config keys it reads |\n|---|---|\n", 1)[1]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table.split("\n\n", 1)[0], re.M))
    _, commands = build_parser()
    assert set(rows) == set(commands)
    for name, cell in rows.items():
        # the last word of each ',' or ';' piece, with (notes) and `flags` cut
        cell = re.sub(r"\([^)]*\)|`[^`]*`", "", cell)
        keys = {piece.split()[-1] for piece in re.split(r"[,;]", cell)}
        declared = set(vars(commands[name].parse_args([]))) & set(CONFIG_KEYS)
        assert keys == declared, name


# Every setting each subcommand reads: its built-in default and its flag
# (None where the setting is read from the config file alone).
SETTINGS = {
    "spectral": {"alpha": (0.0, "--alpha")},
    "resolve": {"alpha": (0.0, "--alpha"), "grid_n": (256, "--grid-n"), "grid_L": (40.0, "--grid-L")},
    "semigroup": {
        "alpha": (0.0, "--alpha"), "grid_n": (256, "--grid-n"), "grid_L": (40.0, "--grid-L"),
    },
    "simulate": {
        "alpha": (0.0, "--alpha"), "grid_n": (256, "--grid-n"), "grid_L": (40.0, "--grid-L"),
        "gamma": (2.0, "--gamma"), "ax": (1.0, "--ax"), "ay": (0.0, "--ay"),
        "dt": (0.01, "--dt"), "T": (1.0, "--T"), "tol": (1e-9, "--tol"),
    },
    "decay --with-nonlinear": {
        "alpha": (0.0, "--alpha"), "grid_n": (256, "--grid-n"), "grid_L": (40.0, "--grid-L"),
        "gamma": (2.0, None), "ax": (1.0, None), "ay": (0.0, None),
        "dt": (0.02, None), "tol": (1e-9, None),
    },
    "verify": {"grid_n": (512, "--grid-n"), "grid_L": (40.0, "--grid-L")},
}
CONFIG_VALUES = {
    "alpha": 0.125, "grid_n": 32, "grid_L": 30.0,
    "gamma": 3.0, "ax": 0.5, "ay": 0.25, "dt": 0.05, "T": 2.0, "tol": 1e-7,
}
FLAG_VALUES = {
    "alpha": 0.25, "grid_n": 16, "grid_L": 20.0,
    "gamma": 1.5, "ax": -1.0, "ay": 0.75, "dt": 0.1, "T": 3.0, "tol": 1e-6,
}


def _record_settings(monkeypatch):
    """Replace the library calls of every subcommand by recorders of the settings they get."""
    from types import SimpleNamespace

    from pideq import cli

    seen = {}
    fit = SimpleNamespace(slope=-1.0, theoretical=-1.0, delta=0.0, r_squared=1.0)

    def grid(g):
        seen.update(grid_n=g.n, grid_L=g.half_width)

    def solve(u0, cfg):
        grid(u0.regular.grid)
        seen.update(alpha=u0.params.alpha, gamma=cfg.gamma, ax=cfg.a[0], ay=cfg.a[1])
        seen.update(dt=cfg.dt, T=cfg.T, tol=cfg.picard_tol)
        return SimpleNamespace(times=np.zeros(0), states=[], rho=np.zeros(0))

    def resolvent(lam, g, params):
        grid(g.grid)
        seen.update(alpha=params.alpha)
        return g

    def semigroup(t, g, params):
        grid(g.grid)
        seen.update(alpha=params.alpha)
        return SimpleNamespace(field=g, free_part_norm=0.0, correction_norm=0.0, imag_residue=0.0)

    def linear_fit(g, q, p, alpha=0.0):
        grid(g)
        seen.update(alpha=alpha)
        return fit

    def c_lambda(lam):
        return 0j

    real_params = cli.AlphaParams.for_alpha

    def params(alpha):
        seen.update(alpha=alpha)
        return real_params(alpha)

    monkeypatch.setattr(cli, "solve_global_projected", solve)
    monkeypatch.setattr(cli, "solve_local", solve)
    monkeypatch.setattr(cli, "krein_resolvent", resolvent)
    monkeypatch.setattr(cli, "semigroup_pac", semigroup)
    monkeypatch.setattr(cli, "run_semigroup_decay", linear_fit)
    monkeypatch.setattr(cli, "run_gradient_decay", linear_fit)
    monkeypatch.setattr(cli, "run_nonlinear_decay", lambda traj, h1, h2: (fit, fit, fit))
    monkeypatch.setattr(cli, "field_to_csv", lambda f, fh: None)
    monkeypatch.setattr(cli, "c_lambda", c_lambda)
    monkeypatch.setattr(cli.AlphaParams, "for_alpha", params)
    monkeypatch.setattr(verify_mod, "run_checks", lambda g: grid(g) or [])
    return seen


@pytest.mark.parametrize("command", list(SETTINGS))
def test_settings_default_config_flag(tmp_path, monkeypatch, capsys, command):
    # each setting a subcommand reads reaches its library call as the
    # built-in default, replaced by a config value, which a flag beats;
    # the config keys the subcommand does not read change nothing
    from pideq.cli import CONFIG_KEYS

    seen = _record_settings(monkeypatch)
    settings = SETTINGS[command]

    def run(config, flags=()):
        seen.clear()
        argv = ["--out", str(tmp_path / "out")]
        if config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
            argv += ["--config", str(cfg)]
        assert main([*argv, *command.split(), *flags]) in (0, 1)
        capsys.readouterr()
        return dict(seen)

    defaults = run({})
    assert {key: defaults[key] for key in settings} == {
        key: default for key, (default, _) in settings.items()
    }
    configured = run(CONFIG_VALUES)
    assert {key: configured[key] for key in settings} == {key: CONFIG_VALUES[key] for key in settings}
    for key, (_, flag) in settings.items():
        if flag is not None:
            flagged = run(CONFIG_VALUES, [flag, str(FLAG_VALUES[key])])
            assert flagged == dict(configured, **{key: FLAG_VALUES[key]}), key
    unread = {key: value for key, value in CONFIG_VALUES.items() if key not in settings}
    assert set(unread) | set(settings) == set(CONFIG_KEYS)
    assert run(unread) == defaults
