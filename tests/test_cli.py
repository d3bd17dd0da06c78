"""Command-line surface: config grammar, subcommands, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_simulate_rejects_nonfinite_drift(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pideq.__file__).parents[1]))
    argv = ["--out", str(tmp_path), "simulate", "--ax", "nan", "--grid-n", "16"]
    proc = subprocess.run(
        [sys.executable, "-m", "pideq.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "two finite real numbers" in proc.stderr


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
