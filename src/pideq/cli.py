"""Command line interface.

Subcommands: spectral | resolve | semigroup | simulate | decay | verify.
Global options: --config FILE (line-oriented ``key = value``; recognised
keys: alpha, grid_n, grid_L, contour_eps, contour_nodes, gamma, ax, ay,
dt, T, tol) and --out DIR for emitted files.  Command-line flags override
config values.  An input the library rejects (ValueError, or a
ConvergenceError) and a file that cannot be read or written (OSError)
print ``pideq: error: <message>`` to stderr and exit 2.
``simulate --snapshots`` writes one lossless state container per stored
time (``state_#####.pidf``: phi, q, alpha and t); given back as ``--u0``
it resumes the run from that state, and the printed times continue from
its t.  Elsewhere a state file's phi is read as a plain field datum.
All CSV output is full-precision scientific notation with '.' decimals,
',' separators and LF line endings.
"""

import argparse
import sys
from pathlib import Path

from . import verify as verify_mod
from .decay import (
    DATUM_KINDS,
    ExperimentSpec,
    make_datum,
    run_gradient_decay,
    run_nonlinear_decay,
    run_semigroup_decay,
)
from .errors import ConvergenceError
from .fields import (
    Grid,
    _is_state_container,
    field_to_csv,
    gaussian_field,
    load_field,
    lp_norm,
    save_field,
)
from .semigroup import ContourSpec, krein_resolvent, semigroup_pac
from .spectral import AlphaParams, DecomposedField, c_lambda, load_state
from .solver import SolverConfig, solve_global_projected, solve_local, state_fields

CONFIG_KEYS = {
    "alpha": float,
    "grid_n": int,
    "grid_L": float,
    "contour_eps": float,
    "contour_nodes": int,
    "gamma": float,
    "ax": float,
    "ay": float,
    "dt": float,
    "T": float,
    "tol": float,
}


def read_config(path):
    """Parse the line-oriented ``key = value`` grammar ('#' starts a comment)."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = CONFIG_KEYS[key](val)
    return values


def _sci(x):
    """Full-precision scientific notation; ``none`` for an absent value."""
    return "none" if x is None else f"{x:.16e}"


def _merged(args, config, key, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _grid(args, config, default=Grid(40.0, 256)):
    return Grid(
        _merged(args, config, "grid_L", default.half_width),
        int(_merged(args, config, "grid_n", default.n)),
    )


def _params(args, config):
    return AlphaParams.for_alpha(_merged(args, config, "alpha", 0.0), 2)


def _contour(args, config, params, t):
    eps = _merged(args, config, "contour_eps", None)
    nodes = _merged(args, config, "contour_nodes", None)
    if eps is None and nodes is None:
        return None
    base = ContourSpec.for_time(params, t)
    return ContourSpec(
        eps if eps is not None else base.epsilon,
        base.truncation,
        int(nodes) if nodes is not None else base.nodes_ray,
        base.nodes_arc,
    )


def _outdir(args):
    out = Path(getattr(args, "out", None) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_datum(descriptor, grid):
    """A :func:`pideq.decay.make_datum` descriptor, else a saved field file."""
    if descriptor.partition(":")[0] in DATUM_KINDS:
        return make_datum(descriptor, grid)
    f = load_field(descriptor)
    if f.grid != grid:
        raise ValueError(f"datum grid {f.grid} does not match requested grid {grid}")
    return f


def _initial_state(descriptor, grid, params):
    """(u0, t0) of ``simulate``: a datum or field file at t0 = 0, or a saved state at its t.

    A state container (``simulate --snapshots`` writes one per stored time)
    restores phi and q exactly; its alpha must be the run's.
    """
    if descriptor.partition(":")[0] in DATUM_KINDS or not _is_state_container(descriptor):
        return DecomposedField.from_field(_load_datum(descriptor, grid), params), 0.0
    u0, t0 = load_state(descriptor)
    if u0.params.alpha != params.alpha:
        raise ValueError(
            f"state {descriptor} has alpha = {u0.params.alpha!r}; "
            f"the run has alpha = {params.alpha!r}"
        )
    if u0.regular.grid != grid:
        raise ValueError(f"datum grid {u0.regular.grid} does not match requested grid {grid}")
    return u0, t0


def cmd_spectral(args, config):
    params = _params(args, config)
    out = sys.stdout
    out.write("alpha,dimension,eigenvalue,psi_norm\n")
    out.write(
        f"{_sci(params.alpha)},{params.dimension},{_sci(params.eigenvalue)},"
        f"{_sci(params.psi_norm)}\n"
    )
    lams = [float(s) for s in (args.lambdas or "0.25,0.5,1,2,4,8").split(",")]
    out.write("lambda,c_re,c_im\n")
    for lam in lams:
        c = c_lambda(lam, params.dimension)
        out.write(f"{_sci(lam)},{_sci(c.real)},{_sci(c.imag)}\n")
    return 0


def cmd_resolve(args, config):
    params = _params(args, config)
    grid = _grid(args, config)
    g = _load_datum(args.u0, grid)
    lam = args.lam if args.lam is not None else 2.0
    res = krein_resolvent(lam, g, params)
    out = _outdir(args)
    path = out / "resolvent.csv"
    with open(path, "w", newline="\n") as fh:
        field_to_csv(res, fh)
    print(f"lambda,{_sci(lam)}")
    print(f"output_l2,{_sci(lp_norm(res, 2))}")
    print(f"written,{path}")
    return 0


def cmd_semigroup(args, config):
    params = _params(args, config)
    grid = _grid(args, config)
    g = _load_datum(args.u0, grid)
    t = args.t if args.t is not None else 1.0
    contour = _contour(args, config, params, t)
    res = semigroup_pac(t, g, params, contour)
    out = _outdir(args)
    path = out / "semigroup.csv"
    with open(path, "w", newline="\n") as fh:
        field_to_csv(res.field, fh)
    print(f"free_part_norm,{_sci(res.free_part_norm)}")
    print(f"correction_norm,{_sci(res.correction_norm)}")
    print(f"imag_residue,{_sci(res.imag_residue)}")
    print(f"written,{path}")
    return 0


def cmd_simulate(args, config):
    params = _params(args, config)
    grid = _grid(args, config)
    cfg = SolverConfig(
        gamma=_merged(args, config, "gamma", 2.0),
        a=(_merged(args, config, "ax", 1.0), _merged(args, config, "ay", 0.0)),
        T=_merged(args, config, "T", 1.0),
        dt=_merged(args, config, "dt", 0.01),
        picard_tol=_merged(args, config, "tol", 1e-9),
    )
    u0, t0 = _initial_state(args.u0, grid, params)
    if args.projected:
        traj = solve_global_projected(u0, cfg)
    else:
        traj = solve_local(u0, cfg)
    out = _outdir(args)
    manifest = out / "trajectory.csv"
    with open(manifest, "w", newline="\n") as fh:
        fh.write("t,l2,l4,grad_l32,q_abs,rho\n")
        for k, (t, st) in enumerate(zip(t0 + traj.times, traj.states)):
            u, grad = state_fields(st)
            l2, l4 = lp_norm(u, 2), lp_norm(u, 4)
            g32 = lp_norm(grad, 1.5)
            rho = traj.rho[k] if traj.rho.size else 0.0
            fh.write(
                f"{_sci(t)},{_sci(l2)},{_sci(l4)},{_sci(g32)},"
                f"{_sci(abs(st.coeff))},{_sci(rho)}\n"
            )
            if args.snapshots:
                save_field(st, out / f"state_{k:05d}.pidf", t=t)
    print(f"written,{manifest}")
    return 0


def cmd_decay(args, config):
    grid = _grid(args, config)
    alpha = _merged(args, config, "alpha", 0.0)
    rows = []
    spec = ExperimentSpec(grid=grid, alpha=alpha, q=2.0, p=4.0)
    fit = run_semigroup_decay(spec)
    rows.append(("semigroup", 4.0, 2.0, "", "", fit))
    spec = ExperimentSpec(grid=grid, alpha=alpha, q=4.0 / 3.0, p=1.5)
    fit = run_gradient_decay(spec)
    rows.append(("gradient", 1.5, 4.0 / 3.0, "", "", fit))
    if args.with_nonlinear:
        params = AlphaParams.for_alpha(alpha, 2)
        cfg = SolverConfig(
            gamma=_merged(args, config, "gamma", 2.0),
            a=(_merged(args, config, "ax", 1.0), _merged(args, config, "ay", 0.0)),
            T=50.0,
            dt=_merged(args, config, "dt", 0.02),
        )
        u0 = DecomposedField.from_field(
            gaussian_field(grid, sigma=1.5, amplitude=0.02, center=(1.0, 0.5)), params
        )
        traj = solve_global_projected(u0, cfg)
        nspec = ExperimentSpec(grid=grid, alpha=alpha, h1=4.0, h2=1.5)
        fu, fg, fr = run_nonlinear_decay(nspec, traj)
        rows.append(("nonlinear_u", "", "", 4.0, 1.5, fu))
        rows.append(("nonlinear_grad", "", "", 4.0, 1.5, fg))
        rows.append(("nonlinear_rho", "", "", 4.0, 1.5, fr))
    out = _outdir(args)
    path = out / "report.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("kind,p,q,h1,h2,slope,theoretical,delta,r2,n,L\n")
        for kind, p, q, h1, h2, fit in rows:
            fh.write(
                f"{kind},{p},{q},{h1},{h2},{_sci(fit.slope)},{_sci(fit.theoretical)},"
                f"{_sci(fit.delta)},{_sci(fit.r_squared)},{grid.n},{_sci(grid.half_width)}\n"
            )
    print(f"written,{path}")
    return 0


def cmd_verify(args, config):
    results = verify_mod.run_checks(_grid(args, config, verify_mod.DEFAULT_GRID))
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail} ({res.seconds:.1f}s)")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="key = value configuration file"
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="output directory (default ./out)"
    )
    parser = argparse.ArgumentParser(
        prog="pideq",
        description="Point-interaction Laplacian: spectral data, semigroup, solver",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", parents=[common], help="print spectral scalars as CSV")
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambdas", help="comma-separated lambda values for the c table")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("resolve", parents=[common], help="apply the resolvent to a datum")
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-L", dest="grid_L", type=float)
    p.add_argument("--u0", default="gaussian:2,1")
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("semigroup", parents=[common], help="projected semigroup at time t")
    p.add_argument("--alpha", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-L", dest="grid_L", type=float)
    explicit = "; selects the explicit cut-hugging contour (default: the Talbot rule)"
    p.add_argument("--contour-eps", dest="contour_eps", type=float, help="arc radius" + explicit)
    p.add_argument("--nodes", dest="contour_nodes", type=int, help="nodes per ray" + explicit)
    p.add_argument("--u0", default="gaussian:2,1")
    p.set_defaults(fn=cmd_semigroup)

    p = sub.add_parser("simulate", parents=[common], help="run the nonlinear solver")
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--ax", type=float)
    p.add_argument("--ay", type=float)
    p.add_argument("--u0", default="gaussian:1.5,0.02,1.0,0.5")
    p.add_argument("--T", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-L", dest="grid_L", type=float)
    p.add_argument("--projected", action="store_true", default=True)
    p.add_argument("--unprojected", dest="projected", action="store_false")
    p.add_argument("--snapshots", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("decay", parents=[common], help="decay-rate report")
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-L", dest="grid_L", type=float)
    p.add_argument("--with-nonlinear", action="store_true")
    p.set_defaults(fn=cmd_decay)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance checks, exit 0/1")
    p.add_argument("--grid-n", dest="grid_n", type=int)
    p.add_argument("--grid-L", dest="grid_L", type=float)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    """Run one subcommand; a rejected input or a file error exits 2 with one stderr line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        config = read_config(config_path) if config_path else {}
        return args.fn(args, config)
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"pideq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
