"""Command line interface.

Subcommands: spectral | resolve | semigroup | simulate | decay | verify.
Global options: --config FILE (line-oriented ``key = value``; recognised
keys: alpha, grid_n, grid_L, gamma, ax, ay, dt, T, tol) and --out DIR for
emitted files.  The config file's values replace the chosen subcommand's
defaults and command-line flags override them.  Each subcommand reads
these keys and ignores the others:

- ``spectral``: alpha;
- ``resolve``: alpha, grid_n, grid_L;
- ``semigroup``: alpha, grid_n, grid_L;
- ``simulate``: alpha, grid_n, grid_L, gamma, ax, ay, dt, T, tol;
- ``decay``: alpha, grid_n, grid_L, and with ``--with-nonlinear`` gamma,
  ax, ay, dt and tol (which have no flags there; the run starts from
  ``simulate``'s default ``--u0`` and ends at T = 50);
- ``verify``: grid_n, grid_L.

``--alpha`` takes any alpha in (-inf, +inf].  ``--alpha inf`` is the free
Laplacian, which the grid model holds as zero coupling, so every
subcommand runs it through the same code: ``simulate`` writes q and rho
as 0 and ``semigroup`` a correction_norm of 0, while ``decay
--with-nonlinear`` exits 2, as its rho is identically 0 and has no decay
rate.

``semigroup`` evaluates e^{tA} P_ac with the Talbot rule, as every flow
does.  The cut-hugging contour is a library cross-check: ``verify``'s
contour-independence check runs it, and so does
``semigroup_pac(..., contour=ContourSpec(...))``.

An input the library rejects (ValueError, or a ConvergenceError), a
config value, flag or subcommand that cannot be read, and a file that
cannot be read or written (OSError) print ``pideq: error: <message>`` to
stderr and exit 2.  A stdout whose reader has gone (a closed pipe) ends
the run with status 141 (128 + SIGPIPE) and nothing on stderr.
``simulate`` stores t = 0, every unit time and T (its solver window is 1),
so dt must divide T and, when T > 1, also 1: ``--dt 0.03 --T 3`` exits 2,
where ``--dt 0.03 --T 0.99`` runs.  ``decay --with-nonlinear`` runs to
T = 50 the same way, so its dt must divide 1.
``simulate --snapshots`` writes one lossless state container per stored
time (``state_#####.pidf``: phi, q, alpha and t); given back as ``--u0``
it resumes the run from that state, and the printed times continue from
its t.  Elsewhere a state file's phi is read as a plain field datum.
All CSV output is full-precision scientific notation with '.' decimals,
',' separators and LF line endings.
"""

import argparse
import os
import sys
from pathlib import Path

from . import verify as verify_mod
from .decay import (
    DATUM_KINDS,
    make_datum,
    run_gradient_decay,
    run_nonlinear_decay,
    run_semigroup_decay,
)
from .errors import ConvergenceError
from .fields import (
    Field,
    Grid,
    _read_container,
    field_to_csv,
    lp_norm,
    save_field,
)
from .semigroup import krein_resolvent, semigroup_pac
from .spectral import AlphaParams, DecomposedField, _container_state, c_lambda
from .solver import SolverConfig, solve_global_projected, solve_local, state_fields

CONFIG_KEYS = {
    "alpha": float,
    "grid_n": int,
    "grid_L": float,
    "gamma": float,
    "ax": float,
    "ay": float,
    "dt": float,
    "T": float,
    "tol": float,
}

DEMO_U0 = "gaussian:1.5,0.02,1.0,0.5"
"""The small datum that ``simulate`` starts from by default and ``decay --with-nonlinear`` runs."""


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
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError:
            kind = "an integer" if CONFIG_KEYS[key] is int else "a number"
            raise ValueError(f"{path}:{lineno}: {key} must be {kind}; got {val!r}") from None
    return values


def _sci(x):
    """Full-precision scientific notation; ``none`` for an absent value."""
    return "none" if x is None else f"{x:.16e}"


def _grid(args):
    return Grid(args.grid_L, args.grid_n)


def _solver_config(args, T):
    """The solver settings of ``simulate`` and ``decay --with-nonlinear``, run to time T."""
    return SolverConfig(
        gamma=args.gamma, a=(args.ax, args.ay), T=T, dt=args.dt, picard_tol=args.tol
    )


def _outdir(args):
    out = Path(getattr(args, "out", None) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_u0(descriptor, grid, params):
    """(u0, t0) of ``--u0``: the state u0 as a :class:`DecomposedField` and its time.

    A :func:`pideq.decay.make_datum` descriptor or a saved field file is
    u0 = phi with q = 0 at t0 = 0.  A state container (``simulate
    --snapshots`` writes one per stored time) gives its phi, q, alpha and t
    exactly.  A file is read once.  Its grid must be ``grid``.
    """
    if descriptor.partition(":")[0] in DATUM_KINDS:
        u0, t0 = DecomposedField.from_field(make_datum(descriptor, grid), params), 0.0
    else:
        file_grid, values, state = _read_container(descriptor)
        if state is None:
            u0, t0 = DecomposedField.from_field(Field(file_grid, values), params), 0.0
        else:
            u0, t0 = _container_state(file_grid, values, state)
    if u0.regular.grid != grid:
        raise ValueError(f"datum grid {u0.regular.grid} does not match requested grid {grid}")
    return u0, t0


def cmd_spectral(args):
    params = AlphaParams.for_alpha(args.alpha)
    # every value is computed before the first line is written, so a
    # rejected lambda leaves stdout empty
    try:
        lams = [float(s) for s in args.lambdas.split(",")]
    except ValueError:
        raise ValueError(
            f"--lambdas must be comma-separated numbers; got {args.lambdas!r}"
        ) from None
    table = [(lam, c_lambda(lam)) for lam in lams]
    out = sys.stdout
    out.write("alpha,dimension,eigenvalue,psi_norm\n")
    out.write(f"{_sci(params.alpha)},2,{_sci(params.eigenvalue)},{_sci(params.psi_norm)}\n")
    out.write("lambda,c_re,c_im\n")
    for lam, c in table:
        out.write(f"{_sci(lam)},{_sci(c.real)},{_sci(c.imag)}\n")
    return 0


def _write_field(args, name, apply, report):
    """The body of ``resolve`` and ``semigroup``: an operator applied to ``--u0``, written out.

    ``apply(g, params)`` is the operator's result for the datum's field g;
    ``report(result)`` is (field, rows).  The field is written to
    ``<name>.csv`` with LF endings, then each (key, value) of rows is
    printed as a ``key,value`` line, then ``written``.
    """
    params = AlphaParams.for_alpha(args.alpha)
    g, _ = _read_u0(args.u0, _grid(args), params)
    field, rows = report(apply(g.regular, params))
    path = _outdir(args) / f"{name}.csv"
    with open(path, "w", newline="\n") as fh:
        field_to_csv(field, fh)
    for key, value in rows:
        print(f"{key},{_sci(value)}")
    print(f"written,{path}")
    return 0


def cmd_resolve(args):
    return _write_field(
        args, "resolvent", lambda g, params: krein_resolvent(args.lam, g, params),
        lambda res: (res, [("lambda", args.lam), ("output_l2", lp_norm(res, 2))]),
    )


def cmd_semigroup(args):
    keys = ("free_part_norm", "correction_norm", "imag_residue")
    return _write_field(
        args, "semigroup", lambda g, params: semigroup_pac(args.t, g, params),
        lambda res: (res.field, [(key, getattr(res, key)) for key in keys]),
    )


def cmd_simulate(args):
    params = AlphaParams.for_alpha(args.alpha)
    grid = _grid(args)
    cfg = _solver_config(args, args.T)
    u0, t0 = _read_u0(args.u0, grid, params)
    if u0.params.alpha != params.alpha:
        raise ValueError(
            f"state {args.u0} has alpha = {u0.params.alpha!r}; "
            f"the run has alpha = {params.alpha!r}"
        )
    traj = (solve_global_projected if args.projected else solve_local)(u0, cfg)
    out = _outdir(args)
    manifest = out / "trajectory.csv"
    with open(manifest, "w", newline="\n") as fh:
        fh.write("t,l2,l4,grad_l32,q_abs,rho\n")
        for k, (t, st) in enumerate(zip(t0 + traj.times, traj.states)):
            u, grad = state_fields(st)
            rho = traj.rho[k] if traj.rho.size else 0.0
            row = (t, lp_norm(u, 2), lp_norm(u, 4), lp_norm(grad, 1.5), abs(st.coeff), rho)
            fh.write(",".join(map(_sci, row)) + "\n")
            if args.snapshots:
                save_field(st, out / f"state_{k:05d}.pidf", t=t)
    print(f"written,{manifest}")
    return 0


def cmd_decay(args):
    grid, alpha = _grid(args), args.alpha
    rows = []
    linear = (("semigroup", run_semigroup_decay, 4.0, 2.0),
              ("gradient", run_gradient_decay, 1.5, 4.0 / 3.0))
    for kind, run, p, q in linear:
        rows.append((kind, p, q, "", "", run(grid, q=q, p=p, alpha=alpha)))
    if args.with_nonlinear:
        params = AlphaParams.for_alpha(alpha)
        # the nonlinear fits need t >= 20, so the run's end is fixed
        cfg = _solver_config(args, 50.0)
        u0, _ = _read_u0(DEMO_U0, grid, params)
        traj = solve_global_projected(u0, cfg)
        fits = run_nonlinear_decay(traj, h1=4.0, h2=1.5)
        for kind, fit in zip(("nonlinear_u", "nonlinear_grad", "nonlinear_rho"), fits):
            rows.append((kind, "", "", 4.0, 1.5, fit))
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


def cmd_verify(args):
    results = verify_mod.run_checks(_grid(args))
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail} ({res.seconds:.1f}s)")
    passed = sum(res.passed for res in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, for ``main``'s one error line.

    ``add_subparsers`` builds the subcommand parsers of this class too.
    """

    def error(self, message):
        raise ValueError(message)


def _grid_options(default):
    """A parent parser of --grid-n and --grid-L, defaulting to the Grid ``default``."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=default.n)
    p.add_argument("--grid-L", dest="grid_L", type=float, default=default.half_width)
    return p


def build_parser():
    """(parser, subcommand parsers by name); each setting's default sits on its subcommand.

    argparse shares a parent parser's actions among its children, so a
    ``set_defaults`` on one subcommand moves the default of every
    subcommand with that parent: a parser serves one parse and one config.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="key = value configuration file"
    )
    common.add_argument(
        "--out", default=argparse.SUPPRESS, help="output directory (default ./out)"
    )
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument("--alpha", type=float, default=0.0)
    run = [common, alpha, _grid_options(Grid(40.0, 256))]
    parser = _Parser(
        prog="pideq",
        description="Point-interaction Laplacian: spectral data, semigroup, solver",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", parents=[common, alpha], help="print spectral scalars as CSV")
    p.add_argument(
        "--lambdas", default="0.25,0.5,1,2,4,8",
        help="comma-separated lambda values for the c table",
    )
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("resolve", parents=run, help="apply the resolvent to a datum")
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--u0", default="gaussian:2,1")
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("semigroup", parents=run, help="projected semigroup at time t")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--u0", default="gaussian:2,1")
    p.set_defaults(fn=cmd_semigroup)

    p = sub.add_parser("simulate", parents=run, help="run the nonlinear solver")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--ax", type=float, default=1.0)
    p.add_argument("--ay", type=float, default=0.0)
    p.add_argument("--u0", default=DEMO_U0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--unprojected", dest="projected", action="store_false")
    p.add_argument("--snapshots", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("decay", parents=run, help="decay-rate report")
    p.add_argument("--with-nonlinear", action="store_true")
    # the nonlinear run's solver settings come from the config file alone
    p.set_defaults(fn=cmd_decay, gamma=2.0, ax=1.0, ay=0.0, dt=0.02, tol=1e-9)

    p = sub.add_parser(
        "verify", parents=[common, _grid_options(verify_mod.DEFAULT_GRID)],
        help="run the acceptance checks, exit 0/1",
    )
    p.set_defaults(fn=cmd_verify)
    return parser, sub.choices


def main(argv=None):
    """Run one subcommand; a rejected input or a file error exits 2 with one stderr line.

    A --config file's values replace the chosen subcommand's defaults and
    the arguments are parsed again, so flags win over the file.  A closed
    stdout returns 141 and writes nothing more.
    """
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            commands[args.command].set_defaults(**read_config(args.config))
            args = parser.parse_args(argv)
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # what stdout still buffers goes to devnull, so the flush at exit
        # cannot fail again (the SIGPIPE note of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"pideq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
