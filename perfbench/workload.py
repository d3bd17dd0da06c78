"""One repetition of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand except to record the
reference outputs (``--record``).  The process imports numpy and pideq,
builds the grid model and the datum (set-up), runs the workload through the
public API or the ``pideq`` CLI entry point (the timed region), then checks
the outputs and prints one JSON object as its last line of standard output.

Set-up time runs from the moment the parent spawned this process (the
parent passes its CLOCK_MONOTONIC reading in ``PERFBENCH_T0``) to the first
timed call.  Peak RSS is read right after the timed region, before the
checks, so that checking does not move it.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Seed whose inputs are the ones named in the benchmark's documentation; its
# outputs are compared with reference.json, other seeds with the paper gates.
REFERENCE_SEED = 0

# Relative tolerance of the trajectory rows against the reference.  Picard
# stops at 1e-10, so an equivalent solver agrees far inside 1e-8.
TRAJECTORY_RTOL = 1e-8
# Public semigroup norms: the contour-independence gate of `pideq verify`.
SEMIGROUP_RTOL = 1e-6
# The resolvent is exact rank-one algebra.
RESOLVENT_RTOL = 1e-10
# Exact real-valued output has an imaginary part of rounding size only.
IMAG_RESIDUE_MAX = 1e-10
CSV_SAMPLES = 64


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _cli(argv):
    """Run the pideq entry point in this process; returns (exit code, stdout)."""
    import pideq.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pideq.cli.main(argv)
    return code, buf.getvalue()


def _printed(text):
    """``key,value`` lines printed by a pideq subcommand, as a dict."""
    out = {}
    for line in text.splitlines():
        key, _, val = line.partition(",")
        out[key] = val
    return out


class Verify:
    """``pideq.verify.run_checks(Grid(40, 256))``: the 9 checks of ``pideq verify``.

    The checks fix their own inputs, so the seed selects nothing.
    """

    n = 256

    def __init__(self, seed, out):
        self.seed = seed

    def setup(self):
        from pideq import AlphaParams, Grid, gaussian_field
        from pideq.semigroup import grid_model

        self.params = AlphaParams.for_alpha(0.0, 2)
        self.grid = Grid(40.0, self.n)
        grid_model(self.params, self.grid)
        gaussian_field(self.grid, sigma=2.0)

    def run(self):
        from pideq.verify import run_checks

        return run_checks(self.grid)

    def observe(self, results):
        obs = {}
        for r in results:
            obs[r.name] = {"passed": r.passed, "digits": _printed_digits(r.detail)}
        return obs

    def check(self, results, ref):
        failed = []
        obs = self.observe(results)
        for r in results:
            ok = r.passed
            if ref is not None:
                want = ref.get(r.name)
                ok = ok and want is not None and obs[r.name]["digits"] == want["digits"]
            if not ok:
                failed.append(f"{r.name}: {r.detail}")
        return 9, failed + (["expected 9 checks"] if len(results) != 9 else [])

    def stage_seconds(self, results):
        return {_slug(r.name): r.seconds for r in results}

    def working_set(self):
        return _working_set(self.params, self.grid, [50.0])


_DIGIT_PATTERNS = (
    re.compile(r"slope (\S+) vs (\S+), r2 (\S+)$"),
    re.compile(r"error\(1000\) (\S+), error\(2000\) (\S+), gain (\S+)x$"),
)


def _printed_digits(detail):
    """Slopes and r2 (4 printed digits), oracle errors and gain (3 digits)."""
    for pat in _DIGIT_PATTERNS:
        m = pat.search(detail)
        if m:
            return list(m.groups())
    return None


def _slug(name):
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


class GlobalSolve:
    """``pideq simulate --T 5 --dt 0.02 --tol 1e-10 --grid-n 256 --grid-L 40 --snapshots``.

    The seed selects the Gaussian datum's centre (within radius 1.5 of the
    origin) and its amplitude (0.019 to 0.021, small data where the Picard
    windows take the same iterate counts as the reference datum).
    """

    n = 256
    times = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    columns = ("l2", "l4", "grad_l32", "q_abs", "rho")

    def __init__(self, seed, out):
        if seed == REFERENCE_SEED:
            amp, x0, y0 = 0.02, 1.0, 0.5
        else:
            rnd = random.Random(seed)
            amp = 0.02 * (1.0 + 0.05 * (2.0 * rnd.random() - 1.0))
            r, th = 1.5 * math.sqrt(rnd.random()), 2.0 * math.pi * rnd.random()
            x0, y0 = r * math.cos(th), r * math.sin(th)
        self.seed = seed
        self.out = out
        self.datum = (1.5, amp, x0, y0)
        self.argv = [
            "simulate", "--T", "5", "--dt", "0.02", "--tol", "1e-10",
            "--grid-n", str(self.n), "--grid-L", "40", "--snapshots",
            "--u0", "gaussian:" + ",".join(repr(v) for v in self.datum),
            "--out", str(out),
        ]

    def setup(self):
        from pideq import AlphaParams, Grid, gaussian_field
        from pideq.semigroup import grid_model

        self.params = AlphaParams.for_alpha(0.0, 2)
        self.grid = Grid(40.0, self.n)
        grid_model(self.params, self.grid)
        sigma, amp, x0, y0 = self.datum
        gaussian_field(self.grid, sigma=sigma, amplitude=amp, center=(x0, y0))

    def run(self):
        return _cli(self.argv)

    def _rows(self):
        lines = (self.out / "trajectory.csv").read_text().splitlines()
        if lines[0] != "t," + ",".join(self.columns):
            raise ValueError(f"unexpected manifest header {lines[0]!r}")
        return [[float(v) for v in line.split(",")] for line in lines[1:]]

    def observe(self, result):
        return {"rows": self._rows()}

    def check(self, result, ref):
        from pideq import load_field

        code, _ = result
        attempted = len(self.times)
        if code != 0:
            return attempted, [f"simulate exited {code}"] * attempted
        rows = self._rows()
        if [r[0] for r in rows] != list(self.times):
            return attempted, [f"stored times {[r[0] for r in rows]}"] * attempted
        failed = []
        prev_l2 = math.inf
        for k, row in enumerate(rows):
            vals = row[1:]
            if ref is not None:
                want = ref["rows"][k][1:]
                ok = all(_rel_close(a, b, TRAJECTORY_RTOL) for a, b in zip(vals, want))
            else:
                # paper gates: finite, positive norms, small-data L2 non-increasing
                l2 = vals[0]
                ok = (
                    all(math.isfinite(v) for v in vals)
                    and min(vals[:4]) >= 0.0
                    and l2 > 0.0
                    and l2 <= prev_l2 * (1.0 + 1e-12)
                )
                prev_l2 = l2
            snap = load_field(self.out / f"state_{k:05d}.pidf")
            ok = ok and snap.grid == self.grid
            if not ok:
                failed.append(f"row t={row[0]}: {row[1:]}")
        return attempted, failed

    def working_set(self):
        # the solver's micro-steps use a 32-node Talbot contour
        from pideq.semigroup import grid_model

        bins = grid_model(self.params, self.grid).rho.size
        return {"field_bytes": 16 * self.n ** 2, "correction_nodes": 32,
                "bins": bins, "correction_matrix_bytes": 16 * 32 * bins}


class OneshotIO:
    """Six one-shot CLI commands on Grid(40, 512), each writing a full CSV.

    ``pideq semigroup --t {t1,t2,t3}`` and ``pideq resolve --lambda
    {l1,l2,l3}``.  The reference seed uses t = 1, 10, 50 and lambda = 0.5, 2,
    8; other seeds draw t1 in [1, 1.5], t2 in [9.5, 10.5], t3 in [40, 60]
    (the same contour node counts, up to 2.5 % for t2) and lambda in
    [0.4, 0.6], [1.8, 2.4], [6, 10] (away from the eigenvalue 1.26).
    """

    n = 512

    def __init__(self, seed, out):
        if seed == REFERENCE_SEED:
            ts, lams = [1.0, 10.0, 50.0], [0.5, 2.0, 8.0]
        else:
            rnd = random.Random(seed)
            ts = [rnd.uniform(1.0, 1.5), rnd.uniform(9.5, 10.5), rnd.uniform(40.0, 60.0)]
            lams = [rnd.uniform(0.4, 0.6), rnd.uniform(1.8, 2.4), rnd.uniform(6.0, 10.0)]
        self.seed = seed
        self.ts, self.lams = ts, lams
        common = ["--grid-n", str(self.n), "--grid-L", "40"]
        self.commands = [
            ["semigroup", "--t", repr(t), *common, "--out", str(out / f"semigroup_{i}")]
            for i, t in enumerate(ts)
        ] + [
            ["resolve", "--lambda", repr(lam), *common, "--out", str(out / f"resolve_{i}")]
            for i, lam in enumerate(lams)
        ]
        self.fields = []

    def setup(self):
        import pideq.cli
        from pideq import AlphaParams, Grid, gaussian_field
        from pideq.semigroup import grid_model

        self.params = AlphaParams.for_alpha(0.0, 2)
        self.grid = Grid(40.0, self.n)
        grid_model(self.params, self.grid)
        self.datum = gaussian_field(self.grid, sigma=2.0, amplitude=1.0)
        # keep each written field to compare the CSV rows against
        write = pideq.cli.field_to_csv

        def keep_field(f, stream, *args, **kwargs):
            self.fields.append(f)
            return write(f, stream, *args, **kwargs)

        pideq.cli.field_to_csv = keep_field

    def run(self):
        return [_cli(argv) for argv in self.commands]

    def observe(self, result):
        return {
            " ".join(argv[:3]): {k: v for k, v in _printed(text).items() if k != "written"}
            for argv, (_, text) in zip(self.commands, result)
        }

    def check(self, result, ref):
        failed = []
        rnd = random.Random(self.seed)
        for argv, (code, text), field in zip(self.commands, result, self.fields):
            key = " ".join(argv[:3])
            try:
                problems = self._problems(argv, code, _printed(text), field, rnd, ref)
            except (KeyError, ValueError, OSError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed.append(f"{key}: {'; '.join(problems)}")
        failed += ["command wrote no CSV"] * (len(self.commands) - len(self.fields))
        return len(self.commands), failed

    def _problems(self, argv, code, printed, field, rnd, ref):
        from pideq import lp_norm

        problems = [] if code == 0 else [f"exit {code}"]
        path = Path(printed["written"])
        if not _csv_matches(path, field, rnd):
            problems.append(f"{path} does not hold the written field")
        path.unlink()
        key = " ".join(argv[:3])
        gnorm = lp_norm(self.datum, 2)
        fnorm = lp_norm(field, 2)
        if argv[0] == "semigroup":
            nums = {k: float(printed[k]) for k in ("free_part_norm", "correction_norm", "imag_residue")}
            if nums["imag_residue"] > IMAG_RESIDUE_MAX:
                problems.append(f"imag_residue {nums['imag_residue']:.3e}")
            if ref is not None:
                for k in ("free_part_norm", "correction_norm"):
                    if not _rel_close(nums[k], float(ref[key][k]), SEMIGROUP_RTOL):
                        problems.append(f"{k} {nums[k]!r} != reference {ref[key][k]}")
            elif fnorm > gnorm * (1.0 + SEMIGROUP_RTOL):
                # the projected flow contracts L2
                problems.append(f"L2 {fnorm!r} above the datum's {gnorm!r}")
        else:
            lam = float(argv[2])
            out_l2 = float(printed["output_l2"])
            if not _rel_close(out_l2, fnorm, 1e-12):
                problems.append(f"printed output_l2 {out_l2!r} != field L2 {fnorm!r}")
            if ref is not None:
                if not _rel_close(out_l2, float(ref[key]["output_l2"]), RESOLVENT_RTOL):
                    problems.append(f"output_l2 {out_l2!r} != reference {ref[key]['output_l2']}")
            elif out_l2 > gnorm / min(lam, abs(lam - self.params.eigenvalue)) * (1.0 + 1e-9):
                # self-adjoint: ||R(lambda)|| = 1 / dist(lambda, (-inf, 0] u {E})
                problems.append(f"output_l2 {out_l2!r} above the resolvent bound")
        return problems

    def working_set(self):
        return _working_set(self.params, self.grid, self.ts)


def _csv_matches(path, field, rnd):
    """Header, n^2 rows, and sampled rows equal to the written field."""
    data = path.read_bytes()
    lines = data.split(b"\n")
    n = field.grid.n
    if lines[0] != b"x,y,re,im" or lines[-1] != b"" or len(lines) != n * n + 2:
        return False
    X, Y = field.grid.mesh()
    for row in rnd.sample(range(n * n), CSV_SAMPLES):
        i, j = divmod(row, n)
        vals = [float(v) for v in lines[row + 1].split(b",")]
        v = field.values[i, j]
        if vals != [X[i, j], Y[i, j], v.real, v.imag]:
            return False
    return True


def _working_set(params, grid, ts):
    """Computed sizes: one field, and the largest nodes x bins correction matrix."""
    from pideq import ContourSpec
    from pideq.semigroup import grid_model

    bins = grid_model(params, grid).rho.size
    nodes = max(ContourSpec.for_time(params, t).nodes()[0].size for t in ts)
    return {"field_bytes": 16 * grid.n ** 2, "correction_nodes": nodes,
            "bins": bins, "correction_matrix_bytes": 16 * nodes * bins}


WORKLOADS = {"verify": Verify, "global_solve": GlobalSolve, "oneshot_io": OneshotIO}


def _load_reference(workload, seed):
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--out", required=True, help="scratch directory for outputs")
    ap.add_argument("--trace", help="write spans to this file and report layers")
    ap.add_argument("--setup-only", action="store_true", help="exit after set-up")
    ap.add_argument("--record", action="store_true",
                    help="write this workload's outputs into reference.json")
    args = ap.parse_args()
    t_spawn = float(os.environ.get("PERFBENCH_T0", _monotonic()))

    import numpy  # noqa: F401  (imported before pideq so set-up covers both)

    try:
        import pideq  # noqa: F401
    except ImportError as exc:
        print(f"cannot import pideq: {exc}", file=sys.stderr)
        return 3

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(tracer)
    region = tracer.region if tracer else (lambda name: contextlib.nullcontext())

    with region("harness.setup"):
        wl.setup()
    setup_s = _monotonic() - t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    error = None
    with region("harness.run"):
        try:
            result = wl.run()
        except Exception as exc:  # a crashed workload fails all its operations
            error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = cpu1.ru_maxrss * 1024 / 1e6

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
    }
    if error is None:
        if args.record:
            ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            ref[args.workload] = wl.observe(result)
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        attempted, failures = wl.check(result, _load_reference(args.workload, args.seed))
        record["stages"] = wl.stage_seconds(result) if hasattr(wl, "stage_seconds") else {}
    else:
        attempted = {"verify": 9, "global_solve": 6, "oneshot_io": 6}[args.workload]
        failures = [error] * attempted
    record.update(attempted=attempted, failed=len(failures), failures=failures[:10])
    record["working_set"] = wl.working_set()
    if tracer is not None:
        calls, incl, self_s = tracer.summary()
        record["trace"] = {
            "calls": dict(calls),
            "seconds": dict(incl),
            "self_s": dict(self_s),
            "counts": dict(tracer.counts),
            "iterations": tracer.iterations,
            "spans": len(tracer.spans),
        }
        tracer.write(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
