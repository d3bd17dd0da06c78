"""pideq benchmark: three workloads, end-to-end metrics and traced layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each repetition of a workload is a fresh Python process (``workload.py``)
that imports ``pideq`` from ``src/``.  Repetitions run back to back, one at
a time, while the next one would end less than half a repetition after
``--seconds`` (at least two run).
Reported values are medians over the repetitions.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (timed region,
import and set-up excluded), ``setup_s`` (process start to the first timed
call), ``peak_rss_mb`` (the process high-water mark), and prints
``fail_frac`` (failed operations over attempted ones) by name; the last
line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of ``PER_LAYER`` instead, the tracing
overhead included.  Full records, with the machine record, go to
``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify", "global_solve", "oneshot_io")

# BLAS/OpenMP threads of the workload processes (must stay <= nproc).  One
# thread keeps the timings steady on a shared 2-core machine; a change that
# adds threads of its own shows as process.cpu_s above wall_s.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 2
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

VERIFY_CHECKS = (
    "spectral_scalars", "resolvent_algebra", "eigenmode_growth", "semigroup_law",
    "backward_euler_oracle", "l2_l4_decay_rate", "gradient_decay_rate",
    "contour_independence", "convolution_bound",
)
LAYER_NAMES = ("cli", "verify", "decay", "solver", "semigroup", "spectral",
               "fields", "fft", "harness")
SPAN_CALLS = (
    "semigroup.correction_hat", "semigroup.correction_talbot", "semigroup.resolvent_hat",
    "semigroup.project_ac_hat", "semigroup.coupling_coefficient",
    "semigroup.semigroup_pac", "semigroup.semigroup_gradient_pac",
    "semigroup.krein_resolvent", "semigroup.backward_euler_oracle",
    "semigroup.semigroup_full", "solver.nonlinearity", "solver.lagrange_multiplier",
    "fields.field_to_csv", "fields.save_field", "fields.lp_norm", "cli.main",
)
SPAN_SECONDS = (
    "semigroup.correction_hat", "semigroup.correction_talbot", "semigroup.resolvent_hat",
    "semigroup.project_ac_hat", "semigroup.grid_model", "semigroup.semigroup_pac",
    "semigroup.semigroup_gradient_pac", "semigroup.krein_resolvent",
    "semigroup.backward_euler_oracle", "semigroup.semigroup_full",
    "solver.solve_global_projected", "solver.nonlinearity", "solver.lagrange_multiplier",
    "decay.run_semigroup_decay", "decay.run_gradient_decay",
    "fields.field_to_csv", "fields.save_field", "fields.lp_norm",
    "spectral.green_field", "spectral.psi_alpha_field",
)
COUNTS = {
    "semigroup.contour_nodes": "count", "semigroup.node_bins": "count",
    "fft.bytes": "B", "fields.field_to_csv.bytes": "B", "fields.save_field.bytes": "B",
    "solver.windows": "count", "solver.picard_iterations": "count",
    "solver.sweeps": "count", "solver.contraction_max": "ratio",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
    for name in SPAN_CALLS:
        units[f"{name}.calls"] = "count"
    for name in SPAN_SECONDS:
        units[f"{name}.s"] = "s"
    units["semigroup.grid_model.builds"] = "count"
    units.update({"fft.calls": "count", "fft.s": "s"})
    units.update(COUNTS)
    for check in VERIFY_CHECKS:
        units[f"verify.{check}.s"] = "s"
    units.update({
        "process.cpu_s": "s", "trace.wall_s": "s", "trace.setup_s": "s",
        "trace.overhead_s": "s", "trace.spans": "count",
    })
    return units


PER_LAYER = per_layer_units()


class BenchError(RuntimeError):
    """A repetition could not run or report; the benchmark prints no result."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn(workload, seed, deadline, trace_file=None, setup_only=False):
    """Run one repetition in a fresh process and return its JSON record."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(OUT / f"{workload}-seed{seed}")]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
    env = _child_env()
    env["PERFBENCH_T0"] = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} repetition passed the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}: {err.strip()[-2000:]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} repetition printed no record: {exc}") from exc


def machine_record():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: str(THREADS) for var in THREAD_VARS},
        "machine": platform.machine(),
    }
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    rec["caches"] = caches
    return rec


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace):
    """Repetitions of one workload; returns its record, metrics included."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    # untimed warm-up: byte-compiles pideq and loads the libraries from disk
    spawn(workload, seed, deadline, setup_only=True)
    t0 = time.monotonic()
    plain, traced = [], []
    while True:
        use_trace = trace and len(traced) < len(plain)
        trace_file = OUT / f"spans-{workload}-seed{seed}.jsonl" if use_trace else None
        rec = spawn(workload, seed, deadline, trace_file=trace_file)
        (traced if use_trace else plain).append(rec)
        done = len(plain) + len(traced)
        per_rep = (time.monotonic() - t0) / done
        enough = done >= MIN_REPS and (not trace or traced)
        # stop when another repetition would end more than half a repetition late
        if enough and time.monotonic() - t0 + per_rep / 2.0 > seconds:
            break
        if time.monotonic() + 2.0 * per_rep > deadline:
            if not enough:
                raise BenchError(f"{workload}: repetitions do not fit the time limit")
            break
    reps = plain + traced
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_record(),
        "repetitions": reps,
        "working_set": reps[0]["working_set"],
    }
    record["attempted"] = sum(r["attempted"] for r in reps)
    record["failed"] = sum(r["failed"] for r in reps)
    wall = _median([r["wall_s"] for r in plain])
    if not trace:
        metrics = {
            "wall_s": wall,
            "setup_s": _median([r["setup_s"] for r in reps]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(plain, traced, wall)
        units = PER_LAYER
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return record


def layer_metrics(plain, traced, untraced_wall):
    """Per-layer metrics: medians over the traced repetitions."""
    per_rep = []
    for rec in traced:
        t = rec["trace"]
        calls, secs, counts = t["calls"], t["seconds"], t["counts"]
        m = {f"{layer}.self_s": t["self_s"].get(layer, 0.0) for layer in LAYER_NAMES}
        m.update({f"{n}.calls": calls.get(n, 0) for n in SPAN_CALLS})
        m.update({f"{n}.s": secs.get(n, 0.0) for n in SPAN_SECONDS})
        m["semigroup.grid_model.builds"] = calls.get("semigroup.grid_model", 0)
        m["fft.calls"] = sum(v for k, v in calls.items() if k.startswith("fft."))
        m["fft.s"] = sum(v for k, v in secs.items() if k.startswith("fft."))
        m.update({k: counts.get(k, 0) for k in COUNTS})
        m.update({f"verify.{c}.s": rec["stages"].get(c, 0.0) for c in VERIFY_CHECKS})
        m["trace.wall_s"] = rec["wall_s"]
        m["trace.setup_s"] = secs.get("harness.setup", 0.0)
        m["trace.spans"] = t["spans"]
        per_rep.append(m)
    metrics = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
    metrics["process.cpu_s"] = _median([r["cpu_s"] for r in plain])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return metrics


def _print_record(rec):
    w = rec["workload"]
    n_plain = sum(1 for r in rec["repetitions"] if "trace" not in r)
    for name, m in rec["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    frac = rec["failed"] / rec["attempted"]
    print(f"{w} fail_frac {frac:.6g} ratio ({rec['failed']}/{rec['attempted']} operations)")
    print(f"{w} repetitions {n_plain} untraced, {len(rec['repetitions']) - n_plain} traced")
    for r in rec["repetitions"]:
        for failure in r["failures"]:
            print(f"{w} FAILED {failure}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pideq" / "__init__.py").is_file():
        print(f"no pideq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = measure(name, args.seed, args.seconds, bool(args.trace))
            path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(rec, indent=1) + "\n")
            _print_record(rec)
            records.append(rec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"machine": records[0]["machine"],
                      "working_set": {r["workload"]: r["working_set"] for r in records}}))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
