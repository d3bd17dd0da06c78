"""Self-test of the benchmark: metric names, exact counts, refusal without sources.

Run from the root of a source checkout (about two minutes):

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports, with
   the same units.
2. Two traced repetitions of each workload at the reference seed give the
   same call counts, contour nodes, node x bin products and Picard iterates,
   and these equal the values the seed commit gave: 1100
   ``correction_talbot`` calls and iterates [4, 4, 3, 3, 3] on
   ``global_solve``, 3000 ``resolvent_hat`` calls inside ``verify``'s
   backward-Euler oracle.
3. The layer self times of every traced repetition add up to its traced
   set-up and run regions.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.

Exits 1 and names each failed check; prints ``selftest passed`` otherwise.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run

EXPECTED = {
    "global_solve": {
        "calls": {"semigroup.correction_talbot": 1100, "cli.main": 1,
                  "fields.save_field": 6, "semigroup.correction_hat": 0},
        "iterations": [4, 4, 3, 3, 3],
    },
    "verify": {"calls": {"semigroup.resolvent_hat": 3004, "semigroup.correction_hat": 39},
               "oracle_resolvent_hat": 3000},
    "oneshot_io": {"calls": {"cli.main": 6, "fields.field_to_csv": 6,
                             "semigroup.correction_hat": 3, "semigroup.correction_talbot": 0}},
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, f"end_to_end {e2e} != {run.END_TO_END}")
    expect(layer == run.PER_LAYER,
           f"per_layer differs: {sorted(set(layer) ^ set(run.PER_LAYER))}")
    names = [w["name"] for w in spec["workloads"]]
    expect(set(names) <= set(run.WORKLOADS), f"unknown workloads in {names}")


def _oracle_resolvent_calls(span_file):
    spans = [json.loads(line) for line in Path(span_file).read_text().splitlines()]
    names = [s["name"] for s in spans]

    def under_oracle(i):
        while i >= 0:
            if names[i] == "semigroup.backward_euler_oracle":
                return True
            i = spans[i]["parent"]
        return False

    return sum(1 for i, n in enumerate(names)
               if n == "semigroup.resolvent_hat" and under_oracle(i))


def check_counts(workload):
    deadline = time.monotonic() + 600.0
    reps = []
    for k in range(2):
        span_file = run.OUT / f"selftest-{workload}-{k}.jsonl"
        rec = run.spawn(workload, 0, deadline, trace_file=span_file)
        expect(rec["failed"] == 0, f"{workload}: failed operations {rec['failures']}")
        t = rec["trace"]
        total = sum(t["self_s"].values())
        regions = t["seconds"]["harness.setup"] + t["seconds"]["harness.run"]
        expect(abs(total - regions) <= 1e-6 * regions,
               f"{workload}: self times {total} != traced regions {regions}")
        reps.append((rec, span_file))
    (a, fa), (b, fb) = reps
    ta, tb = a["trace"], b["trace"]
    expect(ta["calls"] == tb["calls"], f"{workload}: call counts differ between runs")
    for key in ("semigroup.contour_nodes", "semigroup.node_bins",
                "solver.picard_iterations", "fft.bytes"):
        expect(ta["counts"].get(key) == tb["counts"].get(key), f"{workload}: {key} differs")
    expect(ta["iterations"] == tb["iterations"], f"{workload}: Picard iterates differ")
    want = EXPECTED[workload]
    for name, n in want["calls"].items():
        expect(ta["calls"].get(name, 0) == n,
               f"{workload}: {name} calls {ta['calls'].get(name, 0)}, expected {n}")
    if "iterations" in want:
        expect(ta["iterations"] == want["iterations"],
               f"{workload}: iterates {ta['iterations']}, expected {want['iterations']}")
    if "oracle_resolvent_hat" in want:
        got = [_oracle_resolvent_calls(f) for f in (fa, fb)]
        expect(got == [want["oracle_resolvent_hat"]] * 2,
               f"{workload}: oracle resolvent_hat calls {got}")
    print(f"{workload}: counts checked", flush=True)


def check_refuses_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "verify", "--seed", "1", "--seconds", "5",
                           "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    printed_result = '"correct"' in proc.stdout
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not printed_result,
           f"bare directory: exit {proc.returncode}, result printed {printed_result}")


def main():
    check_benchmark_json()
    check_refuses_without_sources()
    for workload in run.WORKLOADS:
        check_counts(workload)
    if failures:
        print(f"selftest failed: {len(failures)} check(s)")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
