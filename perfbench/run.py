#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload analyst --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
engine from ../src together with the benchmark program in perfbench/cpp (CMake,
RelWithDebInfo) under .bench_build/; later calls rebuild incrementally.
The workload runs in its own process. Build logs and the program's
human-readable summary go to stderr; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs twice, untraced and then traced, and the
metrics are the per-layer metrics: those derived from the traced run's
spans and counters (a layer the workload does not exercise reads 0) plus
trace.overhead.<metric>, the traced-minus-untraced difference of each
end-to-end metric. Spans are written to .bench_build/work/.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (sources missing, build failure, crash, timeout).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # all workload processes of one call, build excluded


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found under src/; run from a full checkout")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                                   stdout=sys.stderr, check=False)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", out_dir, "-j", jobs,
                             "--target", "cape_perfbench"],
                            stdout=sys.stderr, check=False)
    if result.returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "cape_perfbench")


def run_workload(binary, args, trace, work_dir, deadline):
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
               "--work-dir", work_dir]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("workload %s timed out" % args.workload)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if process.returncode not in (0, 1) or not lines:
        fail("workload %s exited with status %d" % (args.workload, process.returncode))
    return json.loads(lines[-1])


def checked(metrics, declared, what):
    """Returns `metrics` restricted to the declared names, units checked."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in metrics:
            fail("%s metric %s missing from the workload's output" % (what, name))
        if metrics[name]["unit"] != spec["unit"]:
            fail("%s metric %s has unit %s, declared %s"
                 % (what, name, metrics[name]["unit"], spec["unit"]))
        out[name] = {"value": metrics[name]["value"], "unit": spec["unit"]}
    extra = set(metrics) - set(out)
    if extra:
        fail("undeclared %s metrics: %s" % (what, ", ".join(sorted(extra))))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(manifest_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(manifest_path) as f:
        manifest = json.load(f)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        fail("unknown workload %s" % args.workload)

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(os.path.dirname(out_dir), "work")
    os.makedirs(work_dir, exist_ok=True)

    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_workload(binary, args, False, work_dir, deadline)
    end_to_end = checked(untraced["end_to_end"], manifest["end_to_end"], "end-to-end")
    runs = [untraced]
    if args.trace:
        traced = run_workload(binary, args, True, work_dir, deadline)
        runs.append(traced)
        traced_e2e = checked(traced["end_to_end"], manifest["end_to_end"], "end-to-end")
        layers = dict(traced["per_layer"])
        for name, entry in end_to_end.items():
            layers["trace.overhead." + name] = {
                "value": traced_e2e[name]["value"] - entry["value"], "unit": entry["unit"]}
        for spec in manifest["per_layer"]:
            # A layer this workload does not call did no work.
            layers.setdefault(spec["name"], {"value": 0, "unit": spec["unit"]})
        metrics = checked(layers, manifest["per_layer"], "per-layer")
    else:
        metrics = end_to_end

    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
