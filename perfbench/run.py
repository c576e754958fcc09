#!/usr/bin/env python3
"""Run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark executable and the serve.exe daemon from source
(into perfbench/_build), runs the workload, and prints as the last line
of stdout one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json declares for the mode (end_to_end with --trace 0,
per_layer with --trace 1). Spans, per-run reports and daemon sockets go
to perfbench/_out. Exits non-zero, printing no result, when the checkout
does not hold the repository's sources.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join("perfbench", "_build")
OUT_DIR = os.path.join("perfbench", "_out")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SERVE_EXE = os.path.join(BUILD_DIR, "default", "bin", "serve.exe")
SOURCES = ["dune-project", os.path.join("lib", "core", "dune"), os.path.join("bin", "serve.ml"), os.path.join("perfbench", "dune")]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in the working directory: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("not a source checkout (missing %s)" % ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "perfbench/main.exe", "bin/serve.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", build.returncode)
    os.makedirs(OUT_DIR, exist_ok=True)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--serve-exe", SERVE_EXE, "--out", OUT_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload overran %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("workload exited with %d" % run.returncode, run.returncode or 1)
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    absent = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if absent:
        fail("metrics missing from the run: %s" % ", ".join(absent), 3)
    metrics = {}
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            fail("metric %s in %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]), 3)
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
