#!/usr/bin/env python3
"""Run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload dnn-simba|tensor-simba|serve-mix \
        --seed N --seconds S --trace 0|1

Builds the benchmark executable (perfbench/bench.ml) with dune, runs it,
and passes its output through. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; its metric names
are checked against BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1) before it is printed. Exits non-zero, without a result line,
when the build fails, the benchmark fails, or the names disagree.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not installed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at the checkout root: the program to measure is missing")
    i = argv.index("--trace") if "--trace" in argv else -1
    expected = expected_metrics(0 <= i < len(argv) - 1 and argv[i + 1] == "1")
    build = subprocess.run(
        dune() + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    run = subprocess.run([exe] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if run.returncode != 0:
        fail("benchmark exited with code %d" % run.returncode, run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line is not a JSON result")
    got = set(result.get("metrics", {}))
    if got != expected:
        fail("metric names differ from BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(expected - got), sorted(got - expected)))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
