#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (against the libraries in the same
checkout), runs one workload in its own process, relays its report lines
and prints, as the last line, the result JSON after checking that it
carries exactly the metrics BENCHMARK.json declares for the mode.
Exits non-zero, without a result line, if anything fails.
"""
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Scratch space inside the checkout: the cluster workload's lock-witness
# files go here instead of the system temporary directory.
TMP_DIR = ".perfbench_tmp"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def trace_mode(argv):
    for i, a in enumerate(argv):
        if a == "--trace" and i + 1 < len(argv):
            return argv[i + 1]
    return None


def main():
    argv = sys.argv[1:]
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if not os.path.isdir("lib") or not os.path.isfile("dune-project"):
        fail("run from the root of a checkout of the repository")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build exceeded %d s" % BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    os.makedirs(TMP_DIR, exist_ok=True)
    env["TMPDIR"] = os.path.abspath(TMP_DIR)
    try:
        run = subprocess.run([exe] + argv, stdout=subprocess.PIPE, env=env,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    declared = spec["per_layer"] if trace_mode(argv) == "1" else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: extra %s, missing %s, units %s" % (
            sorted(set(got) - set(want)), sorted(set(want) - set(got)),
            sorted(k for k in want if k in got and got[k] != want[k])))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
