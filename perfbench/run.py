#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/ (dune,
release profile); the program's last line of stdout is the result object.
Exits 2 without a result when the checkout lacks the sources to build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")
# The program stops measuring after --seconds; this bounds a hung run.
RUN_TIMEOUT_S = 170
NEEDED = ["dune-project", "lib", os.path.join("perfbench", "dune")]


def main():
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: cannot build, missing " + ", ".join(missing), file=sys.stderr)
        return 2
    # Planner settings come from the workload alone: one domain, no
    # ambient RESBM_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RESBM_")}
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "--profile", "release",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
